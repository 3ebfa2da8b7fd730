"""The on-board ZBT SRAM: six independent 32-bit banks.

Paper section 3: the ADM XRC-II board carries *"a ZBT SRAM segmented
memory (6 Mbytes) made up of 6 independent banks with one write-read 32
bits long port each"*.  Pixels are 64 bits, so the engine stores the
lower (colour) and upper (meta) words *at the same address in two sibling
banks* -- any pixel is reachable in a single memory cycle.

The model tracks three metrics per run:

* ``word_accesses`` -- individual 32-bit port operations;
* ``access_cycles`` -- memory cycles, where simultaneous operations on
  *different* banks count once (this is the hardware column of Table 2's
  underlying cycle behaviour);
* ``pixel_ops`` -- pixel-granular access operations (one per pixel fetch
  or store, however many banks it touched) -- the metric Table 2 reports.

The ZBT SSRAM parts on the ADM XRC-II are rated well above the 66 MHz
design clock, so the model clocks the memory domain at twice the engine
clock: a bank port accepts up to **two** operations per engine cycle
(:data:`BANK_PORT_OPS_PER_CYCLE`).  Exceeding that raises, so scheduling
bugs surface in tests instead of silently over-pumping a port.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..image.formats import ImageFormat

#: Number of independent ZBT banks on the ADM XRC-II board.
BANK_COUNT = 6

#: Words per bank: 6 MBytes total / 6 banks / 4 bytes.
BANK_WORDS = (6 * 1024 * 1024) // BANK_COUNT // 4

#: Bank pair holding input image 0 (lower word, upper word).
IMAGE0_BANKS = (0, 1)

#: Bank pair holding input image 1 in inter mode.
IMAGE1_BANKS = (2, 3)

#: Banks holding the result blocks (Res_block_A / Res_block_B).
RESULT_BANKS = (4, 5)

#: Port operations one bank accepts per engine cycle (the ZBT chips run
#: in a double-rate clock domain relative to the 66 MHz design clock).
BANK_PORT_OPS_PER_CYCLE = 2


class BankPortConflict(RuntimeError):
    """Two operations hit the same single-port bank in one cycle."""


@dataclass
class BankStats:
    reads: int = 0
    writes: int = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes


class ZBTMemory:
    """Six single-port 32-bit banks with cycle-conflict checking.

    Accesses are grouped per engine cycle: callers open a cycle with
    :meth:`begin_cycle` (the engine does this once per clock) and then
    issue reads/writes; two operations on the same bank inside one cycle
    raise :class:`BankPortConflict`.
    """

    def __init__(self) -> None:
        self._banks = [np.zeros(BANK_WORDS, dtype=np.uint32)
                       for _ in range(BANK_COUNT)]
        self.stats: List[BankStats] = [BankStats() for _ in range(BANK_COUNT)]
        self.word_accesses = 0
        self.access_cycles = 0
        self.pixel_ops = 0
        self._cycle_ops: Dict[int, int] = {}
        self._cycle_had_access = False

    # -- cycle bookkeeping ----------------------------------------------------

    def begin_cycle(self) -> None:
        """Start a new engine cycle (resets the per-cycle port budgets)."""
        self._cycle_ops = {}
        self._cycle_had_access = False

    def bank_free(self, bank: int, ops: int = 1) -> bool:
        """Whether ``bank`` still has capacity for ``ops`` operations this
        cycle.

        Components call this before issuing, implementing the priority
        arbitration between DMA and the transmission units (higher-priority
        components tick first each cycle and thereby win the port).
        """
        if not 0 <= bank < BANK_COUNT:
            raise IndexError(f"bank {bank} outside 0..{BANK_COUNT - 1}")
        return (self._cycle_ops.get(bank, 0) + ops
                <= BANK_PORT_OPS_PER_CYCLE)

    def banks_free(self, banks, ops: int = 1) -> bool:
        """Whether every bank of ``banks`` has capacity for ``ops`` more
        operations this cycle."""
        return all(self.bank_free(bank, ops) for bank in banks)

    def _touch(self, bank: int) -> None:
        if not 0 <= bank < BANK_COUNT:
            raise IndexError(f"bank {bank} outside 0..{BANK_COUNT - 1}")
        used = self._cycle_ops.get(bank, 0)
        if used >= BANK_PORT_OPS_PER_CYCLE:
            raise BankPortConflict(
                f"bank {bank} exceeded {BANK_PORT_OPS_PER_CYCLE} port "
                f"operations in one cycle")
        self._cycle_ops[bank] = used + 1
        self.word_accesses += 1
        if not self._cycle_had_access:
            self._cycle_had_access = True
            self.access_cycles += 1

    # -- word access ----------------------------------------------------------

    def read(self, bank: int, address: int) -> int:
        """Read one 32-bit word (one port operation this cycle)."""
        self._touch(bank)
        self.stats[bank].reads += 1
        return int(self._banks[bank][address])

    def write(self, bank: int, address: int, value: int) -> None:
        """Write one 32-bit word (one port operation this cycle)."""
        self._touch(bank)
        self.stats[bank].writes += 1
        self._banks[bank][address] = value & 0xFFFFFFFF

    def count_pixel_op(self) -> None:
        """Record one pixel-granular access operation (Table 2's metric)."""
        self.pixel_ops += 1

    # -- batched (fast-path) access -------------------------------------------

    def bulk_write(self, bank: int, start_address: int,
                   values: np.ndarray) -> None:
        """Write a contiguous run of words in one call (fast-path batch).

        Counts every word exactly like :meth:`write` but bypasses the
        per-cycle port budget: the fast-path stepper only issues bulk
        operations for windows whose schedulability it has already
        proven, so the per-cycle conflict check is vacuous there.
        """
        count = len(values)
        if count == 0:
            return
        self._banks[bank][start_address:start_address + count] = values
        self.stats[bank].writes += count
        self.word_accesses += count

    def bulk_read(self, bank: int, start_address: int,
                  count: int) -> np.ndarray:
        """Read a contiguous run of words in one call (fast-path batch).

        Counting mirrors :meth:`read`; see :meth:`bulk_write` for why the
        port budget does not apply.
        """
        if count:
            self.stats[bank].reads += count
            self.word_accesses += count
        return self._banks[bank][start_address:start_address + count]

    def count_accesses(self, bank: int, reads: int = 0,
                       writes: int = 0) -> None:
        """Account accesses whose data moved through a bulk side channel
        (e.g. the transmission units' frame-array fills)."""
        self.stats[bank].reads += reads
        self.stats[bank].writes += writes
        self.word_accesses += reads + writes

    def count_access_cycles(self, cycles: int) -> None:
        """Account ``cycles`` engine cycles that each performed at least
        one memory access (the fast path adds these per batched window)."""
        self.access_cycles += cycles

    def count_pixel_ops(self, count: int) -> None:
        """Batched form of :meth:`count_pixel_op`."""
        self.pixel_ops += count

    # -- uncounted debug access ----------------------------------------------

    def bulk_poke(self, bank: int, start_address: int,
                  values: np.ndarray) -> None:
        """Uncounted contiguous write, for resident-frame preloads."""
        self._banks[bank][start_address:start_address + len(values)] = values

    def peek(self, bank: int, address: int) -> int:
        """Uncounted word read, for assertions in tests."""
        return int(self._banks[bank][address])

    def poke(self, bank: int, address: int, value: int) -> None:
        """Uncounted word write, for test setup."""
        self._banks[bank][address] = value & 0xFFFFFFFF


@dataclass(frozen=True)
class ZBTLayout:
    """Address map of one call (the Figure 3 memory distribution).

    Input pixels live split across a bank pair: the lower word of pixel
    ``(x, y)`` in the pair's first bank, the upper word at the same
    address of the second bank -- one pixel per memory cycle.

    * **Intra mode** (one input image): strips alternate between *block A*
      (bank pair 0/1) and *block B* (bank pair 2/3), so the DMA writing
      strip *n+1* never contends with the transmission unit reading strip
      *n* -- "the strip stored in block_A is processed while the next
      strip is transferred to block_B and vice versa".
    * **Inter mode** (two input images): image 0 owns pair 0/1, image 1
      owns pair 2/3; strip DMA jobs interleave the images, so while one
      image's strip streams in, the other image's transmission unit has
      its pair to itself.

    Results go to the result banks (Res_block_A = bank 4, Res_block_B =
    bank 5), the two words of a pixel stored consecutively in the *same*
    bank so the PC reads them back properly ordered; the bank switch
    happens exactly once, when readback becomes possible.
    """

    fmt: ImageFormat
    #: Number of input images (1 = intra layout, 2 = inter layout).
    images_in: int = 1

    def __post_init__(self) -> None:
        if self.images_in not in (1, 2):
            raise ValueError("layout supports one or two input images")

    @property
    def strip_words(self) -> int:
        """Words per strip per bank (16 lines of one 32-bit word/pixel)."""
        from ..image.formats import STRIP_LINES
        return STRIP_LINES * self.fmt.width

    def input_banks(self, image: int, strip_index: int) -> Tuple[int, int]:
        """(lower, upper) banks holding ``strip_index`` of input ``image``."""
        if self.images_in == 1:
            if image != 0:
                raise IndexError("intra layout has a single input image")
            return IMAGE1_BANKS if strip_index % 2 else IMAGE0_BANKS
        if image == 0:
            return IMAGE0_BANKS
        if image == 1:
            return IMAGE1_BANKS
        raise IndexError(f"input image index {image} outside 0..1")

    def input_address(self, x: int, y: int) -> int:
        """Word address of input pixel ``(x, y)`` within its bank.

        Intra: strips of the same parity stack inside their block's bank
        pair.  Inter: the whole image lives linearly in its own pair.
        """
        if not self.fmt.contains(x, y):
            raise IndexError(f"({x}, {y}) outside {self.fmt.name}")
        from ..image.formats import STRIP_LINES
        if self.images_in == 2:
            return y * self.fmt.width + x
        strip_index = y // STRIP_LINES
        slot = strip_index // 2
        line_in_strip = y % STRIP_LINES
        return slot * self.strip_words + line_in_strip * self.fmt.width + x

    def result_bank(self, switch_done: bool) -> int:
        """The active result bank: Res_block_A before the single switch,
        Res_block_B afterwards."""
        return RESULT_BANKS[1] if switch_done else RESULT_BANKS[0]

    def result_address(self, pixel_index: int, word: int) -> int:
        """Word address of result pixel ``pixel_index``'s ``word`` (0=lower,
        1=upper): consecutive words of the same bank."""
        if word not in (0, 1):
            raise IndexError("word must be 0 (lower) or 1 (upper)")
        address = pixel_index * 2 + word
        if address >= BANK_WORDS:
            raise IndexError(
                f"result pixel {pixel_index} overflows a result bank")
        return address

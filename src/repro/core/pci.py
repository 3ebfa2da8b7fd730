"""The PC <-> board path: 32-bit PCI bus with DMA and interrupts.

Paper section 3: *"The communication between PC and the coprocessor is
interrupt oriented and happens through the PCI bus which also has a width
of 32 bits"*, and section 4.1 fixes the rate: 66 MHz, which the paper
identifies as the bottleneck of the whole system.

The model is transaction-level: one 32-bit word per bus cycle while a DMA
job is active, half-duplex (input and output jobs never overlap), plus a
fixed per-job setup/interrupt overhead.  Word delivery is a callback so
the image level controller decides where words come from / go to (ZBT
blocks, scalar result register, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple
from collections import deque

#: PCI clock in Hz (66 MHz, section 4.1).
PCI_CLOCK_HZ = 66_000_000

#: Bus width in bits.
PCI_WORD_BITS = 32

#: Peak PCI bandwidth in bytes/second (66 MHz x 4 bytes = 264 MB/s, the
#: per-ZBT-bank figure of section 4.1).
PCI_PEAK_BYTES_PER_SECOND = PCI_CLOCK_HZ * (PCI_WORD_BITS // 8)

#: Default DMA setup + interrupt service overhead per job, in bus cycles.
#: Calibrated so whole-call times land near Table 3 (see DESIGN.md).
DEFAULT_JOB_OVERHEAD_CYCLES = 64


@dataclass
class DMAJob:
    """One DMA transfer of ``total_words`` 32-bit words.

    ``transfer_word(word_index)`` performs the side effect of moving word
    ``word_index`` and returns ``True``; returning ``False`` means the
    word is not ready yet (e.g. the result word has not been written to
    the ZBT) and the bus idles this cycle.
    """

    label: str
    total_words: int
    transfer_word: Callable[[int], bool]
    to_board: bool = True
    words_done: int = 0
    overhead_remaining: int = 0
    #: Optional batched form of ``transfer_word``: ``bulk_transfer(start,
    #: count)`` performs the side effects of words ``[start, start+count)``
    #: in one call.  The fast-path stepper uses it for runs of cycles it
    #: has proven stall-free; the final word of a job always goes through
    #: ``transfer_word`` so completion callbacks fire from real code.
    bulk_transfer: Optional[Callable[[int, int], None]] = None
    #: The ZBT bank pair an input job writes (for the fast path's
    #: DMA/transmission-unit contention planning).
    banks: Optional[Tuple[int, int]] = None

    @property
    def complete(self) -> bool:
        return self.words_done >= self.total_words


@dataclass
class Interrupt:
    """An interrupt raised towards the host."""

    cycle: int
    name: str


class PCIBus:
    """A half-duplex, one-word-per-cycle DMA engine with a job queue."""

    def __init__(self,
                 job_overhead_cycles: int = DEFAULT_JOB_OVERHEAD_CYCLES
                 ) -> None:
        self.job_overhead_cycles = job_overhead_cycles
        self._queue: Deque[DMAJob] = deque()
        self._active: Optional[DMAJob] = None
        self.interrupts: List[Interrupt] = []
        self.busy_cycles = 0
        self.stall_cycles = 0
        self.overhead_cycles = 0
        self.idle_cycles = 0
        self.words_to_board = 0
        self.words_to_host = 0

    # -- job management -------------------------------------------------------

    def enqueue(self, job: DMAJob) -> None:
        """Append a job; jobs run strictly in order (half-duplex bus)."""
        job.overhead_remaining = self.job_overhead_cycles
        self._queue.append(job)

    @property
    def active_job(self) -> Optional[DMAJob]:
        return self._active

    @property
    def pending_jobs(self) -> int:
        return len(self._queue) + (1 if self._active else 0)

    @property
    def idle(self) -> bool:
        """Whether the bus has no work at all (the paper's "PCI bus is
        free" condition gating result readback)."""
        return self._active is None and not self._queue

    def raise_interrupt(self, cycle: int, name: str) -> None:
        self.interrupts.append(Interrupt(cycle, name))

    # -- cycle behaviour ------------------------------------------------------

    def tick(self, cycle: int) -> Optional[Tuple[DMAJob, int]]:
        """Advance one bus cycle.

        Returns ``(job, word_index)`` when a word moved, else ``None``.
        Raises the job's completion interrupt when its last word moves.
        """
        if self._active is None:
            if not self._queue:
                self.idle_cycles += 1
                return None
            self._active = self._queue.popleft()
        job = self._active
        if job.overhead_remaining > 0:
            job.overhead_remaining -= 1
            self.overhead_cycles += 1
            return None
        if not job.transfer_word(job.words_done):
            self.stall_cycles += 1
            return None
        index = job.words_done
        job.words_done += 1
        self.busy_cycles += 1
        if job.to_board:
            self.words_to_board += 1
        else:
            self.words_to_host += 1
        if job.complete:
            self.raise_interrupt(cycle, f"dma_done:{job.label}")
            self._active = None
        return job, index

    # -- batched (fast-path) behaviour ----------------------------------------

    def activate_next_job(self) -> Optional[DMAJob]:
        """Promote the queue head to active without burning a cycle.

        :meth:`tick` pops and processes the head within the same cycle, so
        doing the pop eagerly at a batch-window boundary changes nothing
        observable; it lets the fast path plan against the real job.
        """
        if self._active is None and self._queue:
            self._active = self._queue.popleft()
        return self._active

    def fast_advance_idle(self, cycles: int) -> None:
        self.idle_cycles += cycles

    def fast_advance_overhead(self, cycles: int) -> None:
        job = self._active
        assert job is not None and job.overhead_remaining >= cycles
        job.overhead_remaining -= cycles
        self.overhead_cycles += cycles

    def fast_advance_stalled(self, cycles: int) -> None:
        """The active job is waiting on data (e.g. the scalar result)."""
        self.stall_cycles += cycles

    def fast_advance_words(self, cycles: int) -> None:
        """Move ``cycles`` words of the active job in one batch."""
        job = self._active
        assert job is not None and job.overhead_remaining == 0
        assert job.words_done + cycles < job.total_words
        if job.bulk_transfer is not None:
            job.bulk_transfer(job.words_done, cycles)
        job.words_done += cycles
        self.busy_cycles += cycles
        if job.to_board:
            self.words_to_board += cycles
        else:
            self.words_to_host += cycles

    # -- reporting ------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        return (self.words_to_board + self.words_to_host) * 4

    def utilization(self) -> float:
        """Fraction of elapsed bus cycles spent moving words."""
        elapsed = (self.busy_cycles + self.stall_cycles
                   + self.overhead_cycles + self.idle_cycles)
        if elapsed == 0:
            return 0.0
        return self.busy_cycles / elapsed

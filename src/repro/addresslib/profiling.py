"""Instruction-level profiling of AddressLib calls.

The paper's motivation (section 1) comes from instruction profiling of a
video object segmentation algorithm: *pixel address calculations* dominate
the low-level work, which is why a coprocessor that accelerates addressing
(rather than a fixed pixel pipeline) can reach an estimated 30x on the
offloaded portion.

This module defines the profile vocabulary used everywhere else:

* :class:`InstructionCost` -- per-pixel instruction counts of one
  operation, split into classes (address arithmetic, loads, stores, ALU,
  multiplies, branches);
* :class:`OpProfile` -- an accumulated profile over whole calls, with the
  addressing / processing split the paper's estimate rests on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Tuple

#: Instruction classes tracked by the profiler.  ``addr`` is pixel address
#: arithmetic (index computation, pointer stepping, bounds/border checks
#: feeding addresses); ``branch`` covers loop and border control flow.
INSTRUCTION_CLASSES = ("addr", "load", "store", "alu", "mul", "branch")

#: Classes the AddressEngine removes from the host CPU: address arithmetic,
#: the loads/stores it performs in parallel hardware, and the scan-control
#: branches.  ``alu``/``mul`` pixel processing is *also* offloaded in the
#: coprocessor, but the paper's factor-30 bound treats the addressing share
#: as the optimisation target; see :meth:`OpProfile.addressing_fraction`.
ADDRESSING_CLASSES = ("addr", "load", "store", "branch")

#: Classes that are pure pixel processing.
PROCESSING_CLASSES = ("alu", "mul")


@dataclass(frozen=True)
class InstructionCost:
    """Per-unit instruction counts for one operation.

    "Per unit" is per processed pixel unless stated otherwise by the op.
    Costs are in *instructions*, not cycles -- the CPU model in
    :mod:`repro.perf.cpu_model` maps classes to cycles.
    """

    addr: float = 0.0
    load: float = 0.0
    store: float = 0.0
    alu: float = 0.0
    mul: float = 0.0
    branch: float = 0.0

    def scaled(self, factor: float) -> "InstructionCost":
        """All classes multiplied by ``factor``."""
        return InstructionCost(**{name: getattr(self, name) * factor
                                  for name in INSTRUCTION_CLASSES})

    def plus(self, other: "InstructionCost") -> "InstructionCost":
        """Class-wise sum."""
        return InstructionCost(**{name: getattr(self, name)
                                  + getattr(other, name)
                                  for name in INSTRUCTION_CLASSES})

    @property
    def total(self) -> float:
        return sum(getattr(self, name) for name in INSTRUCTION_CLASSES)

    def as_dict(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in INSTRUCTION_CLASSES}


#: The zero cost, for ops that contribute nothing to a class.
ZERO_COST = InstructionCost()


@dataclass
class OpProfile:
    """An accumulated instruction profile over one or more AddressLib calls.

    A profile is mutable until :meth:`frozen` copies it into a read-only
    one -- what a logged :class:`~repro.addresslib.library.CallRecord`
    holds, since one record is shared by every call of its geometry.
    """

    counts: Dict[str, float] = field(
        default_factory=lambda: {name: 0.0 for name in INSTRUCTION_CLASSES})
    calls: int = 0

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(self.__dict__.get("counts"), MappingProxyType):
            raise AttributeError(
                f"cannot set {name!r}: the profile is read-only")
        object.__setattr__(self, name, value)

    def frozen(self) -> "OpProfile":
        """A read-only copy (``self`` when already read-only): its counts
        sit behind a mapping proxy and none of its attributes can be
        set, so accumulating into it raises."""
        if isinstance(self.counts, MappingProxyType):
            return self
        copy = OpProfile(counts=dict(self.counts), calls=self.calls)
        copy.counts = MappingProxyType(copy.counts)  # type: ignore[assignment]
        return copy

    def add_cost(self, cost: InstructionCost, units: float = 1.0) -> None:
        """Accumulate ``cost`` applied to ``units`` processing units."""
        for name in INSTRUCTION_CLASSES:
            self.counts[name] += getattr(cost, name) * units

    def add_call(self) -> None:
        """Record that one AddressLib call completed."""
        self.calls += 1

    def merge(self, other: "OpProfile") -> None:
        """Fold another profile into this one."""
        for name in INSTRUCTION_CLASSES:
            self.counts[name] += other.counts[name]
        self.calls += other.calls

    @property
    def total_instructions(self) -> float:
        return sum(self.counts.values())

    def class_total(self, classes: Iterable[str]) -> float:
        return sum(self.counts[name] for name in classes)

    @property
    def addressing_instructions(self) -> float:
        """Instructions in the addressing-dominated classes."""
        return self.class_total(ADDRESSING_CLASSES)

    @property
    def processing_instructions(self) -> float:
        """Instructions in the pure pixel-processing classes."""
        return self.class_total(PROCESSING_CLASSES)

    @property
    def addressing_fraction(self) -> float:
        """Share of instructions spent on addressing (0 when empty)."""
        total = self.total_instructions
        if total == 0:
            return 0.0
        return self.addressing_instructions / total

    def amdahl_speedup_bound(self, offloadable_fraction: float = None,
                             accel: float = float("inf")) -> float:
        """Maximum whole-algorithm speedup if the offloadable fraction runs
        ``accel`` times faster (Amdahl's law).

        With the default infinite acceleration this is the paper's style of
        bound: if the low-level (offloadable) part is fraction ``f`` of the
        work and becomes free, the bound is ``1 / (1 - f)``.  The paper
        estimates 30x for its segmentation workload, i.e. roughly 97 % of
        instructions sit in the offloadable low-level part.
        """
        fraction = (self.addressing_fraction if offloadable_fraction is None
                    else offloadable_fraction)
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction {fraction} outside [0, 1]")
        serial = 1.0 - fraction
        if accel == float("inf"):
            if serial == 0.0:
                return float("inf")
            return 1.0 / serial
        return 1.0 / (serial + fraction / accel)

    def reset(self) -> None:
        for name in INSTRUCTION_CLASSES:
            self.counts[name] = 0.0
        self.calls = 0

    def snapshot(self) -> Dict[str, float]:
        result = dict(self.counts)
        result["calls"] = self.calls
        result["total"] = self.total_instructions
        result["addressing_fraction"] = self.addressing_fraction
        return result


# ---------------------------------------------------------------------------
# Access-count validation
# ---------------------------------------------------------------------------

def diff_access_snapshots(expected: Mapping[str, int],
                          measured: Mapping[str, int]
                          ) -> Dict[str, Tuple[int, int]]:
    """Keys whose tallies differ: ``name -> (expected, measured)``.

    Both arguments are snapshot-shaped mappings (the format of
    :meth:`repro.image.planar.AccessCounter.snapshot` and of
    :meth:`~repro.addresslib.executor.SoftwareCostModel.intra_counts_exact`).
    Keys present on only one side count as a mismatch against zero.  An
    empty result means the access predictions validate exactly -- this
    is the hook the strip executor's ``validate`` mode and the
    equivalence tests both check.
    """
    mismatches: Dict[str, Tuple[int, int]] = {}
    for key in sorted(set(expected) | set(measured)):
        want = int(expected.get(key, 0))
        got = int(measured.get(key, 0))
        if want != got:
            mismatches[key] = (want, got)
    return mismatches


def format_access_mismatches(mismatches: Mapping[str, Tuple[int, int]]
                             ) -> str:
    """One-line rendering of a :func:`diff_access_snapshots` result."""
    return "; ".join(f"{key}: expected {want}, measured {got}"
                     for key, (want, got) in sorted(mismatches.items()))

"""Program-level scheduling rules (SCH001).

The pipelined call scheduler (:mod:`repro.host.scheduler`) can only
shard calls that do not depend on each other.  A program whose
dependency graph is one straight chain serialises completely: every
wavefront holds exactly one step, and a pool of engine workers buys
nothing.  SCH001 surfaces that shape as an informational finding so an
author chasing throughput knows the program -- not the scheduler -- is
the limit.

The rule describes the program's own shape, read from
:func:`~repro.addresslib.program.dependency_levels`; the scheduler
does not run programs, only batches whose caller declares them
independent.
"""

from __future__ import annotations

from typing import List

from ..addresslib.program import (CallProgram, critical_path_length,
                                  dependency_levels,
                                  exploitable_parallelism)
from .diagnostics import Diagnostic
from .rules import _diag


def scheduling_rules(program: CallProgram) -> List[Diagnostic]:
    """Flag programs with zero exploitable call parallelism.

    Single-step programs are exempt: the driver pre-flights every call
    as a one-step program, and a lone call has nothing to overlap with
    by construction.
    """
    if len(program.steps) < 2:
        return []
    levels = dependency_levels(program)
    if any(len(level) > 1 for level in levels):
        return []
    return [_diag(
        "SCH001",
        f"dependency graph fully serialises: all {len(program.steps)} "
        f"steps form one chain (critical path "
        f"{critical_path_length(program)}, exploitable parallelism "
        f"{exploitable_parallelism(program):.2f}); a call scheduler "
        f"cannot overlap any of these calls")]

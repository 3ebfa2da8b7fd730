"""AddressCheck: static verification of AddressLib call programs.

The paper's premise is that structured pixel addressing is *statically
analysable* -- the engine only works because access patterns are known
before a call runs.  This package takes that seriously on the host side:
it checks a call program against the engine model without simulating a
cycle, across four rule layers (configuration/capacity, dataflow
hazards, liveness, fast-path prediction).  See ``docs/ANALYSIS.md`` for
the rule catalogue.

Importing this package does not load the cycle-level stepper:
:class:`~repro.core.errors.EngineDeadlock` is re-exported from the
neutral errors module.
"""

from ..core.errors import EngineDeadlock
from .analyzer import (analyze_config, analyze_program, check_program,
                       predict_fast_path, step_config)
from .diagnostics import (AnalysisReport, Diagnostic, FastPathPrediction,
                          ProgramCheckError, Severity)
from .params import EngineParams
from .rules import RULES, Rule
from .service import critical_path_cycles, step_cycles

# NOTE: .sanitize is intentionally NOT imported here -- the runtime
# sanitizer loads lazily (scheduler/service/CLI) so that importing the
# analysis package stays free of host-transport side effects.

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "EngineDeadlock",
    "EngineParams",
    "FastPathPrediction",
    "ProgramCheckError",
    "RULES",
    "Rule",
    "Severity",
    "analyze_config",
    "analyze_program",
    "check_program",
    "critical_path_cycles",
    "predict_fast_path",
    "step_config",
    "step_cycles",
]

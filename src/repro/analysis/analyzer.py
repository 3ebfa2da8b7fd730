"""The AddressCheck analyzer: programs in, diagnostics out.

Entry points:

* :func:`analyze_program` -- check a traced or hand-built
  :class:`~repro.addresslib.program.CallProgram`;
* :func:`analyze_config` -- check one
  :class:`~repro.core.config.EngineConfig` (wrapped as a single-step
  program);
* :func:`predict_fast_path` -- the static mirror of
  ``EngineRunResult.fast_path_used``;
* :func:`check_program` -- analyze and raise
  :class:`~repro.analysis.diagnostics.ProgramCheckError` on errors (the
  driver's pre-flight hook).

No simulated cycle runs anywhere below: everything is computed from the
program's structure and :mod:`repro.core.constraints`.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Union

from ..addresslib.program import CallProgram, ProgramStep
from ..core.config import EngineConfig, EngineConfigError
from ..core.constraints import fast_path_blockers
from .diagnostics import (AnalysisReport, Diagnostic, FastPathPrediction,
                          ProgramCheckError)
from .hazards import dataflow_rules
from .params import EngineParams
from .rules import _diag, capacity_rules, fast_path_rules, liveness_rules
from .scheduling import scheduling_rules
from .service import service_rules

_DEFAULT_PARAMS = EngineParams()


def step_config(step: ProgramStep) -> EngineConfig:
    """Build the :class:`EngineConfig` a step would dispatch as.

    Raises :class:`EngineConfigError` exactly when the engine's own
    validation would -- the analyzer reports that as rule ``CFG001``
    instead of propagating.
    """
    return EngineConfig(
        mode=step.mode, op=step.op, fmt=step.fmt, channels=step.channels,
        reduce_to_scalar=step.reduce_to_scalar,
        requires_full_frames=step.requires_full_frames)


def _with_context(findings: List[Diagnostic],
                  step: ProgramStep) -> List[Diagnostic]:
    location = str(step.location) if step.location is not None else None
    return [dataclasses.replace(d, step_index=step.index,
                                step_label=step.describe,
                                location=location)
            for d in findings]


def analyze_program(program: CallProgram,
                    params: Optional[EngineParams] = None
                    ) -> AnalysisReport:
    """Run every rule layer over ``program``."""
    params = params or _DEFAULT_PARAMS
    report = AnalysisReport(program_name=program.name)
    report.extend(dataflow_rules(program))
    report.extend(scheduling_rules(program))
    report.extend(service_rules(program, params))
    for step in program.steps:
        try:
            config = step_config(step)
        except EngineConfigError as exc:
            report.extend(_with_context([_diag("CFG001", str(exc))], step))
            continue
        findings = (capacity_rules(config, params)
                    + liveness_rules(config, params)
                    + fast_path_rules(config, params))
        report.extend(_with_context(findings, step))
    return report


def analyze_config(config: EngineConfig,
                   params: Optional[EngineParams] = None,
                   name: str = "call",
                   resident: Optional[Sequence[bool]] = None
                   ) -> AnalysisReport:
    """Check one already-built call configuration."""
    return analyze_program(
        CallProgram.single(config, name=name, resident=resident), params)


def predict_fast_path(config: EngineConfig,
                      params: Optional[EngineParams] = None
                      ) -> FastPathPrediction:
    """Statically predict ``EngineRunResult.fast_path_used``.

    Shares :func:`repro.core.constraints.fast_path_blockers` with the
    engine's dispatch, so prediction and execution cannot drift; tests
    hold the two equal over the full equivalence corpus.
    """
    params = params or _DEFAULT_PARAMS
    reasons = tuple(fast_path_blockers(
        config.op.engine_cycles, config.fmt.strips,
        params.plc_ticks_per_cycle, params.input_txu_ticks_per_cycle))
    if not params.fast_path:
        reasons = ("disabled",) + reasons
    return FastPathPrediction(eligible=not reasons, reasons=reasons)


def check_program(program: Union[CallProgram, EngineConfig],
                  params: Optional[EngineParams] = None) -> AnalysisReport:
    """Analyze; raise :class:`ProgramCheckError` if any error remains."""
    if isinstance(program, EngineConfig):
        report = analyze_config(program, params)
    else:
        report = analyze_program(program, params)
    if not report.ok:
        raise ProgramCheckError(report)
    return report

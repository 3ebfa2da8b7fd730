"""Per-call rules: configuration, capacity, liveness, fast-path.

Every rule inspects one :class:`~repro.core.config.EngineConfig` (plus
the :class:`~repro.analysis.params.EngineParams` it would run under) and
yields :class:`~repro.analysis.diagnostics.Diagnostic` findings.  The
program-level dataflow rules live in :mod:`repro.analysis.hazards`;
the transport, residency and pool rules are checked on the live stack
by the runtime sanitizer (:mod:`repro.analysis.sanitize`).

Rule ids are stable: tests and downstream tooling key on them.  The
catalogue (:data:`RULES`) is what ``repro-check --list-rules`` and
``docs/ANALYSIS.md`` render.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..addresslib.addressing import MAX_NEIGHBOURHOOD_LINES, AddressingMode
from ..addresslib.ops import IntraOp
from ..core.config import EngineConfig
from ..core.constraints import (FALLBACK_OP_LATENCY, FALLBACK_SINGLE_STRIP,
                                FALLBACK_TICK_RATES, FAST_PATH_MAX_OP_CYCLES,
                                FAST_PATH_MIN_STRIPS, RESULT_BANK_PIXELS,
                                default_max_cycles, fast_path_blockers,
                                input_bank_words_needed, min_call_cycles)
from ..image.formats import STRIP_LINES
from .diagnostics import Diagnostic, Severity
from .params import EngineParams


@dataclass(frozen=True)
class Rule:
    """Catalogue entry: what a rule id means."""

    rule_id: str
    severity: Severity
    layer: str
    title: str


RULES: Dict[str, Rule] = {r.rule_id: r for r in (
    Rule("CFG001", Severity.ERROR, "configuration",
         "call rejected by the engine's own configuration validation"),
    Rule("CAP001", Severity.ERROR, "capacity",
         "result image overflows a result bank"),
    Rule("CAP002", Severity.ERROR, "capacity",
         "input image overflows its input bank pair"),
    Rule("CAP003", Severity.ERROR, "capacity",
         "neighbourhood spans more lines than the IIM holds per image"),
    Rule("CAP004", Severity.ERROR, "capacity",
         "neighbourhood spans more lines than the matrix register"),
    Rule("CAP005", Severity.INFO, "capacity",
         "frame height leaves a partial final strip"),
    Rule("HAZ001", Severity.ERROR, "hazard",
         "read of a plane no earlier step wrote"),
    Rule("HAZ002", Severity.ERROR, "hazard",
         "step writes a plane it also reads (in-place aliasing)"),
    Rule("HAZ003", Severity.ERROR, "hazard",
         "resident claim not satisfied by the previous call's banks"),
    Rule("HAZ004", Severity.WARNING, "hazard",
         "inter step reads the same plane on both inputs"),
    Rule("HAZ005", Severity.WARNING, "hazard",
         "dead store: plane written but never read nor returned"),
    Rule("HAZ006", Severity.ERROR, "hazard",
         "plane consumed under a different format than it was produced"),
    Rule("LIV001", Severity.ERROR, "liveness",
         "cycle bound below the provable minimum (guaranteed deadlock)"),
    Rule("LIV002", Severity.ERROR, "liveness",
         "PLC tick rate is zero: pixel-cycles can never retire"),
    Rule("LIV003", Severity.ERROR, "liveness",
         "input TxU tick rate is zero: strips can never reach the IIM"),
    Rule("LIV004", Severity.WARNING, "liveness",
         "cycle bound below the engine default for this format"),
    Rule("FPA001", Severity.INFO, "fast-path",
         "op latency exceeds the batched stepper's regime"),
    Rule("FPA002", Severity.INFO, "fast-path",
         "single-strip format never leaves warm-up/drain"),
    Rule("FPA003", Severity.INFO, "fast-path",
         "instrumented tick rates force the per-cycle loop"),
    Rule("FPA004", Severity.INFO, "fast-path",
         "fast path disabled engine-wide"),
    Rule("SCH001", Severity.INFO, "scheduling",
         "dependency graph fully serialises: no exploitable call "
         "parallelism"),
    Rule("SVC001", Severity.INFO, "service",
         "modeled critical-path cost exceeds the deadline-cycles "
         "budget"),
    Rule("SVC003", Severity.WARNING, "service",
         "tenant p95 target unreachable under the admission budget "
         "and fair-share weights"),
    Rule("SHM002", Severity.ERROR, "transport",
         "result slab adopted after the plane store closed"),
    Rule("SHM003", Severity.ERROR, "transport",
         "segment released again after it was already released "
         "(double free)"),
    Rule("RES002", Severity.WARNING, "residency",
         "evicted frame shipped again: the banks released a frame the "
         "workload still reads"),
    Rule("POOL001", Severity.ERROR, "pool",
         "failover requeue does not replay the failed wave verbatim"),
    Rule("POOL002", Severity.WARNING, "pool",
         "a board consumes a frame another board produced: placement "
         "split a producer/consumer pair"),
)}

#: Fallback reason code -> the FPA rule that reports it.
_FALLBACK_RULE_IDS = {
    FALLBACK_OP_LATENCY: "FPA001",
    FALLBACK_SINGLE_STRIP: "FPA002",
    FALLBACK_TICK_RATES: "FPA003",
}


def _diag(rule_id: str, message: str, *,
          step_index: Optional[int] = None, step_label: str = "",
          location: Optional[str] = None) -> Diagnostic:
    return Diagnostic(rule_id=rule_id, severity=RULES[rule_id].severity,
                      message=message, step_index=step_index,
                      step_label=step_label, location=location)


def capacity_rules(config: EngineConfig,
                   params: EngineParams) -> List[Diagnostic]:
    """CAP001-CAP005: will the call's data fit the board?"""
    findings: List[Diagnostic] = []
    fmt = config.fmt
    if config.produces_image and fmt.pixels > params.bank_words // 2:
        findings.append(_diag(
            "CAP001",
            f"{fmt.name} result needs {fmt.pixels * 2} words in one "
            f"result bank ({fmt.pixels} pixels x 2 words), but a bank "
            f"holds {params.bank_words} "
            f"(max {RESULT_BANK_PIXELS} result pixels)"))
    input_words = input_bank_words_needed(fmt.pixels, fmt.strips,
                                          fmt.width, config.images_in)
    if input_words > params.bank_words:
        findings.append(_diag(
            "CAP002",
            f"{fmt.name} input needs {input_words} words per bank of its "
            f"pair, but a bank holds {params.bank_words}"))
    if config.mode is AddressingMode.INTRA and isinstance(config.op,
                                                          IntraOp):
        span = config.op.neighbourhood.line_span
        available = params.iim_lines_per_image(config.images_in)
        if span > available:
            findings.append(_diag(
                "CAP003",
                f"{config.op.name} needs {span} lines in the IIM, but "
                f"only {available} are available per image"))
        if span > MAX_NEIGHBOURHOOD_LINES:
            findings.append(_diag(
                "CAP004",
                f"{config.op.name} spans {span} lines; the matrix "
                f"register covers {MAX_NEIGHBOURHOOD_LINES}"))
    if fmt.height % STRIP_LINES:
        findings.append(_diag(
            "CAP005",
            f"{fmt.name} height {fmt.height} is not a multiple of the "
            f"{STRIP_LINES}-line strip; the final strip is partial"))
    return findings


def liveness_rules(config: EngineConfig,
                   params: EngineParams) -> List[Diagnostic]:
    """LIV001-LIV004: can every component always make progress?"""
    findings: List[Diagnostic] = []
    if params.plc_ticks_per_cycle <= 0:
        findings.append(_diag(
            "LIV002",
            "plc_ticks_per_cycle is 0: the PLC never retires a "
            "pixel-cycle, so the call cannot complete"))
    if params.input_txu_ticks_per_cycle <= 0:
        findings.append(_diag(
            "LIV003",
            "input_txu_ticks_per_cycle is 0: input strips never drain "
            "into the IIM, freezing the Process Unit"))
    if params.max_cycles is not None and params.plc_ticks_per_cycle > 0 \
            and params.input_txu_ticks_per_cycle > 0:
        floor = min_call_cycles(
            config, job_overhead_cycles=params.dma_overhead_cycles)
        default = default_max_cycles(config.fmt.pixels)
        if params.max_cycles < floor:
            findings.append(_diag(
                "LIV001",
                f"max_cycles={params.max_cycles} is below the provable "
                f"floor of {floor} cycles (PCI word movement and PLC "
                f"retirement alone need that); the call is a guaranteed "
                f"EngineDeadlock"))
        elif params.max_cycles < default:
            findings.append(_diag(
                "LIV004",
                f"max_cycles={params.max_cycles} is below the engine "
                f"default of {default} for {config.fmt.name}; slow "
                f"regimes may hit the bound"))
    return findings


def fast_path_rules(config: EngineConfig,
                    params: EngineParams) -> List[Diagnostic]:
    """FPA001-FPA004: predict and explain the dispatch decision."""
    findings: List[Diagnostic] = []
    if not params.fast_path:
        findings.append(_diag(
            "FPA004", "fast_path=False on the engine: every call takes "
                      "the per-cycle reference loop"))
    for reason in fast_path_blockers(config.op.engine_cycles,
                                     config.fmt.strips,
                                     params.plc_ticks_per_cycle,
                                     params.input_txu_ticks_per_cycle):
        if reason == FALLBACK_OP_LATENCY:
            message = (
                f"{config.op.name} has stage-3 latency "
                f"{config.op.engine_cycles} > {FAST_PATH_MAX_OP_CYCLES}: "
                f"the call falls back to the per-cycle loop")
        elif reason == FALLBACK_SINGLE_STRIP:
            message = (
                f"{config.fmt.name} has {config.fmt.strips} strip(s), "
                f"fewer than {FAST_PATH_MIN_STRIPS}: the call never "
                f"reaches the batched steady state")
        else:
            message = (
                f"tick rates (plc={params.plc_ticks_per_cycle}, "
                f"txu={params.input_txu_ticks_per_cycle}) differ from "
                f"the prototype's: the batched schedule does not apply")
        findings.append(_diag(_FALLBACK_RULE_IDS[reason], message))
    return findings

"""``repro-check``: run AddressCheck over call programs from the shell.

The built-in registry mirrors the pixel work of every script under
``examples/`` (traced through the recording backend, so the programs
here *are* the calls those scripts issue).  CI runs ``repro-check``
with no arguments and requires zero errors; ``--selftest`` seeds a
broken variant of each rule class and requires the analyzer to flag
every one -- the gate that proves the rules still bite;
``--sanitize-selftest`` does the same for the runtime sanitizer's
SHM/RES/POOL rules, seeding each bug into the live transport.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..addresslib.addressing import AddressingMode
from ..addresslib.compositions import MotionMaskSettings, motion_mask
from ..addresslib.library import AddressLib
from ..addresslib.ops import (ChannelSet, INTER_ABSDIFF, INTRA_BOX3,
                              INTRA_GRAD, INTRA_MEDIAN3)
from ..addresslib.program import CallProgram, ProgramStep, trace_program
from ..core.config import EngineConfig, intra_config
from ..image.formats import CIF, QCIF, ImageFormat
from ..image.frame import Frame
from .analyzer import analyze_program
from .diagnostics import AnalysisReport, Severity
from .params import EngineParams
from .rules import RULES


# ---------------------------------------------------------------------------
# The example-program registry
# ---------------------------------------------------------------------------

def _quickstart() -> CallProgram:
    """The four engine-eligible calls of ``examples/quickstart.py``."""
    def body(lib: AddressLib, frame_a: Frame,
             frame_b: Frame) -> List[Frame]:
        edges = lib.intra(INTRA_GRAD, frame_a)
        smooth = lib.intra(INTRA_BOX3, frame_b, ChannelSet.YUV)
        difference = lib.inter(INTER_ABSDIFF, frame_a, frame_b)
        lib.inter_reduce(INTER_ABSDIFF, frame_a, frame_b)
        return [edges, smooth, difference]
    return trace_program("quickstart", body, Frame(CIF), Frame(CIF))


def _surveillance() -> CallProgram:
    """The motion-mask front end of ``examples/surveillance.py``
    (threshold 60; the segment stage runs in software and makes no
    engine calls)."""
    def body(lib: AddressLib, frame: Frame, background: Frame) -> Frame:
        return motion_mask(lib, frame, background,
                           MotionMaskSettings(threshold=60,
                                              despeckle=None))
    return trace_program("surveillance", body, Frame(QCIF), Frame(QCIF))


def _mosaicing() -> CallProgram:
    """One GME pair of ``examples/mosaicing.py``: the gradient and SAD
    calls the motion estimator issues per frame pair."""
    def body(lib: AddressLib, current: Frame,
             reference: Frame) -> Frame:
        edges = lib.intra(INTRA_GRAD, current)
        lib.inter_reduce(INTER_ABSDIFF, current, reference)
        return edges
    return trace_program("mosaicing", body, Frame(QCIF), Frame(QCIF))


def _coprocessor_tour() -> CallProgram:
    """The single 96x96 gradient call of
    ``examples/coprocessor_tour.py``."""
    fmt = ImageFormat("TOUR", 96, 96)
    return CallProgram.single(intra_config(INTRA_GRAD, fmt),
                              name="coprocessor_tour")


def _adaptive_pipeline() -> CallProgram:
    """One grad-grad-median round of ``examples/adaptive_pipeline.py``
    (each call processes a fresh camera frame)."""
    def body(lib: AddressLib, f0: Frame, f1: Frame,
             f2: Frame) -> List[Frame]:
        return [lib.intra(INTRA_GRAD, f0), lib.intra(INTRA_GRAD, f1),
                lib.intra(INTRA_MEDIAN3, f2)]
    return trace_program("adaptive_pipeline", body,
                         Frame(QCIF), Frame(QCIF), Frame(QCIF))


EXAMPLE_PROGRAMS: Dict[str, Callable[[], CallProgram]] = {
    "quickstart": _quickstart,
    "surveillance": _surveillance,
    "mosaicing": _mosaicing,
    "coprocessor_tour": _coprocessor_tour,
    "adaptive_pipeline": _adaptive_pipeline,
}


# ---------------------------------------------------------------------------
# Seeded-broken variants: one per rule class
# ---------------------------------------------------------------------------

def _broken_capacity() -> Tuple[CallProgram, EngineParams]:
    """4CIF overflows a result bank (CAP001)."""
    fmt = ImageFormat("4CIF", 704, 576)
    return (CallProgram.single(intra_config(INTRA_BOX3, fmt),
                               name="broken_capacity"), EngineParams())


def _broken_hazard() -> Tuple[CallProgram, EngineParams]:
    """A hand-built chain reading a plane nothing wrote (HAZ001) and
    claiming residency no previous call established (HAZ003)."""
    steps = (
        ProgramStep(index=0, mode=AddressingMode.INTER,
                    op=INTER_ABSDIFF, fmt=QCIF, channels=ChannelSet.Y,
                    inputs=("in0", "ghost"), output="t0",
                    resident=(False, True)),
    )
    program = CallProgram(name="broken_hazard", fmt=QCIF,
                          inputs=("in0",), steps=steps, results=("t0",))
    return program, EngineParams()


def _broken_liveness() -> Tuple[CallProgram, EngineParams]:
    """A cycle bound below the provable word-movement floor (LIV001)."""
    fmt = ImageFormat("P24x48", 24, 48)
    program = CallProgram.single(
        EngineConfig(mode=AddressingMode.INTER, op=INTER_ABSDIFF,
                     fmt=fmt),
        name="broken_liveness")
    return program, EngineParams(max_cycles=500)


def _broken_fast_path() -> Tuple[CallProgram, EngineParams]:
    """A long-latency op that must fall back per-cycle (FPA001)."""
    fmt = ImageFormat("TOUR", 96, 96)
    return (CallProgram.single(intra_config(INTRA_GRAD, fmt),
                               name="broken_fast_path"), EngineParams())


def _serial_chain() -> Tuple[CallProgram, EngineParams]:
    """A straight grad -> box -> median chain: every step consumes the
    previous step's output, so no two calls can ever overlap (SCH001)."""
    def body(lib: AddressLib, frame: Frame) -> Frame:
        edges = lib.intra(INTRA_GRAD, frame)
        smooth = lib.intra(INTRA_BOX3, edges)
        return lib.intra(INTRA_MEDIAN3, smooth)
    return trace_program("serial_chain", body, Frame(QCIF)), EngineParams()


def _unmeetable_deadline() -> Tuple[CallProgram, EngineParams]:
    """A three-call QCIF chain under a budget one lone call already
    blows: the modeled critical path must be flagged (SVC001)."""
    program, _ = _serial_chain()
    return (CallProgram(name="unmeetable_deadline", fmt=program.fmt,
                        inputs=program.inputs, steps=program.steps,
                        results=program.results),
            EngineParams(deadline_cycles=10_000))


def _starved_slo() -> Tuple[CallProgram, EngineParams]:
    """A serving policy whose victim tenant holds 1/10th of the weight
    behind a 50 ms admission budget but declares a 10 ms p95 target:
    its fair drain delay can reach 500 ms, so the target is only ever
    met by shedding its own work (SVC003)."""
    from ..service.policy import (AdmissionPolicy, ServicePolicy,
                                  TenantPolicy)
    program, _ = _serial_chain()
    policy = ServicePolicy(
        admission=AdmissionPolicy(deadline_budget_seconds=0.050),
        tenants={"victim": TenantPolicy(weight=1.0,
                                        p95_target_seconds=0.010),
                 "bulk": TenantPolicy(weight=9.0)})
    return (CallProgram(name="starved_slo", fmt=program.fmt,
                        inputs=program.inputs, steps=program.steps,
                        results=program.results),
            EngineParams(service_policy=policy))


#: rule class -> (builder, rule id that must fire).
SELFTEST_CASES: Dict[str, Tuple[
        Callable[[], Tuple[CallProgram, EngineParams]], str]] = {
    "capacity": (_broken_capacity, "CAP001"),
    "hazard": (_broken_hazard, "HAZ001"),
    "liveness": (_broken_liveness, "LIV001"),
    "fast-path": (_broken_fast_path, "FPA001"),
    "scheduling": (_serial_chain, "SCH001"),
    "service": (_unmeetable_deadline, "SVC001"),
    "slo": (_starved_slo, "SVC003"),
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _print_report(report: AnalysisReport, verbose: bool) -> None:
    print(report.summary())
    for diagnostic in report.diagnostics:
        if verbose or diagnostic.severity is not Severity.INFO:
            print(f"  {diagnostic.format()}")


def _run_selftest(verbose: bool) -> int:
    failures = 0
    for rule_class, (builder, rule_id) in SELFTEST_CASES.items():
        program, params = builder()
        report = analyze_program(program, params)
        hits = report.by_rule(rule_id)
        status = "flagged" if hits else "MISSED"
        print(f"selftest [{rule_class}] {program.name}: {status} "
              f"{rule_id}")
        if hits:
            if verbose:
                for diagnostic in hits:
                    print(f"  {diagnostic.format()}")
        else:
            failures += 1
    if failures:
        print(f"selftest: {failures} rule class(es) no longer detected")
        return 1
    print("selftest: all rule classes detected")
    return 0


def _run_sanitize_selftest(verbose: bool) -> int:
    """Seed each transport bug against the *live* stack and require the
    runtime sanitizer to observe it -- the dynamic twin of
    :func:`_run_selftest`."""
    from .sanitize import SANITIZE_SELFTESTS
    failures = 0
    for description, (scenario, rule_id) in SANITIZE_SELFTESTS.items():
        findings = scenario()
        if findings is None:
            print(f"sanitize-selftest [{rule_id}] {description}: "
                  f"skipped (shared memory unavailable)")
            continue
        hits = [d for d in findings if d.rule_id == rule_id]
        status = "caught" if hits else "MISSED"
        print(f"sanitize-selftest [{rule_id}] {description}: {status}")
        if hits:
            if verbose:
                for diagnostic in hits:
                    print(f"  {diagnostic.format()}")
        else:
            failures += 1
    if failures:
        print(f"sanitize-selftest: {failures} rule(s) no longer "
              f"observed at runtime")
        return 1
    print("sanitize-selftest: all seeded bugs observed")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="Statically verify AddressLib call programs against "
                    "the AddressEngine model (no simulated cycles).")
    parser.add_argument("programs", nargs="*",
                        help="programs to check (default: all); one of "
                             f"{', '.join(sorted(EXAMPLE_PROGRAMS))}")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--selftest", action="store_true",
                        help="seed a broken variant of each rule class "
                             "and require the analyzer to flag it")
    parser.add_argument("--sanitize-selftest", action="store_true",
                        help="seed each transport bug against the live "
                             "shared-memory stack and require the "
                             "runtime sanitizer to observe it")
    parser.add_argument("--deadline-cycles", type=int, default=None,
                        metavar="N",
                        help="flag programs whose modeled critical-path "
                             "cost exceeds N engine cycles (SVC001)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on warnings too")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="also print info-level findings")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.rule_id}  {str(rule.severity):<7}  "
                  f"[{rule.layer}] {rule.title}")
        return 0
    if args.selftest:
        return _run_selftest(args.verbose)
    if args.sanitize_selftest:
        return _run_sanitize_selftest(args.verbose)

    names = args.programs or sorted(EXAMPLE_PROGRAMS)
    unknown = [n for n in names if n not in EXAMPLE_PROGRAMS]
    if unknown:
        parser.error(f"unknown program(s): {', '.join(unknown)}; known: "
                     f"{', '.join(sorted(EXAMPLE_PROGRAMS))}")

    params = (EngineParams(deadline_cycles=args.deadline_cycles)
              if args.deadline_cycles is not None else None)
    exit_code = 0
    for name in names:
        program = EXAMPLE_PROGRAMS[name]()
        report = analyze_program(program, params)
        _print_report(report, args.verbose)
        if report.errors or (args.strict and report.warnings):
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())

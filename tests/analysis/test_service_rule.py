"""SVC001: deadline budgets, statically; SVC002 (placement hints) is
retired with the hints it audited."""

import pytest

from repro.addresslib import (AddressLib, INTER_ADD, INTRA_BOX3,
                              INTRA_GRAD, INTRA_MEDIAN3, INTRA_SOBEL_X,
                              INTRA_SOBEL_Y, trace_program)
from repro.analysis import (EngineParams, analyze_program,
                            critical_path_cycles, step_cycles)
from repro.analysis.cli import SELFTEST_CASES
from repro.analysis.cli import main as repro_check_main
from repro.analysis.rules import RULES
from repro.image import QCIF, Frame


def _chain_program():
    def body(lib: AddressLib, frame: Frame) -> Frame:
        edges = lib.intra(INTRA_GRAD, frame)
        smooth = lib.intra(INTRA_BOX3, edges)
        return lib.intra(INTRA_MEDIAN3, smooth)
    return trace_program("chain", body, Frame(QCIF))


def _diamond_program():
    def body(lib: AddressLib, frame: Frame) -> Frame:
        gx = lib.intra(INTRA_SOBEL_X, frame)
        gy = lib.intra(INTRA_SOBEL_Y, frame)
        return lib.inter(INTER_ADD, gx, gy)
    return trace_program("diamond", body, Frame(QCIF))


class TestCriticalPath:
    def test_serial_chain_sums_every_step(self):
        program = _chain_program()
        assert critical_path_cycles(program) == sum(
            step_cycles(step) for step in program.steps)

    def test_independent_steps_never_add(self):
        program = _diamond_program()
        gx, gy, add = program.steps
        assert critical_path_cycles(program) == (
            max(step_cycles(gx), step_cycles(gy)) + step_cycles(add))

    def test_single_step_is_its_own_floor(self):
        def body(lib: AddressLib, frame: Frame) -> Frame:
            return lib.intra(INTRA_GRAD, frame)
        program = trace_program("single", body, Frame(QCIF))
        assert critical_path_cycles(program) == step_cycles(
            program.steps[0])


class TestDeadlineRule:
    def test_fires_when_budget_unmeetable(self):
        report = analyze_program(
            _chain_program(), EngineParams(deadline_cycles=10_000))
        hits = report.by_rule("SVC001")
        assert len(hits) == 1
        assert "critical-path" in hits[0].message
        assert report.ok  # informational only

    def test_silent_when_budget_fits(self):
        program = _chain_program()
        budget = critical_path_cycles(program)
        report = analyze_program(program,
                                 EngineParams(deadline_cycles=budget))
        assert not report.by_rule("SVC001")

    def test_inert_without_a_budget(self):
        report = analyze_program(_chain_program(), EngineParams())
        assert not report.by_rule("SVC001")

    def test_parallel_program_judged_by_path_not_sum(self):
        # A budget between the critical path and the serial sum: SVC001
        # must stay quiet, because unlimited engines could meet it.
        program = _diamond_program()
        path = critical_path_cycles(program)
        total = sum(step_cycles(step) for step in program.steps)
        assert path < total
        report = analyze_program(program,
                                 EngineParams(deadline_cycles=path))
        assert not report.by_rule("SVC001")
        report = analyze_program(program,
                                 EngineParams(deadline_cycles=path - 1))
        assert report.by_rule("SVC001")

    def test_selftest_covers_service_class(self):
        builder, rule_id = SELFTEST_CASES["service"]
        assert rule_id == "SVC001"
        program, params = builder()
        report = analyze_program(program, params)
        assert report.by_rule("SVC001")


class TestPlacementRuleRetired:
    def test_svc002_is_not_in_the_catalogue(self):
        assert "SVC002" not in RULES
        assert "placement" not in SELFTEST_CASES

    def test_placement_hints_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_check_main(["--placement-hints", "0,1,-"])
        assert exc.value.code == 2
        assert "--placement-hints" in capsys.readouterr().err

"""Smoke tests of the benchmark itself (not part of tier 1).

    python -m pytest bench/tests -q

Every workload runs scaled down in code -- a handful of requests,
frames or calls -- once untraced and once traced.
"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

from bench import ROOT
from bench.compare import quartiles, spread, verdict
from bench.measure import (at_nominal_speed, driver_line, load_json,
                           measure, per_layer_declarations)
from bench.tracing import LAYERS, Tracer

SPEC = load_json("bench/spec.json")
BENCHMARK = load_json("BENCHMARK.json")
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _small(name):
    params = copy.deepcopy(SPEC["workloads"][name])
    if params["kind"] == "serve":
        params.update(round_requests=60, traces=2)
    elif params["kind"] == "gme":
        params.update(scale=0.004)
    else:
        params.update(frames=3)
    return params


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request, tmp_path_factory):
    name = request.param
    spans = tmp_path_factory.mktemp("spans") / f"{name}.spans.jsonl"
    plain = measure(name, 7, 0.0, False, params=_small(name))
    traced = measure(name, 7, 0.0, True, params=_small(name),
                     spans_path=str(spans))
    return name, plain, traced, spans


def test_declarations_match_the_contract():
    assert BENCHMARK["per_layer"] == per_layer_declarations()
    names = [m["name"] for m in BENCHMARK["end_to_end"]
             + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in BENCHMARK["end_to_end"])}]
    assert set(WORKLOADS) == set(SPEC["workloads"])
    assert tuple(SPEC["layers"]) == LAYERS


def test_runs_are_correct(runs):
    name, plain, traced, _ = runs
    for detail in (plain, traced):
        assert detail["correct"], detail["checks"]
        assert detail["exact"]["error_frac"] == 0


def test_every_declared_metric_appears_with_its_unit(runs):
    _, plain, traced, _ = runs
    for detail, declared in ((plain, BENCHMARK["end_to_end"]),
                             (traced, BENCHMARK["per_layer"])):
        line = driver_line(detail)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1
        assert line["metrics"] == {
            d["name"]: {"value": line["metrics"][d["name"]]["value"],
                        "unit": d["unit"]} for d in declared}
        json.dumps(line, allow_nan=False)
    for metric in BENCHMARK["end_to_end"]:
        assert plain["end_to_end"][metric["name"]] > 0


def test_exact_metrics_match_the_spec(runs):
    name, plain, _, _ = runs
    declared = {m["name"] for m in SPEC["exact_metrics"]
                if name in m["workloads"]}
    assert set(plain["exact"]) == declared


def test_modeled_metrics_do_not_depend_on_tracing(runs):
    _, plain, traced, _ = runs
    assert plain["exact"] == traced["exact"]


def test_self_times_and_coverage(runs):
    _, _, traced, spans = runs
    layer = traced["per_layer"]
    for name, value in layer.items():
        if name.endswith((".self_s", ".p50_us", ".p95_us")):
            assert value >= 0, name
    assert 0.0 < layer["trace.coverage"] <= 1.0
    assert traced["checks"]["misnested_spans"] == 0
    lines = spans.read_text().splitlines()
    assert lines
    first = json.loads(lines[0])
    assert set(first) == {"id", "name", "layer", "start", "end",
                          "parent", "request"}
    assert first["end"] >= first["start"]


def test_no_process_outlives_a_run():
    from multiprocessing import active_children, resource_tracker

    detail = measure("batch_shm", 7, 0.0, False,
                     params=_small("batch_shm"))
    assert detail["correct"], detail["checks"]
    assert active_children() == []
    assert resource_tracker._resource_tracker._pid is None


def test_tracing_restores_the_program():
    from repro.service.engine_service import EngineService
    from repro.addresslib.executor import VectorExecutor
    from repro.pool import pricing, worker

    originals = (EngineService.submit, VectorExecutor.__dict__["intra"],
                 pricing.call_cost_seconds, worker.call_cost_seconds)
    tracer = Tracer()
    tracer.install()
    assert EngineService.submit is not originals[0]
    assert worker.call_cost_seconds is not originals[3]
    assert isinstance(VectorExecutor.__dict__["intra"], staticmethod)
    tracer.uninstall()
    assert (EngineService.submit, VectorExecutor.__dict__["intra"],
            pricing.call_cost_seconds,
            worker.call_cost_seconds) == originals


def test_rescaling_follows_the_host_sensitivity():
    assert at_nominal_speed(2.0, 0.002, 0.002, 0.8) == 2.0
    assert at_nominal_speed(2.0, 0.004, 0.002, 1.0) == 1.0
    assert at_nominal_speed(2.0, 0.004, 0.002, 0.0) == 2.0
    assert at_nominal_speed(2.0, 0.008, 0.002, 0.5) == 1.0
    assert all(0.0 < p["host_sensitivity"] <= 1.0
               for p in SPEC["workloads"].values())


def test_quartiles_follow_statistics_quantiles():
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert quartiles([1.0, 2.0, 3.0]) == (1.5, 2.0, 2.5)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert spread([10.0, 10.0, 10.0]) == 0.0


@pytest.mark.parametrize("a, b, better, expected", [
    ([100, 101, 99, 100], [100, 102, 99, 101], "higher", "same"),
    ([100, 101, 99, 100], [80, 81, 79, 80], "higher", "worse"),
    ([100, 101, 99, 100], [80, 81, 79, 80], "lower", "better"),
    ([100, 101, 99, 100], [120, 121, 119, 120], "lower", "worse"),
    ([100, 150, 60, 100], [100, 101, 99, 100], "lower", "unresolved"),
    ([100, 150, 60, 100], [40, 41, 39, 40], "lower", "better"),
])
def test_verdicts(a, b, better, expected):
    assert verdict(a, b, better, 0.10) == expected


def test_compare_flags_changed_exact_metrics(tmp_path, capsys):
    from bench.compare import main

    def results(speedup):
        return {"workloads": {"gme_table3": {
            "end_to_end": {m["name"]: {"unit": m["unit"],
                                       "values": [1.0, 1.0, 1.0]}
                           for m in BENCHMARK["end_to_end"]},
            "exact": {"table3_speedup": speedup}}}}
    paths = []
    for index, speedup in enumerate((4.262, 4.262, 4.3)):
        path = tmp_path / f"{index}.json"
        path.write_text(json.dumps(results(speedup)))
        paths.append(str(path))
    assert main(paths[:2]) == 0
    assert main([paths[0], paths[2]]) == 1
    assert "changed" in capsys.readouterr().out


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = [sys.executable, "-m", "bench", "measure", "--workload",
               "serve_mid", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(command, cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

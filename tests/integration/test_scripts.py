"""The repo scripts stay runnable: the serving demo and the CI checks.

Each script's functions run in-process (loaded with :mod:`runpy`, so
its ``__main__`` block stays idle) with output captured.
"""

import json
import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"

#: A hand-rolled replay pump: run_until + submit on one receiver.
SEEDED_PUMP = """\
for entry in trace.entries:
    service.run_until(entry.arrival_seconds)
    service.submit(factory.call(entry))
"""


def _load(name):
    return runpy.run_path(str(SCRIPTS / name))


def _routed_per_board(out):
    """The calls-per-board counts of the demo's pool row."""
    label = "pool calls routed per board"
    row = next(line for line in out.splitlines()
               if line.startswith(label))
    return [int(count) for count in row[len(label):].split("/")]


class TestServeDemo:
    def test_serial_replay_prints_per_board_rows(self, capsys):
        assert _load("serve_demo.py")["main"](["--requests", "40"]) == 0
        out = capsys.readouterr().out
        assert "serial" in out
        assert _routed_per_board(out) == [40]

    def test_async_replay_on_two_boards(self, capsys):
        main = _load("serve_demo.py")["main"]
        assert main(["--requests", "40", "--async", "--engines",
                     "2"]) == 0
        out = capsys.readouterr().out
        assert "async" in out
        routed = _routed_per_board(out)
        assert len(routed) == 2 and sum(routed) == 40


class TestReplayPumpLint:
    def test_seeded_pump_is_flagged(self, tmp_path):
        pump = tmp_path / "pump.py"
        pump.write_text(SEEDED_PUMP, encoding="utf-8")
        findings = _load("lint_replay_pump.py")["check_file"](pump)
        assert [(rule, line) for _, line, rule, _ in findings] == [
            ("R4", 3)]

    def test_repo_is_clean(self, capsys):
        assert _load("lint_replay_pump.py")["main"]() == 0
        assert "lint_replay_pump: OK" in capsys.readouterr().out


class TestBenchDrift:
    BOOK = {"levels": [{"mean_seconds": 0.25, "wall_latency": 1.0}],
            "trace": {"requests": 40}}

    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_drift_outside_ignored_keys_is_flagged(self, tmp_path, capsys):
        main = _load("check_bench_drift.py")["main"]
        regenerated = json.loads(json.dumps(self.BOOK))
        regenerated["levels"][0]["mean_seconds"] = 0.25000000000000006
        regenerated["levels"][0]["wall_latency"] = 2.0
        regenerated["levels"].append({})
        new = self._write(tmp_path, "new.json", regenerated)
        old = self._write(tmp_path, "old.json", self.BOOK)
        assert main([new, old, "--ignore", "wall_latency"]) == 1
        out = capsys.readouterr().out
        assert "$.levels: length 1 -> 2" in out
        assert "$.levels[0].mean_seconds" in out
        assert "wall_latency" not in out

    def test_wall_only_drift_passes(self, tmp_path, capsys):
        main = _load("check_bench_drift.py")["main"]
        regenerated = json.loads(json.dumps(self.BOOK))
        regenerated["levels"][0]["wall_latency"] = 2.0
        new = self._write(tmp_path, "new.json", regenerated)
        old = self._write(tmp_path, "old.json", self.BOOK)
        assert main([new, old, "--ignore", "wall_latency"]) == 0
        assert "check_bench_drift: " in capsys.readouterr().out

"""Fail if first-party code hand-rolls a trace-replay pump.

Trace replay lives in :mod:`repro.load`: the one synchronous open-loop
pump is ``repro.load.runner.replay_serial`` (allowlisted below), and
everything else calls it (or the asyncio facade) instead of re-growing
a private loop.  This script walks ``src/``, ``benchmarks/`` and
``scripts/`` with :mod:`ast` and flags rule R4: ``<obj>.run_until(...)``
and ``<obj>.submit(...)`` on the *same* receiver inside one loop body.

Run from the repo root (CI does)::

    python scripts/lint_replay_pump.py
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SCAN_DIRS = ("src", "benchmarks", "scripts")
#: Files allowed to hand-roll the run_until+submit pump.
R4_ALLOWLIST = frozenset({Path("src/repro/load/runner.py")})

Violation = Tuple[Path, int, str, str]


def _python_files() -> Iterator[Path]:
    for name in SCAN_DIRS:
        base = ROOT / name
        if not base.is_dir():
            continue
        yield from sorted(base.rglob("*.py"))


def _receiver_key(node: ast.expr) -> Optional[str]:
    """A stable dotted key for a method call's receiver, or ``None``
    for receivers too dynamic to compare (calls, subscripts...)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _receiver_key(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _check_loop_pump(loop: ast.AST, path: Path,
                     violations: List[Violation]) -> None:
    """Rule R4: run_until + submit on one receiver in one loop body."""
    run_until_on = set()
    submit_at = []
    for node in ast.walk(loop):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        receiver = _receiver_key(node.func.value)
        if receiver is None:
            continue
        if node.func.attr == "run_until":
            run_until_on.add(receiver)
        elif node.func.attr == "submit":
            submit_at.append((receiver, node.lineno))
    for receiver, lineno in submit_at:
        if receiver in run_until_on:
            violations.append(
                (path, lineno, "R4",
                 f"hand-rolled replay pump: {receiver}.run_until and "
                 f"{receiver}.submit in one loop body; use "
                 f"repro.load.replay_serial / replay_async"))


def check_file(path: Path) -> List[Violation]:
    """Every R4 finding in one file (R0 when it does not parse)."""
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"),
                         filename=str(path))
    except SyntaxError as exc:
        return [(path, exc.lineno or 0, "R0",
                 f"file does not parse: {exc.msg}")]
    violations: List[Violation] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            _check_loop_pump(node, path, violations)
    # Nested loops are walked once per enclosing loop: dedupe.
    return list(dict.fromkeys(violations))


def main() -> int:
    violations: List[Violation] = []
    checked = 0
    for path in _python_files():
        checked += 1
        if path.relative_to(ROOT) not in R4_ALLOWLIST:
            violations.extend(check_file(path))
    for path, lineno, rule, message in violations:
        print(f"{path.relative_to(ROOT)}:{lineno}: [{rule}] {message}")
    if violations:
        print(f"lint_replay_pump: {len(violations)} violation(s) in "
              f"{checked} file(s)")
        return 1
    print(f"lint_replay_pump: OK ({checked} files, no hand-rolled "
          f"replay pump)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

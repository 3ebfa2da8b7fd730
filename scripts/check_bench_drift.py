"""Fail if a regenerated BENCH file drifts from the committed one.

The modeled-clock books in ``BENCH_*.json`` are deterministic, so a
benchmark re-run must reproduce every one of their fields to the bit;
only wall-clock sidecars may differ.  This script walks both JSON
documents together -- dict keys, list lengths and elements, exact
scalar equality -- skipping every key named by ``--ignore`` at any
depth, and exits non-zero listing each path that differs.

Run from the repo root after a benchmark rewrote its file (CI keeps
the committed copy aside first)::

    python scripts/check_bench_drift.py BENCH_async.json \\
        committed_async.json --ignore wall_latency ...
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import AbstractSet, Any, Iterator, Optional, Sequence


def drift(got: Any, want: Any, ignore: AbstractSet[str],
          path: str = "$") -> Iterator[str]:
    """Every path under which ``got`` differs from ``want``."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            if key not in ignore:
                yield from drift(got.get(key), want.get(key), ignore,
                                 f"{path}.{key}")
    elif isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            yield f"{path}: length {len(want)} -> {len(got)}"
        for index, (item, expected) in enumerate(zip(got, want)):
            yield from drift(item, expected, ignore, f"{path}[{index}]")
    elif got != want:
        yield f"{path}: {want!r} -> {got!r}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare a regenerated BENCH file with the "
                    "committed one, field by field.")
    parser.add_argument("new", help="the regenerated file")
    parser.add_argument("committed", help="the committed copy")
    parser.add_argument("--ignore", nargs="*", default=[], metavar="KEY",
                        help="keys skipped at any depth (wall-clock "
                             "sidecars)")
    args = parser.parse_args(argv)
    with open(args.new, encoding="utf-8") as handle:
        new = json.load(handle)
    with open(args.committed, encoding="utf-8") as handle:
        committed = json.load(handle)
    paths = list(drift(new, committed, frozenset(args.ignore)))
    if paths:
        print(f"{args.new} drifted from {args.committed}:")
        for line in paths:
            print(f"  {line}")
        return 1
    print(f"check_bench_drift: {args.new} matches {args.committed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

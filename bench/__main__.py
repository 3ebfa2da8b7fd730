"""Command line: ``python -m bench {measure,run,compare}``."""

import argparse
import sys

from . import SRC


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    measure = commands.add_parser(
        "measure", help="one run of one workload (prints one JSON line)")
    measure.add_argument("--workload", required=True)
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.add_argument("--out", help="also write the full detail here")

    run = commands.add_parser(
        "run", help="every workload, round-robin, plus one traced run")
    run.add_argument("--repetitions", type=int, default=3)
    run.add_argument("--out", default="bench/out/results.json")

    compare = commands.add_parser(
        "compare", help="verdicts for one or two results files")
    compare.add_argument("results", nargs="+", metavar="RESULTS.json")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from .compare import main as compare_main
        return compare_main(args.results)
    if not (SRC / "repro").is_dir():
        print(f"bench: no program sources at {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    if args.command == "measure":
        from .measure import main as measure_main
        return measure_main(args)
    from .suite import main as suite_main
    return suite_main(args)


if __name__ == "__main__":
    sys.exit(main())

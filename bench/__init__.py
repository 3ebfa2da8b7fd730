"""The repository's wall-clock performance benchmark.

Five pinned workloads drive the public ``repro`` API end to end; a
separate traced run wraps each layer's public functions from outside
and splits the wall time per layer.  Entry points (run from the repo
root)::

    python -m bench run                        # every workload, 3+1 runs
    python -m bench compare A.json [B.json]    # verdicts from the bounds
    python -m bench measure --workload serve_mid --seed 1 \\
        --seconds 10 --trace 0                 # one run, one JSON line

See ``bench/README.md`` for the workloads, metrics and layer mapping.
"""

import pathlib
import sys

#: The checkout root (the directory holding ``BENCHMARK.json``).
ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Where the program under test lives; the benchmark builds nothing, it
#: imports the checkout's own sources ahead of any installed copy.
SRC = ROOT / "src"

if (SRC / "repro").is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

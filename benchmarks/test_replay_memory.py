"""Experiment REPLAY-MEMORY -- serving memory bounded by the queue.

An async trace replay hands each wave's results to the completion
stream's consumer, which accounts and releases them while the trace
goes on, so the host holds at most a full request queue plus a wave of
results -- the way the paper's Image Level Controller sends the next
strip only when the board's double buffer has room.  Peak memory must
therefore not grow with the length of the trace.

The check replays a CIF serving mix (352x288 frames drawn from a pool
of 8, the default tenant mix, a 4-board pool, queue depth 256) offered
at 0.9x its modeled capacity of 103.73 requests per modeled second, at
500 and at 2,000 requests.  Each replay runs in a fresh interpreter, so
neither sees the other's heap, and reports its peak RSS.  The test
prints both figures and fails when the longer replay peaks above 1.2x
the shorter one.

Run: ``PYTHONPATH=src python -m pytest benchmarks/test_replay_memory.py``
(it prints both peaks even without ``-s``); ``PYTHONPATH=src python
benchmarks/test_replay_memory.py REQUESTS`` runs one replay and prints
its peak RSS in MB.
"""

import os
import pathlib
import resource
import subprocess
import sys

from repro.api import EnginePool, EngineService, ServicePolicy
from repro.load import ArrivalTrace, TraceSpec, replay_async

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

SHORT_REQUESTS = 500
LONG_REQUESTS = 2000
#: Largest allowed ratio of the long replay's peak RSS to the short's.
MAX_RSS_RATIO = 1.2
BOARDS = 4
QUEUE_DEPTH = 256
MAX_BATCH = 8
#: Modeled capacity of this mix on the 4-board pool (requests/s).
CAPACITY_PER_S = 103.73
LOAD = 0.9
SEED = 0


def replay_peak_rss_mb(requests: int) -> float:
    """Replay ``requests`` CIF requests in this process; returns its
    peak RSS in MB (Linux reports ``ru_maxrss`` in KiB)."""
    trace = ArrivalTrace.synthesize(TraceSpec(
        requests=requests, rate_per_s=LOAD * CAPACITY_PER_S, seed=SEED,
        width=352, height=288, frame_pool=8))
    service = EngineService(
        pool=EnginePool.of_engines(BOARDS),
        policy=ServicePolicy(queue_depth=QUEUE_DEPTH,
                             max_batch=MAX_BATCH))
    report = replay_async(trace, service)
    assert report.accounted == requests
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _peak_in_fresh_interpreter(requests: int) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, __file__, str(requests)], env=env, check=True,
        capture_output=True, text=True)
    return float(done.stdout.split()[-1])


def test_replay_memory_bounded_by_queue(capsys):
    short = _peak_in_fresh_interpreter(SHORT_REQUESTS)
    long = _peak_in_fresh_interpreter(LONG_REQUESTS)
    with capsys.disabled():
        print(f"\nCIF async replay peak RSS: {SHORT_REQUESTS} requests "
              f"{short:.1f} MB, {LONG_REQUESTS} requests {long:.1f} MB "
              f"({long / short:.2f}x, limit {MAX_RSS_RATIO}x)")
    assert long <= MAX_RSS_RATIO * short, (
        f"peak RSS grows with the trace: {short:.1f} MB at "
        f"{SHORT_REQUESTS} requests, {long:.1f} MB at {LONG_REQUESTS}")


if __name__ == "__main__":
    print(f"{replay_peak_rss_mb(int(sys.argv[1])):.1f}")

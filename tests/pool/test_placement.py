"""Placement: who gets the next wave, and why.

Deterministic routing by one rule: most resident inputs first (the
board's real ZBT residency state), then the earliest-free board, then
the lowest worker id -- no RNG anywhere in the router, and a failed
board never takes a wave.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addresslib import (BatchCall, INTER_ABSDIFF, INTRA_BOX3,
                              INTRA_GRAD)
from repro.api import EnginePool
from repro.core.config import inter_config, intra_config
from repro.core.errors import EngineDeadlock
from repro.image import ImageFormat, noise_frame

QCIF = ImageFormat("QCIF", 176, 144)
SMALL = ImageFormat("S8", 8, 8)


def _call(seed=0, op=INTRA_GRAD):
    return BatchCall.intra(op, noise_frame(QCIF, seed=seed))


class TestLeastLoaded:
    def test_picks_the_earliest_free_board(self):
        pool = EnginePool.of_engines(3)
        pool.workers[0].busy_until = 5.0
        pool.workers[1].busy_until = 1.0
        pool.workers[2].busy_until = 3.0
        assert pool.place([_call()]).worker_id == 1

    def test_ties_break_on_lowest_worker_id(self):
        pool = EnginePool.of_engines(3)
        assert pool.place([_call()]).worker_id == 0

    def test_dispatch_spreads_backlog(self):
        pool = EnginePool.of_engines(2)
        boards = [pool.dispatch([_call(seed=i)]).worker_id
                  for i in range(4)]
        assert boards == [0, 1, 0, 1]

    def test_skips_failed_boards(self):
        pool = EnginePool.of_engines(3)
        pool.workers[1].failed = True
        boards = [pool.dispatch([_call(seed=i)]).worker_id
                  for i in range(4)]
        assert boards == [0, 2, 0, 2]

    def test_shed_work_books_on_the_earliest_free_survivor(self):
        pool = EnginePool.of_engines(3)
        pool.workers[0].busy_until = 2.0
        pool.workers[1].failed = True
        pool.account_shed(2)
        assert [w.driver.calls_shed for w in pool.workers] == [0, 0, 2]


class TestResidencyAffinity:
    def test_resident_frames_attract_their_board(self):
        pool = EnginePool.of_engines(2)
        frame = noise_frame(QCIF, seed=7)
        warm = BatchCall.intra(INTRA_GRAD, frame)
        pool.dispatch([warm])  # lands on board 0, caches the frame
        # Board 0 is now the *busier* board, yet a call reusing the
        # cached frame must still route to it: affinity beats load.
        follow_up = BatchCall.intra(INTRA_BOX3, frame)
        assert pool.workers[0].affinity_score([follow_up]) == 1
        assert pool.workers[1].affinity_score([follow_up]) == 0
        assert pool.place([follow_up]).worker_id == 0

    def test_cold_frames_fall_back_to_load(self):
        pool = EnginePool.of_engines(2)
        pool.dispatch([_call(seed=1)])  # board 0 busy
        assert pool.place([_call(seed=2)]).worker_id == 1


class TestConstruction:
    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            EnginePool([])

    def test_zero_board_pool_rejected(self):
        with pytest.raises(ValueError):
            EnginePool.of_engines(0)


def _place_by_scores(pool, calls):
    """The placement rule as it was before placement became one pass
    (a test-resident copy): score every alive board call by call and
    frame by frame, then take the least
    ``(-score, busy_until, worker_id)``."""
    alive = [w for w in pool.workers if not w.failed]
    if not alive:
        raise EngineDeadlock("engine pool has no surviving workers")

    def score(worker):
        cache = worker.residency
        return sum(1 for call in calls for frame in call.frames
                   if cache is not None and cache.contains(frame))

    return min(alive, key=lambda w: (-score(w), w.busy_until, w.worker_id))


class TestOnePassPlacement:
    @settings(max_examples=200, deadline=None)
    @given(boards=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_places_where_the_scored_rule_did(self, boards, seed):
        """Random residency (inputs and results, intra and inter
        layouts), busy horizons with ties, and failed boards."""
        rng = random.Random(seed)
        frames = [noise_frame(SMALL, seed=i) for i in range(5)]
        pool = EnginePool.of_engines(boards)
        for worker in pool.workers:
            worker.busy_until = rng.choice([0.0, 1.0, 1.0, 2.5])
            worker.failed = rng.random() < 0.25
            cache = worker.residency
            if rng.random() < 0.2:
                continue  # a cold board
            if rng.random() < 0.5:
                cache.record_call(intra_config(INTRA_GRAD, SMALL),
                                  [rng.choice(frames)],
                                  rng.choice(frames + [None]))
            else:
                cache.record_call(inter_config(INTER_ABSDIFF, SMALL),
                                  rng.sample(frames, 2),
                                  rng.choice(frames + [None]))
            if rng.random() < 0.2:
                cache.release(rng.choice(frames))
        calls = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                calls.append(BatchCall.intra(INTRA_BOX3,
                                             rng.choice(frames)))
            else:
                calls.append(BatchCall.inter(INTER_ABSDIFF,
                                             rng.choice(frames),
                                             rng.choice(frames)))
        if all(w.failed for w in pool.workers):
            with pytest.raises(EngineDeadlock):
                pool.place(calls)
            return
        assert pool.place(calls) is _place_by_scores(pool, calls)
        for worker in pool.workers:
            want = sum(1 for call in calls for frame in call.frames
                       if worker.residency.contains(frame))
            assert worker.affinity_score(calls) == want

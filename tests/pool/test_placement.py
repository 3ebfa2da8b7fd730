"""Placement: who gets the next wave, and why.

Deterministic routing by one rule: most resident inputs first (the
board's real ZBT residency state), then the earliest-free board, then
the lowest worker id -- no RNG anywhere in the router, and a failed
board never takes a wave.
"""

import pytest

from repro.addresslib import BatchCall, INTRA_BOX3, INTRA_GRAD
from repro.api import EnginePool
from repro.image import ImageFormat, noise_frame

QCIF = ImageFormat("QCIF", 176, 144)


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

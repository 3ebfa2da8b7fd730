"""Closed-form pricing of batch calls, shared across the stack.

Every layer that reasons about multi-engine execution -- the admission
controller, the call scheduler's makespan books, and the
:class:`~repro.pool.EnginePool` workers -- must price one call with the
*same* arithmetic, or modeled dispatch decisions drift from the
accounting.  This module is that single definition; it depends only on
the addressing geometry and the validated
:class:`~repro.perf.timing.EngineTimingModel`, so the pool can sit
below the service layer without an import cycle.
"""

from __future__ import annotations

import functools
from typing import Tuple

from ..addresslib.addressing import AddressingMode
from ..addresslib.library import BatchCall
from ..perf.timing import EngineTimingModel


def call_cost_seconds(call: BatchCall, timing: EngineTimingModel
                      ) -> Tuple[float, float]:
    """(serial-model, overlap-model) seconds of one call's geometry.

    The same arithmetic :class:`~repro.host.scheduler.CallScheduler`
    prices batches with, so service admission, scheduler makespans,
    pool placement and driver submission all account one call
    identically.  The cost depends only on the timing model and the
    geometry, so each distinct one is computed once.
    """
    fmt = call.fmt
    images_in = 2 if call.mode is AddressingMode.INTER else 1
    return _geometry_cost(timing, fmt.pixels, fmt.strips, images_in,
                          not call.reduce_to_scalar)


@functools.lru_cache(maxsize=1024)
def _geometry_cost(timing: EngineTimingModel, pixels: int, strips: int,
                   images_in: int, produces_image: bool
                   ) -> Tuple[float, float]:
    """(serial, overlapped) seconds of one call geometry (cached: the
    timing model is frozen and the costs are plain floats)."""
    serial = timing.serial_call_seconds_raw(
        pixels, strips, images_in, produces_image)
    overlapped = timing.overlapped_call_seconds_raw(
        pixels, strips, images_in, produces_image)
    return serial, overlapped

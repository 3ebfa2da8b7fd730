"""Closed-form pricing of batch calls, shared across the stack.

Every layer that reasons about multi-engine execution -- the admission
controller, the call scheduler's makespan books, and the
:class:`~repro.pool.EnginePool` workers -- must price one call with the
*same* arithmetic, or modeled dispatch decisions drift from the
accounting.  This module is that single definition; it depends only on
the addressing geometry and the validated
:class:`~repro.perf.timing.EngineTimingModel`, so the pool can sit
below the service layer without an import cycle.

A served call is priced twice -- by admission at submit and by the
board that runs its wave -- and both prices are one dict lookup per
call geometry.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..addresslib.addressing import AddressingMode
from ..addresslib.library import BatchCall
from ..image.formats import ImageFormat
from ..perf.timing import EngineTimingModel

#: Each call geometry's (serial, overlapped) seconds, by (timing model,
#: format, mode, reduction): the model is frozen, the costs are plain
#: floats, and this key hashes cheaper than the geometry's numbers.
_COSTS: Dict[Tuple[EngineTimingModel, ImageFormat, AddressingMode, bool],
             Tuple[float, float]] = {}


def call_cost_seconds(call: BatchCall, timing: EngineTimingModel
                      ) -> Tuple[float, float]:
    """(serial-model, overlap-model) seconds of one call's geometry.

    The same arithmetic :class:`~repro.host.scheduler.CallScheduler`
    prices batches with, so service admission, scheduler makespans,
    pool placement and driver submission all account one call
    identically.  The cost depends only on the timing model and the
    geometry, so each distinct one is computed once and looked up in a
    dict after that.
    """
    key = (timing, call.fmt, call.mode, call.reduce_to_scalar)
    cost = _COSTS.get(key)
    if cost is None:
        fmt = call.fmt
        images_in = 2 if call.mode is AddressingMode.INTER else 1
        produces_image = not call.reduce_to_scalar
        cost = _COSTS[key] = (
            timing.serial_call_seconds_raw(fmt.pixels, fmt.strips,
                                           images_in, produces_image),
            timing.overlapped_call_seconds_raw(fmt.pixels, fmt.strips,
                                               images_in, produces_image))
    return cost

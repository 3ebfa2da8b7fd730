"""Pixel-level sub-functions (paper section 2.2).

AddressLib separates pixel work into basic sub-functions (add, sub, mult,
grad, ...) that compose into complex operations such as homogeneity checks
or morphological gradients.  This module defines the operation objects:

* :class:`InterOp` -- elementwise over two frames (inter addressing);
* :class:`IntraOp` -- over a neighbourhood within one frame (intra
  addressing).

Each operation carries three executable faces kept consistent by tests:

1. ``scalar`` -- per-pixel reference semantics (drives the counted
   software model of Table 2 and the cycle-level engine's stage 3);
2. ``vector`` -- numpy bulk semantics (drives the fast functional
   executors used by GME and the examples);
3. ``cost`` -- per-pixel-per-channel processing instructions
   (:class:`~repro.addresslib.profiling.InstructionCost`; the executor
   adds the addressing cost on top).

All 8-bit channel math saturates to [0, 255].  An intra op has one
vector face, ``vector(padded, out, scratch)``: it reads the input plane
(with any leading batch axes) edge-padded by the neighbourhood's reach
(:class:`IntraOp`), writes its final 8-bit values into every element of
the sink ``out`` -- a result plane, whatever it held before -- and
takes every temporary from ``scratch``, a :class:`FaceScratch` keyed by
slot, shape and dtype, so an engine that keeps one scratch reuses the
same memory call after call.  :meth:`IntraOp.apply_vector` is the
allocate-and-call form: a fresh sink and fresh temporaries
(:data:`FRESH_SCRATCH`).  The faces compute in the narrowest integer
type that is exact for every 8-bit input: ``uint8`` where an identity
keeps the result in range, otherwise an accumulator whose width each op
derives from its own weights (:func:`_acc_dtype`).  A face saturates
only where its values can leave [0, 255]: the biased derivatives clip
unless the bounds (:func:`_weight_bound`) of their negative and
positive weights keep ``(sum >> 3) + 128`` in range, as the Sobel
pair's do.  The 3x3 box, Sobel, grad and max/min faces read the padded
input through views, as a row pass then a column pass, every other face
through the per-offset windows of :func:`_windows`.  Faces never write
into their input -- a CON_0 input is the caller's plane.  Leading axes
are batch axes that no value crosses.

Inter faces, ``vector(a, b)``, return the elementwise values; a reduce
sums them per call in the narrowest exact accumulator
(:func:`item_sums`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .addressing import CON_0, CON_8, Neighbourhood
from .profiling import InstructionCost


class ChannelSet(Enum):
    """Which colour channels a call reads/writes (Table 2's channel column)."""

    Y = ("Y",)
    YUV = ("Y", "U", "V")

    #: Identity hashing in C (members are singletons; see ``Channel``).
    __hash__ = object.__hash__

    def __init__(self, *names: str) -> None:
        self.channel_names: Tuple[str, ...] = names

    @property
    def count(self) -> int:
        return len(self.channel_names)


#: Largest 8-bit channel value: the input bound every accumulator width
#: is derived from.
_CHANNEL_MAX = 255


class FaceScratch:
    """The temporaries of the intra faces, allocated once and reused.

    One array per ``(slot, shape, dtype)``, made the first time a face
    takes it and handed back on every later take with whatever the
    last face left in it: a face writes a temporary in full before it
    reads it, and keeps none across calls.  Arrays are made lazily per
    key, so a scratch that only ever served reduces holds none.  Each
    call-scheduler worker process owns one (the parent's own run is
    serial execution, with fresh temporaries), as the board holds its
    IIM/OIM stores: built once, reused by every strip of every call.
    """

    __slots__ = ("_arrays",)

    def __init__(self) -> None:
        self._arrays: Dict[Tuple[str, Tuple[int, ...], object],
                           np.ndarray] = {}

    def take(self, slot: str, shape: Tuple[int, ...],
             dtype: object) -> np.ndarray:
        """The ``slot`` temporary of ``shape`` and ``dtype``; its
        contents are undefined."""
        key = (slot, shape, dtype)
        array = self._arrays.get(key)
        if array is None:
            array = self._arrays[key] = np.empty(shape, dtype)
        return array


class _FreshScratch(FaceScratch):
    """A scratch that keeps nothing: every take is a new array, as an
    allocating numpy call would make it.  It holds no state, so the one
    instance serves every call that has no scratch of its own."""

    __slots__ = ()

    def take(self, slot: str, shape: Tuple[int, ...],
             dtype: object) -> np.ndarray:
        return np.empty(shape, dtype)


FRESH_SCRATCH = _FreshScratch()


def _saturate(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``values`` clipped to the 8-bit channel range into
    ``out`` (clips in place: callers pass their own accumulator)."""
    np.clip(values, 0, 255, out=values)
    np.copyto(out, values, casting="unsafe")


def _acc_dtype(bound: int) -> type:
    """The narrowest signed integer type holding every value in
    ``[-bound, bound]``."""
    for dtype in (np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _weight_bound(weights: Sequence[int]) -> int:
    """Largest ``|sum_i w_i * v_i|`` over 8-bit values ``v_i``."""
    return sum(abs(int(w)) for w in weights) * _CHANNEL_MAX


def item_sums(values: np.ndarray) -> np.ndarray:
    """The sum of each item of a ``(B, ...)`` batch of values, exact.

    8-bit values sum in ``uint32`` while an item's size times 255 stays
    below ``2 ** 32`` (a CIF plane's is under 2.6e7): the narrowest
    accumulator that cannot wrap, and much cheaper than widening every
    byte to 64 bits.  Anything else sums in ``int64``.
    """
    items = values.reshape(len(values), -1)
    if (values.dtype == np.uint8
            and items.shape[1] * _CHANNEL_MAX < 2 ** 32):
        return items.sum(axis=1, dtype=np.uint32)
    return items.sum(axis=1, dtype=np.int64)


def _windows(neighbourhood: Neighbourhood,
             padded: np.ndarray) -> Tuple[np.ndarray, ...]:
    """One view of an edge-padded input per neighbourhood offset, in
    offset order: at output pixel ``(y, x)``, window ``i`` holds the
    clamped input value at ``(x + dx_i, y + dy_i)``."""
    min_dx, min_dy, _, _ = neighbourhood.bounding_box()
    height = padded.shape[-2] - neighbourhood.line_span + 1
    width = padded.shape[-1] - neighbourhood.column_span + 1
    return tuple(padded[..., dy - min_dy:dy - min_dy + height,
                        dx - min_dx:dx - min_dx + width]
                 for dx, dy in neighbourhood.offsets)


def _taps(values: np.ndarray, span: int,
          axis: int) -> Tuple[np.ndarray, ...]:
    """The ``span`` views of ``values`` starting ``0 .. span - 1``
    elements along ``axis`` (``-1`` along a row, ``-2`` down a column),
    each ``span - 1`` elements shorter there: one pass's taps."""
    length = values.shape[axis] - span + 1
    index = [slice(None)] * values.ndim
    views = []
    for start in range(span):
        index[axis] = slice(start, start + length)
        views.append(values[tuple(index)])
    return tuple(views)


def _fold(ufunc: np.ufunc, views: Sequence[np.ndarray],
          out: np.ndarray) -> np.ndarray:
    """``ufunc`` folded over ``views`` into ``out``; returns ``out``."""
    if len(views) == 1:
        np.copyto(out, views[0])
        return out
    ufunc(views[0], views[1], out=out)
    for view in views[2:]:
        ufunc(out, view, out=out)
    return out


def _extremum(neighbourhood: Neighbourhood, padded: np.ndarray,
              ufunc: np.ufunc, out: np.ndarray,
              scratch: FaceScratch) -> np.ndarray:
    """The neighbourhood maximum (``np.maximum``) or minimum
    (``np.minimum``) of an edge-padded input, into ``out``.

    A full-rectangle neighbourhood folds each row's ``column_span``
    taps (into the ``"pass"`` scratch; a one-column neighbourhood reads
    its input as is), then each column's ``line_span`` rows of that:
    ``w + h - 2`` ufunc calls instead of ``w * h - 1``.  Any other
    shape folds its windows.
    """
    lines = neighbourhood.line_span
    columns = neighbourhood.column_span
    if neighbourhood.size != lines * columns:
        return _fold(ufunc, _windows(neighbourhood, padded), out)
    taps = _taps(padded, columns, -1)
    rows = taps[0] if columns == 1 else _fold(
        ufunc, taps, scratch.take("pass", taps[0].shape, padded.dtype))
    return _fold(ufunc, _taps(rows, lines, -2), out)


def _weighted_sum(neighbourhood: Neighbourhood, weights: Sequence[int],
                  dtype: type
                  ) -> Callable[[np.ndarray, FaceScratch], np.ndarray]:
    """A kernel computing ``sum_i weights[i] * window_i`` in ``dtype``
    from an edge-padded input, into the ``"acc"`` scratch it returns.

    Visits only the non-zero taps and adds each window straight into the
    accumulator, so no window is widened as a whole (a weight other
    than +-1 scales its window in the ``"tap"`` scratch).  ``dtype``
    must hold :func:`_weight_bound` of ``weights`` for the sum to be
    exact.
    """
    taps = tuple((index, int(weight))
                 for index, weight in enumerate(weights) if weight)

    def weighted_sum(padded: np.ndarray,
                     scratch: FaceScratch) -> np.ndarray:
        windows = _windows(neighbourhood, padded)
        shape = windows[0].shape
        acc = scratch.take("acc", shape, dtype)
        acc.fill(0)
        for index, weight in taps:
            if weight == 1:
                acc += windows[index]
            elif weight == -1:
                acc -= windows[index]
            else:
                acc += np.multiply(windows[index], weight, dtype=dtype,
                                   out=scratch.take("tap", shape, dtype))
        return acc

    return weighted_sum


def _sobel_x(padded: np.ndarray, scratch: FaceScratch,
             slot: str = "acc") -> np.ndarray:
    """The horizontal Sobel sum of a CON_8-padded input, in ``int16``,
    into the ``slot`` scratch: the row difference ``right - left`` (at
    most 255 in magnitude), then its ``[1, 2, 1]`` column smoothing (at
    most 1,020)."""
    left, _, right = _taps(padded, 3, -1)
    diff = np.subtract(right, left, dtype=np.int16,
                       out=scratch.take("pass", right.shape, np.int16))
    up, mid, down = _taps(diff, 3, -2)
    gx = np.add(up, down, out=scratch.take(slot, up.shape, np.int16))
    gx += mid
    gx += mid
    return gx


def _sobel_y(padded: np.ndarray, scratch: FaceScratch,
             slot: str = "acc") -> np.ndarray:
    """The vertical Sobel sum of a CON_8-padded input, in ``int16``,
    into the ``slot`` scratch: the ``[1, 2, 1]`` row smoothing (at most
    1,020), then its column difference ``down - up`` (at most 1,020 in
    magnitude)."""
    left, mid, right = _taps(padded, 3, -1)
    smooth = np.add(left, right, dtype=np.int16,
                    out=scratch.take("pass", left.shape, np.int16))
    smooth += mid
    smooth += mid
    up, _, down = _taps(smooth, 3, -2)
    return np.subtract(down, up,
                       out=scratch.take(slot, up.shape, np.int16))


def _sat8_scalar(value: float) -> int:
    return int(min(max(round(value), 0), 255))


@dataclass(frozen=True)
class InterOp:
    """An elementwise operation over two frames: ``r = f(a, b)``."""

    name: str
    scalar: Callable[[int, int], int]
    vector: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cost: InstructionCost
    #: Stage-3 latency of the engine datapath, in engine cycles.
    engine_cycles: int = 1

    def apply_scalar(self, a: int, b: int) -> int:
        return self.scalar(a, b)

    def apply_vector(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.vector(a, b)


@dataclass(frozen=True)
class IntraOp:
    """A neighbourhood operation within one frame.

    ``scalar`` receives the neighbourhood values in the order of
    ``neighbourhood.offsets``.  ``vector(padded, out, scratch)`` -- the
    op's one vector face -- receives the input plane, with any leading
    batch axes, edge-padded by the neighbourhood's reach (``-min_dy``
    rows above, ``max_dy`` below, ``-min_dx`` columns left, ``max_dx``
    right: the AddressLib clamp policy), and writes the ``(..., height,
    width)`` 8-bit result into every element of ``out``, taking its
    temporaries from the :class:`FaceScratch` ``scratch``.  It never
    writes into its input, which for CON_0 is the caller's plane
    itself.
    """

    name: str
    neighbourhood: Neighbourhood
    scalar: Callable[[Sequence[int]], int]
    vector: Callable[[np.ndarray, np.ndarray, FaceScratch], object]
    cost: InstructionCost
    engine_cycles: int = 1

    def apply_scalar(self, values: Sequence[int]) -> int:
        if len(values) != self.neighbourhood.size:
            raise ValueError(
                f"{self.name} expects {self.neighbourhood.size} "
                f"neighbourhood values, got {len(values)}")
        return self.scalar(values)

    def apply_vector(self, padded: np.ndarray) -> np.ndarray:
        """The vector face on a fresh ``uint8`` sink and fresh
        temporaries: the ``(..., height, width)`` result of
        ``padded``."""
        lines = self.neighbourhood.line_span
        columns = self.neighbourhood.column_span
        if (padded.ndim < 2 or padded.shape[-2] < lines
                or padded.shape[-1] < columns):
            raise ValueError(
                f"{self.name} expects a padded input of at least "
                f"{lines} x {columns} (rows x columns), got shape "
                f"{padded.shape}")
        out = np.empty(padded.shape[:-2]
                       + (padded.shape[-2] - lines + 1,
                          padded.shape[-1] - columns + 1), np.uint8)
        self.vector(padded, out, FRESH_SCRATCH)
        return out


# ---------------------------------------------------------------------------
# Inter operations
# ---------------------------------------------------------------------------

def _make_inter(name: str, scalar, vector, cost: InstructionCost,
                engine_cycles: int = 1) -> InterOp:
    return InterOp(name=name, scalar=scalar, vector=vector, cost=cost,
                   engine_cycles=engine_cycles)


#: Saturating addition of two frames (in 8 bits as
#: ``a + min(b, 255 - a)``).
INTER_ADD = _make_inter(
    "inter_add",
    lambda a, b: _sat8_scalar(a + b),
    lambda a, b: a + np.minimum(b, 255 - a),
    InstructionCost(alu=2))

#: Saturating subtraction ``a - b`` (in 8 bits as ``a - min(a, b)``).
INTER_SUB = _make_inter(
    "inter_sub",
    lambda a, b: _sat8_scalar(a - b),
    lambda a, b: a - np.minimum(a, b),
    InstructionCost(alu=2))

#: Absolute difference -- the difference-picture / SAD building block the
#: paper names as the canonical inter operation (in 8 bits as
#: ``max(a, b) - min(a, b)``).
INTER_ABSDIFF = _make_inter(
    "inter_absdiff",
    lambda a, b: abs(int(a) - int(b)),
    lambda a, b: np.maximum(a, b) - np.minimum(a, b),
    InstructionCost(alu=2, branch=1))

#: Fixed-point multiply: ``(a * b) >> 8`` (product scaled back to 8 bits;
#: at most ``255 * 255 >> 8 = 254``, so it never saturates).
INTER_MUL = _make_inter(
    "inter_mul",
    lambda a, b: _sat8_scalar((int(a) * int(b)) >> 8),
    lambda a, b: (np.multiply(a, b, dtype=np.uint16) >> 8)
    .astype(np.uint8),
    InstructionCost(mul=1, alu=1),
    engine_cycles=2)

#: Elementwise minimum.
INTER_MIN = _make_inter(
    "inter_min",
    lambda a, b: min(int(a), int(b)),
    lambda a, b: np.minimum(a, b),
    InstructionCost(alu=1, branch=1))

#: Elementwise maximum.
INTER_MAX = _make_inter(
    "inter_max",
    lambda a, b: max(int(a), int(b)),
    lambda a, b: np.maximum(a, b),
    InstructionCost(alu=1, branch=1))

#: Rounding average of two frames (temporal smoothing).  The vector face
#: uses ``(a + b + 1) >> 1 == (a | b) - ((a ^ b) >> 1)``, exact in 8 bits.
INTER_AVG = _make_inter(
    "inter_avg",
    lambda a, b: (int(a) + int(b) + 1) >> 1,
    lambda a, b: (a | b) - ((a ^ b) >> 1),
    InstructionCost(alu=2))


# ---------------------------------------------------------------------------
# Intra operations
# ---------------------------------------------------------------------------

def copy_op() -> IntraOp:
    """CON_0 identity: the Table 2 ``Intra CON_0`` workload."""
    return IntraOp(
        name="intra_copy",
        neighbourhood=CON_0,
        scalar=lambda v: int(v[0]),
        vector=lambda plane, out, scratch: np.copyto(out, plane,
                                                     casting="unsafe"),
        cost=InstructionCost(alu=1))


def threshold_op(threshold: int, low: int = 0, high: int = 255) -> IntraOp:
    """CON_0 binarisation: ``high`` where value >= threshold else ``low``.

    Both faces return the 8-bit images of ``high`` and ``low`` (wrapped
    like ``astype``), so out-of-range levels agree too.
    """
    high8, low8 = np.array([high, low]).astype(np.uint8)

    def vector(plane: np.ndarray, out: np.ndarray,
               scratch: FaceScratch) -> None:
        above = np.greater_equal(
            plane, threshold, out=scratch.take("mask", plane.shape, bool))
        out.fill(low8)
        np.copyto(out, high8, where=above)

    return IntraOp(
        name=f"intra_threshold_{threshold}",
        neighbourhood=CON_0,
        scalar=lambda v: int(high8) if v[0] >= threshold else int(low8),
        vector=vector,
        cost=InstructionCost(alu=1, branch=1))


def scale_offset_op(scale_num: int, scale_den: int, offset: int) -> IntraOp:
    """CON_0 affine remap: ``v * scale_num / scale_den + offset``,
    saturated."""
    if scale_den <= 0:
        raise ValueError("scale_den must be positive")

    # Every operand and intermediate fits in [-bound, bound].
    dtype = _acc_dtype(max(abs(scale_num) * _CHANNEL_MAX, scale_den)
                       + abs(offset))

    def scalar(v: Sequence[int]) -> int:
        return _sat8_scalar(int(v[0]) * scale_num // scale_den + offset)

    def vector(plane: np.ndarray, out: np.ndarray,
               scratch: FaceScratch) -> None:
        acc = np.multiply(plane, scale_num, dtype=dtype,
                          out=scratch.take("acc", plane.shape, dtype))
        acc //= scale_den
        acc += offset
        _saturate(acc, out)

    return IntraOp(
        name=f"intra_scale_{scale_num}_{scale_den}_{offset}",
        neighbourhood=CON_0, scalar=scalar, vector=vector,
        cost=InstructionCost(mul=1, alu=2))


def fir_op(name: str, neighbourhood: Neighbourhood,
           weights: Sequence[int], shift: int = 0) -> IntraOp:
    """A FIR filter: weighted sum over the neighbourhood, ``>> shift``.

    ``weights`` follows ``neighbourhood.offsets`` order.  This is the
    paper's "FIR filter like operations" family (section 2.1: intra
    addressing is "typically used for FIR filter like operations").
    """
    if len(weights) != neighbourhood.size:
        raise ValueError(
            f"{name}: {len(weights)} weights for "
            f"{neighbourhood.size}-pixel neighbourhood")
    weighted_sum = _weighted_sum(neighbourhood, weights,
                                 _acc_dtype(_weight_bound(weights)))

    def scalar(values: Sequence[int]) -> int:
        acc = sum(int(w) * int(v) for w, v in zip(weights, values))
        return _sat8_scalar(acc >> shift if shift else acc)

    def vector(padded: np.ndarray, out: np.ndarray,
               scratch: FaceScratch) -> None:
        acc = weighted_sum(padded, scratch)
        if shift:
            acc >>= shift
        _saturate(acc, out)

    taps = sum(1 for w in weights if w)
    return IntraOp(
        name=name, neighbourhood=neighbourhood, scalar=scalar, vector=vector,
        cost=InstructionCost(mul=taps, alu=taps + 1),
        engine_cycles=2)


def box3_op() -> IntraOp:
    """3x3 box blur (sum / 9 approximated as ``* 57 >> 9``).

    The vector face works in ``uint16`` throughout: each row's three
    taps (at most 765), then three of those row sums down each column
    (at most ``9 * 255 = 2295``).  The product ``57 * t`` would not fit,
    so it takes ``57 * t >> 9`` as ``(28 * t + (t >> 1)) >> 8``: the
    inner sum is ``57 * t >> 1`` exactly (``57 * t = 56 * t + t``) and
    at most 65,407.
    """
    nine = [1] * 9

    def scalar(values: Sequence[int]) -> int:
        return _sat8_scalar((sum(int(v) for v in values) * 57) >> 9)

    def vector(padded: np.ndarray, out: np.ndarray,
               scratch: FaceScratch) -> None:
        left, mid, right = _taps(padded, 3, -1)
        rows = np.add(left, mid, dtype=np.uint16,
                      out=scratch.take("pass", left.shape, np.uint16))
        rows += right
        up, mid, down = _taps(rows, 3, -2)
        total = np.add(up, mid,
                       out=scratch.take("acc", up.shape, np.uint16))
        total += down
        scaled = np.multiply(total, 28,
                             out=scratch.take("tap", up.shape, np.uint16))
        total >>= 1
        scaled += total
        np.right_shift(scaled, 8, out=out, casting="unsafe")

    return IntraOp(
        name="intra_box3", neighbourhood=CON_8, scalar=scalar, vector=vector,
        cost=InstructionCost(mul=1, alu=len(nine) + 1), engine_cycles=2)


def _offset_weight_map(neighbourhood: Neighbourhood,
                       mapping: Dict[Tuple[int, int], int]) -> Tuple[int, ...]:
    return tuple(mapping.get(off, 0) for off in neighbourhood.offsets)


#: Sobel and Laplace weights, in CON_8 offset order.
_SOBEL_X = _offset_weight_map(CON_8, {
    (-1, -1): -1, (1, -1): 1,
    (-1, 0): -2, (1, 0): 2,
    (-1, 1): -1, (1, 1): 1,
})
_SOBEL_Y = _offset_weight_map(CON_8, {
    (-1, -1): -1, (0, -1): -2, (1, -1): -1,
    (-1, 1): 1, (0, 1): 2, (1, 1): 1,
})
_LAPLACE = _offset_weight_map(CON_8, {
    (0, 0): 8,
    (-1, -1): -1, (0, -1): -1, (1, -1): -1,
    (-1, 0): -1, (1, 0): -1,
    (-1, 1): -1, (0, 1): -1, (1, 1): -1,
})


def _biased_op(name: str, weights: Tuple[int, ...],
               response: Callable[[np.ndarray, FaceScratch], np.ndarray],
               cost: InstructionCost) -> IntraOp:
    """A CON_8 derivative ``(sum_i w_i * v_i >> 3) + 128``, saturated:
    the signed response biased into the 8-bit range.  ``response``
    computes the weighted sum from the padded input into a scratch
    array, in a type that holds it exactly.  The sum lies between the
    bounds (:func:`_weight_bound`) of the negative and of the positive
    weights; where both bias into [0, 255] -- Sobel's -1,020 and 1,020
    map to exactly 0 and 255 -- the face needs no clip and writes the
    biased sum straight into its sink."""
    highest = _weight_bound([w for w in weights if w > 0])
    lowest = -_weight_bound([w for w in weights if w < 0])
    saturates = (lowest >> 3) + 128 < 0 or (highest >> 3) + 128 > 255

    def scalar(values: Sequence[int]) -> int:
        acc = sum(w * int(v) for w, v in zip(weights, values))
        return _sat8_scalar((acc >> 3) + 128)

    def vector(padded: np.ndarray, out: np.ndarray,
               scratch: FaceScratch) -> None:
        acc = response(padded, scratch)
        acc >>= 3
        if saturates:
            acc += 128
            _saturate(acc, out)
        else:
            np.add(acc, 128, out=out, casting="unsafe")

    return IntraOp(name=name, neighbourhood=CON_8, scalar=scalar,
                   vector=vector, cost=cost, engine_cycles=2)


def sobel_x_op() -> IntraOp:
    """Horizontal Sobel derivative, biased by +128 into the 8-bit range."""
    return _biased_op("intra_sobel_x", _SOBEL_X, _sobel_x,
                      InstructionCost(mul=6, alu=8))


def sobel_y_op() -> IntraOp:
    """Vertical Sobel derivative, biased by +128 into the 8-bit range."""
    return _biased_op("intra_sobel_y", _SOBEL_Y, _sobel_y,
                      InstructionCost(mul=6, alu=8))


def gradient_magnitude_op() -> IntraOp:
    """|Sobel_x| + |Sobel_y| over the 3x3 neighbourhood ("grad").

    Each derivative is at most 1,020 in magnitude, so the ``int16`` sum
    is at most 2,040 and its ``>> 3`` at most 255: no saturation.
    """
    def scalar(values: Sequence[int]) -> int:
        gx = sum(w * int(v) for w, v in zip(_SOBEL_X, values))
        gy = sum(w * int(v) for w, v in zip(_SOBEL_Y, values))
        return _sat8_scalar((abs(gx) + abs(gy)) >> 3)

    def vector(padded: np.ndarray, out: np.ndarray,
               scratch: FaceScratch) -> None:
        gx = _sobel_x(padded, scratch, "gx")
        gy = _sobel_y(padded, scratch, "gy")
        np.abs(gx, out=gx)
        np.abs(gy, out=gy)
        gx += gy
        np.right_shift(gx, 3, out=out, casting="unsafe")

    return IntraOp(name="intra_grad", neighbourhood=CON_8,
                   scalar=scalar, vector=vector,
                   cost=InstructionCost(mul=12, alu=18, branch=2),
                   engine_cycles=3)


def erode_op(neighbourhood: Neighbourhood = CON_8) -> IntraOp:
    """Morphological erosion: neighbourhood minimum."""
    return IntraOp(
        name=f"intra_erode_{neighbourhood.name}",
        neighbourhood=neighbourhood,
        scalar=lambda v: int(min(v)),
        vector=lambda padded, out, scratch: _extremum(
            neighbourhood, padded, np.minimum, out, scratch),
        cost=InstructionCost(alu=neighbourhood.size - 1,
                             branch=neighbourhood.size - 1))


def dilate_op(neighbourhood: Neighbourhood = CON_8) -> IntraOp:
    """Morphological dilation: neighbourhood maximum."""
    return IntraOp(
        name=f"intra_dilate_{neighbourhood.name}",
        neighbourhood=neighbourhood,
        scalar=lambda v: int(max(v)),
        vector=lambda padded, out, scratch: _extremum(
            neighbourhood, padded, np.maximum, out, scratch),
        cost=InstructionCost(alu=neighbourhood.size - 1,
                             branch=neighbourhood.size - 1))


def morph_gradient_op(neighbourhood: Neighbourhood = CON_8) -> IntraOp:
    """Morphological gradient: dilation minus erosion in one pass.

    The paper names "morphological gradient operations" as a canonical
    composition of basic sub-functions.
    """
    def vector(padded: np.ndarray, out: np.ndarray,
               scratch: FaceScratch) -> None:
        _extremum(neighbourhood, padded, np.maximum, out, scratch)
        out -= _extremum(neighbourhood, padded, np.minimum,
                         scratch.take("low", out.shape, padded.dtype),
                         scratch)

    return IntraOp(
        name=f"intra_morph_grad_{neighbourhood.name}",
        neighbourhood=neighbourhood,
        scalar=lambda v: int(max(v)) - int(min(v)),
        vector=vector,
        cost=InstructionCost(alu=2 * neighbourhood.size - 1,
                             branch=2 * (neighbourhood.size - 1)),
        engine_cycles=2)


def median3_op() -> IntraOp:
    """3x3 median filter (rank filter; impulse noise removal)."""
    def scalar(values: Sequence[int]) -> int:
        ordered = sorted(int(v) for v in values)
        return ordered[len(ordered) // 2]

    def vector(padded: np.ndarray, out: np.ndarray,
               scratch: FaceScratch) -> None:
        windows = _windows(CON_8, padded)
        stack = np.stack(windows, out=scratch.take(
            "stack", (len(windows),) + windows[0].shape, padded.dtype))
        middle = len(windows) // 2
        stack.partition(middle, axis=0)
        np.copyto(out, stack[middle])

    return IntraOp(name="intra_median3", neighbourhood=CON_8,
                   scalar=scalar, vector=vector,
                   cost=InstructionCost(alu=30, branch=19),
                   engine_cycles=4)


def laplace_op() -> IntraOp:
    """3x3 Laplacian (centre*8 - neighbours), biased by +128."""
    response = _weighted_sum(CON_8, _LAPLACE,
                             _acc_dtype(_weight_bound(_LAPLACE)))
    return _biased_op("intra_laplace", _LAPLACE, response,
                      InstructionCost(mul=9, alu=10))


def homogeneity_op(neighbourhood: Neighbourhood = CON_8) -> IntraOp:
    """Maximum absolute difference between the centre and its neighbours.

    The paper's example composition: "luminance/chrominance difference
    between neighboring pixels for homogeneity check" -- low output means
    the centre sits inside a homogeneous region, high output marks a
    boundary.  Segment growing thresholds this value.

    The centre is one of the neighbourhood's values, so the vector face
    computes ``max(hi - centre, centre - lo)`` from the neighbourhood
    maximum ``hi`` and minimum ``lo``, in 8 bits.
    """
    centre_index = neighbourhood.offsets.index((0, 0))

    def scalar(values: Sequence[int]) -> int:
        centre = int(values[centre_index])
        return max(abs(int(v) - centre) for v in values)

    def vector(padded: np.ndarray, out: np.ndarray,
               scratch: FaceScratch) -> None:
        centre = _windows(neighbourhood, padded)[centre_index]
        above = _extremum(neighbourhood, padded, np.maximum, out, scratch)
        above -= centre
        below = _extremum(neighbourhood, padded, np.minimum,
                          scratch.take("low", out.shape, padded.dtype),
                          scratch)
        np.subtract(centre, below, out=below)
        np.maximum(above, below, out=above)

    return IntraOp(name=f"intra_homogeneity_{neighbourhood.name}",
                   neighbourhood=neighbourhood,
                   scalar=scalar, vector=vector,
                   cost=InstructionCost(alu=2 * neighbourhood.size,
                                        branch=neighbourhood.size))


#: Ready-made instances of the parameterless intra ops.
INTRA_COPY = copy_op()
INTRA_BOX3 = box3_op()
INTRA_SOBEL_X = sobel_x_op()
INTRA_SOBEL_Y = sobel_y_op()
INTRA_GRAD = gradient_magnitude_op()
INTRA_ERODE = erode_op()
INTRA_DILATE = dilate_op()
INTRA_MORPH_GRAD = morph_gradient_op()
INTRA_MEDIAN3 = median3_op()
INTRA_LAPLACE = laplace_op()
INTRA_HOMOGENEITY = homogeneity_op()

#: All named inter ops, by name.
INTER_OPS: Dict[str, InterOp] = {
    op.name: op for op in (
        INTER_ADD, INTER_SUB, INTER_ABSDIFF, INTER_MUL, INTER_MIN,
        INTER_MAX, INTER_AVG)
}

#: All parameterless intra ops, by name.
INTRA_OPS: Dict[str, IntraOp] = {
    op.name: op for op in (
        INTRA_COPY, INTRA_BOX3, INTRA_SOBEL_X, INTRA_SOBEL_Y, INTRA_GRAD,
        INTRA_ERODE, INTRA_DILATE, INTRA_MORPH_GRAD, INTRA_MEDIAN3,
        INTRA_LAPLACE, INTRA_HOMOGENEITY)
}

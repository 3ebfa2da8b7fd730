"""Synthetic image content for tests, examples and benchmarks.

The paper evaluates on four MPEG-1 CIF clips we do not have (Singapore,
Dome, Pisa, Movie).  Per the substitution plan in DESIGN.md we generate
deterministic synthetic content instead: textured panoramas for the global
motion estimation workload and structured patterns for unit-level checks.
All generators are seeded and reproducible.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

import numpy as np

from .formats import ImageFormat, block_rows
from .frame import PLANE_DTYPES, Frame
from .pixel import Channel


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(0xADD2E55 if seed is None else seed)


def gradient_frame(fmt: ImageFormat, horizontal: bool = True) -> Frame:
    """A linear luminance ramp (neutral chroma).

    Useful for verifying scan orders and gradient operators: the luminance
    derivative is constant and known.
    """
    frame = Frame(fmt)
    if horizontal:
        ramp = np.linspace(0, 255, fmt.width).astype(np.uint8)
        frame.y[:] = np.tile(ramp, (fmt.height, 1))
    else:
        ramp = np.linspace(0, 255, fmt.height).astype(np.uint8)
        frame.y[:] = np.tile(ramp[:, None], (1, fmt.width))
    frame.u[:] = 128
    frame.v[:] = 128
    return frame


def checkerboard_frame(fmt: ImageFormat, cell: int = 8,
                       low: int = 32, high: int = 224) -> Frame:
    """A luminance checkerboard with ``cell``-pixel squares."""
    if cell <= 0:
        raise ValueError("cell size must be positive")
    frame = Frame(fmt)
    ys, xs = np.mgrid[0:fmt.height, 0:fmt.width]
    board = ((xs // cell + ys // cell) % 2).astype(np.uint8)
    frame.y[:] = np.where(board == 0, low, high).astype(np.uint8)
    frame.u[:] = 128
    frame.v[:] = 128
    return frame


def noise_frame(fmt: ImageFormat, seed: Optional[int] = None) -> Frame:
    """Uniform random content in all five channels (seeded)."""
    rng = _rng(seed)
    frame = Frame(fmt)
    frame.y[:] = rng.integers(0, 256, size=frame.y.shape, dtype=np.uint16)
    frame.u[:] = rng.integers(0, 256, size=frame.u.shape, dtype=np.uint16)
    frame.v[:] = rng.integers(0, 256, size=frame.v.shape, dtype=np.uint16)
    frame.alfa[:] = rng.integers(0, 1 << 16, size=frame.alfa.shape,
                                 dtype=np.uint32)
    frame.aux[:] = rng.integers(0, 1 << 16, size=frame.aux.shape,
                                dtype=np.uint32)
    return frame


def textured_panorama(width: int, height: int,
                      seed: Optional[int] = None,
                      octaves: int = 4) -> np.ndarray:
    """A smooth but feature-rich luminance panorama, as a float64 array.

    Built from summed band-limited noise (value-noise octaves): smooth
    enough that gradient-based motion estimation converges, textured enough
    that the SAD error surface has a clear minimum.  Used as the scene that
    synthetic camera paths pan across (see :mod:`repro.gme.sequences`).
    """
    if octaves < 1:
        raise ValueError("need at least one octave")
    rng = _rng(seed)
    # Every octave's lattice, drawn in octave order, and its bilinear
    # upsampling weights: the lattice columns gathered once
    # (``left[y0]`` is ``coarse[np.ix_(y0, x0)]``), the row indices and
    # the row and column fractions.
    lattices = []
    amplitude = 1.0
    total_amplitude = 0.0
    for octave in range(octaves):
        cells = 2 ** (octave + 2)
        coarse = rng.random((cells + 1, cells + 1))
        ys = np.linspace(0, cells, height)
        xs = np.linspace(0, cells, width)
        y0 = np.clip(ys.astype(int), 0, cells - 1)
        x0 = np.clip(xs.astype(int), 0, cells - 1)
        fy = (ys - y0)[:, None]
        fx = (xs - x0)[None, :]
        lattices.append((coarse[:, x0], coarse[:, x0 + 1], y0, fy, 1 - fy,
                         fx, 1 - fx, amplitude))
        total_amplitude += amplitude
        amplitude *= 0.55
    # Fill the canvas one row block at a time, every octave per block.
    # Each layer is the four-term bilinear expression
    # ``c00 gy gx + c01 gy fx + c10 fy gx + c11 fy fx``, each term
    # rounded left to right and summed in that order, in place, then
    # scaled by the octave's amplitude and added to the block.  The
    # gathers' row indices are always in range; ``mode="clip"`` only
    # keeps ``take`` from buffering its output, as ``"raise"`` does.
    canvas = np.zeros((height, width), dtype=np.float64)
    rows = block_rows(width)
    layer = np.empty((min(rows, height), width), dtype=np.float64)
    term = np.empty_like(layer)
    for top in range(0, height, rows):
        block = canvas[top:top + rows]
        span = block.shape[0]
        layer_b, term_b = layer[:span], term[:span]
        for left, right, y0, fy, gy, fx, gx, scale in lattices:
            y0_b = y0[top:top + span]
            fy_b, gy_b = fy[top:top + span], gy[top:top + span]
            left.take(y0_b, axis=0, out=layer_b, mode="clip")
            layer_b *= gy_b
            layer_b *= gx
            right.take(y0_b, axis=0, out=term_b, mode="clip")
            term_b *= gy_b
            term_b *= fx
            layer_b += term_b
            y0_b = y0_b + 1
            left.take(y0_b, axis=0, out=term_b, mode="clip")
            term_b *= fy_b
            term_b *= gx
            layer_b += term_b
            right.take(y0_b, axis=0, out=term_b, mode="clip")
            term_b *= fy_b
            term_b *= fx
            layer_b += term_b
            layer_b *= scale
            block += layer_b
    canvas /= total_amplitude
    # Stretch to the full 8-bit range but keep float precision for sampling.
    canvas -= canvas.min()
    peak = canvas.max()
    if peak > 0:
        canvas *= 255.0 / peak
    return canvas


def frame_from_luma(fmt: ImageFormat, luma: np.ndarray) -> Frame:
    """Wrap a luminance array (any numeric dtype) into a neutral-chroma
    frame.

    The frame allocates only its Y plane, ``luma`` rounded and clipped
    to 8 bits.  U and V (128) and Alfa and Aux (0) are read-only
    neutral planes every luma frame of that width and height shares
    (:func:`_neutral_planes`), marked shared, so :meth:`Frame.plane`
    (and ``.u``, ``.alfa``, ``set_pixel``, ``fill``) copies one before
    handing it out and a write reaches no other frame.
    """
    if luma.shape != (fmt.height, fmt.width):
        raise ValueError(
            f"luma shape {luma.shape} does not match {fmt.name} "
            f"({fmt.height}, {fmt.width})")
    chroma, extra = _neutral_planes(fmt.width, fmt.height)
    y = np.empty(luma.shape, dtype=PLANE_DTYPES[Channel.Y])
    np.clip(np.round(luma), 0, 255, out=y, casting="unsafe")
    return Frame.from_plane_views(
        fmt, {Channel.Y: y, Channel.U: chroma, Channel.V: chroma,
              Channel.ALFA: extra, Channel.AUX: extra},
        shared=(Channel.U, Channel.V, Channel.ALFA, Channel.AUX))


@functools.lru_cache(maxsize=8)
def _neutral_planes(width: int,
                    height: int) -> Tuple[np.ndarray, np.ndarray]:
    """The read-only neutral planes of one geometry: chroma (128, for
    U and V) and Alfa/Aux (0).  Keyed by size, not by format object
    (each estimator names its own pyramid formats), and bounded: only
    the eight geometries used last keep theirs, and a frame keeps the
    planes it was made with."""
    chroma = np.full((height, width), 128, dtype=PLANE_DTYPES[Channel.U])
    extra = np.zeros((height, width), dtype=PLANE_DTYPES[Channel.ALFA])
    chroma.flags.writeable = extra.flags.writeable = False
    return chroma, extra


def blob_frame(fmt: ImageFormat, centers, radius: int = 12,
               inside: int = 200, outside: int = 30) -> Frame:
    """Bright circular blobs on a dark background.

    Segmentation tests use this: each blob is one connected segment with a
    strong homogeneity boundary.  ``centers`` is an iterable of ``(x, y)``.
    """
    frame = Frame(fmt)
    frame.y[:] = outside
    frame.u[:] = 128
    frame.v[:] = 128
    ys, xs = np.mgrid[0:fmt.height, 0:fmt.width]
    for cx, cy in centers:
        mask = (xs - cx) ** 2 + (ys - cy) ** 2 <= radius ** 2
        frame.y[mask] = inside
    return frame

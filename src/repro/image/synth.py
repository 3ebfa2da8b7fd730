"""Synthetic image content for tests, examples and benchmarks.

The paper evaluates on four MPEG-1 CIF clips we do not have (Singapore,
Dome, Pisa, Movie).  Per the substitution plan in DESIGN.md we generate
deterministic synthetic content instead: textured panoramas for the global
motion estimation workload and structured patterns for unit-level checks.
All generators are seeded and reproducible.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .formats import ImageFormat
from .frame import Frame


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
    canvas = np.zeros((height, width), dtype=np.float64)
    amplitude = 1.0
    total_amplitude = 0.0
    for octave in range(octaves):
        cells = 2 ** (octave + 2)
        coarse = rng.random((cells + 1, cells + 1))
        # Bilinear upsample of the coarse lattice onto the full canvas.
        ys = np.linspace(0, cells, height)
        xs = np.linspace(0, cells, width)
        y0 = np.clip(ys.astype(int), 0, cells - 1)
        x0 = np.clip(xs.astype(int), 0, cells - 1)
        fy = (ys - y0)[:, None]
        fx = (xs - x0)[None, :]
        gy = 1 - fy
        gx = 1 - fx
        # Gather the lattice columns first, then whole rows of those:
        # ``left[y0]`` is ``coarse[np.ix_(y0, x0)]`` at the price of row
        # copies.  The layer is the four-term bilinear expression
        # ``c00 gy gx + c01 gy fx + c10 fy gx + c11 fy fx``, each term
        # rounded left to right and summed in that order, in place.
        left = coarse[:, x0]
        right = coarse[:, x0 + 1]
        layer = left[y0]
        layer *= gy
        layer *= gx
        term = right[y0]
        term *= gy
        term *= fx
        layer += term
        left.take(y0 + 1, axis=0, out=term)
        term *= fy
        term *= gx
        layer += term
        right.take(y0 + 1, axis=0, out=term)
        term *= fy
        term *= fx
        layer += term
        layer *= amplitude
        canvas += layer
        total_amplitude += amplitude
        amplitude *= 0.55
    canvas /= total_amplitude
    # Stretch to the full 8-bit range but keep float precision for sampling.
    canvas -= canvas.min()
    peak = canvas.max()
    if peak > 0:
        canvas *= 255.0 / peak
    return canvas


def frame_from_luma(fmt: ImageFormat, luma: np.ndarray) -> Frame:
    """Wrap a luminance array (any numeric dtype) into a neutral-chroma frame."""
    if luma.shape != (fmt.height, fmt.width):
        raise ValueError(
            f"luma shape {luma.shape} does not match {fmt.name} "
            f"({fmt.height}, {fmt.width})")
    frame = Frame(fmt)
    np.clip(np.round(luma), 0, 255, out=frame.y, casting="unsafe")
    frame.u[:] = 128
    frame.v[:] = 128
    return frame


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

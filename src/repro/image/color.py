"""Colour conversion: BT.601 RGB <-> YUV (the MPEG-1 colour space).

The paper's pipeline lives entirely in YUV (MPEG-1 sources, YUV pixel
channels), but a usable library needs a way in and out of RGB for
display and for importing ordinary images.  Conversions follow ITU-R
BT.601 with the full-range 8-bit mapping used by JPEG/MPEG software
(Y in [0, 255], U/V centred on 128).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .formats import ImageFormat
from .frame import Frame
from .pixel import Channel

#: BT.601 luma weights.
KR, KG, KB = 0.299, 0.587, 0.114


def rgb_to_yuv(rgb: np.ndarray) -> Tuple[np.ndarray, np.ndarray,
                                         np.ndarray]:
    """Convert an ``(H, W, 3)`` uint8 RGB image to full-range Y, U, V
    uint8 planes."""
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"need an (H, W, 3) array, got {rgb.shape}")
    r = rgb[..., 0].astype(np.float64)
    g = rgb[..., 1].astype(np.float64)
    b = rgb[..., 2].astype(np.float64)
    y = KR * r + KG * g + KB * b
    u = (b - y) / (2.0 * (1.0 - KB)) + 128.0
    v = (r - y) / (2.0 * (1.0 - KR)) + 128.0
    clip = lambda plane: np.clip(np.round(plane), 0, 255).astype(np.uint8)
    return clip(y), clip(u), clip(v)


def yuv_to_rgb(y: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Convert full-range Y, U, V planes to an ``(H, W, 3)`` uint8 RGB
    image (planes must share one shape)."""
    if not (y.shape == u.shape == v.shape):
        raise ValueError(
            f"plane shapes differ: {y.shape}, {u.shape}, {v.shape}")
    yf = y.astype(np.float64)
    uf = u.astype(np.float64) - 128.0
    vf = v.astype(np.float64) - 128.0
    r = yf + 2.0 * (1.0 - KR) * vf
    b = yf + 2.0 * (1.0 - KB) * uf
    g = (yf - KR * r - KB * b) / KG
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)


def frame_from_rgb(fmt: ImageFormat, rgb: np.ndarray) -> Frame:
    """Build a packed frame from an RGB image (Alfa/Aux zeroed)."""
    if rgb.shape[:2] != (fmt.height, fmt.width):
        raise ValueError(
            f"image {rgb.shape[:2]} does not match {fmt.name} "
            f"({fmt.height}, {fmt.width})")
    y, u, v = rgb_to_yuv(rgb)
    frame = Frame(fmt)
    frame.y[:] = y
    frame.u[:] = u
    frame.v[:] = v
    return frame


def frame_to_rgb(frame: Frame) -> np.ndarray:
    """Render a packed frame as an ``(H, W, 3)`` uint8 RGB image."""
    return yuv_to_rgb(*(frame.read_plane(channel)
                         for channel in (Channel.Y, Channel.U, Channel.V)))

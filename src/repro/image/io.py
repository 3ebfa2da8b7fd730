"""Frame file I/O: PGM images, planar YUV clips, packed frame dumps.

Three interchange formats:

* **PGM** (P5) -- one luminance plane, viewable everywhere; used by the
  examples for mosaics and debug dumps.
* **Planar YUV 4:2:0** (".yuv" clips) -- the layout MPEG-1 decoders
  emit and the paper's software baseline consumes: per frame a full-res
  Y plane followed by quarter-res U and V planes.  Sequences concatenate
  frames, so this module reads/writes whole clips.
* **Packed AE64 dumps** -- the engine's native 64-bit pixel layout
  (lower word stream then upper word stream, little endian), exact for
  all five channels; round-trips a :class:`Frame` losslessly.
"""

from __future__ import annotations

from pathlib import Path
from typing import BinaryIO, Iterable, List, Union

import numpy as np

from .formats import ImageFormat
from .frame import Frame
from .planar import PlanarFrame420
from .pixel import Channel

PathLike = Union[str, Path]

#: Magic prefix of packed frame dumps.
AE64_MAGIC = b"AE64\x01"


# ---------------------------------------------------------------------------
# PGM
# ---------------------------------------------------------------------------

def write_pgm(path: PathLike, luma: np.ndarray) -> None:
    """Write a luminance plane as a binary PGM (P5, maxval 255)."""
    data = np.clip(np.round(np.asarray(luma, dtype=np.float64)),
                   0, 255).astype(np.uint8)
    if data.ndim != 2:
        raise ValueError(f"PGM needs a 2-D plane, got shape {data.shape}")
    height, width = data.shape
    with open(path, "wb") as handle:
        handle.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        handle.write(data.tobytes())


def read_pgm(path: PathLike) -> np.ndarray:
    """Read a binary PGM into a uint8 plane."""
    with open(path, "rb") as handle:
        magic = _read_token(handle)
        if magic != b"P5":
            raise ValueError(f"not a binary PGM: magic {magic!r}")
        width = int(_read_token(handle))
        height = int(_read_token(handle))
        maxval = int(_read_token(handle))
        if maxval != 255:
            raise ValueError(f"only maxval 255 supported, got {maxval}")
        data = handle.read(width * height)
    if len(data) != width * height:
        raise ValueError("truncated PGM payload")
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width)


def _read_token(handle: BinaryIO) -> bytes:
    """Read one whitespace-delimited PGM header token (skips comments)."""
    token = b""
    while True:
        char = handle.read(1)
        if not char:
            raise ValueError("unexpected end of PGM header")
        if char == b"#":
            while char not in (b"\n", b""):
                char = handle.read(1)
            continue
        if char.isspace():
            if token:
                return token
            continue
        token += char


# ---------------------------------------------------------------------------
# Planar YUV 4:2:0 clips
# ---------------------------------------------------------------------------

def yuv420_frame_bytes(fmt: ImageFormat) -> int:
    """Bytes of one 4:2:0 frame: Y full-res + U, V quarter-res."""
    half_w = -(-fmt.width // 2)
    half_h = -(-fmt.height // 2)
    return fmt.pixels + 2 * half_w * half_h


def write_yuv420(path: PathLike, frames: Iterable[Frame],
                 append: bool = False) -> int:
    """Write frames as a planar 4:2:0 clip; returns the frame count.

    Chroma is decimated exactly like :class:`PlanarFrame420` (top-left
    of each quad), so engine-side frames round-trip through the software
    baseline's storage convention.
    """
    count = 0
    mode = "ab" if append else "wb"
    with open(path, mode) as handle:
        for frame in frames:
            handle.write(frame.read_plane(Channel.Y).tobytes())
            handle.write(frame.read_plane(Channel.U)[::2, ::2].tobytes())
            handle.write(frame.read_plane(Channel.V)[::2, ::2].tobytes())
            count += 1
    return count


def read_yuv420(path: PathLike, fmt: ImageFormat,
                max_frames: int = None) -> List[Frame]:
    """Read a planar 4:2:0 clip into frames (chroma replicated 2x2)."""
    frame_bytes = yuv420_frame_bytes(fmt)
    half_w = -(-fmt.width // 2)
    half_h = -(-fmt.height // 2)
    frames: List[Frame] = []
    with open(path, "rb") as handle:
        while max_frames is None or len(frames) < max_frames:
            blob = handle.read(frame_bytes)
            if not blob:
                break
            if len(blob) != frame_bytes:
                raise ValueError(
                    f"truncated clip: frame {len(frames)} has "
                    f"{len(blob)} of {frame_bytes} bytes")
            planar = PlanarFrame420(fmt)
            offset = 0
            planar.plane(Channel.Y)[:] = np.frombuffer(
                blob, np.uint8, fmt.pixels, offset).reshape(
                fmt.height, fmt.width)
            offset += fmt.pixels
            planar.plane(Channel.U)[:] = np.frombuffer(
                blob, np.uint8, half_w * half_h, offset).reshape(
                half_h, half_w)
            offset += half_w * half_h
            planar.plane(Channel.V)[:] = np.frombuffer(
                blob, np.uint8, half_w * half_h, offset).reshape(
                half_h, half_w)
            frames.append(planar.to_frame())
    return frames


# ---------------------------------------------------------------------------
# Packed AE64 dumps
# ---------------------------------------------------------------------------

def write_ae64(path: PathLike, frame: Frame) -> None:
    """Dump a frame in the engine's packed two-word-per-pixel layout."""
    lower, upper = frame.to_words()
    header = (AE64_MAGIC
              + int(frame.width).to_bytes(4, "little")
              + int(frame.height).to_bytes(4, "little"))
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(lower.astype("<u4").tobytes())
        handle.write(upper.astype("<u4").tobytes())


def read_ae64(path: PathLike) -> Frame:
    """Load a packed frame dump (lossless for all five channels)."""
    with open(path, "rb") as handle:
        magic = handle.read(len(AE64_MAGIC))
        if magic != AE64_MAGIC:
            raise ValueError(f"not an AE64 dump: magic {magic!r}")
        width = int.from_bytes(handle.read(4), "little")
        height = int.from_bytes(handle.read(4), "little")
        fmt = ImageFormat(f"AE64-{width}x{height}", width, height)
        words = fmt.pixels
        lower = np.frombuffer(handle.read(words * 4),
                              dtype="<u4").reshape(height, width)
        upper = np.frombuffer(handle.read(words * 4),
                              dtype="<u4").reshape(height, width)
    if lower.size != words or upper.size != words:
        raise ValueError("truncated AE64 payload")
    return Frame.from_words(fmt, lower.astype(np.uint32),
                            upper.astype(np.uint32))

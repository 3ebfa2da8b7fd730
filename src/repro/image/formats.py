"""Image formats supported by the AddressEngine prototype.

The paper's prototype (section 3.1) handles exactly two frame formats:

* **QCIF** -- 176 x 144 pixels (about 200 kBytes at 64 bits per pixel)
* **CIF**  -- 352 x 288 pixels (about 800 kBytes at 64 bits per pixel)

Both dimensions are multiples of the 16-line strip height used by the
double-buffered PC-to-ZBT transfer scheme, which the paper calls out as a
deliberate design decision ("Sixteen is also divisor of the image size").
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bits per stored pixel: Y, U, V at 8 bits plus Alfa and Aux at 16 bits,
#: padded to a 64-bit container (two 32-bit ZBT words).
PIXEL_BITS = 64

#: Bytes per stored pixel.
PIXEL_BYTES = PIXEL_BITS // 8

#: Height of a transfer strip in lines (section 3.1: the maximum
#: neighbourhood span is nine lines, and sixteen is the next power of two).
STRIP_LINES = 16

#: Pixels per row block of the host-side GME kernels (``warp_luma`` and
#: ``textured_panorama``), the host's analogue of the engine's strips:
#: each block's float64 temporaries (256 KB apiece) stay in the L2
#: cache instead of streaming whole planes through memory.  A QCIF
#: plane (25,344 pixels) fits in one block.  A constant rather than a
#: parameter: results are bit-identical at any block size, so only
#: speed depends on it.
BLOCK_PIXELS = 1 << 15


def block_rows(width: int) -> int:
    """Rows per ``BLOCK_PIXELS`` block of a plane ``width`` pixels wide
    (at least one; the last block of a plane may hold fewer)."""
    return max(1, BLOCK_PIXELS // max(width, 1))


@dataclass(frozen=True)
class ImageFormat:
    """A rectangular frame format.

    Attributes:
        name: Human-readable format name (``"QCIF"`` or ``"CIF"``).
        width: Frame width in pixels.
        height: Frame height in pixels.
    """

    name: str
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"format dimensions must be positive: {self}")

    @property
    def pixels(self) -> int:
        """Total number of pixels in one frame."""
        return self.width * self.height

    @property
    def bytes_packed(self) -> int:
        """Size of one frame in the engine's packed 64-bit representation."""
        return self.pixels * PIXEL_BYTES

    @property
    def strips(self) -> int:
        """Number of 16-line strips needed to cover the frame.

        The last strip may be partial when the height is not a multiple of
        :data:`STRIP_LINES`; for the paper's formats it never is.
        """
        return -(-self.height // STRIP_LINES)

    @property
    def strip_aligned(self) -> bool:
        """Whether the frame height is an exact multiple of the strip size."""
        return self.height % STRIP_LINES == 0

    def contains(self, x: int, y: int) -> bool:
        """Return ``True`` when ``(x, y)`` is a valid pixel coordinate."""
        return 0 <= x < self.width and 0 <= y < self.height


#: QCIF: 176 x 144, approx. 200 kBytes packed (the paper's smaller format).
QCIF = ImageFormat("QCIF", 176, 144)

#: CIF: 352 x 288, approx. 800 kBytes packed (the paper's evaluation format).
CIF = ImageFormat("CIF", 352, 288)

#: Formats the ZBT memory map is sized for.
SUPPORTED_FORMATS = (QCIF, CIF)


def format_by_name(name: str) -> ImageFormat:
    """Look up a supported format by (case-insensitive) name.

    Raises:
        KeyError: if the name matches no supported format.
    """
    wanted = name.strip().upper()
    for fmt in SUPPORTED_FORMATS:
        if fmt.name == wanted:
            return fmt
    raise KeyError(f"unknown image format {name!r}; supported: "
                   f"{', '.join(f.name for f in SUPPORTED_FORMATS)}")

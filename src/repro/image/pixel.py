"""The AddressEngine 64-bit pixel and its ZBT word packing.

Section 3.1 of the paper: *"Since the memory width is 32 bits and the pixel
size is 64 bits (i.e. 8 bits per Y, U, V channels and 16 bits per Alfa and
Aux channels) two memory positions are required to store one pixel. The
AddressEngine coprocessor stores the upper and the lower part of the pixel
in the same position of two different ZBT banks."*

We therefore model a pixel as five channels packed into two 32-bit words:

* **lower word**: ``Y`` (bits 0-7), ``U`` (bits 8-15), ``V`` (bits 16-23),
  bits 24-31 reserved/zero;
* **upper word**: ``Alfa`` (bits 0-15), ``Aux`` (bits 16-31).

``Alfa`` carries segmentation/alpha state and ``Aux`` carries
algorithm-defined auxiliary data (e.g. segment labels or gradient
magnitudes); both are 16-bit unsigned in storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple


class Channel(Enum):
    """A pixel channel, with its storage word and bit position."""

    Y = ("lower", 0, 8)
    U = ("lower", 8, 8)
    V = ("lower", 16, 8)
    ALFA = ("upper", 0, 16)
    AUX = ("upper", 16, 16)

    #: Members are singletons, so identity hashing is exact -- and runs
    #: in C, where ``Enum.__hash__`` hashes the name in Python on every
    #: plane lookup.
    __hash__ = object.__hash__

    def __init__(self, word: str, shift: int, bits: int) -> None:
        self.word = word
        self.shift = shift
        self.bits = bits

    @property
    def mask(self) -> int:
        """Bit mask of the channel within its 32-bit word."""
        return ((1 << self.bits) - 1) << self.shift

    @property
    def max_value(self) -> int:
        """Largest representable channel value."""
        return (1 << self.bits) - 1


#: The three 8-bit colour channels (one ZBT word once packed).
COLOR_CHANNELS = (Channel.Y, Channel.U, Channel.V)

#: The two 16-bit auxiliary channels (the partner ZBT word).
META_CHANNELS = (Channel.ALFA, Channel.AUX)

#: All five channels in storage order.
ALL_CHANNELS = COLOR_CHANNELS + META_CHANNELS

_WORD_MASK = 0xFFFFFFFF


@dataclass(frozen=True)
class Pixel:
    """One AddressEngine pixel: Y/U/V at 8 bits, Alfa/Aux at 16 bits."""

    y: int = 0
    u: int = 0
    v: int = 0
    alfa: int = 0
    aux: int = 0

    def __post_init__(self) -> None:
        for channel, value in (
            (Channel.Y, self.y),
            (Channel.U, self.u),
            (Channel.V, self.v),
            (Channel.ALFA, self.alfa),
            (Channel.AUX, self.aux),
        ):
            if not 0 <= value <= channel.max_value:
                raise ValueError(
                    f"channel {channel.name} value {value} outside "
                    f"[0, {channel.max_value}]")

    def get(self, channel: Channel) -> int:
        """Return the value of ``channel``."""
        return getattr(self, channel.name.lower())

    def with_channel(self, channel: Channel, value: int) -> "Pixel":
        """Return a copy with ``channel`` replaced by ``value``."""
        fields = {name.lower(): self.get(Channel[name])
                  for name in Channel.__members__}
        fields[channel.name.lower()] = value
        return Pixel(**fields)

    # -- ZBT word packing ---------------------------------------------------

    @property
    def lower_word(self) -> int:
        """The colour word stored in the lower ZBT bank (Y|U|V, 24 bits)."""
        return (self.y | (self.u << 8) | (self.v << 16)) & _WORD_MASK

    @property
    def upper_word(self) -> int:
        """The meta word stored in the upper ZBT bank (Alfa|Aux)."""
        return (self.alfa | (self.aux << 16)) & _WORD_MASK

    def pack(self) -> Tuple[int, int]:
        """Pack into ``(lower_word, upper_word)`` 32-bit ZBT words."""
        return self.lower_word, self.upper_word

    @classmethod
    def unpack(cls, lower_word: int, upper_word: int) -> "Pixel":
        """Rebuild a pixel from its two 32-bit ZBT words."""
        return cls(
            y=lower_word & 0xFF,
            u=(lower_word >> 8) & 0xFF,
            v=(lower_word >> 16) & 0xFF,
            alfa=upper_word & 0xFFFF,
            aux=(upper_word >> 16) & 0xFFFF,
        )

    @classmethod
    def gray(cls, y: int) -> "Pixel":
        """A neutral-chroma pixel with luminance ``y`` (U = V = 128)."""
        return cls(y=y, u=128, v=128)

    def __str__(self) -> str:
        return (f"Pixel(Y={self.y}, U={self.u}, V={self.v}, "
                f"Alfa={self.alfa}, Aux={self.aux})")

"""CPU-set / node-set bitmaps (the ``hwloc_bitmap`` equivalent).

A :class:`Bitmap` is an immutable set of small non-negative integers with
the algebra hwloc code leans on: and/or/xor/andnot, inclusion,
intersection, first/last/weight, and the Linux list syntax
(``"0-3,8,10-11"``) for parsing and printing.

Immutability keeps bitmaps safely shareable between topology objects —
every operation returns a new bitmap.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator

from ..errors import TopologyError

__all__ = ["Bitmap"]


def _index(value) -> int:
    """``value`` as a plain int index (numpy integers included).

    Floats, strings and other non-integers raise :class:`TopologyError`;
    the sign is left for the caller to check.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise TopologyError(
            f"bitmap index must be an integer, got {value!r}"
        ) from None


class Bitmap:
    """An immutable set of non-negative integers backed by a Python int."""

    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[int] | int = ()) -> None:
        if isinstance(bits, int):
            if bits < 0:
                raise TopologyError("raw bitmap value must be non-negative")
            self._bits = bits
            return
        value = 0
        for b in bits:
            if type(b) is not int:  # plain ints skip the call: hot loop
                b = _index(b)
            if b < 0:
                raise TopologyError(f"bitmap index must be non-negative, got {b}")
            value |= 1 << b
        self._bits = value

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_range(cls, start: int, stop: int) -> "Bitmap":
        """Bits in ``[start, stop)``."""
        if start < 0 or stop < start:
            raise TopologyError(f"bad range [{start}, {stop})")
        return cls(((1 << (stop - start)) - 1) << start)

    @classmethod
    def parse(cls, text: str) -> "Bitmap":
        """Parse the Linux list syntax: ``"0-3,8"``; empty string ⇒ empty."""
        text = text.strip()
        if not text:
            return cls()
        value = 0
        for span in text.split(","):
            span = span.strip()
            if "-" in span:
                lo_s, hi_s = span.split("-", 1)
                lo, hi = int(lo_s), int(hi_s)
                if lo < 0 or hi < lo:
                    raise TopologyError(f"bad span {span!r}")
                value |= ((1 << (hi - lo + 1)) - 1) << lo
            else:
                idx = int(span)
                if idx < 0:
                    raise TopologyError(f"bad index {span!r}")
                value |= 1 << idx
        return cls(value)

    # -- basic queries ----------------------------------------------------
    def isset(self, index: int) -> bool:
        index = _index(index)
        return index >= 0 and bool(self._bits >> index & 1)

    def weight(self) -> int:
        return self._bits.bit_count()

    def first(self) -> int:
        """Lowest set bit, or -1 when empty (hwloc convention)."""
        if not self._bits:
            return -1
        return (self._bits & -self._bits).bit_length() - 1

    def last(self) -> int:
        """Highest set bit, or -1 when empty."""
        if not self._bits:
            return -1
        return self._bits.bit_length() - 1

    def is_empty(self) -> bool:
        return self._bits == 0

    # -- algebra ----------------------------------------------------------
    def set(self, index: int) -> "Bitmap":
        index = _index(index)
        if index < 0:
            raise TopologyError("bitmap index must be non-negative")
        return Bitmap(self._bits | (1 << index))

    def clr(self, index: int) -> "Bitmap":
        index = _index(index)
        if index < 0:
            raise TopologyError("bitmap index must be non-negative")
        return Bitmap(self._bits & ~(1 << index))

    def __and__(self, other: "Bitmap") -> "Bitmap":
        return Bitmap(self._bits & other._bits)

    def __or__(self, other: "Bitmap") -> "Bitmap":
        return Bitmap(self._bits | other._bits)

    def __xor__(self, other: "Bitmap") -> "Bitmap":
        return Bitmap(self._bits ^ other._bits)

    def andnot(self, other: "Bitmap") -> "Bitmap":
        return Bitmap(self._bits & ~other._bits)

    def intersects(self, other: "Bitmap") -> bool:
        return bool(self._bits & other._bits)

    def includes(self, other: "Bitmap") -> bool:
        """True when ``other`` ⊆ ``self``."""
        return other._bits & ~self._bits == 0

    # -- protocol ----------------------------------------------------------
    def __iter__(self) -> Iterator[int]:
        bits = self._bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __len__(self) -> int:
        return self.weight()

    def __contains__(self, index: int) -> bool:
        return self.isset(index)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Bitmap) and self._bits == other._bits

    def __hash__(self) -> int:
        return hash(("Bitmap", self._bits))

    def __bool__(self) -> bool:
        return bool(self._bits)

    def __repr__(self) -> str:
        return f"Bitmap({self.to_list_syntax()!r})"

    def to_list_syntax(self) -> str:
        """Render as Linux list syntax (inverse of :meth:`parse`)."""
        spans: list[str] = []
        start = prev = None
        for b in self:
            if start is None:
                start = prev = b
            elif b == prev + 1:
                prev = b
            else:
                spans.append(f"{start}-{prev}" if start != prev else f"{start}")
                start = prev = b
        if start is not None:
            spans.append(f"{start}-{prev}" if start != prev else f"{start}")
        return ",".join(spans)

"""Quantization range table, bit-capacity arithmetic and payload framing.

Bit streams are ``bytes``, MSB-first within each byte.  The payload wire
format is a 32-bit big-endian bit-count header followed by the message
bits; any zero bits an embedder appends past the end of the stream to
fill its final chunk are dropped again on deframing.  Streams are cut
into per-block chunks and packed back together through a small integer
accumulator that never holds more than 15 bits.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator

DEFAULT_WIDTHS = (8, 8, 16, 32, 64, 128)

HEADER_BITS = 32


class CapacityError(ValueError):
    """Payload does not fit into the carrier image."""

    def __init__(self, needed_bits: int, available_bits: int):
        super().__init__(
            f"payload needs {needed_bits} bits but the cover image "
            f"holds at most {available_bits} bits"
        )
        self.needed_bits = needed_bits
        self.available_bits = available_bits


class PayloadError(ValueError):
    """The framed payload stream is malformed."""


class TruncatedPayload(PayloadError):
    """The header declares more payload bits than are available."""


@dataclass(frozen=True)
class Range:
    """One quantization range [lower, upper]; hides `bits` bits per block."""

    lower: int
    upper: int

    @property
    def width(self) -> int:
        return self.upper - self.lower + 1

    @property
    def bits(self) -> int:
        return self.width.bit_length() - 1

    def __post_init__(self):
        if not 0 <= self.lower <= self.upper <= 255:
            raise ValueError(f"range bounds out of order or outside [0,255]: {self}")
        w = self.width
        if w < 2 or w & (w - 1):
            raise ValueError(f"range width {w} is not a power of two >= 2")


class RangeTable:
    """Contiguous ranges partitioning the difference domain [0, 255].

    ``t[d]`` and ``lower[d]`` are the bits per block and the range's
    lower bound for each difference d, the lookups the block kernels use.
    """

    def __init__(self, ranges: list[Range]):
        if not ranges:
            raise ValueError("range table is empty")
        if ranges[0].lower != 0 or ranges[-1].upper != 255:
            raise ValueError("ranges must start at 0 and end at 255")
        for prev, cur in zip(ranges, ranges[1:]):
            if cur.lower != prev.upper + 1:
                raise ValueError(f"ranges not contiguous at {prev} -> {cur}")
        self.ranges = tuple(ranges)
        self._by_diff = tuple(rng for rng in self.ranges for _ in range(rng.width))
        self.t = tuple(rng.bits for rng in self._by_diff)
        self.lower = tuple(rng.lower for rng in self._by_diff)

    def locate(self, d: int) -> Range:
        """Return the unique range containing the difference d in [0, 255]."""
        return self._by_diff[d]

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(r.width for r in self.ranges)

    def __eq__(self, other):
        return isinstance(other, RangeTable) and self.ranges == other.ranges

    def __repr__(self):
        return f"RangeTable(widths={','.join(map(str, self.widths))})"


def build_range_table(widths=DEFAULT_WIDTHS) -> RangeTable:
    """Build the prefix-sum partition of [0, 255] from a list of widths.

    Every width must be a power of two >= 2 and the widths must sum to
    256, so each range hides exactly log2(width) bits.
    """
    total = sum(widths)
    if total != 256:
        raise ValueError(f"range widths must sum to 256, got {total}")
    ranges = []
    lower = 0
    for w in widths:
        ranges.append(Range(lower, lower + w - 1))  # Range validates power of two
        lower += w
    return RangeTable(ranges)


def parse_widths(text: str) -> tuple[int, ...]:
    """Parse a comma-separated width list such as "8,8,16,32,64,128"."""
    try:
        widths = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"invalid width list {text!r}") from None
    return widths


def read_chunks(stream: bytes, widths: Iterable[int]) -> Iterator[int]:
    """Cut a stream into MSB-first chunks of the given widths (each <= 8).

    Stops once every bit of the stream has been handed out; the final
    chunk is zero-filled on the right, and the extractor discards the
    fill via the length header.
    """
    data = iter(stream)
    left = 8 * len(stream)
    acc = held = 0
    for t in widths:
        if left <= 0:
            return
        if held < t:
            acc = acc << 8 | next(data, 0)
            held += 8
        held -= t
        yield acc >> held
        acc &= (1 << held) - 1
        left -= t


def collect_frame(chunks: Iterable[tuple[int, int]]) -> bytes:
    """Pack (value, t) chunks (t <= 8) until the framed stream is complete.

    Consumes chunks only until the header and the payload bits it
    declares are in, and returns the bytes that hold them (the last one
    possibly part fill).
    """
    out = bytearray()
    acc = held = got = 0
    target = HEADER_BITS
    declared = None
    for value, t in chunks:
        acc = acc << t | value
        held += t
        if held >= 8:
            held -= 8
            out.append(acc >> held)
            acc &= (1 << held) - 1
        got += t
        if got >= target:
            if declared is not None:
                break
            declared = int.from_bytes(out[:4], "big")
            target += declared
            if got >= target:
                break
    else:
        raise TruncatedPayload(
            f"stego image ran out of blocks after {got} bits "
            f"(declared payload: {'unknown' if declared is None else declared} bits)"
        )
    if held:
        out.append(acc << (8 - held))
    return bytes(out[: (target + 7) // 8])


def frame_payload(message: bytes) -> bytes:
    """Prefix the message with a 32-bit big-endian bit-count header."""
    nbits = len(message) * 8
    if nbits >= 1 << HEADER_BITS:
        raise ValueError("message too long for the 32-bit length header")
    return nbits.to_bytes(HEADER_BITS // 8, "big") + message


def deframe_payload(stream: bytes) -> bytes:
    """Recover the message bytes from a framed stream.

    Bits past the declared length (embedder fill) are ignored.
    """
    if len(stream) * 8 < HEADER_BITS:
        raise TruncatedPayload(
            f"stream holds {len(stream) * 8} bits, shorter than the {HEADER_BITS}-bit header"
        )
    declared = int.from_bytes(stream[: HEADER_BITS // 8], "big")
    available = len(stream) * 8 - HEADER_BITS
    if declared > available:
        raise TruncatedPayload(
            f"header declares {declared} payload bits but only {available} are available"
        )
    if declared % 8:
        raise PayloadError(f"bit count {declared} is not a multiple of 8")
    start = HEADER_BITS // 8
    return stream[start : start + declared // 8]

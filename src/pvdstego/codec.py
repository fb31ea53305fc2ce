"""Quantization range table, bit-capacity arithmetic and payload framing.

Bit streams are ``bytes``, MSB-first within each byte.  The payload wire
format is a 32-bit big-endian bit-count header followed by the message
bits; any zero bits an embedder appends past the end of the stream to
fill its final chunk are dropped again on deframing.  Streams are cut
into per-block chunks through a small integer accumulator that never
holds more than 15 bits.  Extraction reads each block as its chunk text
of binary digits and packs the texts back a window of blocks at a time.
"""

from functools import cached_property
from itertools import accumulate, islice
from typing import Iterable, Iterator

DEFAULT_WIDTHS = (8, 8, 16, 32, 64, 128)

HEADER_BITS = 32

# blocks whose chunk texts collect_frame joins and converts at once
_WINDOW = 4096


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


class RangeTable:
    """Contiguous ranges partitioning the difference domain [0, 255].

    The k-th range holds the ``widths[k]`` differences after those of
    ranges 0..k-1 and hides log2(widths[k]) bits per block.  ``t[d]`` and
    ``lower[d]`` are the bits per block and the range's lower bound for
    each difference d, the lookups the block kernels use.  ``texts``
    holds the chunk text each difference extracts to, built on first use.

    Raises ValueError unless every width is a power of two >= 2 and the
    widths sum to 256, so each range hides exactly log2(width) bits.
    """

    def __init__(self, widths: Iterable[int] = DEFAULT_WIDTHS):
        widths = tuple(widths)
        # every width before the sum: (2**40, 256 - 2**40) sums to 256 and
        # would ask for 2**40-entry lookups
        for w in widths:
            if not isinstance(w, int) or w < 2 or w & (w - 1):
                raise ValueError(f"range width {w!r} is not a power of two >= 2")
        total = sum(widths)
        if total != 256:
            raise ValueError(f"range widths must sum to 256, got {total}")
        self.widths = widths
        self.t = tuple(w.bit_length() - 1 for w in widths for _ in range(w))
        starts = accumulate(widths, initial=0)
        self.lower = tuple(start for start, w in zip(starts, widths) for _ in range(w))

    @cached_property
    def texts(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Chunk texts by difference d, plain and with the MSB set.

        The plain text of d is d - lower[d] in ``t[d]`` binary digits.
        """
        pairs = enumerate(zip(self.t, self.lower))
        plain = tuple(format(d - low, f"0{t}b") for d, (t, low) in pairs)
        return plain, tuple("1" + text[1:] for text in plain)

    def __eq__(self, other):
        return isinstance(other, RangeTable) and self.widths == other.widths

    def __repr__(self):
        return f"RangeTable(widths={','.join(map(str, self.widths))})"


build_range_table = RangeTable  # the same class, under the name callers build tables by


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


def collect_frame(texts: Iterable[str]) -> bytes:
    """Pack chunk texts (at most 8 binary digits each) until the framed stream is complete.

    Reads the header's blocks, then the declared payload's, joining and
    converting up to _WINDOW texts at a time.  A window of at most
    ceil(bits still missing / 8) texts cannot pass the block that
    completes the stream, so no block after it is read.  Returns the
    bytes that hold the header and the declared bits, the last one
    possibly part fill.
    """
    texts = iter(texts)
    out = bytearray()
    acc = held = got = 0  # acc: the last ``held`` bits, short of a byte
    target = HEADER_BITS
    declared = None
    while got < target:
        window = "".join(islice(texts, min(_WINDOW, (target - got + 7) // 8)))
        if not window:
            raise TruncatedPayload(
                f"stego image ran out of blocks after {got} bits "
                f"(declared payload: {'unknown' if declared is None else declared} bits)"
            )
        got += len(window)
        held += len(window)
        acc = acc << len(window) | int(window, 2)
        out += (acc >> (held & 7)).to_bytes(held >> 3, "big")
        held &= 7
        acc &= (1 << held) - 1
        if declared is None and got >= HEADER_BITS:
            declared = int.from_bytes(out[:4], "big")
            target += declared
    if held:
        out.append(acc << (8 - held))
    del out[(target + 7) // 8 :]
    return bytes(out)


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

"""Quantization range table, bit-capacity arithmetic and payload framing.

Bit streams are ``bytes``, MSB-first within each byte.  The payload wire
format is a 32-bit big-endian bit-count header followed by the message
bits; any zero bits an embedder appends past the end of the stream to
fill its final chunk are dropped again on deframing.  Both embed walks
take their per-block chunks from ``pvd.cut_chunks``, a window of blocks
at a time.  Extraction reads each ``imagery.block_windows`` window as
one key per block, the index of its chunk text in ``RangeTable.texts``,
and ``collect_frame`` joins and packs a whole window's texts at once.
"""

from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import accumulate

DEFAULT_WIDTHS = (8, 8, 16, 32, 64, 128)

HEADER_BITS = 32


class CapacityError(ValueError):
    """Payload does not fit into the carrier image or the length header."""

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
    ranges 0..k-1 and hides log2(widths[k]) bits per block.  ``t`` and
    ``lower``, 256 bytes each, give each difference d its bits per block
    and its range's lower bound, for the kernels and the window translates.
    ``texts`` and ``msb_set``, extraction's lookups, are built on first use.

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
        self.t = bytes(w.bit_length() - 1 for w in widths for _ in range(w))
        starts = accumulate(widths, initial=0)
        self.lower = bytes(start for start, w in zip(starts, widths) for _ in range(w))

    @cached_property
    def texts(self) -> tuple[str, ...]:
        """Chunk text by difference d: d - lower[d] in ``t[d]`` binary digits."""
        pairs = enumerate(zip(self.t, self.lower))
        return tuple(format(d - low, f"0{t}b") for d, (t, low) in pairs)

    @cached_property
    def msb_set(self) -> bytes:
        """By difference d, the difference whose text is d's with the MSB set."""
        pairs = enumerate(zip(self.t, self.lower))
        return bytes(low + (d - low | 1 << (t - 1)) for d, (t, low) in pairs)

    def __repr__(self):
        return f"RangeTable(widths={','.join(map(str, self.widths))})"


build_range_table = RangeTable  # the same class, under the name callers build tables by


def collect_frame(windows: Iterable[bytes], texts: Sequence[str]) -> bytes:
    """Pack the chunk texts of windows of block keys until the framed stream is complete.

    Each window holds one key per block, the index of its text (at most
    8 binary digits) in ``texts``; a whole window is joined and converted
    at once.  Reads the windows through the one that completes the header
    and the declared payload, and returns exactly those bits, the last
    byte zero-filled.
    """
    out = bytearray()
    acc = held = got = 0  # acc: the last ``held`` bits, short of a byte
    target = HEADER_BITS
    declared = None
    for keys in windows:
        # a comprehension: map would call the tuple's __getitem__, a slot wrapper, per block
        window = "".join([texts[key] for key in keys])
        got += len(window)
        held += len(window)
        acc = acc << len(window) | int(window or "0", 2)
        out += (acc >> (held & 7)).to_bytes(held >> 3, "big")
        held &= 7
        acc &= (1 << held) - 1
        if declared is None and got >= HEADER_BITS:
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
    del out[(target + 7) // 8 :]
    out[-1] &= 0xFF << (-target & 7) & 0xFF  # no bit past the frame
    return bytes(out)


def frame_payload(message: bytes) -> bytes:
    """Prefix the message with a 32-bit big-endian bit-count header.

    Raises CapacityError, naming the header, at 2**29 bytes or more.
    """
    nbits = len(message) * 8
    if nbits >= 1 << HEADER_BITS:
        error = CapacityError(nbits, (1 << HEADER_BITS) - 1)
        error.args = (f"message of {nbits} bits too long for the {HEADER_BITS}-bit length header",)
        raise error
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

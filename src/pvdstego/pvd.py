"""Baseline pixel-value-differencing embed/extract.

A block's difference d = |q - p| selects a range [l, u] hiding t bits;
the chunk value b is embedded by forcing the new difference d' = l + b
onto the pair: the larger pixel (the first on a tie) moves by half of
m = d' - d rounded away from zero, and its partner by the rest, the
other way.  The scheme is reproduced as defined, including its flaw: near
0/255 a stego pixel can leave the gray range.  Violations are counted
and surfaced, never silently repaired; the adaptive variant in
:mod:`pvdstego.apvd` exists to eliminate them.

``adjust_pair`` and ``extract_pair`` are the block kernels, which the
selftest checks case by case: a chunk embeds as ``adjust_pair(p, q, d,
lower[d] + chunk)``.  The image walks do not call them per block.
``cut_chunks`` cuts the stream into chunks and gives both walks each
block's d' a window of blocks at a time, ``plain_lanes`` applies
``adjust_pair`` to a whole window in 16-bit lanes of big ints, and
``pvd_embed_image`` reads the clamped 8-bit raster, the wide one modulo
256, the violation count and the squared error off those lanes.
Extraction reads the stored 8-bit raster, the wide one clamped, as Wu
and Tsai define it: ``chunk_keys`` gives each window's
``imagery.block_differences``, the keys of the blocks' texts in
``RangeTable.texts``, for ``codec.collect_frame`` to pack.  The selftest
also runs ``pvd_embed_image`` over every case and the lookup over every
pair of [0, 255]^2 against the kernels.
"""

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import accumulate
from operator import itemgetter

from .codec import CapacityError, RangeTable, collect_frame
from .imagery import GrayImage, block_differences, block_lanes, block_windows
from .metrics import mse_psnr_of


def wide_window(table: RangeTable) -> tuple[int, int]:
    """Bounds every baseline stego value stays within, even outside [0, 255].

    A pixel moves by at most ceil(m / 2) with m < the widest range, so
    half the widest range bounds the excursion on either side.
    """
    h = max(table.widths) // 2
    return -h, 255 + h


_CLAMP_LOW, _CLAMP_HIGH = wide_window(RangeTable((256,)))
# clamp_raster's map, keyed by every value of the widest window: anything else raises KeyError
_CLAMPED = {v: min(max(v, 0), 255) for v in range(_CLAMP_LOW, _CLAMP_HIGH + 1)}


def byte_planes(values: Iterable[int]) -> tuple[bytes, bytes]:
    """The low and the high bytes of 256 values in [0, 65535], for ``table_sum``."""
    values = tuple(values)
    return bytes(v & 0xFF for v in values), bytes(v >> 8 for v in values)


def table_sum(keys: bytes, planes: tuple[bytes, bytes]) -> int:
    """The sum of ``table[k]`` over the bytes k of ``keys``, given ``byte_planes(table)``."""
    low, high = planes
    return sum(keys.translate(low)) + (sum(keys.translate(high)) << 8)


def adjust_pair(p: int, q: int, d: int, d_new: int) -> tuple[int, int]:
    """The baseline block kernel: split m = d_new - d so that |q' - p'| = d_new.

    The larger pixel (p on a tie) moves by half of m rounded away from
    zero, and its partner by the rest of m the other way; either may
    leave [0, 255].
    """
    m = d_new - d
    share = (m + 1) >> 1 if m > 0 else m >> 1  # the larger pixel's half, away from zero
    if p >= q:
        return p + share, q - m + share
    return p - m + share, q + share


# a block's squared error by m = |d' - d|, from the moves adjust_pair makes
SQUARED_ERROR = tuple(p * p + q * q for p, q in (adjust_pair(0, 0, 0, m) for m in range(256)))
_SQUARED_ERROR_PLANES = byte_planes(SQUARED_ERROR)


def extract_pair(first: int, second: int, table: RangeTable) -> tuple[int, int]:
    """The baseline extraction kernel: (chunk value, t) of a stego pair."""
    d = first - second if first > second else second - first
    return d - table.lower[d], table.t[d]


def cut_chunks(
    pixels: bytes, stream: bytes, table: RangeTable
) -> Iterator[tuple[int, bytes, bytes, bytes]]:
    """(bit, window, d, d') for each ``block_windows`` window the stream reaches.

    ``window`` holds whole blocks only, ``d`` their ``block_differences``
    and ``d'`` = lower[d] + chunk for each; ``bit`` is the stream offset
    of the window's first chunk.  The chunks are cut with no Python step
    per block: the running sum of t gives where each chunk ends, and a
    block's chunk is the low t bits of the 8 stream bits that end there,
    picked from a table of the 8 bits ending at every bit of the window's
    stream bytes.  The final chunk is zero-filled to its block's t, and
    the last window stops at its block.  Raises CapacityError, with the
    sum of t over every block as the bits available, if the stream
    outlasts the blocks.
    """
    mask_of = bytes((1 << t) - 1 for t in table.t)
    needed = 8 * len(stream)
    bit = 0
    for window in block_windows(pixels):
        if bit >= needed:
            return
        d = block_differences(window)
        first = bit >> 3  # the stream byte of the window's first chunk
        # ends[i + 1]: where block i's chunk ends, in bits from byte ``first``
        ends = list(accumulate(d.translate(table.t), initial=bit & 7))
        if ends[-1] >= needed - 8 * first:  # the stream ends at block n - 1
            n = bisect_left(ends, needed - 8 * first)
            del ends[n + 1 :]
            d = d[:n]
        size = (ends[-1] + 7) >> 3
        head = int.from_bytes(stream[first : first + size].ljust(size, b"\0"), "big")
        # ending[r]: the 8 bits that end r bits into ``head``, zeros before it
        ending = bytearray(8 * size + 8)
        for shift in range(8):
            ending[shift::8] = (head << shift).to_bytes(size + 1, "big")
        chunks = bytes(itemgetter(*ends)(ending))[1:]  # ends[0] is no block's
        # lower[d] + chunk <= 255: the bytes add without a carry
        lower = int.from_bytes(d.translate(table.lower), "little")
        mask = int.from_bytes(d.translate(mask_of), "little")
        d_new = lower + (int.from_bytes(chunks, "little") & mask)
        n = len(d)
        yield bit, window[: 2 * n], d, d_new.to_bytes(n, "little")
        bit += ends[-1] - ends[0]
    if bit < needed:
        raise CapacityError(needed, bit)


def plain_lanes(window: bytes, d: bytes, d_new: bytes) -> tuple[int, int, int, int]:
    """``adjust_pair`` on every block of a window at once, in 16-bit lanes.

    Returns (ones, m, p', q'), each an int whose lane i, bits
    16i..16i+15, holds for block i: 1; m = |d' - d|; the attempt's p'
    and q', each plus 256.  The larger pixel (p on a tie) moves ceil(m /
    2) and its partner floor(m / 2), apart if d' > d and together
    otherwise.  A biased pixel is in [128, 639], so no lane borrows, and
    the pixel is in [0, 255] exactly when its lane's bit 8 is set.
    """
    n = len(d)
    pairs = bytearray(2 * n)
    pairs[0::2], pairs[1::2] = d_new, d
    m, closer = block_lanes(pairs)  # closer: 1 in the lanes where d' < d
    below = block_lanes(window)[1]  # 1 in the lanes where p < q
    x = int.from_bytes(window, "little")
    ones = int.from_bytes(b"\x01\x00" * n, "little")
    low, high = ones * 0xFF, ones << 8
    move_p = (m >> 1 & ones * 0x7F) + (m & (ones ^ below))  # ceil for the larger pixel
    move_q = m - move_p
    up = (ones ^ closer ^ below) * 0xFFFF  # all ones in the lanes where p moves up
    p_new = (x & low) + high - move_p + ((move_p & up) << 1)
    q_new = (x >> 8 & low) + high + move_q - ((move_q & up) << 1)
    return ones, m, p_new, q_new


class PvdResult(
    namedtuple("PvdResult", "stored wrapped violations bits_embedded blocks_used mse psnr_db")
):
    """Embedding trace: stored 8-bit raster plus violation and quality statistics.

    ``stored`` is the stego raster as a PGM holds it, every value
    clamped into [0, 255], and ``wrapped`` the wide raster modulo 256
    (``stored`` itself if none left [0, 255]): a value below 0 wraps into
    [129, 255] and one past 255 into [0, 127], so ``stego`` rebuilds the
    wide raster from the two for callers outside the package.
    ``violations`` counts the values outside [0, 255], all in the first
    ``2 * blocks_used``.  ``mse`` and ``psnr_db`` measure the wide raster
    against the cover, before any clamp.  No ``__slots__``: the instance
    ``__dict__`` caches ``stego``.
    """

    @cached_property
    def stego(self) -> list[int]:
        """The wide raster, rebuilt from ``wrapped`` and ``stored``."""
        pairs = zip(self.wrapped, self.stored)  # where they differ, 0 or 255 says which way
        return [w if w == s else w - 256 if s == 0 else w + 256 for w, s in pairs]


def pvd_embed_image(cover: GrayImage, payload: bytes, table: RangeTable) -> PvdResult:
    """Embed a stream over each block until it is exhausted.

    The caller frames the stream (see codec.frame_payload).  A window
    of blocks at a time: ``cut_chunks`` gives each block's d', and
    ``plain_lanes`` the pixels.  Each lane is clamped into ``stored``,
    a lane whose bit 8 is clear counts as a violation, and a window with
    any adds its lanes' low bytes to ``wrapped``; the squared error is
    the sum of ``SQUARED_ERROR`` over the m lanes.  Untouched blocks and
    any odd trailing pixel are copied verbatim.  Raises CapacityError,
    with the sum of t over every block as the bits available, if the
    stream outlasts the blocks.
    """
    parts: list[bytes] = []
    wraps: list[bytes] = []
    ssd = walked = violations = 0
    for _, window, d, d_new in cut_chunks(cover.pixels, payload, table):
        ones, m, p_new, q_new = plain_lanes(window, d, d_new)
        n = len(window)
        inside_p, inside_q = p_new >> 8 & ones, q_new >> 8 & ones
        # a lane in range keeps its low byte; below 0 it reads 0, past 255 (bit 9 set) 255
        stored_p = p_new & inside_p * 0xFF | (p_new >> 9 & ones) * 0xFF
        stored_q = q_new & inside_q * 0xFF | (q_new >> 9 & ones) * 0xFF
        part = (stored_p | stored_q << 8).to_bytes(n, "little")
        parts.append(part)
        outside = (ones ^ inside_p) | (ones ^ inside_q) << 8  # one bit per pixel
        if outside:  # the lanes' low bytes, where the window's stored part will not do
            violations += outside.bit_count()
            part = (p_new & ones * 0xFF | (q_new & ones * 0xFF) << 8).to_bytes(n, "little")
        wraps.append(part)
        ssd += table_sum(m.to_bytes(n, "little")[0::2], _SQUARED_ERROR_PLANES)
        walked += n
    tail = memoryview(cover.pixels)[walked:]  # one copy of the tail per raster
    stored = b"".join([*parts, tail])
    wrapped = b"".join([*wraps, tail]) if violations else stored
    mse, psnr_db = mse_psnr_of(ssd, len(cover.pixels))
    return PvdResult(stored, wrapped, violations, 8 * len(payload), walked // 2, mse, psnr_db)


def chunk_keys(pixels: bytes) -> Iterator[bytes]:
    """Each window's keys of ``extract_pair``'s texts in ``RangeTable.texts``: the differences."""
    return map(block_differences, block_windows(pixels))


def pvd_extract_image(stego: bytes, table: RangeTable) -> bytes:
    """Read an 8-bit raster a window at a time until its framed stream is complete.

    Returns the bytes holding the header and the declared payload bits,
    zero-filled past them, for codec.deframe_payload.  A value outside
    [0, 255], which no raster of a stego image holds, raises ValueError.
    """
    return collect_frame(chunk_keys(stego), table.texts)


def clamp_raster(stego: Iterable[int]) -> bytes:
    """Clamp a wide raster, or any part of one, into [0, 255] for PGM persistence.

    Lossy whenever violations are present; extraction from a clamped
    raster can return corrupted data.  Accepts values in [-128, 383],
    the wide window of the widest range table, and raises ValueError
    outside it.  One pass, so an iterator such as an ``islice`` will do.
    ``pvd_embed_image`` clamps in its lanes (``PvdResult.stored``); the
    benchmark's traced replay (ROADMAP item 1) is the last caller outside
    the tests, and this function and ``_CLAMPED`` go with it.
    """
    try:
        return bytes(map(_CLAMPED.__getitem__, stego))
    except KeyError as exc:
        raise ValueError(
            f"raster value {exc.args[0]} leaves [{_CLAMP_LOW}, {_CLAMP_HIGH}]"
        ) from None

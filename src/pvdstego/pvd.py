"""Baseline pixel-value-differencing embed/extract.

A block's difference d = |q - p| selects a range [l, u] hiding t bits;
the chunk value b is embedded by forcing the new difference d' = l + b
onto the pair, splitting the change m = |d' - d| between the two pixels
(ceil-half on the pixel moving away from the other, floor-half on its
partner).  The scheme is reproduced as defined, including its flaw: near
0/255 a stego pixel can leave the gray range.  Violations are counted
and surfaced, never silently repaired; the adaptive variant in
:mod:`pvdstego.apvd` exists to eliminate them.

``embed_pair`` and ``extract_pair`` are the block kernels, which the
selftest checks case by case.  The image walks do not call them per
block: ``pvd_embed_image`` is one loop with the kernel's arithmetic
inlined, and returns the wide raster.  Extraction reads the stored 8-bit
raster, the wide one clamped, as Wu and Tsai define it: ``chunk_texts``
looks each block's text up by its ``imagery.block_differences`` for
``codec.collect_frame`` to pack.  The selftest also runs
``pvd_embed_image`` over every case and the lookup over every pair of
[0, 255]^2, and compares them with the kernels.
"""

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

from .codec import CapacityError, RangeTable, collect_frame
from .imagery import GrayImage, block_differences, block_windows
from .metrics import mse_psnr_of


def wide_window(table: RangeTable) -> tuple[int, int]:
    """Bounds every baseline stego value stays within, even outside [0, 255].

    A pixel moves by at most ceil(m / 2) with m < the widest range, so
    half the widest range bounds the excursion on either side.
    """
    h = max(table.widths) // 2
    return -h, 255 + h


_CLAMP_LOW, _CLAMP_HIGH = wide_window(RangeTable((256,)))
# keyed by every value of the widest window: anything else raises KeyError
_CLAMPED = {v: min(max(v, 0), 255) for v in range(_CLAMP_LOW, _CLAMP_HIGH + 1)}
# a block's squared error for d' - d = m, indexed by m: negative m counts back from the end
SQUARED_ERROR = tuple((k - k // 2) ** 2 + (k // 2) ** 2 for k in (*range(256), *range(255, 0, -1)))


def adjust_pair(p: int, q: int, d: int, d_new: int) -> tuple[int, int]:
    """Split m = |d_new - d| across the pair so that |q' - p'| = d_new."""
    m = d_new - d if d_new > d else d - d_new
    half_down = m >> 1  # floor(m/2)
    half_up = m - half_down  # ceil(m/2)
    if d_new > d:
        if p >= q:
            return p + half_up, q - half_down
        return p - half_down, q + half_up
    if p >= q:
        return p - half_up, q + half_down
    return p + half_down, q - half_up


def embed_pair(p: int, q: int, chunk: int, table: RangeTable) -> tuple[int, int]:
    """The baseline block kernel: embed one chunk; may leave [0, 255]."""
    d = p - q if p > q else q - p
    return adjust_pair(p, q, d, table.lower[d] + chunk)


def extract_pair(first: int, second: int, table: RangeTable) -> tuple[int, int]:
    """The baseline extraction kernel: (chunk value, t) of a stego pair."""
    d = first - second if first > second else second - first
    return d - table.lower[d], table.t[d]


@dataclass
class PvdResult:
    """Embedding trace: wide stego raster plus violation and quality statistics.

    ``violations`` counts the stego values outside [0, 255], all of them
    in the first ``2 * blocks_used`` values; the rest is the cover's.
    ``mse`` and ``psnr_db`` measure the wide raster against the cover,
    the distortion the arithmetic produced before any clamp.
    """

    stego: list[int]
    violations: int
    bits_embedded: int
    blocks_used: int
    mse: float
    psnr_db: float


def pvd_embed_image(cover: GrayImage, payload: bytes, table: RangeTable) -> PvdResult:
    """Embed a stream with ``embed_pair`` over each block until it is exhausted.

    The caller frames the stream (see codec.frame_payload).  One loop
    with the kernel's arithmetic inlined: each chunk is cut from an
    accumulator of at most 15 bits, the final one zero-filled to its
    block's t.  Untouched blocks and any odd trailing pixel are copied
    verbatim.  Raises CapacityError, with the sum of t over every block
    as the bits available, if the stream outlasts the blocks.
    """
    t_of, lower, se = table.t, table.lower, SQUARED_ERROR
    next_byte = iter(payload).__next__
    needed = left = 8 * len(payload)  # left: stream bits not yet embedded
    acc = held = 0  # acc: the last ``held`` of them read from the stream
    stego: list[int] = []
    ssd = violations = 0
    px = iter(cover.pixels)
    for p, q in zip(px, px):
        if left <= 0:
            break
        d = p - q if p > q else q - p
        t = t_of[d]
        if held < t:
            acc = acc << 8 | (next_byte() if left > held else 0)
            held += 8
        held -= t
        m = lower[d] + (acc >> held) - d  # d' - d
        acc &= (1 << held) - 1
        left -= t
        ssd += se[m]
        # adjust_pair: the larger pixel (p on a tie) moves ceil(|m| / 2), its partner floor
        if m > 0:  # moving apart; as d' <= 255, at most one pixel leaves [0, 255]
            h = m >> 1
            if p >= q:
                a, b = p + m - h, q - h
                if a > 255 or b < 0:
                    violations += 1
            else:
                a, b = p - h, q + m - h
                if a < 0 or b > 255:
                    violations += 1
            stego += (a, b)
        else:
            h = -m >> 1
            stego += (p + m + h, q + h) if p >= q else (p + h, q + m + h)
    else:
        if left > 0:
            raise CapacityError(needed, needed - left)
    walked = len(stego)
    stego += memoryview(cover.pixels)[walked:]  # a slice of a view copies nothing
    mse, psnr_db = mse_psnr_of(ssd, len(cover.pixels))
    return PvdResult(stego, violations, needed, walked // 2, mse, psnr_db)


def chunk_texts(pixels: bytes, table: RangeTable) -> Iterator[str]:
    """``extract_pair``'s chunk text of each block, looked up a window of blocks at a time."""
    texts = table.texts.__getitem__
    return chain.from_iterable(map(texts, block_differences(w)) for w in block_windows(pixels))


def pvd_extract_image(stego: bytes, table: RangeTable) -> bytes:
    """Read an 8-bit raster until its framed stream is complete.

    Returns the bytes holding the header and the declared payload bits,
    for codec.deframe_payload.  A value outside [0, 255], which no raster
    of a stego image holds, raises ValueError.
    """
    return collect_frame(chunk_texts(stego, table))


def clamp_raster(stego: Iterable[int]) -> bytes:
    """Clamp a wide raster, or any part of one, into [0, 255] for PGM persistence.

    Lossy whenever violations are present; extraction from a clamped
    raster can return corrupted data.  Accepts values in [-128, 383],
    the wide window of the widest range table, and raises ValueError
    outside it.  One pass, so an iterator such as an ``islice`` will do.
    """
    try:
        return bytes(map(_CLAMPED.__getitem__, stego))
    except KeyError as exc:
        raise ValueError(
            f"raster value {exc.args[0]} leaves [{_CLAMP_LOW}, {_CLAMP_HIGH}]"
        ) from None

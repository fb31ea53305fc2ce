"""Baseline pixel-value-differencing embed/extract.

A block's difference d = |q - p| selects a range [l, u] hiding t bits;
the chunk value b is embedded by forcing the new difference d' = l + b
onto the pair, splitting the change m = |d' - d| between the two pixels
(ceil-half on the pixel moving away from the other, floor-half on its
partner).  The scheme is reproduced as defined, including its flaw: near
0/255 a stego pixel can leave the gray range.  Violations are counted
and surfaced, never silently repaired; the adaptive variant in
:mod:`pvdstego.apvd` exists to eliminate them.

This module also holds the embed walk both schemes share, driven by a
per-block function.  Extraction reads only the pair's difference, so it
looks each block's chunk text up in the table's ``texts`` instead of
calling ``extract_pair`` per block; ``codec.collect_frame`` packs the
texts until the framed stream is complete.  ``extract_pair`` stays the
kernel the selftest checks the lookup against.
"""

from dataclasses import dataclass
from itertools import chain, repeat
from operator import sub
from typing import Callable, Iterable, Iterator, Sequence

from .codec import CapacityError, PayloadError, RangeTable, build_range_table
from .codec import collect_frame, read_chunks
from .imagery import GrayImage
from .metrics import capacity, mse_psnr


def wide_window(table: RangeTable) -> tuple[int, int]:
    """Bounds every baseline stego value stays within, even outside [0, 255].

    A pixel moves by at most ceil(m / 2) with m < the widest range, so
    half the widest range bounds the excursion on either side.
    """
    h = max(table.widths) // 2
    return -h, 255 + h


_CLAMP_LOW, _CLAMP_HIGH = wide_window(build_range_table((256,)))
# keyed by every value of the widest window: anything else raises KeyError
_CLAMPED = {v: min(max(v, 0), 255) for v in range(_CLAMP_LOW, _CLAMP_HIGH + 1)}
# indexed by the value itself, so a negative value counts back from the end
_OUTSIDE = (0,) * 256 + (1,) * (_CLAMP_HIGH - 255 - _CLAMP_LOW)  # 1 outside [0, 255]


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


EmbedBlock = Callable[[int, int, int, RangeTable], object]


def embed_blocks(
    pixels: Sequence[int], stream: bytes, table: RangeTable, embed_block: EmbedBlock
) -> Iterator:
    """The embed walk: ``embed_block(p, q, chunk, table)`` over each block.

    Returns the lazy map of the kernel over the blocks in order, ending
    when the stream is out; each scheme folds it into its own raster and
    copies the rest of the cover.  The caller has checked that the
    stream fits.
    """
    firsts, seconds = pixels[0::2], pixels[1::2]
    widths = map(table.t.__getitem__, map(abs, map(sub, firsts, seconds)))
    return map(embed_block, firsts, seconds, read_chunks(stream, widths), repeat(table))


def chunk_texts(
    firsts: Iterable[int], seconds: Iterable[int], table: RangeTable
) -> Iterator[str]:
    """The chunk text ``extract_pair`` gives each pair, by lookup; IndexError past 255 apart."""
    return map(table.texts[0].__getitem__, map(abs, map(sub, firsts, seconds)))


def check_capacity(cover: GrayImage, stream: bytes, table: RangeTable) -> int:
    """Return the stream's bit count; raise CapacityError if it does not fit.

    Every block carries at least min(t) bits, so a stream within
    min(t) * blocks fits without the capacity pass over the cover.
    """
    needed = 8 * len(stream)
    if needed > min(table.t) * (len(cover.pixels) // 2):
        available, _ = capacity(cover, table)
        if needed > available:
            raise CapacityError(needed, available)
    return needed


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
    """Embed a stream block by block until it is exhausted.

    The caller frames the stream (see codec.frame_payload); the final
    chunk is zero-filled to its block's t.  Untouched blocks and any odd
    trailing pixel are copied verbatim.
    """
    needed = check_capacity(cover, payload, table)
    stego = list(chain.from_iterable(embed_blocks(cover.pixels, payload, table, embed_pair)))
    violations = 0
    if stego and (min(stego) < 0 or max(stego) > 255):
        violations = sum(map(_OUTSIDE.__getitem__, stego))
    walked = len(stego)
    cover_view = memoryview(cover.pixels)  # slices of a view copy nothing
    mse, psnr_db = mse_psnr(cover_view[:walked], stego, len(cover.pixels))
    stego += cover_view[walked:]
    return PvdResult(stego, violations, needed, walked // 2, mse, psnr_db)


def pvd_extract_image(stego: Sequence[int], table: RangeTable) -> bytes:
    """Read a (possibly wide) raster until its framed stream is complete.

    Returns the bytes holding the header and the declared payload bits,
    for codec.deframe_payload.  A pair further apart than 255, which no
    embed produces, raises PayloadError.
    """
    try:
        return collect_frame(chunk_texts(stego[0::2], stego[1::2], table))
    except IndexError:  # a difference past the end of the table's lookups
        raise PayloadError("pixel pair differs by more than 255") from None


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

"""Baseline pixel-value-differencing embed/extract.

A block's difference d = |q - p| selects a range [l, u] hiding t bits;
the chunk value b is embedded by forcing the new difference d' = l + b
onto the pair, splitting the change m = |d' - d| between the two pixels
(ceil-half on the pixel moving away from the other, floor-half on its
partner).  The scheme is reproduced as defined, including its flaw: near
0/255 a stego pixel can leave the gray range.  Violations are counted
and surfaced, never silently repaired; the adaptive variant in
:mod:`pvdstego.apvd` exists to eliminate them.

This module also holds the block walks both schemes share: one embed
walk driven by a per-block function, and one extraction walk that
decodes blocks until the framed stream is complete.
"""

from dataclasses import dataclass
from itertools import repeat
from operator import sub
from typing import Callable, Sequence

from .codec import CapacityError, PayloadError, RangeTable, collect_frame, read_chunks
from .imagery import GrayImage
from .metrics import capacity


def wide_window(table: RangeTable) -> tuple[int, int]:
    """Bounds every baseline stego value stays within, even outside [0, 255].

    A pixel moves by at most ceil(m / 2) with m < the widest range, so
    half the widest range bounds the excursion on either side.
    """
    h = max(table.widths) // 2
    return -h, 255 + h


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


EmbedBlock = Callable[[int, int, int, RangeTable], tuple[int, int, object]]
ExtractBlock = Callable[[int, int, RangeTable], tuple[int, int]]


def embed_blocks(
    pixels: Sequence[int], stream: bytes, table: RangeTable, embed_block: EmbedBlock
) -> tuple[list[int], dict]:
    """The embed walk: feed each block its chunk until the stream is out.

    ``embed_block(p, q, chunk, table)`` returns the block's two stego
    values and a label.  Returns the stego raster (blocks past the
    stream and any odd trailing pixel copied verbatim) and how many
    blocks got each label, in order of first appearance.  The caller
    has checked that the stream fits.
    """
    firsts, seconds = pixels[0::2], pixels[1::2]
    widths = map(table.t.__getitem__, map(abs, map(sub, firsts, seconds)))
    chunks = read_chunks(stream, widths)
    stego: list[int] = []
    counts: dict = {}
    for first, second, label in map(embed_block, firsts, seconds, chunks, repeat(table)):
        stego += first, second
        counts[label] = counts.get(label, 0) + 1
    stego += pixels[len(stego) :]
    return stego, counts


def extract_blocks(pixels: Sequence[int], table: RangeTable, extract_block: ExtractBlock) -> bytes:
    """The extraction walk: decode blocks until the framed stream is in."""
    return collect_frame(map(extract_block, pixels[0::2], pixels[1::2], repeat(table)))


def check_capacity(cover: GrayImage, stream: bytes, table: RangeTable) -> int:
    """Return the stream's bit count; raise CapacityError if it does not fit."""
    needed = 8 * len(stream)
    available, _ = capacity(cover, table)
    if needed > available:
        raise CapacityError(needed, available)
    return needed


@dataclass
class PvdResult:
    """Embedding trace: wide stego raster plus violation statistics.

    ``violations`` counts the stego values outside [0, 255].
    """

    stego: list[int]
    violations: int
    bits_embedded: int
    blocks_used: int


def _embed_counted(p: int, q: int, chunk: int, table: RangeTable) -> tuple[int, int, int]:
    """embed_pair, labelled with how many of the two values left [0, 255]."""
    first, second = embed_pair(p, q, chunk, table)
    return first, second, (not 0 <= first <= 255) + (not 0 <= second <= 255)


def pvd_embed_image(cover: GrayImage, payload: bytes, table: RangeTable) -> PvdResult:
    """Embed a stream block by block until it is exhausted.

    The caller frames the stream (see codec.frame_payload); the final
    chunk is zero-filled to its block's t.  Untouched blocks and any odd
    trailing pixel are copied verbatim.
    """
    needed = check_capacity(cover, payload, table)
    stego, counts = embed_blocks(cover.pixels, payload, table, _embed_counted)
    violations = sum(n * label for label, n in counts.items())
    return PvdResult(stego, violations, needed, sum(counts.values()))


def pvd_extract_image(stego: Sequence[int], table: RangeTable) -> bytes:
    """Read a (possibly wide) raster until its framed stream is complete.

    Returns the bytes holding the header and the declared payload bits,
    for codec.deframe_payload.  A pair further apart than 255, which no
    embed produces, raises PayloadError.
    """
    try:
        return extract_blocks(stego, table, extract_pair)
    except IndexError:  # a difference past the end of the table's lookups
        raise PayloadError("pixel pair differs by more than 255") from None


def clamp_raster(stego: Sequence[int]) -> bytes:
    """Clamp a wide raster into [0, 255] for PGM persistence.

    Lossy whenever violations are present; extraction from a clamped
    raster can return corrupted data.
    """
    if not stego or (min(stego) >= 0 and max(stego) <= 255):
        return bytes(stego)
    return bytes(min(255, max(0, v)) for v in stego)

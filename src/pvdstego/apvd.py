"""Adaptive pixel-value differencing: overflow-safe embed and extract.

Embedding runs the baseline scheme first.  When a stego pixel would
leave [0, 255] the block falls back, in order:

1. if the chunk's MSB is 1, drop it and re-embed the remaining t-1 bits
   (the dropped bit is recorded in a per-block flag);
2. if the pair is still out of range, keep the violating pixel at its
   cover value and land the entire difference change on the other pixel.

Every data-carrying block is then marked: a small +-1/+-2 adjustment
forces the first pixel's LSB to equal the flag while keeping the pair's
recoverable difference intact, with boundary sub-cases so the
adjustment itself can never leave the gray range.  Extraction undoes the
mark (LSB 0 -> first+1, LSB 1 -> first-1), recovers the difference, and
restores a dropped MSB as '1'.

The per-block kernels are ``embed_block_values`` and ``mark_with_case``
for embedding and ``extract_block_value`` for extraction, and the
exhaustive oracle in :mod:`pvdstego.oracle` checks them case by case.
The embed walk calls the embed kernels per block.  The extraction
kernel reads only the difference and the first pixel's LSB, so the
extraction walk looks each block's chunk text up instead
(``chunk_texts``), and the oracle checks that lookup against
``extract_block_value`` on every pair.

One marked state is unrecoverable: the pair (0, 255) with flag 0 cannot
be adjusted without leaving the range, so the mark step leaves it alone
and extraction of that block comes back off by one.  These "lossy
corner" blocks are counted, reported, and never silently repaired.

Branch and mark-case labels used in reports:

* branch: ``plain`` | ``discard_resolved`` | ``one_sided`` |
  ``discard_then_one_sided``
* mark case: ``keep/<LSBs>`` or ``drop/<LSBs>`` with the LSB pattern of
  the pre-mark pair, plus ``-top`` / ``-bottom`` / ``-corner`` for the
  boundary sub-cases.
"""

from dataclasses import dataclass
from itertools import accumulate, compress
from operator import getitem, sub
from typing import Iterable, Iterator

from .codec import HEADER_BITS, RangeTable, collect_frame, deframe_payload, frame_payload
from .imagery import GrayImage
from .metrics import mse_psnr
from .pvd import adjust_pair, check_capacity, embed_blocks

BRANCH_PLAIN = "plain"
BRANCH_DISCARD_RESOLVED = "discard_resolved"
BRANCH_ONE_SIDED = "one_sided"
BRANCH_DISCARD_THEN_ONE_SIDED = "discard_then_one_sided"
BRANCHES = (
    BRANCH_PLAIN,
    BRANCH_DISCARD_RESOLVED,
    BRANCH_ONE_SIDED,
    BRANCH_DISCARD_THEN_ONE_SIDED,
)

LOSSY_MARK_CASE = "keep/01-corner"

# undoing the mark: LSB 0 -> first + 1, LSB 1 -> first - 1, that is first ^ 1
_UNMARK = bytes(v ^ 1 for v in range(256))


def one_sided_pair(
    p: int, q: int, attempt: tuple[int, int], d: int, d_new: int
) -> tuple[int, int]:
    """Resolve a boundary violation by moving only the safe pixel.

    The pixel that crossed the range is restored to its cover value and
    its partner absorbs the whole change m, so |q' - p'| = d_new still
    holds.  Only one pixel of a block can ever cross, and only on the
    difference-increasing path.
    """
    m = abs(d_new - d)
    ap, aq = attempt
    # exactly one pixel can cross, in one direction
    assert (ap > 255) + (ap < 0) + (aq > 255) + (aq < 0) == 1
    if aq > 255:  # second crossed the upper bound
        out = (p - m, q)
    elif ap < 0:  # first crossed the lower bound
        out = (p, q + m)
    elif ap > 255:  # first crossed the upper bound
        out = (p, q - m)
    else:  # second crossed the lower bound
        out = (p + m, q)
    assert 0 <= out[0] <= 255 and 0 <= out[1] <= 255
    return out


def embed_block_values(
    p: int, q: int, chunk: int, table: RangeTable
) -> tuple[tuple[int, int], int, str]:
    """Embed one chunk with overflow handling, before the flag mark.

    Returns (pixels, flag, branch) with pixels guaranteed in [0, 255].
    """
    d = p - q if p > q else q - p
    lower = table.lower[d]
    attempt = adjust_pair(p, q, d, lower + chunk)
    if 0 <= attempt[0] <= 255 and 0 <= attempt[1] <= 255:
        return attempt, 0, BRANCH_PLAIN
    t = table.t[d]
    if chunk >> (t - 1):
        # MSB is 1: drop it, re-embed the remaining t-1 bits
        d_new = lower + chunk - (1 << (t - 1))
        retry = adjust_pair(p, q, d, d_new)
        if 0 <= retry[0] <= 255 and 0 <= retry[1] <= 255:
            return retry, 1, BRANCH_DISCARD_RESOLVED
        return one_sided_pair(p, q, retry, d, d_new), 1, BRANCH_DISCARD_THEN_ONE_SIDED
    # MSB is 0: nothing to drop, the retry would repeat the same pair
    return one_sided_pair(p, q, attempt, d, lower + chunk), 0, BRANCH_ONE_SIDED


def mark_with_case(
    pixels: tuple[int, int], flag: int
) -> tuple[tuple[int, int], str]:
    """Adjust a block so the first pixel's LSB records the flag.

    Applied to every data-carrying block; returns the adjusted pair and
    the case label.  The pair (0, 255) with flag 0 is the single case
    left untouched (its mismatched LSB makes the block extract off by
    one).
    """
    p, q = pixels
    if flag == 0:
        if p & 1 == 0:
            if q & 1 == 0:
                return (p, q + 1), "keep/00"
            if q < 255 and p >= 0:
                return (p, q + 1), "keep/01"
            if p > 0 and q == 255:
                return (p - 2, q - 1), "keep/01-top"
            # p == 0, q == 255: no in-range adjustment exists; lossy
            return (p, q), LOSSY_MARK_CASE
        if q & 1 == 0:
            return (p - 1, q), "keep/10"
        return (p - 1, q), "keep/11"
    if p & 1 == 0:
        if q & 1 == 0:
            return (p + 1, q), "drop/00"
        return (p + 1, q), "drop/01"
    if q & 1 == 0:
        if q > 0 and p <= 255:
            return (p, q - 1), "drop/10"
        if p < 255 and q == 0:
            return (p + 2, q + 1), "drop/10-bottom"
        raise ValueError(f"pair {pixels} cannot arise from a discard branch")
    return (p, q - 1), "drop/11"


def read_flag_and_adjust(pixels: tuple[int, int]) -> tuple[int, int]:
    """Recover the flag from the first pixel's LSB and undo the mark."""
    first = pixels[0]
    flag = first & 1
    return flag, (first - 1 if flag else first + 1)


def extract_block_value(first: int, second: int, table: RangeTable) -> tuple[int, int]:
    """The extraction kernel: (chunk value, t) of a marked stego pair.

    Undoes the mark as read_flag_and_adjust does, inlined.  The walk
    looks its results up instead (``chunk_texts``).
    """
    if first & 1:  # flag 1: restore the dropped MSB
        d = first - 1 - second
        if d < 0:
            d = -d
        t = table.t[d]
        return d - table.lower[d] | 1 << (t - 1), t
    d = first + 1 - second
    if d < 0:
        d = -d
    return d - table.lower[d], table.t[d]


@dataclass
class ApvdReport:
    """One embed run: stego image plus branch and quality statistics.

    ``lossy_corners`` lists each lossy-corner block as (block ordinal,
    index of the payload byte it corrupts, or None for a header bit).
    """

    stego: GrayImage
    bits_embedded: int
    blocks_used: int
    branch_counts: dict[str, int]
    mark_case_counts: dict[str, int]
    lossy_corners: list[tuple[int, int | None]]
    mse: float
    psnr_db: float

    @property
    def lossy_corner_count(self) -> int:
        return len(self.lossy_corners)


def _corrupted_bytes(pixels: bytes, blocks: list[int], table: RangeTable) -> list[int | None]:
    """The payload byte each lossy-corner block corrupts (None: a header bit).

    A corner's chunk is all ones and extraction flips only its last bit.
    For block k that is framed-stream bit (t of blocks 0..k, summed) - 1.
    """
    if not blocks:
        return []
    selected = bytearray(blocks[-1] + 1)
    for block in blocks:
        selected[block] = 1
    view = memoryview(pixels)  # strided views: no copy of the raster
    widths = map(table.t.__getitem__, map(abs, map(sub, view[0::2], view[1::2])))
    ends = compress(accumulate(widths), selected)
    return [(end - 1 - HEADER_BITS) // 8 if end > HEADER_BITS else None for end in ends]


def apvd_embed_image(cover: GrayImage, payload: bytes, table: RangeTable) -> ApvdReport:
    """Frame the payload and embed it block by block; stego stays 8-bit."""
    framed = frame_payload(payload)
    bits = check_capacity(cover, framed, table)
    stego: list[int] = []
    branch_counts = dict.fromkeys(BRANCHES, 0)
    mark_case_counts: dict[str, int] = {}
    corner_blocks = []
    for pixels, flag, branch in embed_blocks(cover.pixels, framed, table, embed_block_values):
        pixels, case = mark_with_case(pixels, flag)
        if case == LOSSY_MARK_CASE:
            corner_blocks.append(len(stego) // 2)
        stego += pixels
        branch_counts[branch] += 1
        mark_case_counts[case] = mark_case_counts.get(case, 0) + 1
    walked = len(stego)
    cover_view = memoryview(cover.pixels)  # slices of a view copy nothing
    image = GrayImage(cover.width, cover.height, bytes(stego) + cover_view[walked:])
    mse, psnr_db = mse_psnr(cover_view[:walked], stego, len(cover.pixels))
    corrupted = _corrupted_bytes(cover.pixels, corner_blocks, table)
    return ApvdReport(
        stego=image,
        bits_embedded=bits,
        blocks_used=walked // 2,
        branch_counts=branch_counts,
        mark_case_counts=mark_case_counts,
        lossy_corners=list(zip(corner_blocks, corrupted)),
        mse=mse,
        psnr_db=psnr_db,
    )


def chunk_texts(firsts: bytes, seconds: Iterable[int], table: RangeTable) -> Iterator[str]:
    """The chunk text ``extract_block_value`` gives each marked pair, by lookup."""
    plain, msb = table.texts
    by_flag = (plain, msb) * 128  # indexed by the first pixel, whose LSB is the flag
    ds = map(abs, map(sub, firsts.translate(_UNMARK), seconds))
    return map(getitem, map(by_flag.__getitem__, firsts), ds)


def apvd_extract_image(stego: GrayImage, table: RangeTable) -> bytes:
    """Read marked blocks until the framed stream completes, then deframe."""
    pixels = stego.pixels
    seconds = memoryview(pixels)[1::2]  # a strided view: no copy
    return deframe_payload(collect_frame(chunk_texts(pixels[0::2], seconds, table)))

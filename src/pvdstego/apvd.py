"""Adaptive pixel-value differencing: overflow-safe embed and extract.

Embedding runs the baseline scheme first.  When a stego pixel would
leave [0, 255] the block falls back, in order:

1. if the chunk's MSB is 1, drop it and re-embed the remaining t-1 bits
   (the dropped bit is recorded in a per-block flag);
2. if the pair is still out of range, keep the violating pixel at its
   cover value and land the entire difference change on the other pixel.

Every data-carrying block is then marked: a small +-1/+-2 adjustment
forces the first pixel's LSB to equal the flag and keeps (first ^ 1) -
second equal to the pre-mark difference, moving both pixels back at a
boundary so the adjustment itself never leaves the gray range.
Extraction reads the difference of (first ^ 1, second), which undoes
the mark, and restores a dropped MSB as '1' where the flag is set.

The per-block kernels are ``embed_block_values`` and ``mark_with_case``
for embedding and ``extract_block_value`` for extraction, and the
exhaustive oracle in :mod:`pvdstego.oracle` checks them case by case.
The embed walk (``embed_walk``) takes each window of blocks from
``pvd.cut_chunks`` and the plain attempt from ``pvd.plain_lanes``, and
embeds and marks the common block -- plain attempt in range, flag-0
mark without a boundary sub-case -- in those 16-bit lanes; only the
other blocks, found with ``bytes.find`` on the lane mask, call the two
embed kernels, so the boundary logic is written once.
``apvd_embed_image`` is the walk over a framed payload.  The extraction
kernel reads only the difference and the first pixel's LSB, so the
extraction walk keys each block's chunk text instead (``chunk_keys``),
a window at a time.  The oracle runs the embed
walk over every case and the lookup over every pair, and compares them
with the kernels.

One marked state is unrecoverable: for the pair (0, 255) with flag 0 the
second pixel cannot step up and both cannot step back, so the mark step
leaves it alone and extraction of that block comes back off by one.
These "lossy corner" blocks are counted, reported, and never silently
repaired.

Branch and mark-case labels used in reports:

* branch: ``plain`` | ``discard_resolved`` | ``one_sided`` |
  ``discard_then_one_sided``
* mark case: ``keep/<LSBs>`` or ``drop/<LSBs>`` with the LSB pattern of
  the pre-mark pair, plus ``-top`` / ``-bottom`` / ``-corner`` for the
  boundary sub-cases.
"""

from collections import namedtuple
from collections.abc import Iterator

from .codec import HEADER_BITS, RangeTable
from .codec import collect_frame, deframe_payload, frame_payload
from .imagery import GrayImage, block_differences, block_windows
from .metrics import mse_psnr_of
from .pvd import adjust_pair, byte_planes, cut_chunks, plain_lanes, table_sum

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

# every mark case; the walk records each block's as its index here.  A
# pair without a boundary sub-case is at 4 * flag + 2 * (LSB of first) +
# (LSB of second), and the boundary sub-case of flag f at 8 + 2 * f
MARK_CASES = (
    *("keep/00", "keep/01", "keep/10", "keep/11"),
    *("drop/00", "drop/01", "drop/10", "drop/11"),
    *("keep/01-top", LOSSY_MARK_CASE, "drop/10-bottom"),
)
_CASE_CODE = {case: code for code, case in enumerate(MARK_CASES)}
_UNMARK = bytes(v ^ 1 for v in range(256))  # a marked first pixel unmarked: LSB 0 +1, LSB 1 -1
_FLAG_MASK = bytes(255 * (v & 1) for v in range(256))  # 0xFF where the flag, the LSB, is 1
_SQUARE_PLANES = byte_planes(v * v for v in range(256))  # a pixel's squared error by |stego - cover|


def one_sided_pair(
    p: int, q: int, attempt: tuple[int, int], d: int, d_new: int
) -> tuple[int, int]:
    """Resolve a boundary violation by moving only the safe pixel.

    The pixel that crossed the range stays at its cover value and its
    partner moves the whole change m = |d_new - d| away from the bound
    that pixel crossed, so |q' - p'| = d_new still holds.  Only one pixel
    of a block can ever cross, and only on the difference-increasing
    path: raises ValueError unless exactly one pixel of ``attempt`` left
    [0, 255] and the resolved pair lies inside it.
    """
    m = abs(d_new - d)
    ap, aq = attempt
    step = m if ap < 0 or aq < 0 else -m  # away from the bound crossed
    if 0 <= aq <= 255:  # the first pixel crossed, if one did
        one_crossed, p_new, q_new = not 0 <= ap <= 255, p, q + step
    else:
        one_crossed, p_new, q_new = 0 <= ap <= 255, p + step, q
    if not (one_crossed and 0 <= p_new <= 255 and 0 <= q_new <= 255):
        raise ValueError(f"attempt {attempt} for pair {(p, q)} has no one-sided resolution")
    return p_new, q_new


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
    the case label.  Extraction reads the difference of (first ^ 1,
    second), so the mark keeps (first ^ 1) - second equal to p - q: a
    first pixel of the wrong parity becomes p ^ 1, else the second pixel
    moves the way p ^ 1 moves from p, or if that leaves the range both
    move the other way.  The pair (0, 255) with flag 0 is the single case
    left untouched (its mismatched LSB makes the block extract off by
    one); (255, 0) with flag 1, which no discard branch produces, raises
    ValueError.
    """
    p, q = pixels
    lsb = p & 1
    case = MARK_CASES[4 * flag + 2 * lsb + (q & 1)]
    if lsb != flag:  # the first pixel steps to the flag's parity
        return (p ^ 1, q), case
    step = (p ^ 1) - p  # the way p ^ 1 moved: +1 for flag 0, -1 for flag 1
    q_new = q + step
    if 0 <= q_new <= 255:
        return (p, q_new), case
    if 0 <= p - 2 * step <= 255:
        return (p - 2 * step, q - step), MARK_CASES[8 + 2 * flag]
    if flag:
        raise ValueError(f"pair {pixels} cannot arise from a discard branch")
    return pixels, LOSSY_MARK_CASE


def extract_block_value(first: int, second: int, table: RangeTable) -> tuple[int, int]:
    """The extraction kernel: (chunk value, t) of a marked stego pair.

    Undoes the mark by reading the difference of (first ^ 1, second), and
    restores a dropped MSB where the flag, the first pixel's LSB, is 1.
    The walk looks its results up instead (``chunk_keys``).
    """
    d = abs((first ^ 1) - second)
    t = table.t[d]
    return d - table.lower[d] | (first & 1) << (t - 1), t


class ApvdReport(
    namedtuple(
        "ApvdReport",
        "stego bits_embedded blocks_used branch_counts mark_case_counts lossy_corners mse psnr_db",
    )
):
    """One embed run: stego image plus branch and quality statistics.

    ``stego`` is a GrayImage, and ``branch_counts`` and ``mark_case_counts``
    map each label to its count.  ``lossy_corners`` lists each
    lossy-corner block as (block ordinal, index of the payload byte it
    corrupts, or None for a header bit).
    """

    __slots__ = ()

    @property
    def lossy_corner_count(self) -> int:
        return len(self.lossy_corners)


def embed_walk(cover: GrayImage, stream: bytes, table: RangeTable) -> ApvdReport:
    """The adaptive embed walk over each block until the stream is out.

    Embeds ``stream`` as it is; ``apvd_embed_image`` frames a payload
    first.  A window of blocks at a time: ``pvd.cut_chunks`` gives each
    block's d' and ``pvd.plain_lanes`` its plain attempt.  A block whose
    attempt stays in range and whose flag-0 mark needs no boundary
    sub-case (not an even first pixel with b = 255) is marked in the
    lanes: an odd first pixel steps down, else the second steps up, and
    its mark-case code is 2 * (a & 1) + (b & 1).  Every other block, found
    with ``bytes.find``, goes through ``embed_block_values`` and
    ``mark_with_case``.  Mark cases are counted in the order they first
    occur.  Raises CapacityError, with the sum of t over every block as
    the bits available, if the stream outlasts the blocks.
    """
    parts: list[bytearray] = []
    codes = bytearray()  # each block's mark case, as its index in MARK_CASES
    branch_counts = dict.fromkeys(BRANCHES, 0)
    lossy_corners = []
    ssd = 0
    for bit, window, d, d_new in cut_chunks(cover.pixels, stream, table):
        ones, _, a, b = plain_lanes(window, d, d_new)  # biased by 256
        n, low = len(window), ones * 0xFF
        odd = a & ones  # a & 1: the first pixel steps down, else the second up
        top = ((b & low) + ones) >> 8 & ones  # b's low byte is 255
        fast = a >> 8 & b >> 8 & (odd | ones ^ top) & ones
        marked = (a - odd) & low | ((b + (ones ^ odd)) & low) << 8
        stego = bytearray(marked.to_bytes(n, "little"))
        code = bytearray((odd << 1 | b & ones).to_bytes(n, "little")[0::2])
        slow = (ones ^ fast).to_bytes(n, "little")  # 1 in the low byte of each other block
        i = slow.find(1)
        while i >= 0:
            k = i >> 1
            pair, flag, branch = embed_block_values(
                window[i], window[i + 1], d_new[k] - table.lower[d[k]], table
            )
            pair, case = mark_with_case(pair, flag)
            stego[i : i + 2] = pair
            code[k] = _CASE_CODE[case]
            branch_counts[branch] += 1
            if case == LOSSY_MARK_CASE:
                # the chunk is all ones, and its last bit, framed-stream
                # bit end - 1, reads back flipped
                end = bit + sum(d[: k + 1].translate(table.t))
                byte = (end - 1 - HEADER_BITS) // 8 if end > HEADER_BITS else None
                lossy_corners.append((len(codes) + k, byte))
            i = slow.find(1, i + 2)
        # the squared error, from each pixel's |stego - cover|
        moved = bytearray(2 * n)
        moved[0::2], moved[1::2] = stego, window
        ssd += table_sum(block_differences(moved), _SQUARE_PLANES)
        parts.append(stego)
        codes += code
    others = sum(n for branch, n in branch_counts.items() if branch != BRANCH_PLAIN)
    branch_counts[BRANCH_PLAIN] = len(codes) - others
    seen = sorted((codes.find(code), code) for code in range(len(MARK_CASES)))
    mark_case_counts = {MARK_CASES[code]: codes.count(code) for first, code in seen if first >= 0}
    pixels = b"".join([*parts, memoryview(cover.pixels)[2 * len(codes) :]])  # one copy of the tail
    mse, psnr_db = mse_psnr_of(ssd, len(cover.pixels))
    return ApvdReport(
        stego=GrayImage(cover.width, cover.height, pixels),
        bits_embedded=8 * len(stream),
        blocks_used=len(codes),
        branch_counts=branch_counts,
        mark_case_counts=mark_case_counts,
        lossy_corners=lossy_corners,
        mse=mse,
        psnr_db=psnr_db,
    )


def apvd_embed_image(cover: GrayImage, payload: bytes, table: RangeTable) -> ApvdReport:
    """Frame the payload and embed it block by block; stego stays 8-bit.

    Raises CapacityError if the framed payload does not fit.
    """
    return embed_walk(cover, frame_payload(payload), table)


def chunk_keys(pixels: bytes, table: RangeTable) -> Iterator[bytes]:
    """Each ``block_windows`` window's key of the text ``extract_block_value`` gives a pair.

    A block's key is the index of its chunk text in ``table.texts``.  One
    translate undoes the mark as ``extract_block_value`` does,
    ``block_differences`` gives each d, and a byte mask of the flags picks
    ``table.msb_set[d]`` for the blocks whose flag is set.
    """
    msb_set = table.msb_set
    for window in block_windows(pixels):
        firsts, unmarked = window[0::2], bytearray(window)
        unmarked[0::2] = firsts.translate(_UNMARK)
        d = block_differences(unmarked)
        plain = int.from_bytes(d, "little")
        msb = int.from_bytes(d.translate(msb_set), "little")
        flags = int.from_bytes(firsts.translate(_FLAG_MASK), "little")
        yield (plain ^ ((plain ^ msb) & flags)).to_bytes(len(d), "little")


def apvd_extract_image(stego: GrayImage, table: RangeTable) -> bytes:
    """Read marked blocks a window at a time until the framed stream completes, then deframe."""
    return deframe_payload(collect_frame(chunk_keys(stego.pixels, table), table.texts))

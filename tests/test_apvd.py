import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvdstego.apvd import (
    BRANCH_DISCARD_RESOLVED,
    BRANCH_DISCARD_THEN_ONE_SIDED,
    BRANCH_ONE_SIDED,
    BRANCH_PLAIN,
    BRANCHES,
    LOSSY_MARK_CASE,
    MARK_CASES,
    apvd_embed_image,
    apvd_extract_image,
    embed_block_values,
    extract_block_value,
    mark_with_case,
    one_sided_pair,
)
from pvdstego.codec import CapacityError, PayloadError, build_range_table
from pvdstego.imagery import GrayImage, synthetic_cover
from pvdstego.metrics import capacity

TABLE = build_range_table()
WIDE_TABLE = build_range_table((256,))


@pytest.mark.parametrize(
    "pair,chunk,expected,flag,branch",
    [
        ((254, 255), 0b111, (252, 255), 1, BRANCH_DISCARD_THEN_ONE_SIDED),
        ((100, 100), 0b000, (100, 100), 0, BRANCH_PLAIN),
        ((64, 80), 0b0110, (61, 83), 0, BRANCH_PLAIN),
        ((10, 250), 0b1111111, (34, 225), 1, BRANCH_DISCARD_RESOLVED),
        ((63, 191), 0b1111111, (0, 255), 0, BRANCH_PLAIN),
        ((0, 1), 0b011, (0, 3), 0, BRANCH_ONE_SIDED),
        ((254, 255), 0b011, (252, 255), 0, BRANCH_ONE_SIDED),
        ((0, 0), 0b111, (3, 0), 1, BRANCH_DISCARD_THEN_ONE_SIDED),
        ((0, 0), 0b011, (3, 0), 0, BRANCH_ONE_SIDED),
    ],
)
def test_embed_block_values_examples(pair, chunk, expected, flag, branch):
    assert embed_block_values(pair[0], pair[1], chunk, TABLE) == (expected, flag, branch)


def test_one_sided_pair_keeps_difference():
    # second pixel crossed below zero at a tied pair
    assert one_sided_pair(0, 0, (2, -1), 0, 3) == (3, 0)
    # second pixel crossed above 255
    assert one_sided_pair(254, 255, (253, 256), 1, 3) == (252, 255)
    # first pixel crossed below zero
    assert one_sided_pair(0, 1, (-1, 2), 1, 3) == (0, 3)


def test_one_sided_pair_rejects_in_range_attempt():
    with pytest.raises(ValueError):
        one_sided_pair(100, 100, (104, 97), 0, 7)


@pytest.mark.parametrize(
    "p,q,attempt,d,d_new",
    [
        (100, 100, (256, -1), 0, 7),  # both pixels left the range
        (0, 255, (-1, 256), 255, 255),  # both left, in opposite directions
        (200, 200, (325, 75), 0, 250),  # the partner cannot absorb the whole change
    ],
)
def test_one_sided_pair_rejects_what_no_embed_produces(p, q, attempt, d, d_new):
    with pytest.raises(ValueError):
        one_sided_pair(p, q, attempt, d, d_new)


MARK_ROWS = [
    # (pre-mark pair, flag) -> (marked pair, case label)
    (((100, 100), 0), ((100, 101), "keep/00")),
    (((100, 101), 0), ((100, 102), "keep/01")),
    (((2, 255), 0), ((0, 254), "keep/01-top")),
    (((0, 255), 0), ((0, 255), "keep/01-corner")),
    (((101, 100), 0), ((100, 100), "keep/10")),
    (((1, 1), 0), ((0, 1), "keep/11")),
    (((100, 100), 1), ((101, 100), "drop/00")),
    (((100, 255), 1), ((101, 255), "drop/01")),
    (((1, 100), 1), ((1, 99), "drop/10")),
    (((1, 0), 1), ((3, 1), "drop/10-bottom")),
    (((1, 1), 1), ((1, 0), "drop/11")),
    (((252, 255), 1), ((253, 255), "drop/01")),
]


@pytest.mark.parametrize("given_,expected", MARK_ROWS)
def test_mark_table_rows(given_, expected):
    pixels, flag = given_
    marked, case = mark_with_case(pixels, flag)
    assert (marked, case) == expected
    assert 0 <= marked[0] <= 255 and 0 <= marked[1] <= 255
    assert marked[0] & 1 == flag
    # extraction undoes the mark: the flag survives, and the difference
    # too, except that the lossy corner's reads back one short
    d = abs(pixels[1] - pixels[0]) - (case == LOSSY_MARK_CASE)
    t = TABLE.t[d]
    assert extract_block_value(*marked, TABLE) == (d - TABLE.lower[d] | flag << (t - 1), t)


def _sha256_and_counts(rows):
    """The SHA-256 of ``rows``, one text line each, and the count of each label in them."""
    digest, counts = hashlib.sha256(), Counter()
    for row in rows:
        digest.update((",".join(map(str, row)) + "\n").encode())
        counts.update(field for field in row if isinstance(field, str))
    return digest.hexdigest(), counts


def _marks():
    for p in range(256):
        for q in range(256):
            for flag in (0, 1):
                try:
                    (p2, q2), case = mark_with_case((p, q), flag)
                except ValueError:
                    yield p, q, flag, "ValueError"
                else:
                    yield p, q, flag, p2, q2, case


def test_mark_on_every_input_is_pinned():
    # recorded from the case-by-case kernel before its rewrite as one rule;
    # the selftest cannot tell one valid mark from another, this can
    digest, counts = _sha256_and_counts(_marks())
    assert counts == {
        **dict.fromkeys(["keep/00", "keep/10", "keep/11", "drop/00", "drop/01", "drop/11"], 16384),
        **dict.fromkeys(["keep/01", "drop/10"], 16256),
        **dict.fromkeys(["keep/01-top", "drop/10-bottom"], 127),
        LOSSY_MARK_CASE: 1,
        "ValueError": 1,  # (255, 0) with flag 1
    }
    assert digest == "af86abddfaffbdd5de8138d0e07d4f15e0a98acbe8cac35a75f5e6fb1e350f63"


def _embeds_then_marks(table):
    for p in range(256):
        for q in range(256):
            for chunk in range(1 << table.t[abs(p - q)]):
                (p1, q1), flag, branch = embed_block_values(p, q, chunk, table)
                (p2, q2), case = mark_with_case((p1, q1), flag)
                yield p, q, chunk, p1, q1, flag, p2, q2, case, branch


def test_embed_then_mark_on_every_case_of_a_2_bit_table_is_pinned():
    # 262,144 cases in which every branch and every mark case occurs
    digest, counts = _sha256_and_counts(_embeds_then_marks(build_range_table((4,) * 64)))
    assert {branch: counts[branch] for branch in BRANCHES} == {
        BRANCH_PLAIN: 260870,
        BRANCH_DISCARD_RESOLVED: 1020,
        BRANCH_ONE_SIDED: 127,
        BRANCH_DISCARD_THEN_ONE_SIDED: 127,
    }
    assert set(counts) == {*BRANCHES, *MARK_CASES}
    assert digest == "24d740484beb18f7586483873595c25649a9550a135c81a53806016f52dca027"


def test_unreachable_mark_input_rejected():
    # LSBs (1, 0) with q == 0 and p == 255 cannot come from a flag-1 embed
    with pytest.raises(ValueError):
        mark_with_case((255, 0), 1)


def test_extract_block_value_undoes_the_mark():
    # one 8-bit range: the chunk is the difference after the undo, with
    # the MSB set for flag 1
    assert extract_block_value(253, 255, WIDE_TABLE) == (128 | 255 - 252, 8)  # flag 1: 253 -> 252
    assert extract_block_value(100, 101, WIDE_TABLE) == (0, 8)  # flag 0: 100 -> 101


@pytest.mark.parametrize(
    "pixels,bits",
    [((253, 255), "111"), ((100, 101), "000"), ((0, 1), "000"), ((60, 83), "0110")],
)
def test_extract_block_examples(pixels, bits):
    assert extract_block_value(pixels[0], pixels[1], TABLE) == (int(bits, 2), len(bits))


def test_extract_always_returns_block_width_bits():
    for first in range(256):
        for second in range(256):
            flag = first & 1
            adjusted = first - 1 if flag else first + 1
            value, t = extract_block_value(first, second, TABLE)
            assert t == TABLE.t[abs(adjusted - second)]
            assert 0 <= value < 1 << t
            assert value >> (t - 1) >= flag  # a set flag restores the MSB


@settings(max_examples=600)
@given(st.integers(0, 255), st.integers(0, 255), st.data())
def test_block_round_trip_through_mark(p, q, data):
    t = TABLE.t[abs(q - p)]
    chunk = data.draw(st.integers(0, (1 << t) - 1))
    pixels, flag, branch = embed_block_values(p, q, chunk, TABLE)
    assert 0 <= pixels[0] <= 255 and 0 <= pixels[1] <= 255
    assert branch in BRANCHES
    if flag:
        assert chunk >> (t - 1)  # flagged only after an MSB discard
    marked, case = mark_with_case(pixels, flag)
    value, t_back = extract_block_value(marked[0], marked[1], TABLE)
    assert t_back == t
    if case == LOSSY_MARK_CASE:
        assert value == chunk - 1  # documented off-by-one corner
    else:
        assert value == chunk


def test_image_round_trip_full_capacity():
    cover = synthetic_cover("noise", width=64, height=64, seed=3)
    import random

    from pvdstego.metrics import capacity

    _, net = capacity(cover, TABLE)
    payload = random.Random(5).randbytes(net)
    report = apvd_embed_image(cover, payload, TABLE)
    assert min(report.stego.pixels) >= 0 and max(report.stego.pixels) <= 255
    assert sum(report.branch_counts.values()) == report.blocks_used
    assert sum(report.mark_case_counts.values()) == report.blocks_used
    assert report.bits_embedded == 32 + 8 * len(payload)
    assert apvd_extract_image(report.stego, TABLE) == payload


def test_image_embed_measures_a_full_checkerboard_kernel_path_included():
    # at full capacity a 256x256 checkerboard hits lossy corners, which the
    # walk sends through the kernels and measures there
    import random

    from pvdstego.metrics import capacity, mse_psnr

    cover = synthetic_cover("checkerboard", width=256, height=256, seed=0)
    _, net = capacity(cover, TABLE)
    report = apvd_embed_image(cover, random.Random(0).randbytes(net), TABLE)
    assert report.lossy_corner_count == 122
    assert (report.mse, report.psnr_db) == mse_psnr(cover.pixels, report.stego.pixels)


def test_image_empty_payload():
    cover = GrayImage(28, 1, bytes([130] * 28))
    report = apvd_embed_image(cover, b"", TABLE)
    assert report.blocks_used == 11  # ceil(32 header bits / 3)
    assert report.stego.pixels[22:] == cover.pixels[22:]
    assert apvd_extract_image(report.stego, TABLE) == b""


def test_image_embed_hits_engineered_block():
    # place (254, 255) where the framed stream delivers the bits 111
    cover = GrayImage(28, 1, bytes([130] * 22 + [254, 255] + [130] * 4))
    report = apvd_embed_image(cover, b"\x70", TABLE)
    assert report.stego.pixels[22:24] == bytes([253, 255])
    assert report.branch_counts[BRANCH_DISCARD_THEN_ONE_SIDED] == 1
    assert apvd_extract_image(report.stego, TABLE) == b"\x70"


def test_image_lossy_corner_documented():
    # a single-range table lines the corner block up with payload byte 0xff
    cover = GrayImage(10, 1, bytes([130, 130] * 4 + [63, 191]))
    report = apvd_embed_image(cover, b"\xff", WIDE_TABLE)
    assert report.lossy_corner_count == 1
    assert report.mark_case_counts[LOSSY_MARK_CASE] == 1
    assert report.lossy_corners == [(4, 0)]  # block 4 holds payload byte 0
    assert report.stego.pixels[8:] == bytes([0, 255])
    # extraction comes back off by exactly one in that byte
    assert apvd_extract_image(report.stego, WIDE_TABLE) == b"\xfe"


def test_lossy_corner_in_the_header_names_no_payload_byte():
    # one bit per block: block 28 carries header bit 28, the only 1 of "8 bits"
    table = build_range_table((2,) * 128)
    cover = GrayImage(80, 1, bytes([130, 130] * 28 + [0, 254] + [130, 130] * 11))
    report = apvd_embed_image(cover, b"\x00", table)
    assert report.lossy_corners == [(28, None)]
    assert apvd_extract_image(report.stego, table) == b""  # the header now reads 0 bits


@pytest.mark.parametrize("kind", ["checkerboard", "noise"])
@pytest.mark.parametrize("seed", range(4))
def test_lossy_corners_name_every_corrupted_byte(kind, seed):
    cover = synthetic_cover(kind, width=48, height=48, seed=seed)
    _, net = capacity(cover, TABLE)
    payload = random.Random(seed).randbytes(net)
    report = apvd_embed_image(cover, payload, TABLE)
    recovered = apvd_extract_image(report.stego, TABLE)
    assert len(recovered) == len(payload)
    wrong = {i for i, (got, sent) in enumerate(zip(recovered, payload)) if got != sent}
    assert {byte for _, byte in report.lossy_corners} == wrong
    assert len(report.lossy_corners) == report.mark_case_counts.get(LOSSY_MARK_CASE, 0)


def test_image_capacity_refusal():
    cover = GrayImage(2, 2, bytes([130] * 4))
    with pytest.raises(CapacityError) as info:
        apvd_embed_image(cover, b"x", TABLE)
    assert info.value.needed_bits == 40
    assert info.value.available_bits == 6


def test_wrong_table_on_extract_fails_loudly_or_differs():
    cover = synthetic_cover("noise", width=32, height=32, seed=11)
    payload = b"a secret worth keeping"
    report = apvd_embed_image(cover, payload, TABLE)
    try:
        recovered = apvd_extract_image(report.stego, WIDE_TABLE)
    except PayloadError:
        return
    assert recovered != payload

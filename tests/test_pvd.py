import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvdstego.codec import (
    CapacityError,
    TruncatedPayload,
    build_range_table,
    deframe_payload,
    frame_payload,
)
from pvdstego.imagery import GrayImage, block_windows
from pvdstego.metrics import capacity, mse_psnr
from pvdstego.pvd import (
    SQUARED_ERROR,
    adjust_pair,
    byte_planes,
    clamp_raster,
    cut_chunks,
    extract_pair,
    plain_lanes,
    pvd_embed_image,
    pvd_extract_image,
    table_sum,
    wide_window,
)

TABLE = build_range_table()


@pytest.mark.parametrize(
    "pair,bits,expected",
    [
        ((254, 255), "111", (251, 258)),  # leaves the byte range on purpose
        ((100, 100), "000", (100, 100)),
        ((64, 80), "0110", (61, 83)),
        ((63, 191), "1111111", (0, 255)),
    ],
)
def test_embed_block_examples(pair, bits, expected):
    d = abs(pair[1] - pair[0])
    assert TABLE.t[d] == len(bits)
    assert adjust_pair(pair[0], pair[1], d, TABLE.lower[d] + int(bits, 2)) == expected


@pytest.mark.parametrize(
    "pair,bits",
    [((251, 258), "111"), ((100, 100), "000"), ((61, 83), "0110")],
)
def test_extract_block_inverts_embed(pair, bits):
    assert extract_pair(pair[0], pair[1], TABLE) == (int(bits, 2), len(bits))


def _lanes(lanes: int, count: int) -> list[int]:
    """The ``count`` 16-bit lanes of an int, lane 0 first."""
    raw = lanes.to_bytes(2 * count, "little")
    return [low | high << 8 for low, high in zip(raw[0::2], raw[1::2])]


@pytest.mark.parametrize("turn", range(3))
def test_plain_lanes_match_adjust_pair_on_every_pair(turn):
    # every (p, q) once per turn, each with a d' spread over [0, 255]
    pairs = [(p, q) for p in range(256) for q in range(256)]
    window = bytes(v for pair in pairs for v in pair)
    d = bytes(abs(p - q) for p, q in pairs)
    d_new = bytes((7 * p + 13 * q + 101 * turn) % 256 for p, q in pairs)
    ones, m, p_new, q_new = plain_lanes(window, d, d_new)
    assert _lanes(ones, len(pairs) + 1) == [1] * len(pairs) + [0]
    got = zip(_lanes(m, len(pairs)), _lanes(p_new, len(pairs)), _lanes(q_new, len(pairs)))
    for (p, q), old, new, (m_i, a, b) in zip(pairs, d, d_new, got):
        assert (m_i, a - 256, b - 256) == (abs(new - old), *adjust_pair(p, q, old, new)), (p, q, new)


@pytest.mark.parametrize("turn", range(3))
def test_squared_error_matches_adjust_pair_on_every_pair(turn):
    # every (p, q) once per turn, each with a d' spread over [0, 255]
    for p in range(256):
        for q in range(256):
            d, d_new = abs(p - q), (7 * p + 13 * q + 101 * turn) % 256
            a, b = adjust_pair(p, q, d, d_new)
            assert (a - p) ** 2 + (b - q) ** 2 == SQUARED_ERROR[abs(d_new - d)], (p, q, d_new)


def _reference_cut(pixels: bytes, stream: bytes, table):
    """cut_chunks the slow way: a bit string, one block at a time."""
    bits = "".join(format(byte, "08b") for byte in stream)
    out, pos = [], 0
    for window in block_windows(pixels):
        if pos >= len(bits):
            break
        start, d_new, blocks = pos, bytearray(), len(window) // 2
        for i in range(blocks):
            d = abs(window[2 * i] - window[2 * i + 1])
            t = table.t[d]
            d_new.append(table.lower[d] + int(bits[pos : pos + t].ljust(t, "0"), 2))
            pos += t
            if pos >= len(bits):
                break
        n = len(d_new)
        if n:
            d = bytes(abs(p - q) for p, q in zip(window[0 : 2 * n : 2], window[1 : 2 * n : 2]))
            out.append((start, window[: 2 * n], d, bytes(d_new)))
    if pos < len(bits):
        raise CapacityError(len(bits), pos)
    return out


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 9000),
    st.integers(0, 4000),
    st.sampled_from([TABLE, build_range_table((2,) * 128), build_range_table((256,))]),
    st.randoms(use_true_random=False),
)
def test_cut_chunks_match_a_bit_string_loop(pixel_count, stream_bytes, table, rng):
    pixels, stream = rng.randbytes(pixel_count), rng.randbytes(stream_bytes)
    try:
        want = _reference_cut(pixels, stream, table)
    except CapacityError as exc:
        with pytest.raises(CapacityError) as info:
            list(cut_chunks(pixels, stream, table))
        assert (info.value.needed_bits, info.value.available_bits) == (
            exc.needed_bits, exc.available_bits
        )
        return
    assert list(cut_chunks(pixels, stream, table)) == want


def test_table_sum_adds_a_table_over_bytes():
    squares = [v * v for v in range(256)]
    keys = bytes(range(256)) * 3 + b"\xff"
    assert table_sum(keys, byte_planes(squares)) == sum(squares[k] for k in keys)
    assert table_sum(b"", byte_planes(squares)) == 0
    assert SQUARED_ERROR[:4] == (0, 1, 2, 5) and len(SQUARED_ERROR) == 256
    assert SQUARED_ERROR[255] == 128**2 + 127**2


def test_wide_window_bounds():
    assert wide_window(TABLE) == (-64, 319)
    assert wide_window(build_range_table((128, 128))) == (-64, 319)
    assert wide_window(build_range_table((256,))) == (-128, 383)
    assert wide_window(build_range_table((2,) * 128)) == (-1, 256)


def test_adjust_pair_splits_move_asymmetrically():
    # odd move: ceil half on the pixel walking away from its partner
    assert adjust_pair(100, 100, 0, 7) == (104, 97)
    assert adjust_pair(100, 101, 1, 0) == (100, 100)
    assert adjust_pair(10, 20, 10, 15) == (8, 23)


@settings(max_examples=400)
@given(st.integers(0, 255), st.integers(0, 255), st.data())
def test_block_round_trip_inside_byte_range(p, q, data):
    d = abs(q - p)
    t = TABLE.t[d]
    chunk = data.draw(st.integers(0, (1 << t) - 1))
    first, second = adjust_pair(p, q, d, TABLE.lower[d] + chunk)
    low, high = wide_window(TABLE)
    assert low <= first <= high
    assert low <= second <= high
    assert abs(second - first) == TABLE.lower[d] + chunk
    if 0 <= first <= 255 and 0 <= second <= 255:
        assert extract_pair(first, second, TABLE) == (chunk, t)


@settings(max_examples=400)
@given(st.integers(0, 255), st.integers(0, 255), st.data())
def test_shrinking_difference_never_escapes(p, q, data):
    d = abs(q - p)
    chunk = data.draw(st.integers(0, (1 << TABLE.t[d]) - 1))
    if TABLE.lower[d] + chunk > d:
        return
    first, second = adjust_pair(p, q, d, TABLE.lower[d] + chunk)
    assert 0 <= first <= 255
    assert 0 <= second <= 255


def test_adjust_pair_extract_pair_level():
    assert TABLE.lower[16] == 16
    assert adjust_pair(64, 80, 16, 16 + 0b0110) == (61, 83)
    assert extract_pair(61, 83, TABLE) == (0b0110, 4)


def test_image_embed_counts_violations():
    cover = GrayImage(8, 1, bytes([254, 255] + [128] * 6))
    result = pvd_embed_image(cover, b"\xe0", TABLE)  # chunks 111, 000, 00+0
    assert result.stego[0:2] == [251, 258]
    assert result.violations == 1
    assert result.bits_embedded == 8
    assert result.blocks_used == 3
    assert result.stego[2:] == [128] * 6  # zero chunks at d = 0 change nothing
    assert result.violations == sum(1 for v in result.stego if not 0 <= v <= 255)


def test_image_embed_counts_violations_on_either_side_and_measures_the_wide_raster():
    # (256,): each block's byte is its new difference; 40 pushes the first four apart
    cover = GrayImage(5, 3, bytes([250, 240, 240, 250, 15, 5, 5, 15, 100, 100, 200, 0, 9, 9, 77]))
    result = pvd_embed_image(cover, bytes([40, 40, 40, 40, 7, 3]), build_range_table((256,)))
    assert result.stego == [
        *(265, 225, 225, 265),  # p >= q: p leaves above 255; p < q: q does
        *(30, -10, -10, 30),  # p >= q: q leaves below 0; p < q: p does
        *(104, 97, 101, 98, 9, 9, 77),
    ]
    assert result.violations == 4 == sum(1 for v in result.stego if not 0 <= v <= 255)
    assert (result.mse, result.psnr_db) == mse_psnr(cover.pixels, result.stego)


def test_image_embed_wraps_both_ends_of_the_widest_window():
    # (256,), d' = 255 from d = 1 and d = 0: the widest moves the walk can make
    table = build_range_table((256,))
    cover = GrayImage(5, 1, bytes((0, 1, 255, 255, 7)))
    result = pvd_embed_image(cover, b"\xff\xff", table)
    assert adjust_pair(0, 1, 1, table.lower[1] + 255) == (-127, 128)
    assert adjust_pair(255, 255, 0, table.lower[0] + 255) == (383, 128)
    assert wide_window(table) == (-128, 383)
    assert result.stego == [-127, 128, 383, 128, 7]
    assert result.stored == bytes((0, 128, 255, 128, 7))
    assert result.wrapped == bytes((129, 128, 127, 128, 7))  # the wide raster modulo 256
    assert result.violations == 2


def test_image_embed_flat_cover_no_violations():
    # mid-gray flat cover: d' <= 7 keeps every stego value near 128
    cover = GrayImage(64, 64, bytes([128] * (64 * 64)))
    message = b"\xaa" * 124
    result = pvd_embed_image(cover, frame_payload(message), TABLE)
    assert result.violations == 0
    assert result.wrapped is result.stored  # no second raster when nothing wraps
    assert min(result.stego) >= 0 and max(result.stego) <= 255
    assert deframe_payload(pvd_extract_image(bytes(result.stego), TABLE)) == message


def test_capacity_refusal():
    cover = GrayImage(2, 2, bytes([128] * 4))
    with pytest.raises(CapacityError) as info:
        pvd_embed_image(cover, b"\xff" * 13, TABLE)
    assert info.value.needed_bits == 104
    assert info.value.available_bits == capacity(cover, TABLE)[0]


def test_raw_bit_capacity_examples():
    # embed refuses exactly what metrics.capacity says does not fit
    flat = GrayImage(512, 512, bytes([77] * (512 * 512)))
    assert capacity(flat, TABLE)[0] == 393216
    tiny = GrayImage(2, 2, bytes([0, 255, 0, 255]))
    assert capacity(tiny, TABLE)[0] == 14
    with pytest.raises(CapacityError) as info:
        pvd_embed_image(tiny, b"\x00\x00", TABLE)
    assert (info.value.needed_bits, info.value.available_bits) == (16, 14)
    assert pvd_embed_image(tiny, b"\x00", TABLE).blocks_used == 2


def test_empty_payload_touches_nothing():
    cover = GrayImage(4, 1, bytes([254, 255, 128, 128]))
    result = pvd_embed_image(cover, b"", TABLE)
    assert result.stego == list(cover.pixels)
    assert result.bits_embedded == 0
    assert result.blocks_used == 0


def test_extract_drops_tail_padding():
    message = b"\xb0"
    cover = GrayImage(32, 1, bytes([100] * 32))
    result = pvd_embed_image(cover, frame_payload(message), TABLE)  # 40 bits, t = 3
    assert result.bits_embedded == 40  # padding not counted
    assert result.blocks_used == 14
    assert result.stego[28:] == [100] * 4
    framed = pvd_extract_image(bytes(result.stego), TABLE)
    assert framed == frame_payload(message)
    assert deframe_payload(framed) == message
    # the last two blocks hold the message's final bits; without them it is cut short
    with pytest.raises(TruncatedPayload):
        pvd_extract_image(bytes(result.stego[:26]), TABLE)


def test_extract_rejects_pairs_beyond_any_difference():
    # the wide window's extremes are 383 apart, past the table's 0..255;
    # extraction reads 8-bit rasters, so values outside [0, 255] are refused
    with pytest.raises(ValueError):
        pvd_extract_image([-64, 319] * 40, TABLE)


def _chunk_raster(bits: str) -> list[int]:
    """Blocks (0, 128 + c) carrying the 7-bit chunks of a '0'/'1' string, default table."""
    bits += "0" * (-len(bits) % 7)
    return [v for i in range(0, len(bits), 7) for v in (0, 128 + int(bits[i : i + 7], 2))]


def test_extract_reads_no_bit_past_the_frame():
    # 41 bits declared in all: the 6th block completes the frame, one bit past it
    blocks = _chunk_raster(format(9, "032b") + "101101101" + "1")
    assert len(blocks) == 2 * 6
    # the bit past the frame and the block after it read as zeros to the byte
    framed = (9).to_bytes(4, "big") + bytes([0b10110110, 0b10000000])
    assert pvd_extract_image(bytes(blocks + [0, 255]), TABLE) == framed


def test_clamp_raster():
    assert clamp_raster([-3, 0, 128, 255, 310]) == bytes([0, 0, 128, 255, 255])
    assert clamp_raster([0, 7, 255]) == bytes([0, 7, 255])
    assert clamp_raster([]) == b""


def test_clamp_raster_domain_is_the_widest_wide_window():
    # [-128, 383] is wide_window((256,)), checked in test_wide_window_bounds
    assert clamp_raster([-128, 5, 383]) == bytes([0, 5, 255])
    assert clamp_raster([-1, 256]) == bytes([0, 255])
    # past the window a table lookup would wrap or overrun: refuse instead
    for value in (-129, 384, -200):
        with pytest.raises(ValueError):
            clamp_raster([value, 7])

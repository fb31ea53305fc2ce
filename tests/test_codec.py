from bisect import bisect_left
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvdstego.codec import (
    DEFAULT_WIDTHS,
    HEADER_BITS,
    CapacityError,
    PayloadError,
    TruncatedPayload,
    build_range_table,
    collect_frame,
    deframe_payload,
    frame_payload,
)
from pvdstego.imagery import GrayImage
from pvdstego.pvd import pvd_embed_image


def _stream(bits: str) -> bytes:
    """A '0'/'1' string as bytes, zero-filled to a whole byte."""
    padded = bits + "0" * (-len(bits) % 8)
    return bytes(int(padded[i : i + 8], 2) for i in range(0, len(padded), 8))


def _texts(bits: str, t: int) -> list[str]:
    """Chunk texts of t digits of a '0'/'1' string, the last one zero-filled."""
    bits += "0" * (-len(bits) % t)
    return [bits[i : i + t] for i in range(0, len(bits), t)]


def _prefix_ranges(widths):
    """(lower, upper) of each range, from the prefix sums of the widths."""
    uppers = list(accumulate(widths))
    return [(u - w, u - 1) for w, u in zip(widths, uppers)]


TABLE_WIDTHS = [(8, 8, 16, 32, 64, 128), (256,), (2,) * 128, (128, 128)]


def test_default_table_layout():
    table = build_range_table((8, 8, 16, 32, 64, 128))
    assert table.widths == (8, 8, 16, 32, 64, 128)
    layout = [(0, 7, 3), (8, 15, 3), (16, 31, 4), (32, 63, 5), (64, 127, 6), (128, 255, 7)]
    for lower, upper, bits in layout:
        assert table.lower[lower : upper + 1] == bytes([lower]) * (upper + 1 - lower)
        assert table.t[lower : upper + 1] == bytes([bits]) * (upper + 1 - lower)
    assert table.t[255] == 7
    assert table.t == b"\x03" * 16 + b"\x04" * 16 + b"\x05" * 32 + b"\x06" * 64 + b"\x07" * 128


def test_single_range_table():
    table = build_range_table((256,))
    assert table.widths == (256,)
    assert table.lower == b"\x00" * 256
    assert table.t == b"\x08" * 256


@pytest.mark.parametrize(
    "widths",
    [
        (8, 8), (8,) * 33, (7, 9, 16, 32, 64, 128), (12, 4, 16, 32, 64, 128), (),
        # each sums to 256; every width is checked before the sum and the lookups
        (0, 256), (256, 0), (512, -256), (2**40, 256 - 2**40),
    ],
)
def test_bad_width_lists_rejected(widths):
    with pytest.raises(ValueError):
        build_range_table(widths)


def test_lookup_boundaries():
    table = build_range_table()
    # d = 0 opens [0, 7]: 7 is its last difference and 8 opens the next range
    assert (table.lower[0], table.t[0], table.lower[7], table.lower[8]) == (0, 3, 0, 8)
    assert (table.lower[1], table.t[1]) == (0, 3)
    assert (table.lower[255], table.t[255]) == (128, 7)


def test_lookups_match_minimization_exhaustively():
    # the lookups and "smallest u_k - d with u_k >= d" must agree
    for widths in TABLE_WIDTHS:
        table = build_range_table(widths)
        ranges = _prefix_ranges(widths)
        for d in range(256):
            lower, upper = min((r for r in ranges if r[1] >= d), key=lambda r: r[1] - d)
            assert (table.lower[d], 1 << table.t[d]) == (lower, upper - lower + 1)


def test_difference_lookups_match_containment():
    for widths in TABLE_WIDTHS:
        table = build_range_table(widths)
        assert len(table.t) == len(table.lower) == 256
        for d in range(256):
            [(lower, upper)] = [r for r in _prefix_ranges(widths) if r[0] <= d <= r[1]]
            assert (table.lower[d], 1 << table.t[d]) == (lower, upper - lower + 1)


def test_width_is_exact_power_of_bits():
    for widths in [(8, 8, 16, 32, 64, 128), (256,), (2,) * 128]:
        table = build_range_table(widths)
        assert table.widths == widths
        for width, (lower, _) in zip(widths, _prefix_ranges(widths)):
            assert 1 << table.t[lower] == width


def test_table_equality_and_repr():
    table = build_range_table()
    assert table.widths == build_range_table([8, 8, 16, 32, 64, 128]).widths
    assert table.widths != build_range_table((128, 128)).widths
    assert {table: "default"}[table] == "default"  # a table can be a dict key
    assert repr(table) == "RangeTable(widths=8,8,16,32,64,128)"


def test_chunk_texts_are_built_on_first_use():
    table = build_range_table()
    assert "texts" not in vars(table) and "msb_set" not in vars(table)
    plain, msb_set = table.texts, table.msb_set
    assert (plain[0], plain[7], plain[8], plain[16], plain[255]) == (
        "000", "111", "000", "0000", "1111111")
    # the flag-1 texts of differences 0, 7, 16 and 128: "100", "111", "1000", "1000000"
    assert (msb_set[0], msb_set[7], msb_set[16], msb_set[128]) == (4, 7, 24, 192)
    assert table.texts is table.texts and table.msb_set is table.msb_set
    for widths in TABLE_WIDTHS:
        table = build_range_table(widths)
        plain, msb_set = table.texts, table.msb_set
        assert len(plain) == len(msb_set) == 256
        for d in range(256):
            t, value = table.t[d], d - table.lower[d]
            assert plain[d] == format(value, f"0{t}b")
            assert table.lower[msb_set[d]] == table.lower[d]
            assert plain[msb_set[d]] == format(value | 1 << (t - 1), f"0{t}b")


def _walked_chunks(stream: bytes, diffs, widths=DEFAULT_WIDTHS) -> list[int]:
    """The chunks the pvd embed walk cuts from a stream, read back from its stego pairs.

    Block k of the cover is (64, 64 + diffs[k]).  A stego pair stays in
    its block's range, so its difference d' reads back as the chunk
    d' - lower[d']; on a flat block (d = 0, lower 0) that is d' itself.
    """
    table = build_range_table(widths)
    cover = bytes(v for d in diffs for v in (64, 64 + d))
    result = pvd_embed_image(GrayImage(len(cover), 1, cover), stream, table)
    stego = result.stego[: 2 * result.blocks_used]
    walked = [abs(a - b) for a, b in zip(stego[0::2], stego[1::2])]
    return [d - table.lower[d] for d in walked]


@pytest.mark.parametrize("bits,value", [("010", 2), ("111", 7), ("000", 0)])
def test_read_chunk_msb_first(bits, value):
    # the byte's five zero bits after the chunk fill the next two blocks
    assert _walked_chunks(_stream(bits), [0] * 3) == [value, 0, 0]


def test_cursor_positions_and_exhaustion():
    # chunks come from consecutive positions, one block's t each (2, 3 and 3 here)
    four_first = (4, 4, 8, 16, 32, 64, 128)
    assert _walked_chunks(_stream("10110011"), [0, 8, 8], four_first) == [0b10, 0b110, 0b011]
    # the walk stops once the stream is out, however many blocks remain
    assert _walked_chunks(_stream("10110011"), [0] * 10) == [0b101, 0b100, 0b110]
    # and refuses a stream that outlasts the blocks, with the bits they hold
    assert _walked_chunks(b"\xff\xff", [0, 0], (256,)) == [0xFF, 0xFF]
    with pytest.raises(CapacityError) as info:
        _walked_chunks(b"\xff\xff", [0], (256,))
    assert (info.value.needed_bits, info.value.available_bits) == (16, 8)
    # chunks of up to 7 bits may straddle a byte boundary (t = 3, 7, 3, 3 here)
    assert _walked_chunks(b"\x0f\xf0", [0, 128, 0, 0]) == [0, 0b0111111, 0b110, 0]


def test_read_padded_zero_fills_tail():
    assert _walked_chunks(_stream("1"), [0] * 3) == [0b100, 0, 0]
    assert _walked_chunks(b"\x80", [0] * 4) == [0b100, 0b000, 0b000]
    assert _walked_chunks(b"", [0]) == []


def test_frame_empty_message():
    assert frame_payload(b"") == bytes(4)


def test_frame_single_byte():
    assert frame_payload(b"\xff") == (8).to_bytes(4, "big") + b"\xff"


def _sized(length: int):
    """A stand-in message with a length and nothing else, so nothing that large is allocated."""
    return type("Sized", (), {"__len__": lambda self: length})()


def test_frame_refuses_a_message_past_the_length_header():
    # 2**29 bytes are 2**32 bits, one more than the 32-bit header counts
    with pytest.raises(CapacityError, match="32-bit length header") as info:
        frame_payload(_sized(1 << 29))
    assert (info.value.needed_bits, info.value.available_bits) == (1 << 32, (1 << 32) - 1)
    # a byte less passes the check and fails only where the stand-in is joined
    with pytest.raises(TypeError):
        frame_payload(_sized((1 << 29) - 1))


def test_deframe_examples():
    assert deframe_payload(bytes(4)) == b""
    assert deframe_payload(_stream(format(8, "032b") + "1" * 8)) == b"\xff"
    # embedder fill past the declared length is ignored
    assert deframe_payload(_stream(format(8, "032b") + "1" * 8 + "000")) == b"\xff"


def test_deframe_truncation_errors():
    with pytest.raises(TruncatedPayload):
        deframe_payload(bytes(3))
    with pytest.raises(TruncatedPayload):
        deframe_payload(_stream(format(16, "032b") + "1" * 8))


def test_bytes_from_bits_alignment():
    # a declared bit count that is not a multiple of 8 holds no whole bytes
    with pytest.raises(PayloadError) as info:
        deframe_payload(_stream(format(7, "032b") + "1010101"))
    assert not isinstance(info.value, TruncatedPayload)


@settings(max_examples=200)
@given(st.binary(max_size=4096))
def test_frame_deframe_identity(message):
    assert deframe_payload(frame_payload(message)) == message


def _collect_all(texts: list[str]) -> bytes:
    """collect_frame over one window of every text, keyed by its position."""
    return collect_frame([range(len(texts))], texts)


@settings(max_examples=200)
@given(st.binary(max_size=512), st.integers(1, 8))
def test_chunks_round_trip_through_collect_frame(message, t):
    framed = frame_payload(message)
    widths = (1 << t,) * (256 >> t)  # t bits in every block
    blocks = (8 * len(framed) + t - 1) // t
    chunks = _walked_chunks(framed, [0] * blocks, widths)
    assert len(chunks) == blocks
    # the key of a chunk c is a difference whose text is c's: c itself, in the first range
    assert collect_frame([bytes(chunks)], build_range_table(widths).texts) == framed


def test_frame_collector_stops_at_declared_length():
    framed = frame_payload(b"\xa5")  # 40 bits
    bits = format(int.from_bytes(framed, "big"), "040b")
    texts = _texts(bits, 3) + ["111"] * 5
    # ceil(40 / 3) = 14 texts complete the frame, in the second window
    windows = iter([range(0, 10), range(10, 16), range(16, 19)])
    assert collect_frame(windows, texts) == framed
    # the window after it is left in place
    assert list(windows) == [range(16, 19)]
    assert deframe_payload(framed) == b"\xa5"


def test_frame_collector_incomplete_raises():
    with pytest.raises(TruncatedPayload) as info:
        _collect_all(_texts("0" * 31, 1))
    assert str(info.value) == (
        "stego image ran out of blocks after 31 bits (declared payload: unknown bits)"
    )
    # header present but payload missing
    with pytest.raises(TruncatedPayload) as info:
        _collect_all(_texts(format(80, "032b"), 8))
    assert str(info.value) == "stego image ran out of blocks after 32 bits (declared payload: 80 bits)"
    with pytest.raises(TruncatedPayload):
        collect_frame([], [])
    # an empty payload completes with the header alone
    assert _collect_all(_texts("0" * HEADER_BITS, 4)) == bytes(4)


def _one_shot_collect(texts: list[str], windows: list[range]):
    """collect_frame's bytes and the windows it reads, from one join of all the texts."""
    bits = "".join(texts)
    target = HEADER_BITS
    if len(bits) >= HEADER_BITS:
        target += int(bits[:HEADER_BITS], 2)
    if len(bits) < target:
        return TruncatedPayload
    ends = list(accumulate(sum(len(texts[k]) for k in window) for window in windows))
    used = bisect_left(ends, target) + 1  # through the window that completes the frame
    return _stream(bits[:target]), used


@st.composite
def _cut_frames(draw):
    """Texts of a header, up to 120 payload bits and a tail, cut anywhere.

    Cuts may fall inside the header, mid-byte, exactly at the header's
    end or at the declared target; the payload may stop short of it.
    """
    declared = draw(st.integers(0, 96))
    bits = format(declared, "032b") + draw(st.text("01", max_size=120))
    cuts = set(draw(st.lists(st.integers(1, len(bits) - 1), max_size=40)))
    cuts |= {c for c in (HEADER_BITS, HEADER_BITS + declared) if draw(st.booleans())}
    texts, start = [], 0
    for end in sorted(c for c in cuts if 0 < c < len(bits)) + [len(bits)]:
        while end - start > 8:  # a text holds at most 8 digits
            step = draw(st.integers(1, 8))
            texts.append(bits[start : start + step])
            start += step
        texts.append(bits[start:end])
        start = end
    return texts


_FRAME_8 = format(8, "032b") + "10100101"


# windows of the texts between cuts: a cut past the last text falls on
# it, and a repeated cut makes an empty window
@settings(max_examples=300)
@given(_cut_frames(), st.lists(st.integers(0, 60), max_size=12))
@example(_texts(_FRAME_8, 3), [])  # one window holds the whole frame
@example(_texts(_FRAME_8 + "1" * 16, 8), [6])  # completed mid-way through the first window
@example(_texts(_FRAME_8 + "1" * 16, 8), [2, 5])  # completed on a window's last block
@example(_texts(_FRAME_8 + "111", 3), [0, 0, 5, 12])  # empty windows, completed mid-window
@example(_texts(_FRAME_8[:-1], 1), [3])  # one bit short
@example(_texts("0" * 30, 5), [1, 1])  # inside the header
def test_windowed_collector_matches_one_shot_join(texts, cuts):
    edges = [0, *sorted(min(cut, len(texts)) for cut in cuts), len(texts)]
    windows = [range(a, b) for a, b in zip(edges, edges[1:])]
    rest = iter(windows)
    try:
        got = collect_frame(rest, texts), len(windows) - len(list(rest))
    except TruncatedPayload:
        got = TruncatedPayload
    assert got == _one_shot_collect(texts, windows)

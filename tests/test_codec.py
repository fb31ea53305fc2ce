import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvdstego.codec import (
    HEADER_BITS,
    PayloadError,
    Range,
    TruncatedPayload,
    build_range_table,
    collect_frame,
    deframe_payload,
    frame_payload,
    parse_widths,
    read_chunks,
)


def _stream(bits: str) -> bytes:
    """A '0'/'1' string as bytes, zero-filled to a whole byte."""
    padded = bits + "0" * (-len(bits) % 8)
    return bytes(int(padded[i : i + 8], 2) for i in range(0, len(padded), 8))


def _chunks(bits: str, t: int):
    """(value, t) chunks of a '0'/'1' string, the last one zero-filled."""
    bits += "0" * (-len(bits) % t)
    return [(int(bits[i : i + t], 2), t) for i in range(0, len(bits), t)]


def test_default_table_layout():
    table = build_range_table((8, 8, 16, 32, 64, 128))
    assert [(r.lower, r.upper) for r in table.ranges] == [
        (0, 7), (8, 15), (16, 31), (32, 63), (64, 127), (128, 255),
    ]
    assert [r.bits for r in table.ranges] == [3, 3, 4, 5, 6, 7]
    assert table.ranges[-1].bits == 7


def test_single_range_table():
    table = build_range_table((256,))
    assert table.ranges == (Range(0, 255),)
    assert table.ranges[0].bits == 8


@pytest.mark.parametrize(
    "widths",
    [(8, 8), (8,) * 33, (7, 9, 16, 32, 64, 128), (12, 4, 16, 32, 64, 128), ()],
)
def test_bad_width_lists_rejected(widths):
    with pytest.raises(ValueError):
        build_range_table(widths)


def test_locate_boundaries():
    table = build_range_table()
    assert (table.locate(0).lower, table.locate(0).upper) == (0, 7)
    assert (table.locate(1).lower, table.locate(1).bits) == (0, 3)
    assert (table.locate(255).lower, table.locate(255).bits) == (128, 7)


def test_locate_matches_minimization_exhaustively():
    # the containment rule and "smallest u_k - d with u_k >= d" must agree
    table = build_range_table()
    for d in range(256):
        by_containment = table.locate(d)
        by_min = min(
            (r for r in table.ranges if r.upper >= d), key=lambda r: r.upper - d
        )
        assert by_containment == by_min
        assert by_containment.lower <= d <= by_containment.upper


def test_difference_lookups_match_locate():
    for widths in [(8, 8, 16, 32, 64, 128), (256,), (2,) * 128, (128, 128)]:
        table = build_range_table(widths)
        assert len(table.t) == len(table.lower) == 256
        for d in range(256):
            assert (table.t[d], table.lower[d]) == (table.locate(d).bits, table.locate(d).lower)


def test_width_is_exact_power_of_bits():
    for widths in [(8, 8, 16, 32, 64, 128), (256,), (2,) * 128]:
        for rng in build_range_table(widths).ranges:
            assert 1 << rng.bits == rng.width


def test_parse_widths():
    assert parse_widths("8,8,16,32,64,128") == (8, 8, 16, 32, 64, 128)
    with pytest.raises(ValueError):
        parse_widths("8,x,16")


@pytest.mark.parametrize("bits,value", [("010", 2), ("111", 7), ("000", 0)])
def test_read_chunk_msb_first(bits, value):
    assert list(read_chunks(_stream(bits), [3])) == [value]


def test_cursor_positions_and_exhaustion():
    # chunks come from consecutive positions, one width each
    assert list(read_chunks(_stream("10110011"), [2, 3, 3])) == [0b10, 0b110, 0b011]
    # the reader stops once the stream is out, however many widths remain
    assert list(read_chunks(_stream("10110011"), [3] * 10)) == [0b101, 0b100, 0b110]
    # and stops early when the widths run out
    assert list(read_chunks(b"\xff\xff", [8])) == [0xFF]
    # chunks of up to 8 bits may straddle a byte boundary
    assert list(read_chunks(b"\x0f\xf0", [4, 8, 4])) == [0, 0xFF, 0]


def test_read_padded_zero_fills_tail():
    assert list(read_chunks(_stream("1"), [3])) == [0b100]
    assert list(read_chunks(b"\x80", [3, 3, 3, 3])) == [0b100, 0b000, 0b000]
    assert list(read_chunks(b"", [3])) == []


def test_frame_empty_message():
    assert frame_payload(b"") == bytes(4)


def test_frame_single_byte():
    assert frame_payload(b"\xff") == (8).to_bytes(4, "big") + b"\xff"


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


@settings(max_examples=200)
@given(st.binary(max_size=512), st.integers(1, 8))
def test_chunks_round_trip_through_collect_frame(message, t):
    framed = frame_payload(message)
    widths = [t] * ((8 * len(framed) + t - 1) // t)
    chunks = list(read_chunks(framed, widths))
    assert len(chunks) == len(widths)
    assert collect_frame(zip(chunks, widths)) == framed


def test_frame_collector_stops_at_declared_length():
    framed = frame_payload(b"\xa5")  # 40 bits
    bits = format(int.from_bytes(framed, "big"), "040b")
    chunks = iter(_chunks(bits, 3) + [(0b111, 3)] * 5)
    assert collect_frame(chunks) == framed
    # ceil(40 / 3) = 14 chunks consumed, the rest left in place
    assert len(list(chunks)) == 5
    assert deframe_payload(framed) == b"\xa5"


def test_frame_collector_incomplete_raises():
    with pytest.raises(TruncatedPayload):
        collect_frame(_chunks("0" * 31, 1))
    # header present but payload missing
    with pytest.raises(TruncatedPayload):
        collect_frame(_chunks(format(80, "032b"), 8))
    # an empty payload completes with the header alone
    assert collect_frame(_chunks("0" * HEADER_BITS, 4)) == bytes(4)

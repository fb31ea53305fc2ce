import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvdstego import imagery
from pvdstego.codec import build_range_table
from pvdstego.imagery import (
    BLOCK_WINDOW,
    SYNTHETIC_KINDS,
    GrayImage,
    PgmError,
    block_differences,
    block_lanes,
    block_windows,
    load_pgm,
    save_pgm,
    synthetic_cover,
)
from pvdstego.pvd import pvd_embed_image

TABLE = build_range_table()


def test_load_minimal_binary():
    img = load_pgm(b"P5\n2 1\n255\n\x00\xff")
    assert (img.width, img.height) == (2, 1)
    assert img.pixels == b"\x00\xff"


def test_load_minimal_ascii():
    img = load_pgm(b"P2 1 1 255 128")
    assert img.pixels == b"\x80"


def test_comments_are_skipped():
    img = load_pgm(b"P2 # a remark\n2 2 # sizes\n255\n1 2\n3 4\n")
    assert img.pixels == bytes([1, 2, 3, 4])


def test_save_minimal_binary():
    raster = GrayImage(1, 1, b"\x00")
    assert save_pgm(raster) == b"P5\n1 1\n255\n\x00"


def test_save_ascii_parses_back():
    raster = GrayImage(2, 2, bytes([1, 2, 3, 4]))
    text = save_pgm(raster, variant="ascii")
    assert text.startswith(b"P2\n")
    assert load_pgm(text) == raster


def test_ascii_lines_stay_short():
    raster = GrayImage(40, 40, bytes([255] * 1600))
    for line in save_pgm(raster, variant="ascii").splitlines():
        assert len(line) < 70


@pytest.mark.parametrize(
    "payload,fragment",
    [
        (b"P5\n2 1\n65535\n\x00\x00\x00\x00", "maxval"),
        (b"P5\n2 1\n256\n\x00\x00", "maxval"),
        (b"P6\n2 1\n255\n\x00\x00", "magic"),
        (b"P5\n0 5\n255\n", "dimension"),
        (b"P5\n2 2\n255\n\x00\x00\x00", "truncated"),
        (b"P2\n2 1\n255\n1", "truncated"),
        (b"P5 2 2 255 \x00\x00\x00", "truncated pixel data: got 3 of 4 bytes"),
        (b"P2 2 2 255 1 2 3", "truncated pixel data: got 3 of 4 values"),
        (b"P2\n1 1\n255\n300", "exceeds"),
        (b"P5\n1 1\n255\n\x00\x01", "trailing"),
        (b"P2\n1 1\n255\n0 junk", "trailing"),
        (b"P5\n1 1\n255#c\n\x00", "missing whitespace"),
        (b"P2\n1 1\n255\n+5", "malformed"),  # int() would take both tokens
        (b"P2\n1 1\n255\n1_0", "malformed"),
        # oversized numbers: the message depends on whether the running
        # Python limits int() digits (3.10.7 onward), so only the type counts
        pytest.param(b"P5\n" + b"1" * 5000 + b" 1\n255\n\x00", "", id="oversized-width"),
        pytest.param(b"P5\n1 " + b"1" * 5000 + b"\n255\n\x00", "", id="oversized-height"),
        pytest.param(b"P5\n1 1\n" + b"1" * 5000 + b"\n\x00", "", id="oversized-maxval"),
        pytest.param(b"P2\n1 1\n255\n" + b"1" * 5000, "", id="oversized-pixel"),
        # two printable dimensions whose product is too long to print
        pytest.param(b"P5\n" + b"1" * 3000 + b" " + b"1" * 3000 + b"\n255\n\x00", "", id="oversized-count"),
    ],
)
def test_malformed_inputs_rejected(payload, fragment):
    with pytest.raises(PgmError) as info:
        load_pgm(payload)
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "payload,pixels",
    [
        (b"P2 2 2 255\n1 2 # row end\n3 4\n", [1, 2, 3, 4]),  # comment in the raster
        (b"P2 2 1 255\n12#c\n7\n", [12, 7]),  # comment glued to a token
        (b"P2 002 1 0255\n007 000", [7, 0]),  # leading zeros
        (b"P2\x0b1\x0c1\x0b255\x0c9\x0b", [9]),  # vertical tab and form feed
        (b"P2\r# c\r2 1\r255\r3\r4\r", [3, 4]),  # CR-only line ends
        (b"P5 # c\n2 1 255\x0c#\n", [35, 10]),  # '#' in a P5 raster is a pixel
    ],
)
def test_grammar_accepts(payload, pixels):
    assert load_pgm(payload).pixels == bytes(pixels)


def test_round_trip_large_random():
    rng = random.Random(7)
    raster = GrayImage(512, 512, bytes(rng.randrange(256) for _ in range(512 * 512)))
    assert load_pgm(save_pgm(raster, variant="binary")) == raster
    assert load_pgm(save_pgm(raster, variant="ascii")) == raster


@settings(max_examples=60)
@given(st.data())
def test_round_trip_fuzz(data):
    width = data.draw(st.integers(1, 40))
    height = data.draw(st.integers(1, 40))
    pixels = bytes(
        data.draw(
            st.lists(
                st.integers(0, 255),
                min_size=width * height,
                max_size=width * height,
            )
        )
    )
    raster = GrayImage(width, height, pixels)
    for variant in ("binary", "ascii"):
        assert load_pgm(save_pgm(raster, variant=variant)) == raster


def test_image_invariants():
    with pytest.raises(ValueError):
        GrayImage(2, 2, b"\x00" * 3)
    with pytest.raises(ValueError):
        GrayImage(0, 2, b"")


@pytest.mark.parametrize(
    "changes",
    [{"pixels": b"abcdef"}, {"width": 0}, {"pixels": bytearray(b"ab")}],
    ids=["wrong length", "zero width", "bytearray"],
)
def test_replace_and_make_check_as_the_constructor_does(changes):
    # a named tuple's own _replace and _make build through tuple.__new__, past the checks
    image = GrayImage(2, 1, b"ab")
    fields = {**image._asdict(), **changes}
    with pytest.raises((TypeError, ValueError)) as direct:
        GrayImage(**fields)
    for build in (lambda: image._replace(**changes), lambda: GrayImage._make(fields.values())):
        with pytest.raises(direct.type) as built:
            build()
        assert str(built.value) == str(direct.value)


@pytest.mark.parametrize("pixels", [[1, 2, 3, 4], [300, 2, 3, 4], bytearray(4), (1, 2, 3, 4)])
def test_image_pixels_must_be_bytes(pixels):
    # a list would pass here and fail later, in save_pgm or capacity
    with pytest.raises(TypeError, match="pixels must be bytes"):
        GrayImage(2, 2, pixels)


def test_load_pgm_of_a_bytearray_holds_bytes():
    for data in (b"P5\n2 1\n255\n\x00\xff", b"P2 2 1 255 0 255"):
        img = load_pgm(bytearray(data))
        assert type(img.pixels) is bytes and img.pixels == b"\x00\xff"


_EVERY_PAIR = [(p, q) for p in range(256) for q in range(256)]


def test_block_differences_of_every_pair():
    raster = bytes(v for pair in _EVERY_PAIR for v in pair)  # 16 windows of blocks
    assert block_differences(raster) == bytes(abs(p - q) for p, q in _EVERY_PAIR)
    # an odd trailing pixel belongs to no block
    assert block_differences(raster + b"\xff") == block_differences(raster)
    assert block_differences(b"") == block_differences(b"\x07") == b""


def test_block_lanes_of_every_pair():
    raster = bytes(v for pair in _EVERY_PAIR for v in pair)
    difference, below = block_lanes(raster + b"\x07")  # the odd pixel is no block's
    size = 2 * len(_EVERY_PAIR)  # each lane's value fits its low byte
    want = bytes(v for p, q in _EVERY_PAIR for v in (abs(p - q), 0))
    assert difference.to_bytes(size, "little") == want
    assert below.to_bytes(size, "little") == bytes(v for p, q in _EVERY_PAIR for v in (p < q, 0))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3 * BLOCK_WINDOW + 9), st.randoms(use_true_random=False), st.booleans())
def test_block_differences_match_a_loop(blocks, rng, mutable):
    pixels = rng.randbytes(2 * blocks)
    if mutable:
        pixels = bytearray(pixels)
    want = bytes(abs(p - q) for p, q in zip(pixels[0::2], pixels[1::2]))
    assert block_differences(pixels) == want


@pytest.mark.parametrize(
    "sizes",
    [
        [],
        [1],
        [511],
        [512],
        [512, 1],
        [512, 1024, 2048, 4096],  # 256 blocks, then twice as many each time
        [512, 1024, 2048, 4096, 2 * BLOCK_WINDOW, 2 * BLOCK_WINDOW, 1],
    ],
)
def test_block_windows_start_short_and_double_to_the_cap(sizes):
    pixels = random.Random(len(sizes)).randbytes(sum(sizes))
    windows = list(block_windows(pixels))
    assert [len(w) for w in windows] == sizes
    assert b"".join(windows) == pixels


def _blocks(img: GrayImage) -> list[tuple[int, int]]:
    """The block order every walk uses: pixels[0::2] paired with pixels[1::2]."""
    return list(zip(img.pixels[0::2], img.pixels[1::2]))


def _walked_blocks(img: GrayImage) -> list[tuple[int, int]]:
    """The blocks the pvd embed walk forms, as its stego pairs.

    Under the one-range table every block takes one stream byte, and the
    byte |p - q| leaves block (p, q) as it is; any other pairing of the
    pixels would change the pairs.
    """
    stream = bytes(abs(p - q) for p, q in _blocks(img))
    stego = pvd_embed_image(img, stream, build_range_table((256,))).stego
    return list(zip(stego[0::2], stego[1::2]))


def test_block_sequence_row_major_pairs():
    raster = GrayImage(2, 2, bytes([10, 20, 30, 40]))
    assert _blocks(raster) == _walked_blocks(raster) == [(10, 20), (30, 40)]
    # block k is the flat offsets 2k and 2k + 1
    offsets = range(4)
    assert list(zip(offsets[0::2], offsets[1::2])) == [(0, 1), (2, 3)]


def test_block_sequence_drops_odd_tail():
    raster = GrayImage(3, 1, bytes([1, 2, 3]))
    assert _blocks(raster) == _walked_blocks(raster) == [(1, 2)]


def test_block_sequence_covers_all_but_at_most_one_pixel():
    for total in (6, 7, 512 * 512):
        offsets = range(total)
        pairs = list(zip(offsets[0::2], offsets[1::2]))
        flat = [i for pair in pairs for i in pair]
        assert flat == list(range(2 * len(pairs)))
        assert len(pairs) == total // 2
        assert total - len(flat) <= 1


def test_block_count_full_frame():
    raster = GrayImage(512, 512, bytes(512 * 512))
    assert len(_blocks(raster)) == len(_walked_blocks(raster)) == 131072


def test_synthetic_covers_deterministic():
    for kind in SYNTHETIC_KINDS:
        one = synthetic_cover(kind, width=32, height=16, seed=9)
        two = synthetic_cover(kind, width=32, height=16, seed=9)
        assert one == two
        assert (one.width, one.height) == (32, 16)
    assert synthetic_cover("noise", seed=1) != synthetic_cover("noise", seed=2)


def test_synthetic_unknown_kind():
    with pytest.raises(ValueError):
        synthetic_cover("marble")


# --- P2 windows against the token-at-a-time reference -----------------------

_REFERENCE_TOKEN = re.compile(rb"#[^\r\n]*|[^ \t\r\n\x0b\x0c#]+")


def _reference_load_p2(data: bytes) -> GrayImage:
    """The P2 decoder the windowed one replaced: one regex match per token."""
    try:
        tokens = (m[0] for m in _REFERENCE_TOKEN.finditer(data) if m[0][:1] != b"#")

        def number(token, what):
            if token is None:
                raise PgmError(f"truncated header: missing {what}")
            if not token.isdigit():
                raise PgmError(f"malformed {what}: {token!r}")
            return int(token)

        magic = next(tokens, None)
        if magic is None:
            raise PgmError("truncated header: missing magic number")
        if magic != b"P2":
            raise PgmError(f"unsupported magic {magic!r}, expected P2 or P5")
        width = number(next(tokens, None), "width")
        height = number(next(tokens, None), "height")
        if width == 0 or height == 0:
            raise PgmError(f"zero image dimension: {width}x{height}")
        maxval = number(next(tokens, None), "maxval")
        if maxval != 255:
            raise PgmError(f"unsupported maxval {maxval}, only 255 is supported")
        values = bytearray()
        for _, token in zip(range(width * height), tokens):
            value = number(token, "pixel value")
            if value > 255:
                raise PgmError(f"pixel value {value} exceeds maxval 255")
            values.append(value)
        if len(values) < width * height:
            raise PgmError(f"truncated pixel data: got {len(values)} of {width * height} values")
        if next(tokens, None) is not None:
            raise PgmError("trailing data after pixel raster")
        return GrayImage(width, height, bytes(values))
    except PgmError:
        raise
    except ValueError:  # int() past sys.get_int_max_str_digits()
        raise PgmError("number too long to convert") from None


def _outcome(load, data: bytes):
    try:
        return load(data)
    except PgmError as error:
        return str(error)


# each hazard is laid across a window cut of the decoder
_HAZARDS = [
    b"17",
    b"255",
    b"0007",
    b"256",
    b"x9",
    b"+1",
    b"# comment 1 2 3\n",
    b"# a comment whose line ends in CR 4 5\r",
    b"12#glued comment 6\r\n",
    b"#",
    b"\r\r\r",
    b"\x0b\x0c\x0b",
    b"7" * 4400,
    b"0" * 4399 + b"9",
]


def _window_end(body: bytes, start: int) -> int:
    """Where the decoder ends the window that starts at ``start`` (for aiming only)."""
    end = start + imagery._WINDOW
    while end < len(body) and body[end] not in imagery._WHITESPACE:
        end += 1
    if b"#" in body[start:end]:
        while end < len(body) and body[end] not in b"\r\n":
            end += 1
    return min(end, len(body))


@st.composite
def _p2_across_windows(draw):
    """A P2 file of several windows with one hazard across each cut."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def filler(size):  # exactly ``size`` bytes of values and separators
        out = bytearray()
        while len(out) < size - 4:
            out += str(rng.randrange(256)).encode()
            out += rng.choice([b" ", b" ", b" ", b"\n", b"\r", b"\r\n", b"\t", b"\x0b", b"\x0c"])
        return out + b" " * (size - len(out))

    body = bytearray(b"\n")  # windows start right after the maxval token
    start = 0
    for _ in range(draw(st.integers(3, 4))):
        hazard = draw(st.sampled_from(_HAZARDS))
        lead = draw(st.integers(0, len(hazard)))  # hazard bytes before the cut
        body += filler(start + imagery._WINDOW - lead - len(body))
        body += hazard + rng.choice([b" ", b"\n", b"\r", b"\x0c"]) + filler(80) + b"\n"
        start = _window_end(bytes(body), start)
    body += filler(draw(st.integers(0, 200)))
    count = sum(m[0][:1] != b"#" for m in _REFERENCE_TOKEN.finditer(body))
    width = max(1, count + draw(st.sampled_from([-1, 0, 0, 0, 1])))
    return b"P2\n%d 1\n255" % width + bytes(body)


@settings(max_examples=60, deadline=None)
@given(_p2_across_windows())
def test_windowed_p2_matches_token_reference(data):
    assert _outcome(load_pgm, data) == _outcome(_reference_load_p2, data)


@pytest.mark.parametrize(
    "data",
    [
        b"P2 2 2 255\n1 2 # row end\n3 4\n",
        b"P2 2 1 255#c\n12#c\n7\n",
        b"P2\r# c\r2 1\r255\r3\r4\r",
        b"P2 1 1 255\n",
        b"P2 2 2 255 1 2 3",
        b"P2 1 1 255 300",
        b"P2 2 1 255 1 x 300",
        b"P2 1 1 255 1 junk",
        b"P2 1 1 255 " + b"1" * 5000,
        b"P2 3 1 255 0 1 007",  # a table miss after hits in the same window
        b"P2 1 1 255 0256",
        b"P2 2 1 255 00 x",
        b"P2 1 1 255 -0",
        b"P2 1 1 255 +7",
        b"P2 256 1 255 " + b" ".join(b"%d" % v for v in range(256)),
    ],
)
def test_short_p2_matches_token_reference(data):
    assert _outcome(load_pgm, data) == _outcome(_reference_load_p2, data)


def test_canonical_p2_raster_calls_int_only_for_the_header(monkeypatch):
    calls = []

    def counting_int(*args):
        calls.append(args)
        return int(*args)

    monkeypatch.setattr(imagery, "int", counting_int, raising=False)
    image = synthetic_cover("noise", 256, 256, 0)
    assert load_pgm(save_pgm(image, "ascii")) == image
    assert len(calls) == 3  # width, height and maxval


def test_p2_load_peak_memory_stays_below_the_file():
    # decoding a window at a time keeps only one window's words alive, so
    # the peak is the raster plus its final copy, not the words of the file
    data = save_pgm(synthetic_cover("noise", 512, 512, seed=0), variant="ascii")
    tracemalloc.start()
    try:
        load_pgm(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(data)


class _CountingPattern:
    """Stands in for a compiled pattern and counts its ``sub`` calls."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def sub(self, repl, text):
        self.calls += 1
        return self.pattern.sub(repl, text)


def test_p2_comments_are_blanked_in_one_pass_and_only_when_present(monkeypatch):
    spy = _CountingPattern(imagery._COMMENT)
    monkeypatch.setattr(imagery, "_COMMENT", spy)
    image = synthetic_cover("noise", 256, 256, 0)
    plain = save_pgm(image, "ascii")
    assert load_pgm(b"P2 # a header comment\n" + plain[3:]) == image
    assert spy.calls == 0  # a raster without a '#' is never copied
    lines = plain.split(b"\n")
    lines[5] += b"#glued"  # a comment glued to a word ends it, as whitespace does
    assert load_pgm(b" # a comment\n".join(lines)) == image
    assert spy.calls == 1


def test_p2_load_with_a_comment_on_every_line_stays_within_a_few_files():
    # re.sub holds each piece between comments and the join's buffer per
    # piece: about 6x the file with a comment on every 17-value line, where
    # the words of the whole file would take 12x
    image = synthetic_cover("noise", 512, 512, seed=0)
    data = save_pgm(image, variant="ascii").replace(b"\n", b"#c\n")
    tracemalloc.start()
    try:
        assert load_pgm(data) == image
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(data)

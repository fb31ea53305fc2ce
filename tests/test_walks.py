"""The image walks against a block-by-block loop over the kernels.

The reference loop below spells the scheme out the slow way: bit
strings, one block at a time, ``pixels[0::2]`` paired with
``pixels[1::2]``, and nothing but the per-block kernels.  The image
walks must agree with it exactly, and the extractors must fail only with
the documented errors.
"""

import contextlib
import io
import json
import math
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvdstego import cli, oracle, pvd
from pvdstego.apvd import (
    BRANCHES,
    apvd_embed_image,
    apvd_extract_image,
    embed_block_values,
    extract_block_value,
    mark_with_case,
)
from pvdstego.codec import (
    HEADER_BITS,
    CapacityError,
    PayloadError,
    TruncatedPayload,
    build_range_table,
    deframe_payload,
    frame_payload,
)
from pvdstego.imagery import GrayImage, PgmError, load_pgm, save_pgm, synthetic_cover
from pvdstego.metrics import capacity, mse_psnr
from pvdstego.pvd import (
    clamp_raster,
    embed_pair,
    extract_pair,
    pvd_embed_image,
    pvd_extract_image,
)

TABLE = build_range_table()
TABLES = [TABLE, build_range_table((2,) * 128), build_range_table((256,))]


def _bits(stream: bytes) -> str:
    return "".join(format(byte, "08b") for byte in stream)


def _reference_embed(cover: GrayImage, stream: bytes, table, adaptive: bool):
    """(stego values, per-block labels, bits embedded) the slow way."""
    bits = _bits(stream)
    stego = list(cover.pixels)
    labels = []
    pos = 0
    for block, (p, q) in enumerate(zip(cover.pixels[0::2], cover.pixels[1::2])):
        if pos >= len(bits):
            break
        t = table.t[abs(q - p)]
        chunk = int(bits[pos : pos + t].ljust(t, "0"), 2)
        pos += t
        if adaptive:
            pixels, flag, branch = embed_block_values(p, q, chunk, table)
            (first, second), case = mark_with_case(pixels, flag)
            labels.append((branch, case))
        else:
            first, second = embed_pair(p, q, chunk, table)
            labels.append((not 0 <= first <= 255) + (not 0 <= second <= 255))
        stego[2 * block], stego[2 * block + 1] = first, second
    return stego, labels, min(pos, len(bits))


def _reference_extract(pixels, table, decode) -> bytes:
    """Concatenate per-block bit strings until header + declared are in."""
    bits = ""
    target = None
    for i in range(0, len(pixels) - 1, 2):
        value, t = decode(pixels[i], pixels[i + 1], table)
        bits += format(value, f"0{t}b")
        if target is None and len(bits) >= HEADER_BITS:
            target = HEADER_BITS + int(bits[:HEADER_BITS], 2)
        if target is not None and len(bits) >= target:
            bits = bits[:target]
            return bytes(int(bits[i : i + 8].ljust(8, "0"), 2) for i in range(0, len(bits), 8))
    raise TruncatedPayload("reference ran out of blocks")


def _outcome(call):
    try:
        return call()
    except PayloadError as exc:
        return type(exc)


def _random_raster(rng: random.Random, count: int) -> bytes:
    # mostly extremes, so the overflow branches and marks all fire
    pool = [0, 1, 2, 3, 126, 127, 128, 252, 253, 254, 255]
    return bytes(
        rng.choice(pool) if rng.random() < 0.5 else rng.randrange(256) for _ in range(count)
    )


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("width,height", [(9, 9), (8, 10), (1, 81), (33, 17), (64, 31)])
def test_walks_match_block_by_block_kernels(seed, width, height):
    rng = random.Random(seed * 1000 + width)
    table = TABLES[seed % len(TABLES)]
    cover = GrayImage(width, height, _random_raster(rng, width * height))
    _, net = capacity(cover, table)
    payload = rng.randbytes(rng.choice([0, net // 2, net]))
    framed = frame_payload(payload)

    report = apvd_embed_image(cover, payload, table)
    stego, labels, bits = _reference_embed(cover, framed, table, adaptive=True)
    branch_counts = dict.fromkeys(BRANCHES, 0)
    mark_case_counts = {}
    for branch, case in labels:
        branch_counts[branch] += 1
        mark_case_counts[case] = mark_case_counts.get(case, 0) + 1
    assert report.stego.pixels == bytes(stego)
    assert report.branch_counts == branch_counts
    assert list(report.mark_case_counts.items()) == list(mark_case_counts.items())
    assert report.bits_embedded == bits == 8 * len(framed)
    assert report.blocks_used == len(labels)
    got = _outcome(lambda: apvd_extract_image(report.stego, table))
    want = _outcome(
        lambda: deframe_payload(_reference_extract(report.stego.pixels, table, extract_block_value))
    )
    assert got == want

    result = pvd_embed_image(cover, framed, table)
    wide, violations, bits = _reference_embed(cover, framed, table, adaptive=False)
    assert result.stego == wide
    assert result.violations == sum(violations) == sum(1 for v in wide if not 0 <= v <= 255)
    assert result.bits_embedded == bits
    assert result.blocks_used == len(violations)
    reference = _reference_extract(result.stego, table, extract_pair)
    assert pvd_extract_image(result.stego, table) == reference


@pytest.mark.parametrize("widths", [(256,), (128, 128)])
@pytest.mark.parametrize("p_start", [0, 255])
def test_oracle_passes_wide_tables_at_the_edges(widths, p_start):
    part = oracle._sweep_span(widths, p_start, p_start + 1)
    assert part.failures == []
    table = build_range_table(widths)
    assert part.total_cases == sum(1 << table.t[abs(q - p_start)] for q in range(256))


def test_oracle_passes_the_single_bit_table():
    table = build_range_table((2,) * 128)
    result = oracle.run(table)
    assert result.failures == []
    assert result.total_cases == oracle.expected_case_count(table) == 256 * 256 * 2
    assert sum(result.branch_counts.values()) == result.total_cases
    # as on the default table: a pair in the last range, spread about the
    # middle, with an all-ones chunk
    expected_corner = {((255 - d) >> 1, ((255 - d) >> 1) + d, 1) for d in (254, 255)}
    assert set(result.lossy_corner_cases) == expected_corner
    assert result.lossy_corner_count == 2


@pytest.mark.parametrize("table", TABLES, ids=lambda t: repr(t.widths[:3]))
def test_text_lookups_match_the_kernels_on_every_pair(table):
    out = oracle.OracleResult()
    oracle._check_lookups(table, out)
    assert (out.lookup_mismatches, out.failures) == (0, [])


@pytest.mark.parametrize("which", [0, 1])
def test_lookup_check_counts_a_wrong_text(which):
    table = build_range_table()
    texts = list(table.texts)
    wrong = list(texts[which])
    wrong[5] = "111" if wrong[5] != "111" else "000"
    texts[which] = tuple(wrong)
    vars(table)["texts"] = tuple(texts)  # what the cached property would hold
    out = oracle.OracleResult()
    oracle._check_lookups(table, out)
    # apvd pairs whose unmarked difference is 5, flag 0 (which 0) or 1
    expected = sum(
        abs((p ^ 1) - q) == 5 for p in range(which, 256, 2) for q in range(256))
    if which == 0:  # and the plain pairs 5 apart inside the wide window [-64, 319]
        expected += 2 * (384 - 5)
    assert out.lookup_mismatches == expected
    assert len(out.failures) == oracle.FAIL_LIMIT


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_extraction_memory_stays_within_three_rasters():
    cover = _mid_gray_cover("noise", 512, 512)  # no pvd violations, so bytes hold the stego
    _, net = capacity(cover, TABLE)
    payload = random.Random(0).randbytes(net)
    stego = apvd_embed_image(cover, payload, TABLE).stego
    wide = pvd_embed_image(cover, frame_payload(payload), TABLE)
    assert wide.violations == 0
    plain = bytes(wide.stego)
    size = len(cover.pixels)
    assert _traced_peak(lambda: apvd_extract_image(stego, TABLE)) < 3 * size
    assert _traced_peak(lambda: pvd_extract_image(plain, TABLE)) < 3 * size
    assert _traced_peak(lambda: pvd_extract_image(wide.stego, TABLE)) < 3 * size  # a list raster
    assert apvd_extract_image(stego, TABLE) == payload
    assert deframe_payload(pvd_extract_image(plain, TABLE)) == payload
    assert deframe_payload(pvd_extract_image(wide.stego, TABLE)) == payload


# --- work in proportion to the payload -----------------------------------------

# min(t) of 3, 1 and 7: the bound min(t) * blocks below which no capacity pass runs
BOUND_WIDTHS = ["8,8,16,32,64,128", "2,2,4,8,16,32,64,128", "128,128"]
BOUND_TABLES = [build_range_table(map(int, text.split(","))) for text in BOUND_WIDTHS]


def _refuse_capacity_pass(monkeypatch):
    def refuse(cover, table):
        raise AssertionError("capacity pass over the whole cover")

    monkeypatch.setattr(pvd, "capacity", refuse)


def _mid_gray_cover(kind: str, width: int, height: int) -> GrayImage:
    """Flat: every block carries exactly min(t) bits.  Noise: no lossy corner."""
    if kind == "flat":
        return GrayImage(width, height, bytes([128] * (width * height)))
    rng = random.Random(width * height)
    return GrayImage(width, height, bytes(rng.randrange(64, 192) for _ in range(width * height)))


@pytest.mark.parametrize("table", BOUND_TABLES, ids=BOUND_WIDTHS)
@pytest.mark.parametrize(
    "kind,width,height", [("flat", 9, 9), ("noise", 23, 23), ("flat", 16, 8), ("noise", 16, 8)]
)
def test_stream_of_min_t_bits_per_block_skips_the_capacity_pass(
    monkeypatch, table, kind, width, height
):
    cover = _mid_gray_cover(kind, width, height)
    blocks = len(cover.pixels) // 2
    bits = min(table.t) * blocks
    payload = random.Random(bits).randbytes(bits // 8 - HEADER_BITS // 8)
    framed = frame_payload(payload)
    assert 8 * len(framed) == bits
    _refuse_capacity_pass(monkeypatch)

    result = pvd_embed_image(cover, framed, table)
    assert result.bits_embedded == bits
    assert result.stego[2 * result.blocks_used :] == list(cover.pixels[2 * result.blocks_used :])
    assert deframe_payload(pvd_extract_image(result.stego, table)) == payload
    report = apvd_embed_image(cover, payload, table)
    assert report.bits_embedded == bits
    assert apvd_extract_image(report.stego, table) == payload
    if kind == "flat":  # the bound is the true capacity: every block is used
        assert result.blocks_used == report.blocks_used == blocks
        assert report.stego.pixels[2 * blocks :] == cover.pixels[2 * blocks :]

    # one byte past the bound runs the pass
    with pytest.raises(AssertionError, match="capacity pass"):
        pvd_embed_image(cover, framed + b"\x00", table)


@pytest.mark.parametrize("widths", BOUND_WIDTHS)
@pytest.mark.parametrize("method", ["pvd", "apvd"])
def test_stream_past_true_capacity_is_refused_with_the_true_count(
    tmp_path, capsys, widths, method
):
    table = build_range_table(map(int, widths.split(",")))
    cover = _mid_gray_cover("noise", 23, 23)
    raw, _ = capacity(cover, table)
    framed = bytes(raw // 8 + 1)
    payload = framed[HEADER_BITS // 8 :]
    with pytest.raises(CapacityError) as info:
        if method == "pvd":
            pvd_embed_image(cover, framed, table)
        else:
            apvd_embed_image(cover, payload, table)
    assert (info.value.needed_bits, info.value.available_bits) == (8 * len(framed), raw)

    (tmp_path / "cover.pgm").write_bytes(save_pgm(cover))
    (tmp_path / "payload.bin").write_bytes(payload)
    code = cli.main([
        "embed", "--method", method, "--widths", widths, "--cover", str(tmp_path / "cover.pgm"),
        "--payload", str(tmp_path / "payload.bin"), "--out", str(tmp_path / "stego.pgm"),
    ])
    assert code == cli.EXIT_CAPACITY
    assert f"holds at most {raw} bits" in capsys.readouterr().err
    assert not (tmp_path / "stego.pgm").exists()


def _check_prefix_work(cover: GrayImage, payload: bytes, widths: str):
    """Embeds that touch only the walked prefix report what full arrays give."""
    table = build_range_table(map(int, widths.split(",")))
    report = apvd_embed_image(cover, payload, table)
    assert (report.mse, report.psnr_db) == mse_psnr(cover.pixels, report.stego.pixels)

    result = pvd_embed_image(cover, frame_payload(payload), table)
    assert len(result.stego) == len(cover.pixels)
    assert result.violations == sum(1 for v in result.stego if not 0 <= v <= 255)
    mse, psnr_db = mse_psnr(cover.pixels, result.stego)
    assert (result.mse, result.psnr_db) == (mse, psnr_db)
    with tempfile.TemporaryDirectory() as tmp:
        cover_file, payload_file, out = (Path(tmp) / n for n in ("c.pgm", "p.bin", "s.pgm"))
        cover_file.write_bytes(save_pgm(cover))
        payload_file.write_bytes(payload)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([
                "embed", "--method", "pvd", "--widths", widths, "--cover", str(cover_file),
                "--payload", str(payload_file), "--out", str(out),
            ])
        assert code == cli.EXIT_OK
        want = GrayImage(cover.width, cover.height, clamp_raster(result.stego))
        assert out.read_bytes() == save_pgm(want)
        sidecar = json.loads(Path(f"{out}.json").read_text())
    assert sidecar["violations"] == result.violations
    assert sidecar["mse"] == round(mse, 6)
    assert sidecar["psnr_db"] == ("inf" if math.isinf(psnr_db) else round(psnr_db, 4))
    return result.violations


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_prefix_work_matches_full_arrays(data):
    # 64 pixels or more: room for the header even at one bit per block
    width, height = data.draw(st.integers(8, 40)), data.draw(st.integers(8, 40))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    cover = GrayImage(width, height, _random_raster(rng, width * height))
    widths = data.draw(st.sampled_from(BOUND_WIDTHS))
    _, net = capacity(cover, build_range_table(map(int, widths.split(","))))
    _check_prefix_work(cover, rng.randbytes(data.draw(st.integers(0, net))), widths)


def test_prefix_work_matches_full_arrays_on_a_violating_cover():
    cover = synthetic_cover("gradient", 256, 256)
    assert _check_prefix_work(cover, random.Random(0).randbytes(256), BOUND_WIDTHS[0]) == 2


# --- error paths -------------------------------------------------------------

_HEADER_VALUES = st.sampled_from(
    [b"0", b"1", b"2", b"3", b"255", b"256", b"65535", b"1" * 5000, b"x", b""]
)
_SEPARATORS = st.sampled_from([b" ", b"\n", b"\t", b"# note\n", b""])


@st.composite
def _pgm_like(draw):
    parts = [draw(st.sampled_from([b"P2", b"P5", b"P6", b"P", b""]))]
    for _ in range(3):
        parts += [draw(_SEPARATORS), draw(_HEADER_VALUES)]
    parts.append(draw(_SEPARATORS))
    body = draw(st.one_of(
        st.binary(max_size=24),
        st.lists(st.integers(0, 300), max_size=12).map(lambda v: " ".join(map(str, v)).encode()),
    ))
    return b"".join(parts) + body


@settings(max_examples=400)
@given(st.one_of(st.binary(max_size=64), _pgm_like()))
def test_load_pgm_raises_only_pgm_error(data):
    try:
        image = load_pgm(data)
    except PgmError:
        return
    assert load_pgm(save_pgm(image)) == image


@st.composite
def _stego_like(draw):
    """A stego image of a random payload with some pixels overwritten."""
    width, height = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    pixels = bytearray(draw(st.binary(min_size=width * height, max_size=width * height)))
    cover = GrayImage(width, height, bytes(pixels))
    _, net = capacity(cover, TABLE)
    if net and draw(st.booleans()):
        payload = draw(st.binary(max_size=net))
        pixels[:] = apvd_embed_image(cover, payload, TABLE).stego.pixels
    for _ in range(draw(st.integers(0, 3))):
        pixels[draw(st.integers(0, len(pixels) - 1))] = draw(st.integers(0, 255))
    return GrayImage(width, height, bytes(pixels))


@settings(max_examples=300)
@given(_stego_like())
def test_extractors_raise_only_payload_errors(image):
    for table in TABLES:
        for extract in (
            lambda: apvd_extract_image(image, table),
            lambda: deframe_payload(pvd_extract_image(image.pixels, table)),
        ):
            try:
                extract()
            except PayloadError:
                pass


def _embed_stream(stream: bytes, adaptive: bool) -> GrayImage:
    """A stego image carrying any stream, through the reference loop."""
    cover = GrayImage(64, 2, bytes([128] * 128))
    stego, _, bits = _reference_embed(cover, stream, TABLE, adaptive)
    assert bits == 8 * len(stream)
    return GrayImage(cover.width, cover.height, bytes(stego))


@pytest.mark.parametrize("adaptive", [True, False])
def test_extract_error_classes(adaptive):
    def extract(image):
        if adaptive:
            return apvd_extract_image(image, TABLE)
        return deframe_payload(pvd_extract_image(image.pixels, TABLE))

    # the header declares more bits than the 64 blocks of 3 bits hold
    with pytest.raises(TruncatedPayload):
        extract(_embed_stream((1000).to_bytes(4, "big") + b"\x00", adaptive))
    # a declared bit count that is not a multiple of 8
    with pytest.raises(PayloadError) as info:
        extract(_embed_stream((7).to_bytes(4, "big") + b"\xfe", adaptive))
    assert not isinstance(info.value, TruncatedPayload)
    # and a well-formed stream comes back
    assert extract(_embed_stream(frame_payload(b"ok"), adaptive)) == b"ok"

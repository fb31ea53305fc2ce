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
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvdstego import apvd, cli, metrics, oracle, pvd
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
from pvdstego.imagery import (
    BLOCK_WINDOW,
    GrayImage,
    PgmError,
    block_windows,
    load_pgm,
    save_pgm,
    synthetic_cover,
)
from pvdstego.metrics import capacity, mse_psnr
from pvdstego.pvd import (
    adjust_pair,
    clamp_raster,
    extract_pair,
    pvd_embed_image,
    pvd_extract_image,
)

TABLE = build_range_table()
TABLES = [TABLE, build_range_table((2,) * 128), build_range_table((256,))]


def _bits(stream: bytes) -> str:
    return "".join(format(byte, "08b") for byte in stream)


def _reference_embed(cover: GrayImage, stream: bytes, table, adaptive: bool):
    """(stego values, per-block labels, bits embedded) the slow way.

    An adaptive block's label is (branch, mark case, the stream bit its
    chunk ends at); a baseline block's, how many of its pixels left [0, 255].
    """
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
            labels.append((branch, case, pos))
        else:
            d = abs(q - p)
            first, second = adjust_pair(p, q, d, table.lower[d] + chunk)
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


def _check_walks(cover: GrayImage, payload: bytes, table):
    """Both embed walks and both extractors against the reference loops."""
    framed = frame_payload(payload)

    report = apvd_embed_image(cover, payload, table)
    stego, labels, bits = _reference_embed(cover, framed, table, adaptive=True)
    branch_counts = dict.fromkeys(BRANCHES, 0)
    mark_case_counts = {}
    lossy_corners = []
    for block, (branch, case, end) in enumerate(labels):
        branch_counts[branch] += 1
        mark_case_counts[case] = mark_case_counts.get(case, 0) + 1
        if case == apvd.LOSSY_MARK_CASE:  # the chunk's last bit, stream bit end - 1, reads back flipped
            lossy_corners.append((block, (end - 1 - HEADER_BITS) // 8 if end > HEADER_BITS else None))
    assert report.stego.pixels == bytes(stego)
    assert (report.mse, report.psnr_db) == mse_psnr(cover.pixels, stego)
    assert report.branch_counts == branch_counts
    assert list(report.mark_case_counts.items()) == list(mark_case_counts.items())
    assert report.lossy_corners == lossy_corners
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
    assert result.stored == clamp_raster(wide)
    assert result.wrapped == bytes(v % 256 for v in wide)
    assert (result.mse, result.psnr_db) == mse_psnr(cover.pixels, wide)
    assert result.violations == sum(violations) == sum(not 0 <= v <= 255 for v in wide)
    assert result.bits_embedded == bits
    assert result.blocks_used == len(violations)
    # the wide raster round-trips through the kernel; extraction reads the
    # 8-bit raster a stego image holds, clamped where values left [0, 255]
    assert _reference_extract(result.stego, table, extract_pair) == framed
    got = _outcome(lambda: pvd_extract_image(result.stored, table))
    assert got == _outcome(lambda: _reference_extract(result.stored, table, extract_pair))
    return report, result


# up to 64x31, 992 blocks, inside the first three windows of block_windows; 128x128,
# 8,192 blocks, reaches the 4,096-block windows; 129x65 ends in an odd pixel, and
# 27x19, 29x53, 15x239 and 7681x1 (513 to 7,681 pixels) in one right after a window
@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize(
    "width,height",
    [
        *((9, 9), (8, 10), (1, 81), (33, 17), (64, 31), (128, 128), (129, 65)),
        *((27, 19), (29, 53), (15, 239), (7681, 1)),
    ],
)
def test_walks_match_block_by_block_kernels(seed, width, height):
    rng = random.Random(seed * 1000 + width)
    table = TABLES[seed % len(TABLES)]
    cover = GrayImage(width, height, _random_raster(rng, width * height))
    _, net = capacity(cover, table)
    _check_walks(cover, rng.randbytes(rng.choice([0, net // 2, net])), table)


@pytest.mark.parametrize("table", TABLES[1:], ids=lambda table: f"t={table.t[0]}")
@pytest.mark.parametrize("window", range(5))
def test_walks_match_the_kernels_when_the_stream_ends_on_a_window_end(table, window):
    # every block of these tables takes the same t bits, so a framed stream
    # of t * blocks bits ends exactly on the last block of a window
    cover = GrayImage(129, 128, _random_raster(random.Random(window), 129 * 128))
    blocks = list(accumulate(len(w) // 2 for w in block_windows(cover.pixels)))[window]
    payload = random.Random(blocks).randbytes(table.t[0] * blocks // 8 - HEADER_BITS // 8)
    report, result = _check_walks(cover, payload, table)
    assert report.blocks_used == result.blocks_used == blocks


@pytest.mark.parametrize("widths", [(256,), (128, 128)])
@pytest.mark.parametrize("p_start", [0, 255])
def test_oracle_passes_wide_tables_at_the_edges(widths, p_start):
    table = build_range_table(widths)
    part = oracle._sweep_row(p_start, table)
    assert part.failures == []
    assert part.total_cases == sum(1 << table.t[abs(q - p_start)] for q in range(256))


def test_oracle_passes_the_single_bit_table():
    table = build_range_table((2,) * 128)
    result = oracle.run(table)
    assert result.failures == []
    expected = sum(1 << table.t[abs(q - p)] for p in range(256) for q in range(256))
    assert result.total_cases == expected == 256 * 256 * 2
    assert sum(result.branch_counts.values()) == result.total_cases
    # as on the default table: a pair in the last range, spread about the
    # middle, with an all-ones chunk; in sweep order, which is sorted order
    expected_corner = {((255 - d) >> 1, ((255 - d) >> 1) + d, 1) for d in (254, 255)}
    assert result.lossy_corner_cases == sorted(expected_corner)
    assert result.lossy_corner_count == 2


@pytest.mark.parametrize("table", TABLES, ids=lambda t: repr(t.widths[:3]))
def test_text_lookups_match_the_kernels_on_every_pair(table):
    out = oracle.OracleResult()
    oracle._check_lookups(table, out)
    assert (out.lookup_mismatches, out.failures) == (0, [])


@pytest.mark.parametrize("which", [0, 1])
def test_lookup_check_counts_a_wrong_text(which):
    table = build_range_table()
    if which == 0:  # the plain text of difference 5
        texts = list(table.texts)
        texts[5] = "111"
        vars(table)["texts"] = tuple(texts)  # what the cached property would hold
        # read by the apvd pairs whose unmarked difference is 5, and with
        # flag 1 also 1, as 1 | 4 = 5 | 4 = 5 in the first range
        read_by = ({5}, {1, 5})
    else:  # the flag-1 text of difference 5, through the MSB map
        msb_set = bytearray(table.msb_set)
        msb_set[5] = 6
        vars(table)["msb_set"] = bytes(msb_set)
        read_by = (set(), {5})
    out = oracle.OracleResult()
    oracle._check_lookups(table, out)
    expected = sum(abs((p ^ 1) - q) in read_by[p & 1] for p in range(256) for q in range(256))
    if which == 0:  # and the pvd pairs 5 apart
        expected += 2 * (256 - 5)
    assert out.lookup_mismatches == expected
    assert len(out.failures) == oracle.FAIL_LIMIT


@pytest.mark.parametrize("module", [pvd, apvd], ids=["pvd", "apvd"])
def test_lookup_check_counts_a_spoiled_chunk_keys(monkeypatch, module):
    # the walk check leaves extraction to the lookup check; a walk that
    # reads the wrong first text must show there, on its own and in run()
    real = module.chunk_keys

    def spoiled(*args):  # every text of this table is one bit, the key's LSB
        first, *rest = real(*args)
        return iter([bytes([first[0] ^ 1]) + first[1:], *rest])

    monkeypatch.setattr(module, "chunk_keys", spoiled)
    table = build_range_table((2,) * 128)
    out = oracle.OracleResult()
    oracle._check_lookups(table, out)
    # each lookup reads the pairs it can decode from one raster
    assert out.lookup_mismatches == 1
    assert out.failures
    result = oracle.run(table)
    assert result.lookup_mismatches == out.lookup_mismatches
    assert result.walk_mismatches == 0
    assert result.failures == out.failures


@pytest.mark.parametrize("module", [pvd, apvd], ids=["pvd", "apvd"])
@pytest.mark.parametrize("defect", ["shifted pairs", "fails after ten pairs"])
def test_lookup_check_counts_a_lookup_that_misreads_its_raster(monkeypatch, module, defect):
    # each lookup reads its pairs as one raster, so a pairing defect, or a
    # lookup that stops on a pair it can decode, is counted and not raised
    real = module.chunk_keys
    if defect == "shifted pairs":  # reads (q0, p1), (q1, p2), ...

        def spoiled(pixels, *table):
            return real(pixels[1:] + pixels[:1], *table)

    else:

        def spoiled(pixels, *table):
            yield next(real(pixels, *table))[:10]
            raise IndexError("spoiled")

    monkeypatch.setattr(module, "chunk_keys", spoiled)
    table = build_range_table((2,) * 128)
    out = oracle.OracleResult()
    oracle._check_lookups(table, out)
    if defect == "shifted pairs":
        assert out.lookup_mismatches > 0
    else:  # no text for any pair after the tenth, and the failures say why
        assert out.lookup_mismatches == 256 * 256 - 10
        assert out.failures[0] == f"{__name__}.spoiled raised IndexError('spoiled')"
    assert len(out.failures) == oracle.FAIL_LIMIT


@pytest.mark.parametrize("module", [pvd, apvd], ids=["pvd", "apvd"])
@pytest.mark.parametrize("defect,mismatches", [("drops its last window", 256), ("an extra key", 1)])
def test_lookup_check_counts_pairs_a_lookup_never_reads(monkeypatch, module, defect, mismatches):
    # the raster of every pair ends in a window of 256 blocks; a pair with
    # no text and a text with no pair are each one mismatch
    real = module.chunk_keys
    if defect == "drops its last window":

        def spoiled(*args):
            return iter(list(real(*args))[:-1])

    else:

        def spoiled(*args):
            return iter([*real(*args), b"\0"])

    monkeypatch.setattr(module, "chunk_keys", spoiled)
    out = oracle.OracleResult()
    oracle._check_lookups(build_range_table(), out)
    assert out.lookup_mismatches == mismatches
    assert out.failures


def test_walk_check_covers_the_zero_fill_of_a_row():
    # row 1 of the first table holds five 1-bit blocks: its stream ends 6
    # bits short of a byte, and the fill lands in six 1-bit filler blocks;
    # row 1 of the second ends 2 bits short, which one 3-bit filler takes
    for widths, row_bits in (
        ((2, 2, 4, 8, 16, 32, 64, 128), 2),
        ((8, 4, 32, 4, 128, 16, 4, 2, 2, 32, 16, 4, 2, 2), 6),
    ):
        table = build_range_table(widths)
        assert sum(table.t[abs(1 - q)] << table.t[abs(1 - q)] for q in range(256)) % 8 == row_bits
        part = _sweep_rows(table, range(3))
        assert (part.walk_mismatches, part.failures) == (0, [])


def _sweep_rows(table, rows):
    """The oracle's sweep of ``rows`` alone, in-process, summed as ``run`` sums."""
    return sum((oracle._sweep_row(p, table) for p in rows), oracle.OracleResult())


def test_oracle_results_add_up_field_by_field():
    row = oracle._sweep_row(0, build_range_table((2,) * 128))  # holds a lossy corner
    assert row.lossy_corner_cases and row.mark_case_counts
    assert oracle.OracleResult() + row == row == row + oracle.OracleResult()

    a = oracle.OracleResult(total_cases=1, walk_mismatches=2, lossy_corner_cases=[(0, 1, 1)],
                            mark_case_counts={"b": 1, "a": 2}, elapsed_seconds=0.5)
    b = oracle.OracleResult(total_cases=3, walk_mismatches=4, lossy_corner_cases=[(2, 3, 0)],
                            mark_case_counts={"c": 4, "a": 1}, elapsed_seconds=0.25)
    total = a + b
    assert (total.total_cases, total.walk_mismatches, total.elapsed_seconds) == (4, 6, 0.75)
    assert total.lossy_corner_cases == [(0, 1, 1), (2, 3, 0)]
    assert list(total.mark_case_counts.items()) == [("b", 1), ("a", 3), ("c", 4)]  # first seen
    assert (a.total_cases, a.mark_case_counts, a.lossy_corner_cases) == (1, {"b": 1, "a": 2}, [(0, 1, 1)])


def test_oracle_result_keeps_fail_limit_counterexamples():
    out = oracle.OracleResult()
    for i in range(oracle.FAIL_LIMIT + 2):
        out.fail(str(i))
    kept = [str(i) for i in range(oracle.FAIL_LIMIT)]
    assert out.failures == kept
    first = oracle.OracleResult(failures=["first"])
    assert (first + out).failures == ["first", *kept[:-1]]
    assert (out + first).failures == kept


def _flip(result, at: int):
    """The walk's result with the LSB of stego value ``at`` flipped."""
    stego = result.stego
    values = list(getattr(stego, "pixels", stego))
    values[at] ^= 1
    if isinstance(stego, GrayImage):
        return result._replace(stego=stego._replace(pixels=bytes(values)))
    spoiled = result._replace()  # PvdResult.stego is a cached property, not a field
    vars(spoiled)["stego"] = values
    return spoiled


def _flip_bytes(result, at: int, *names: str):
    """The pvd walk's result with the LSB of value ``at`` flipped in each raster of ``names``."""
    spoiled = {}
    for name in names:
        values = bytearray(getattr(result, name))
        values[at] ^= 1
        spoiled[name] = bytes(values)
    return result._replace(**spoiled)


def _add_one(result, name: str):
    """The walk's result with 1 added to its field ``name``."""
    return result._replace(**{name: getattr(result, name) + 1})


def _spoil_count(result, name: str):
    """One more of the first label in the apvd walk's counts ``name``."""
    counts = dict(getattr(result, name))
    counts[next(iter(counts))] += 1
    return result._replace(**{name: counts})


@pytest.mark.parametrize(
    "module,name,spoil,what,also",
    [
        (pvd, "pvd_embed_image", lambda result: _flip_bytes(result, 1, "stored"), "pvd stored", None),
        (pvd, "pvd_embed_image", lambda result: _flip_bytes(result, -1, "wrapped"), "pvd wrapped", None),
        (pvd, "pvd_embed_image", lambda result: _add_one(result, "blocks_used"), "pvd blocks used", None),
        (pvd, "pvd_embed_image", lambda result: _add_one(result, "bits_embedded"), "pvd bits embedded", None),
        (pvd, "pvd_embed_image", lambda result: _add_one(result, "mse"), "pvd squared error", None),
        (pvd, "pvd_embed_image", lambda result: _add_one(result, "violations"), "pvd violation count", None),
        # a spoiled apvd stego value also moves the squared error measured on the stego
        (apvd, "embed_walk", lambda result: _flip(result, 1), "apvd embed", "apvd squared error"),
        (apvd, "embed_walk", lambda result: _flip(result, -1), "apvd tail", "apvd squared error"),
        (apvd, "embed_walk", lambda result: _add_one(result, "blocks_used"), "apvd blocks used", None),
        (apvd, "embed_walk", lambda result: _add_one(result, "bits_embedded"), "apvd bits embedded", None),
        (apvd, "embed_walk", lambda result: _add_one(result, "mse"), "apvd squared error", None),
        (apvd, "embed_walk", lambda result: _spoil_count(result, "branch_counts"), "apvd branch count", None),
        (apvd, "embed_walk", lambda result: _spoil_count(result, "mark_case_counts"), "apvd mark-case count", None),
    ],
)
def test_walk_check_counts_a_walk_that_disagrees(monkeypatch, module, name, spoil, what, also):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: spoil(real(*args)))
    part = _sweep_rows(TABLE, (100, 101))
    whats = [what, also] if also else [what]
    assert part.walk_mismatches == 2 * len(whats)  # one item each in each row
    assert part.failures == [
        f"row p={p}: 1 {w} item(s) differ from the kernels" for p in (100, 101) for w in whats
    ]


@pytest.mark.parametrize("at", [1, -1])
def test_walk_check_counts_a_spoiled_stored_raster(monkeypatch, at):
    # the same value spoiled in both rasters, in a walked block or in the
    # tail, is counted once by each raster's check
    real = pvd.pvd_embed_image
    monkeypatch.setattr(
        pvd, "pvd_embed_image", lambda *args: _flip_bytes(real(*args), at, "stored", "wrapped")
    )
    part = _sweep_rows(TABLE, (100, 101))
    whats = ["pvd stored", "pvd wrapped"]
    assert part.walk_mismatches == 2 * len(whats)  # one item each in each row
    assert part.failures == [
        f"row p={p}: 1 {w} item(s) differ from the kernels" for p in (100, 101) for w in whats
    ]


def test_walk_check_reads_no_cached_pvd_stego(monkeypatch):
    # the selftest checks the rasters the walk returns, not the wide one rebuilt from them
    real = pvd.pvd_embed_image
    monkeypatch.setattr(pvd, "pvd_embed_image", lambda *args: _flip(real(*args), 1))
    part = _sweep_rows(TABLE, (100, 101))
    assert (part.walk_mismatches, part.failures) == (0, [])


def test_walk_check_counts_a_walk_that_raises(monkeypatch):
    def out_of_range(cover, stream, table):
        bytearray().append(256)

    monkeypatch.setattr(apvd, "embed_walk", out_of_range)
    part = _sweep_rows(TABLE, (100, 101))
    assert part.walk_mismatches == 2
    assert [f[: f.index(":")] for f in part.failures] == ["row p=100", "row p=101"]
    assert all("an embed walk raised ValueError" in f for f in part.failures)


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
    assert apvd_extract_image(stego, TABLE) == payload
    assert deframe_payload(pvd_extract_image(plain, TABLE)) == payload


def test_out_of_range_pixels_cost_no_memory_each():
    # full capacity at 512x512: 14,433 violations on noise, 28 on the gradient
    peaks, violations = {}, {}
    for kind in ("noise", "gradient"):
        cover = synthetic_cover(kind, 512, 512, 0)
        stream = frame_payload(random.Random(0).randbytes(capacity(cover, TABLE)[1]))
        peaks[kind] = _traced_peak(lambda: pvd_embed_image(cover, stream, TABLE))
        violations[kind] = pvd_embed_image(cover, stream, TABLE).violations
    assert violations["noise"] > 100 * violations["gradient"] > 0
    assert peaks["noise"] < 1.5 * peaks["gradient"]


@pytest.mark.parametrize("table", [TABLE, build_range_table((2,) * 128)], ids=["default", "1-bit"])
def test_full_capacity_round_trip_across_extraction_windows(table):
    cover = _mid_gray_cover("noise", 128, 128)  # 8,192 blocks, two windows; no loss in either scheme
    _, net = capacity(cover, table)
    payload = random.Random(1).randbytes(net)
    report = apvd_embed_image(cover, payload, table)
    assert report.blocks_used > BLOCK_WINDOW
    assert apvd_extract_image(report.stego, table) == payload
    wide = pvd_embed_image(cover, frame_payload(payload), table)
    assert wide.violations == 0
    assert deframe_payload(pvd_extract_image(bytes(wide.stego), table)) == payload


# --- work in proportion to the payload -----------------------------------------


def _spy_windows(monkeypatch) -> list[int]:
    """Blocks of each window either extractor pulls from ``block_windows``, in order."""
    pulled = []
    for module in (pvd, apvd):
        real = module.block_windows

        def spy(pixels, real=real):
            for window in real(pixels):
                pulled.append(len(window) // 2)
                yield window

        monkeypatch.setattr(module, "block_windows", spy)
    return pulled


@pytest.mark.parametrize("kind", ["gradient", "noise", "checkerboard"])
def test_extraction_of_a_short_payload_pulls_two_windows(monkeypatch, kind):
    # 256 bytes take 2,080 bits: 298 blocks of 7 bits on the checkerboard,
    # 694 of 3 on the gradient, all inside the first two windows' 768
    cover = synthetic_cover(kind, 512, 512, 0)
    payload = random.Random(kind).randbytes(256)
    apvd_stego = apvd_embed_image(cover, payload, TABLE).stego
    pvd_stored = pvd_embed_image(cover, frame_payload(payload), TABLE).stored
    pulled = _spy_windows(monkeypatch)
    # lossy corners and clamped violations may spoil bytes, not the length
    assert len(apvd_extract_image(apvd_stego, TABLE)) == len(payload)
    assert pulled == [256, 512]
    pulled.clear()
    assert len(pvd_extract_image(pvd_stored, TABLE)) == len(frame_payload(payload))
    assert pulled == [256, 512]


def test_extraction_of_a_full_capacity_payload_pulls_every_window(monkeypatch):
    cover = synthetic_cover("noise", 512, 512, 0)
    payload = random.Random(0).randbytes(capacity(cover, TABLE)[1])
    stego = apvd_embed_image(cover, payload, TABLE).stego
    pulled = _spy_windows(monkeypatch)
    apvd_extract_image(stego, TABLE)  # a lossy corner may spoil a byte, not the reading
    assert len(pulled) == 36 and sum(pulled) == 512 * 512 // 2

# min(t) of 3, 1 and 7: a stream of min(t) bits per block always fits
BOUND_WIDTHS = ["8,8,16,32,64,128", "2,2,4,8,16,32,64,128", "128,128"]
BOUND_TABLES = [build_range_table(map(int, text.split(","))) for text in BOUND_WIDTHS]


def _refuse_capacity_pass(monkeypatch):
    def refuse(cover, table):
        raise AssertionError("capacity pass over the whole cover")

    # neither embedder holds a reference of its own that the patch would miss
    assert "capacity" not in vars(pvd) and "capacity" not in vars(apvd)
    monkeypatch.setattr(metrics, "capacity", refuse)


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
    raw, _ = capacity(cover, table)
    blocks = len(cover.pixels) // 2
    bits = min(table.t) * blocks
    payload = random.Random(bits).randbytes(bits // 8 - HEADER_BITS // 8)
    framed = frame_payload(payload)
    assert 8 * len(framed) == bits
    _refuse_capacity_pass(monkeypatch)  # no embed runs the pass, whatever the stream

    result = pvd_embed_image(cover, framed, table)
    assert result.bits_embedded == bits
    assert result.stego[2 * result.blocks_used :] == list(cover.pixels[2 * result.blocks_used :])
    assert deframe_payload(pvd_extract_image(bytes(result.stego), table)) == payload
    report = apvd_embed_image(cover, payload, table)
    assert report.bits_embedded == bits
    assert apvd_extract_image(report.stego, table) == payload
    if kind == "flat":  # the bound is the true capacity: every block is used
        assert result.blocks_used == report.blocks_used == blocks
        assert report.stego.pixels[2 * blocks :] == cover.pixels[2 * blocks :]

    # one byte past the bound fits exactly when the true capacity allows it
    if bits + 8 <= raw:
        assert pvd_embed_image(cover, framed + b"\x00", table).bits_embedded == bits + 8
    else:
        with pytest.raises(CapacityError) as info:
            pvd_embed_image(cover, framed + b"\x00", table)
        assert info.value.available_bits == raw
    # a stream past the true capacity is refused with the cover's true bit count
    past = bytes(raw // 8 + 1)
    for embed in (
        lambda: pvd_embed_image(cover, past, table),
        lambda: apvd_embed_image(cover, past[HEADER_BITS // 8 :], table),
    ):
        with pytest.raises(CapacityError) as info:
            embed()
        assert (info.value.needed_bits, info.value.available_bits) == (8 * len(past), raw)


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

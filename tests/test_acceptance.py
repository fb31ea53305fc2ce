"""End-to-end acceptance gate.

Every test prints a single `[acceptance] <name>: PASS|FAIL` line through
the capture bypass, so the final log always shows the whole scorecard.
The last test is report-only: it publishes quality deltas without
gating, because absolute quality depends on the cover corpus.
"""

import math
import random
import time

import pytest

from pvdstego.apvd import (
    BRANCH_DISCARD_THEN_ONE_SIDED,
    apvd_embed_image,
    apvd_extract_image,
    embed_block_values,
    extract_block_value,
    mark_with_case,
)
from pvdstego.codec import build_range_table, frame_payload
from pvdstego.imagery import GrayImage, synthetic_cover
from pvdstego.metrics import capacity, format_db, mse_psnr
from pvdstego.oracle import run as run_oracle
from pvdstego.pvd import adjust_pair, pvd_embed_image

TABLE = build_range_table()


def _verdict(capsys, name: str, ok: bool, detail: str):
    with capsys.disabled():
        print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _golden_chain_once():
    baseline = adjust_pair(254, 255, 1, TABLE.lower[1] + 0b111)
    pixels, flag, branch = embed_block_values(254, 255, 0b111, TABLE)
    marked, case = mark_with_case(pixels, flag)
    recovered = extract_block_value(marked[0], marked[1], TABLE)
    return baseline, (pixels, flag, branch), marked, recovered


def test_golden_block_chain(capsys):
    baseline, (pixels, flag, branch), marked, recovered = _golden_chain_once()
    checks = [
        baseline == (251, 258),
        pixels == (252, 255),
        flag == 1,
        branch == BRANCH_DISCARD_THEN_ONE_SIDED,
        (abs(pixels[0] - 254), abs(pixels[1] - 255)) == (2, 0),  # distortion
        marked == (253, 255),
        recovered == (0b111, 3),
    ]
    _golden_chain_once()  # warm caches before timing
    started = time.perf_counter()
    loops = 1000
    for _ in range(loops):
        _golden_chain_once()
    per_chain = (time.perf_counter() - started) / loops
    ok = all(checks) and per_chain < 1e-3
    _verdict(
        capsys,
        "golden-block-chain",
        ok,
        f"(254,255)+111: baseline (251,258), adaptive (252,255) flag 1, "
        f"marked (253,255), recovered 111; {per_chain * 1e6:.1f} us/chain",
    )


def test_exhaustive_block_oracle(capsys):
    result = run_oracle(TABLE)
    expected_total = sum(1 << TABLE.t[abs(q - p)] for p in range(256) for q in range(256))
    expected_corner = {
        ((255 - d) >> 1, ((255 - d) >> 1) + d, 127) for d in range(128, 256)
    }
    checks = [
        result.failures == [],
        result.lookup_mismatches == 0,
        result.walk_mismatches == 0,
        result.total_cases == expected_total == 4_035_968,
        result.lossy_corner_count == TABLE.widths[-1] == 128,
        set(result.lossy_corner_cases) == expected_corner,
        result.branch_counts["plain"] == result.baseline_in_range_cases,
        sum(result.branch_counts.values()) == result.total_cases,
        result.elapsed_seconds < 300.0,
    ]
    _verdict(
        capsys,
        "exhaustive-block-oracle",
        all(checks),
        f"{result.total_cases} cases, {len(result.failures)} failures, "
        f"{result.lossy_corner_count} lossy corners, "
        f"{result.elapsed_seconds:.1f}s",
    )


def test_adaptive_round_trips_random(capsys):
    kinds = ("gradient", "noise", "flat")
    sizes = (32, 48, 64)
    fractions = (0.25, 0.5, 1.0)
    passed = 0
    reseeds = []
    for trial in range(100):
        kind = kinds[trial % 3]
        size = sizes[(trial // 3) % 3]
        if kind == "flat":
            cover = GrayImage(size, size, bytes([128] * (size * size)))
        else:
            cover = synthetic_cover(kind, size, size, seed=trial)
        _, net = capacity(cover, TABLE)
        want = max(1, int(net * fractions[trial % len(fractions)]))
        report = None
        for attempt in range(6):
            payload = random.Random(1000 * trial + attempt).randbytes(want)
            report = apvd_embed_image(cover, payload, TABLE)
            if report.lossy_corner_count == 0:
                break
            reseeds.append(f"trial {trial}: corner block, reseeded ({attempt})")
        assert report is not None and report.lossy_corner_count == 0
        stego = report.stego
        assert min(stego.pixels) >= 0 and max(stego.pixels) <= 255
        if apvd_extract_image(stego, TABLE) == payload:
            passed += 1
    ok = passed == 100
    note = f"; {len(reseeds)} reseed(s)" if reseeds else ""
    _verdict(
        capsys,
        "random-round-trips",
        ok,
        f"{passed}/100 byte-exact round trips at 25/50/100% capacity{note}",
    )


def test_capacity_parity(capsys):
    kinds = ("gradient", "noise", "checkerboard")
    matched = 0
    for i in range(20):
        kind = kinds[i % 3]
        size = (24, 32, 48, 64)[i % 4]
        cover = synthetic_cover(kind, size, size, seed=100 + i)
        raw, net = capacity(cover, TABLE)
        payload = random.Random(i).randbytes(net)
        framed = frame_payload(payload)
        baseline = pvd_embed_image(cover, framed, TABLE)
        adaptive = apvd_embed_image(cover, payload, TABLE)
        if (
            baseline.bits_embedded == adaptive.bits_embedded == 8 * len(framed) <= raw
            and baseline.blocks_used == adaptive.blocks_used
        ):
            matched += 1
    _verdict(
        capsys,
        "capacity-parity",
        matched == 20,
        f"{matched}/20 covers: identical raw capacity, bits embedded and "
        "blocks consumed for both methods",
    )


def test_overflow_witness(capsys):
    cover = GrayImage(16, 16, bytes([254, 255] * 128))
    baseline = pvd_embed_image(cover, b"\xff" * 48, TABLE)
    _, net = capacity(cover, TABLE)
    adaptive = apvd_embed_image(cover, b"\xff" * net, TABLE)
    out_of_range = sum(1 for v in adaptive.stego.pixels if not 0 <= v <= 255)
    recovered = apvd_extract_image(adaptive.stego, TABLE)
    checks = [
        baseline.violations >= 1,
        baseline.violations == 128,  # every (254,255)+111 block escapes
        out_of_range == 0,
        adaptive.lossy_corner_count == 0,
        recovered == b"\xff" * net,
    ]
    _verdict(
        capsys,
        "overflow-witness",
        all(checks),
        f"striped 254/255 cover: baseline violations {baseline.violations}, "
        f"adaptive violations {out_of_range} with byte-exact recovery",
    )


def test_quality_reference_points(capsys):
    mse_same, db_same = mse_psnr([7, 7, 7], [7, 7, 7])
    mse_full, db_full = mse_psnr([0], [255])
    mse_hand, db_hand = mse_psnr([100, 100], [100, 105])
    checks = [
        mse_same == 0.0 and math.isinf(db_same) and format_db(db_same) == "inf",
        mse_full == 65025.0 and db_full == 0.0,
        mse_hand == 12.5 and abs(db_hand - 37.1617) < 0.01,
    ]
    _verdict(
        capsys,
        "quality-reference-points",
        all(checks),
        f"identical -> inf marker; full-scale -> 0.0 dB; "
        f"mse 12.5 -> {db_hand:.4f} dB (ref 37.1617 +/- 0.01)",
    )


def test_quality_delta_report(capsys):
    # report-only: no quality assertion, only that both pipelines ran
    rows_by_cover = []
    for kind in ("gradient", "noise", "checkerboard"):
        cover = synthetic_cover(kind, 512, 512, seed=0)
        _, net = capacity(cover, TABLE)
        payload = random.Random(42).randbytes(net)
        # the two embed calls that `compare` makes
        base = pvd_embed_image(cover, frame_payload(payload), TABLE)
        adaptive = apvd_embed_image(cover, payload, TABLE)
        rows_by_cover.append((kind, base.psnr_db, adaptive.psnr_db))
    ok = all(math.isfinite(a) and math.isfinite(b) for _, a, b in rows_by_cover)
    detail = "; ".join(
        f"{kind}: baseline {a:.2f} dB, adaptive {b:.2f} dB, delta {b - a:+.2f} dB"
        for kind, a, b in rows_by_cover
    )
    _verdict(
        capsys,
        "quality-delta-report",
        ok,
        detail + " | full-capacity 512x512 synthetic covers",
    )

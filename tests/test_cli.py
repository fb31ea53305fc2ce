import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from pvdstego import apvd, cli, metrics, oracle, pvd
from pvdstego.apvd import apvd_embed_image
from pvdstego.cli import (
    EXIT_CAPACITY,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    MAX_COMPARE_SIZE,
    main,
)
from pvdstego.codec import build_range_table, frame_payload
from pvdstego.imagery import GrayImage, save_pgm, synthetic_cover
from pvdstego.metrics import capacity, mse_psnr
from pvdstego.pvd import clamp_raster, pvd_embed_image

TABLE = build_range_table()
FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture
def cover_path(tmp_path):
    cover = synthetic_cover("noise", width=48, height=48, seed=7)
    path = tmp_path / "cover.pgm"
    path.write_bytes(save_pgm(cover))
    return path


def _write_payload(tmp_path, data: bytes):
    path = tmp_path / "payload.bin"
    path.write_bytes(data)
    return path


def test_embed_extract_round_trip(tmp_path, cover_path, capsys):
    payload = _write_payload(tmp_path, b"meet at the fountain at noon")
    stego = tmp_path / "stego.pgm"
    recovered = tmp_path / "recovered.bin"

    assert main([
        "embed", "--method", "apvd",
        "--cover", str(cover_path), "--payload", str(payload), "--out", str(stego),
    ]) == EXIT_OK
    out = capsys.readouterr()
    assert "embedded" in out.out and "violations 0" in out.out

    sidecar = json.loads((tmp_path / "stego.pgm.json").read_text())
    assert sidecar["method"] == "apvd"
    assert sidecar["violations"] == 0
    assert sidecar["bits_embedded"] == 32 + 8 * 28
    assert sum(sidecar["branch_counts"].values()) == sidecar["blocks_used"]
    assert sidecar["lossy_corner_count"] == 0
    assert sidecar["lossy_corners"] == []

    assert main([
        "extract", "--method", "apvd",
        "--cover", str(stego), "--out", str(recovered),
    ]) == EXIT_OK
    assert recovered.read_bytes() == payload.read_bytes()


def test_embed_pvd_warns_and_clamps(tmp_path, capsys):
    # a striped bright cover pushes the baseline out of [0, 255]
    cover = GrayImage(16, 16, bytes([254, 255] * 128))
    cover_file = tmp_path / "stripes.pgm"
    cover_file.write_bytes(save_pgm(cover))
    payload = _write_payload(tmp_path, b"\xff" * 8)
    stego = tmp_path / "stego.pgm"

    assert main([
        "embed", "--method", "pvd",
        "--cover", str(cover_file), "--payload", str(payload), "--out", str(stego),
    ]) == EXIT_OK
    err = capsys.readouterr().err
    assert "clamping" in err

    sidecar = json.loads((tmp_path / "stego.pgm.json").read_text())
    assert sidecar["method"] == "pvd"
    assert sidecar["violations"] >= 1
    assert sidecar["clamped"] is True


@pytest.mark.parametrize(
    "name,method,kind,wrong_bytes",
    [("pvd-noise-32", "pvd", "noise", 72), ("apvd-checkerboard-32", "apvd", "checkerboard", 2)],
)
def test_recorded_stego_images_extract_as_recorded(tmp_path, name, method, kind, wrong_bytes):
    # fixtures/README.md says how each image and the bytes extract wrote from it were made
    out = tmp_path / "recovered.bin"
    stego = FIXTURES / f"{name}.pgm"
    assert main(["extract", "--method", method, "--cover", str(stego), "--out", str(out)]) == EXIT_OK
    recovered = out.read_bytes()
    assert recovered == (FIXTURES / f"{name}.out").read_bytes()
    # wrong where the image lost data: pvd's clamped pixels, apvd's lossy corners
    payload = random.Random(0).randbytes(capacity(synthetic_cover(kind, 32, 32, 0), TABLE)[1])
    assert sum(a != b for a, b in zip(recovered, payload, strict=True)) == wrong_bytes


@pytest.mark.parametrize(
    "name,method,kind", [("pvd-noise-32", "pvd", "noise"), ("apvd-checkerboard-32", "apvd", "checkerboard")]
)
def test_embed_writes_the_recorded_image_and_sidecar(tmp_path, monkeypatch, name, method, kind, capsys):
    # the recipe of fixtures/README.md, relative paths and all, so the sidecar's "cover" matches
    monkeypatch.chdir(tmp_path)
    cover = synthetic_cover(kind, 32, 32, 0)
    Path(f"{name}-cover.pgm").write_bytes(save_pgm(cover))
    Path(f"{name}-payload.bin").write_bytes(random.Random(0).randbytes(capacity(cover, TABLE)[1]))
    assert main([
        "embed", "--method", method, "--cover", f"{name}-cover.pgm",
        "--payload", f"{name}-payload.bin", "--out", f"{name}.pgm",
    ]) == EXIT_OK
    assert Path(f"{name}.pgm").read_bytes() == (FIXTURES / f"{name}.pgm").read_bytes()
    assert Path(f"{name}.pgm.json").read_text() == (FIXTURES / f"{name}.pgm.json").read_text()


def test_embed_pvd_round_trip_without_violations(tmp_path, capsys):
    # mid-gray flat cover: d' <= 7 keeps every stego value near 128
    cover = GrayImage(48, 48, bytes([128] * (48 * 48)))
    cover_file = tmp_path / "smooth.pgm"
    cover_file.write_bytes(save_pgm(cover))
    message = b"plain baseline works on smooth covers"
    payload = _write_payload(tmp_path, message)
    stego = tmp_path / "stego.pgm"
    recovered = tmp_path / "recovered.bin"

    assert main([
        "embed", "--method", "pvd",
        "--cover", str(cover_file), "--payload", str(payload), "--out", str(stego),
    ]) == EXIT_OK
    assert json.loads((tmp_path / "stego.pgm.json").read_text())["violations"] == 0
    # embed writes the walk's stored raster as it is: the wide raster clamped
    result = pvd_embed_image(cover, frame_payload(message), TABLE)
    assert result.wrapped == result.stored
    assert result.stored == clamp_raster(result.stego)
    assert stego.read_bytes() == save_pgm(GrayImage(48, 48, result.stored))
    assert main([
        "extract", "--method", "pvd",
        "--cover", str(stego), "--out", str(recovered),
    ]) == EXIT_OK
    assert recovered.read_bytes() == payload.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("method", ["apvd", "pvd"])
def test_short_embed_skips_the_capacity_pass(tmp_path, monkeypatch, capsys, method):
    # 256 bytes are far below min(t) * blocks of a 256x256 cover
    cover = synthetic_cover("gradient", 256, 256)
    payload = random.Random(0).randbytes(256)
    if method == "apvd":
        stego = apvd_embed_image(cover, payload, TABLE).stego.pixels
    else:
        stego = pvd_embed_image(cover, frame_payload(payload), TABLE).stego
    mse, psnr_db = mse_psnr(cover.pixels, stego)
    cover_file = tmp_path / "gradient.pgm"
    cover_file.write_bytes(save_pgm(cover))
    payload_file = _write_payload(tmp_path, payload)

    def refuse(cover, table):
        raise AssertionError("capacity pass over the whole cover")

    # no embed runs the pass; neither embedder holds a reference the patch would miss
    assert "capacity" not in vars(pvd) and "capacity" not in vars(apvd)
    monkeypatch.setattr(metrics, "capacity", refuse)
    assert main([
        "embed", "--method", method, "--cover", str(cover_file),
        "--payload", str(payload_file), "--out", str(tmp_path / "stego.pgm"),
    ]) == EXIT_OK
    sidecar = json.loads((tmp_path / "stego.pgm.json").read_text())
    assert (sidecar["mse"], sidecar["psnr_db"]) == (round(mse, 6), round(psnr_db, 4))
    capsys.readouterr()


def test_embed_capacity_exceeded(tmp_path, capsys):
    cover = GrayImage(4, 4, bytes([128] * 16))
    cover_file = tmp_path / "tiny.pgm"
    cover_file.write_bytes(save_pgm(cover))
    payload = _write_payload(tmp_path, b"x" * 100)

    code = main([
        "embed", "--cover", str(cover_file),
        "--payload", str(payload), "--out", str(tmp_path / "s.pgm"),
    ])
    assert code == EXIT_CAPACITY
    assert "capacity exceeded" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["embed", "--method", "pvd"], ["embed", "--method", "apvd"], ["compare", "--size", "8"]]
)
def test_payload_past_the_length_header_exits_2(tmp_path, cover_path, monkeypatch, capsys, argv):
    payload = _write_payload(tmp_path, b"x")
    out = tmp_path / "s.pgm"
    if argv[0] == "embed":
        argv = [*argv, "--cover", str(cover_path), "--out", str(out)]
    # the file reads as a stand-in of 2**29 bytes with a length and nothing else
    huge = type("Sized", (), {"__len__": lambda self: 1 << 29})()
    real = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda path: huge if path == payload else real(path))

    assert main([*argv, "--payload", str(payload)]) == EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.err == "capacity exceeded: message of 4294967296 bits too long for the 32-bit length header\n"
    assert captured.out == "" and not out.exists()


def test_extract_garbage_is_a_clean_error(tmp_path, capsys):
    blank = GrayImage(8, 8, bytes(64))
    stego_file = tmp_path / "blank.pgm"
    stego_file.write_bytes(save_pgm(blank))
    code = main([
        "extract", "--cover", str(stego_file), "--out", str(tmp_path / "r.bin"),
    ])
    assert code == EXIT_IO
    assert "error" in capsys.readouterr().err


def test_missing_cover_file(tmp_path, capsys):
    code = main([
        "extract", "--cover", str(tmp_path / "nope.pgm"),
        "--out", str(tmp_path / "r.bin"),
    ])
    assert code == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_malformed_pgm(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    code = main(["capacity", "--cover", str(bad)])
    assert code == EXIT_IO
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["capacity", "embed", "extract"])
def test_oversized_header_number(tmp_path, command, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n" + b"1" * 5000 + b" 1\n255\n\x00")
    argv = [command, "--cover", str(bad)]
    if command != "capacity":
        argv += ["--out", str(tmp_path / "out")]
    if command == "embed":
        argv += ["--payload", str(_write_payload(tmp_path, b"x"))]
    assert main(argv) == EXIT_IO
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["transmogrify"],
        ["embed", "--payload", "p", "--out", "s"],  # missing --cover
        ["embed", "--method", "rot13", "--cover", "c", "--payload", "p", "--out", "s"],
    ],
)
def test_usage_errors(argv, capsys):
    assert main(argv) == EXIT_USAGE
    capsys.readouterr()


BAD_WIDTHS = {
    "8,8": "range widths must sum to 256, got 16",
    "7,9,16,32,64,128": "range width 7 is not a power of two >= 2",
    "8,x,16": "invalid width list '8,x,16'",
    # sums to 256 with a 2**40 width: rejected before any lookup is built
    "1099511627776,-1099511627520": "range width -1099511627520 is not a power of two >= 2",
}


@pytest.mark.parametrize("widths", BAD_WIDTHS)
def test_bad_widths(tmp_path, cover_path, widths, capsys):
    code = main(["capacity", "--cover", str(cover_path), "--widths", widths])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {BAD_WIDTHS[widths]}\n"


def test_capacity_json(tmp_path, cover_path, capsys):
    assert main(["capacity", "--cover", str(cover_path), "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    cover = synthetic_cover("noise", width=48, height=48, seed=7)
    raw, net = capacity(cover, TABLE)
    assert payload == {"cover": str(cover_path), "raw_bits": raw, "net_bytes": net}


def test_custom_widths_round_trip(tmp_path, cover_path):
    payload = _write_payload(tmp_path, b"alternate table")
    stego = tmp_path / "stego.pgm"
    recovered = tmp_path / "recovered.bin"
    widths = "4,4,8,16,32,64,128"
    assert main([
        "embed", "--cover", str(cover_path), "--payload", str(payload),
        "--out", str(stego), "--widths", widths,
    ]) == EXIT_OK
    assert main([
        "extract", "--cover", str(stego), "--out", str(recovered),
        "--widths", widths,
    ]) == EXIT_OK
    assert recovered.read_bytes() == payload.read_bytes()


def test_compare_bundled_synthetics_csv(capsys):
    assert main(["compare", "--size", "32", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "cover,method,capacity_bytes,psnr_db,violations"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6  # three bundled covers x two methods
    by_cover = {}
    for cover, method, cap, _, violations in rows:
        by_cover.setdefault(cover, []).append((method, cap, violations))
    for cover, entries in by_cover.items():
        (m1, cap1, _), (m2, cap2, v2) = entries
        assert {m1, m2} == {"pvd", "apvd"}
        assert cap1 == cap2  # same hiding capacity for both methods
        assert v2 == "0"  # adaptive row is violation-free


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_compare_prints_what_was_recorded(fmt, capsys):
    # the rows' fields, their order and their text, as fixtures/README.md recorded them
    assert main(["compare", "--size", "32", "--format", fmt]) == EXIT_OK
    assert capsys.readouterr().out == (FIXTURES / f"compare-32.{fmt}").read_text()


def test_compare_json_and_file_cover(tmp_path, capsys):
    cover = synthetic_cover("checkerboard", width=32, height=32, seed=2)
    cover_file = tmp_path / "board.pgm"
    cover_file.write_bytes(save_pgm(cover))
    payload = _write_payload(tmp_path, b"hi")
    assert main([
        "compare", "--cover", str(cover_file),
        "--payload", str(payload), "--format", "json",
    ]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert [r["method"] for r in rows] == ["pvd", "apvd"]
    assert all(r["cover"] == "board" for r in rows)


def test_compare_rows(tmp_path, capsys):
    cover = synthetic_cover("noise", width=32, height=32, seed=1)
    cover_file = tmp_path / "noise32.pgm"
    cover_file.write_bytes(save_pgm(cover))
    _, net = capacity(cover, TABLE)
    payload = _write_payload(tmp_path, b"\x5a" * net)
    assert main([
        "compare", "--cover", str(cover_file),
        "--payload", str(payload), "--format", "json",
    ]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert [r["method"] for r in rows] == ["pvd", "apvd"]
    assert rows[0]["capacity_bytes"] == rows[1]["capacity_bytes"] == net
    assert rows[0]["cover"] == rows[1]["cover"] == "noise32"
    assert rows[1]["violations"] == 0  # the adaptive method never leaves [0, 255]
    assert rows[0]["violations"] > 0  # a noisy cover makes the baseline overflow
    assert all(r["psnr_db"] != "inf" for r in rows)


def test_compare_directory_of_covers(tmp_path, capsys):
    for kind in ("gradient", "noise"):
        img = synthetic_cover(kind, width=16, height=16, seed=4)
        (tmp_path / f"{kind}.pgm").write_bytes(save_pgm(img))
    assert main(["compare", "--cover", str(tmp_path), "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 4  # header + two covers x two methods
    assert {line.split(",")[0] for line in lines[1:]} == {"gradient", "noise"}


def test_compare_holds_one_cover_at_a_time(tmp_path, monkeypatch, capsys):
    for kind in ("gradient", "noise"):
        (tmp_path / f"{kind}.pgm").write_bytes(save_pgm(synthetic_cover(kind, 16, 16, seed=4)))
    calls = []
    real_load, real_capacity = cli._load_cover, metrics.capacity

    def load(path):
        calls.append(("load", Path(path).stem))
        return real_load(path)

    def counted(cover, table):
        calls.append(("capacity", cover.pixels))
        return real_capacity(cover, table)

    monkeypatch.setattr(cli, "_load_cover", load)
    monkeypatch.setattr(metrics, "capacity", counted)
    assert main(["compare", "--cover", str(tmp_path), "--format", "csv"]) == EXIT_OK
    gradient, noise = (real_load(tmp_path / f"{kind}.pgm").pixels for kind in ("gradient", "noise"))
    assert calls == [("load", "gradient"), ("capacity", gradient), ("load", "noise"), ("capacity", noise)]
    capsys.readouterr()


def test_compare_directory_skips_a_cover_too_small_and_exits_2(tmp_path, capsys):
    # the 2x2 cover holds 10 bits, short of the 32-bit header; "a" sorts it first
    (tmp_path / "a_tiny.pgm").write_bytes(save_pgm(synthetic_cover("noise", 2, 2, seed=0)))
    (tmp_path / "noise24.pgm").write_bytes(save_pgm(synthetic_cover("noise", 24, 24, seed=0)))
    assert main(["compare", "--cover", str(tmp_path), "--format", "csv"]) == EXIT_CAPACITY
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [["noise24", "pvd"], ["noise24", "apvd"]]
    assert captured.err.startswith("capacity exceeded: a_tiny: ")
    assert len(captured.err.splitlines()) == 1


def test_selftest_small_table(capsys):
    widths = ",".join(["8"] * 32)  # every block hides 3 bits: cheap sweep
    assert main(["selftest", "--widths", widths]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cases checked: 524288" in out
    assert "walk mismatches: 0" in out
    assert "selftest passed" in out


def test_selftest_fails_when_a_walk_disagrees_with_the_kernels(monkeypatch, capsys):
    real = pvd.pvd_embed_image

    def off_by_one(cover, stream, table):
        result = real(cover, stream, table)
        wrapped = bytearray(result.wrapped)
        wrapped[0] ^= 1  # the first block of every row
        return result._replace(wrapped=bytes(wrapped))

    monkeypatch.setattr(pvd, "pvd_embed_image", off_by_one)
    # in-process: a pool worker sees the patch only under the fork start method
    monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0})
    widths = ",".join(["8"] * 32)
    assert main(["selftest", "--widths", widths]) == cli.EXIT_SELFTEST
    captured = capsys.readouterr()
    # each row's first value of the wide raster modulo 256
    assert "walk mismatches: 256" in captured.out
    assert "selftest passed" not in captured.out
    assert "pvd wrapped item(s) differ from the kernels" in captured.err


@pytest.mark.parametrize("with_payload", [False, True])
def test_compare_runs_one_capacity_pass_per_cover(tmp_path, monkeypatch, capsys, with_payload):
    real = metrics.capacity
    covers = []

    def counted(cover, table):
        covers.append(cover)
        return real(cover, table)

    monkeypatch.setattr(metrics, "capacity", counted)
    argv = ["compare", "--size", "32", "--format", "csv"]
    if with_payload:
        argv += ["--payload", str(_write_payload(tmp_path, b"hi"))]
    assert main(argv) == EXIT_OK
    assert len(covers) == len({id(cover) for cover in covers}) == 3
    assert len(capsys.readouterr().out.splitlines()) == 1 + 6


def test_selftest_parallel_matches_serial(monkeypatch, capsys):
    widths = ",".join(["8"] * 32)
    monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0})
    assert main(["selftest", "--widths", widths]) == EXIT_OK
    serial = capsys.readouterr().out
    monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 1})
    assert main(["selftest", "--widths", widths]) == EXIT_OK
    parallel = capsys.readouterr().out
    assert "workers: 1" in serial and "workers: 2" in parallel

    def counts(text):
        return sorted(
            line.strip() for line in text.splitlines()
            if ":" in line and "elapsed" not in line and "workers" not in line
        )

    assert counts(serial) == counts(parallel)


def test_selftest_single_bit_table(capsys):
    widths = ",".join(["2"] * 128)  # t = 1 everywhere: exercises the MSB-only edge
    assert main(["selftest", "--widths", widths]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cases checked: 131072" in out
    assert "lookup mismatches: 0" in out
    assert "selftest passed" in out


@pytest.mark.parametrize("size", ["0", "-3"])
def test_compare_rejects_non_positive_size(size, capsys):
    assert main(["compare", "--size", size]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "size, code", [(1, EXIT_CAPACITY), (2, EXIT_CAPACITY), (3, EXIT_CAPACITY), (4, EXIT_OK)]
)
def test_compare_cover_too_small_for_the_header_exits_2(size, code, capsys):
    # raw capacity of the default table's covers: 0, 13 and 23 bits, then enough for the header
    assert main(["compare", "--size", str(size)]) == code
    err = capsys.readouterr().err
    assert ("capacity exceeded" in err) == (code == EXIT_CAPACITY)


def test_compare_rejects_oversized_size_before_building_covers(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("synthetic_cover called for an oversized --size")

    monkeypatch.setattr(cli, "synthetic_cover", refuse)
    assert main(["compare", "--size", str(MAX_COMPARE_SIZE + 1)]) == EXIT_USAGE
    assert f"between 1 and {MAX_COMPARE_SIZE}" in capsys.readouterr().err


def test_embed_sidecar_names_lossy_corner_bytes(tmp_path, capsys):
    # one bit per block: blocks 28 and 39 carry the 1s of header "8 bits" and of b"\x01"
    pixels = [130, 130] * 40
    pixels[56:58] = pixels[78:80] = [0, 254]
    cover_file = tmp_path / "corners.pgm"
    cover_file.write_bytes(save_pgm(GrayImage(80, 1, bytes(pixels))))
    payload = _write_payload(tmp_path, b"\x01")
    stego = tmp_path / "stego.pgm"

    assert main([
        "embed", "--cover", str(cover_file), "--payload", str(payload), "--out", str(stego),
        "--widths", ",".join(["2"] * 128),
    ]) == EXIT_OK
    assert "2 block(s) hit the lossy (0,255) corner" in capsys.readouterr().err
    sidecar = json.loads((tmp_path / "stego.pgm.json").read_text())
    assert sidecar["lossy_corner_count"] == 2
    assert sidecar["lossy_corners"] == [
        {"block": 28, "payload_byte": None},
        {"block": 39, "payload_byte": 0},
    ]


def test_selftest_workers_bounded_by_cpus_and_rows(monkeypatch, capsys):
    import concurrent.futures

    started = []

    class InlinePool:
        """Records the requested worker count and runs the rows in-process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    # the CPUs the process may run on, not the machine's count
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {1, 4, 6})
    widths = ",".join(["2"] * 128)
    assert main(["selftest", "--widths", widths]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cases checked: 131072" in out and "workers: 3" in out
    assert started == [3]
    monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: set(range(1000)))
    assert main(["selftest", "--widths", widths]) == EXIT_OK
    assert started == [3, 256]  # one row per first-pixel value, one worker per row at most
    # a platform without affinity falls back to the machine's count
    monkeypatch.delattr(oracle.os, "sched_getaffinity")
    assert main(["selftest", "--widths", widths]) == EXIT_OK
    assert started == [3, 256, 8]
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: None)
    assert main(["selftest", "--widths", widths]) == EXIT_OK
    assert started == [3, 256, 8]  # unknown CPU count: one worker, in-process
    assert "workers: 1" in capsys.readouterr().out


def test_selftest_refuses_a_jobs_option(capsys):
    # the sweep sizes its pool from the CPU count; a worker count is not taken from input
    assert main(["selftest", "--jobs", "2"]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_cli_start_leaves_the_process_pool_unimported():
    import pvdstego

    src = str(Path(pvdstego.__file__).resolve().parent.parent)
    # selftest loads the oracle, and the pool on more than one CPU; the others cost
    # a cold start time that no command needs (json: the commands that write JSON)
    unused = ("concurrent.futures", "pvdstego.oracle", "dataclasses", "inspect", "json", "typing", "random")
    for module in ("pvdstego", "pvdstego.cli"):
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import {module}; "
            f"print([name for name in {unused!r} if name in sys.modules])"
        )
        out = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert out == "[]\n", module

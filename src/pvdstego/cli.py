"""Command-line front end: embed, extract, capacity, compare, selftest.

Exit codes: 0 success, 1 usage error, 2 payload exceeds capacity,
3 I/O or malformed-data error, 4 selftest failure.
"""

import argparse
import math
import sys
from collections.abc import Iterator
from pathlib import Path

from . import metrics
from .apvd import apvd_embed_image, apvd_extract_image
from .codec import (
    DEFAULT_WIDTHS,
    CapacityError,
    PayloadError,
    RangeTable,
    deframe_payload,
    frame_payload,
)
from .imagery import SYNTHETIC_KINDS, GrayImage, PgmError, load_pgm, save_pgm, synthetic_cover
from .pvd import pvd_embed_image, pvd_extract_image

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAPACITY = 2
EXIT_IO = 3
EXIT_SELFTEST = 4

DEFAULT_WIDTHS_TEXT = ",".join(map(str, DEFAULT_WIDTHS))
MAX_COMPARE_SIZE = 4096  # a synthetic cover holds size**2 pixels in memory


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; usage errors are 1 here
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pvdstego", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--widths",
            default=DEFAULT_WIDTHS_TEXT,
            help="comma-separated range widths (powers of two summing to 256)",
        )

    p = sub.add_parser("embed", help="hide a payload file inside a cover PGM")
    p.add_argument("--method", choices=("pvd", "apvd"), default="apvd")
    p.add_argument("--cover", required=True, help="cover PGM path")
    p.add_argument("--payload", required=True, help="payload file to hide")
    p.add_argument("--out", required=True, help="stego PGM output path")
    add_common(p)

    p = sub.add_parser("extract", help="recover a payload from a stego PGM")
    p.add_argument("--method", choices=("pvd", "apvd"), default="apvd")
    p.add_argument("--cover", required=True, help="stego PGM path")
    p.add_argument("--out", required=True, help="recovered payload output path")
    add_common(p)

    p = sub.add_parser("capacity", help="report how much a cover can hold")
    p.add_argument("--cover", required=True, help="cover PGM path")
    p.add_argument("--format", choices=("table", "json"), default="table")
    add_common(p)

    p = sub.add_parser("compare", help="run both methods and compare quality")
    p.add_argument("--cover", help="cover PGM file or directory of .pgm files; omit for bundled synthetic covers")
    p.add_argument("--payload", help="payload file; omit for a seeded random payload at full capacity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--size",
        type=int,
        default=512,
        help=f"edge length of bundled synthetic covers, 1 to {MAX_COMPARE_SIZE}",
    )
    p.add_argument("--format", choices=("csv", "table", "json"), default="table")
    add_common(p)

    p = sub.add_parser("selftest", help="run the exhaustive block oracle")
    add_common(p)
    return parser


def _table_from(args) -> RangeTable:
    try:
        widths = [int(part) for part in args.widths.split(",")]
    except ValueError:
        raise _UsageError(f"invalid width list {args.widths!r}") from None
    try:
        return RangeTable(widths)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _load_cover(path: str | Path) -> GrayImage:
    return load_pgm(Path(path).read_bytes())


def _json_db(value: float):
    return "inf" if math.isinf(value) else round(value, 4)


def cmd_embed(args) -> int:
    table = _table_from(args)
    cover = _load_cover(args.cover)
    payload = Path(args.payload).read_bytes()
    report = {
        "method": args.method,
        "cover": args.cover,
        "widths": args.widths,
        "payload_bytes": len(payload),
    }
    if args.method == "apvd":
        result = apvd_embed_image(cover, payload, table)
        stego_bytes = save_pgm(result.stego)
        scheme_report = dict(
            branch_counts=result.branch_counts,
            mark_case_counts=result.mark_case_counts,
            lossy_corner_count=result.lossy_corner_count,
            lossy_corners=[
                {"block": block, "payload_byte": byte} for block, byte in result.lossy_corners
            ],
            violations=0,
        )
        if result.lossy_corner_count:
            print(
                f"warning: {result.lossy_corner_count} block(s) hit the lossy "
                "(0,255) corner; extraction will be off by one bit there",
                file=sys.stderr,
            )
    else:
        result = pvd_embed_image(cover, frame_payload(payload), table)
        if result.violations:
            print(
                f"warning: {result.violations} stego pixel(s) left [0,255]; "
                "clamping for PGM output, extraction may be corrupt",
                file=sys.stderr,
            )
        stego_bytes = save_pgm(GrayImage(cover.width, cover.height, result.stored))
        scheme_report = dict(violations=result.violations, clamped=bool(result.violations))
    report.update(
        bits_embedded=result.bits_embedded,
        blocks_used=result.blocks_used,
        **scheme_report,
        mse=round(result.mse, 6),
        psnr_db=_json_db(result.psnr_db),
    )
    import json  # imported here and in the other JSON writers: no other command needs it

    Path(args.out).write_bytes(stego_bytes)
    Path(args.out + ".json").write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"embedded {report['bits_embedded']} bits with {args.method} -> {args.out} "
        f"(psnr {report['psnr_db']} dB, violations {report['violations']})"
    )
    return EXIT_OK


def cmd_extract(args) -> int:
    table = _table_from(args)
    stego = _load_cover(args.cover)
    if args.method == "apvd":
        payload = apvd_extract_image(stego, table)
    else:
        payload = deframe_payload(pvd_extract_image(stego.pixels, table))
    Path(args.out).write_bytes(payload)
    print(f"recovered {len(payload)} bytes -> {args.out}")
    return EXIT_OK


def cmd_capacity(args) -> int:
    table = _table_from(args)
    cover = _load_cover(args.cover)
    raw_bits, net_bytes = metrics.capacity(cover, table)
    if args.format == "json":
        import json

        print(json.dumps({"cover": args.cover, "raw_bits": raw_bits, "net_bytes": net_bytes}))
    else:
        print(f"{args.cover}: raw_bits={raw_bits} net_bytes={net_bytes}")
    return EXIT_OK


def _compare_covers(args) -> Iterator[tuple[str, GrayImage]]:
    """Each cover's name and image, one at a time; bad arguments raise before the first."""
    if not args.cover:
        size = args.size
        if not 1 <= size <= MAX_COMPARE_SIZE:
            raise _UsageError(f"--size must be between 1 and {MAX_COMPARE_SIZE}, got {size}")
        return ((kind, synthetic_cover(kind, size, size, seed=args.seed)) for kind in SYNTHETIC_KINDS)
    path = Path(args.cover)
    files = sorted(path.glob("*.pgm")) if path.is_dir() else [path]
    if not files:
        raise PgmError(f"no .pgm files in {path}")
    return ((f.stem, _load_cover(f)) for f in files)


def cmd_compare(args) -> int:
    import random

    table = _table_from(args)
    fixed_payload = Path(args.payload).read_bytes() if args.payload else None
    rows = []
    skipped = False
    for name, cover in _compare_covers(args):
        _, net = metrics.capacity(cover, table)
        payload = random.Random(args.seed).randbytes(net) if fixed_payload is None else fixed_payload
        framed = frame_payload(payload)  # a message too long for the header fits no cover
        try:
            # the same two calls as embed; pvd's PSNR is taken on its unclamped
            # wide raster, the distortion its arithmetic actually produced
            base = pvd_embed_image(cover, framed, table)
            adaptive = apvd_embed_image(cover, payload, table)
        except CapacityError as exc:  # this cover is too small; the others still get rows
            print(f"capacity exceeded: {name}: {exc}", file=sys.stderr)
            skipped = True
            continue
        rows += [
            metrics.ComparisonRow(name, "pvd", net, base.psnr_db, base.violations),
            metrics.ComparisonRow(name, "apvd", net, adaptive.psnr_db, 0),
        ]
    if args.format == "csv":
        sys.stdout.write(metrics.rows_to_csv(rows))
    elif args.format == "json":
        import json

        print(json.dumps([{**r._asdict(), "psnr_db": _json_db(r.psnr_db)} for r in rows], indent=2))
    else:
        sys.stdout.write(metrics.rows_to_table(rows))
    return EXIT_CAPACITY if skipped else EXIT_OK


def cmd_selftest(args) -> int:
    from . import oracle  # imported here: no other command needs it

    table = _table_from(args)
    result = oracle.run(table)
    print(f"cases checked: {result.total_cases}")
    print(f"lossy corner blocks: {result.lossy_corner_count}")
    print(f"lookup mismatches: {result.lookup_mismatches}")
    print(f"walk mismatches: {result.walk_mismatches}")
    print("branches:")
    for branch, count in result.branch_counts.items():
        print(f"  {branch}: {count}")
    print(f"workers: {result.workers}")
    print(f"elapsed: {result.elapsed_seconds:.1f}s")
    if result.failures:
        print(f"FAILED with {len(result.failures)} counterexample(s), first:", file=sys.stderr)
        print(f"  {result.failures[0]}", file=sys.stderr)
        return EXIT_SELFTEST
    print("selftest passed")
    return EXIT_OK


_COMMANDS = {
    "embed": cmd_embed,
    "extract": cmd_extract,
    "capacity": cmd_capacity,
    "compare": cmd_compare,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (PgmError, PayloadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

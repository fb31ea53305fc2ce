"""Exhaustive block-level verification of both embedding schemes.

Sweeps every pixel pair (p, q) in [0, 255]^2 and every admissible chunk
for that pair's range (about 4 million cases for the default table) and
checks, per case, the per-block kernels of both schemes:

* baseline: the pair realizes the new difference exactly, stays inside
  the table's wide window, never leaves [0, 255] on the
  difference-decreasing path, and round-trips whenever it stays in range;
* adaptive: the marked output is always inside [0, 255], the flag and
  difference survive the mark, a difference-increasing violation is the
  only way into the one-sided fallback, a set flag implies the chunk's
  MSB was 1, and extraction returns the exact chunk -- except for the
  counted lossy-corner blocks, which must be off by exactly one.

The sweep's unit is a row, one first-pixel value p.  Once the
kernels have run over a row's cases, both embed walks
(``pvd.pvd_embed_image`` and ``apvd.embed_walk``, which do the kernels'
arithmetic a window of blocks at a time) run once over a cover holding
those cases in sweep order, and every field of their results is
checked against the kernels, the cover and ``metrics.mse_psnr``: the
pvd walk's ``stored`` and ``wrapped`` rasters against the wide raster
of the kernels' values, clamped and modulo 256.  What differs is
``walk_mismatches``.
After the sweep, the walks' extraction lookups (``chunk_keys`` in each
scheme) are checked once on every pair they can meet, [0, 255]^2, as
one 8-bit raster; a pair whose text differs or is missing (the rest of
the raster if a lookup raises part way) and a text past the last pair
each count in ``lookup_mismatches``, as does a ``metrics.capacity`` of
that raster other than the kernels' sum of t.  Neither check is
counted in ``total_cases``.  ``run`` sweeps each row as one task, over
one worker process per CPU the process may run on, or in-process on one
CPU, and adds the rows' results up: ``OracleResult`` supports ``+``.
"""

import os
import time
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import chain, product, zip_longest

from . import apvd, pvd
from .codec import RangeTable
from .imagery import GrayImage
from .metrics import capacity, mse_psnr

FAIL_LIMIT = 5  # counterexamples kept per result, summed ones too; enough to diagnose


@dataclass
class OracleResult:
    """Sweep counters; each row fills one and ``run`` adds them up with ``+``."""

    total_cases: int = 0
    failures: list[str] = field(default_factory=list)
    # set by run(); a field, not a property, as perfbench's stub result passes it in
    lossy_corner_count: int = 0
    lossy_corner_cases: list[tuple[int, int, int]] = field(default_factory=list)
    branch_counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(apvd.BRANCHES, 0))
    mark_case_counts: dict[str, int] = field(default_factory=dict)
    baseline_in_range_cases: int = 0
    lookup_mismatches: int = 0
    walk_mismatches: int = 0
    workers: int = 0
    elapsed_seconds: float = 0.0

    def fail(self, message: str) -> None:
        """Keep ``message`` as a counterexample, unless ``FAIL_LIMIT`` are kept already."""
        if len(self.failures) < FAIL_LIMIT:
            self.failures.append(message)

    def __add__(self, other: "OracleResult") -> "OracleResult":
        """Numbers add, lists join, counts add by key in first-seen order; keeps FAIL_LIMIT failures."""
        total = {}
        for name in (f.name for f in fields(self)):
            mine, theirs = getattr(self, name), getattr(other, name)
            if isinstance(mine, dict):
                total[name] = {k: mine.get(k, 0) + theirs.get(k, 0) for k in {**mine, **theirs}}
            else:
                total[name] = mine + theirs
        result = OracleResult(**total)
        del result.failures[FAIL_LIMIT:]
        return result


def _check_pair(
    p: int,
    q: int,
    table: RangeTable,
    out: OracleResult,
    base: list[int],
    marked: list[int],
) -> None:
    """Check every chunk of block (p, q); append its stego values to ``base`` and ``marked``."""
    d = abs(q - p)
    t = table.t[d]
    lower = table.lower[d]
    half = 1 << (t - 1)
    wide_min, wide_max = pvd.wide_window(table)
    branches = out.branch_counts
    marks = out.mark_case_counts

    def fail(chunk, message):
        out.fail(f"(p={p}, q={q}, chunk={chunk:0{t}b}): {message}")

    for chunk in range(1 << t):
        out.total_cases += 1
        d_new = lower + chunk

        # baseline scheme
        a1, a2 = pvd.adjust_pair(p, q, d, d_new)
        if abs(a2 - a1) != d_new:
            fail(chunk, f"baseline pair ({a1},{a2}) does not realize d'={d_new}")
        if not (wide_min <= a1 <= wide_max and wide_min <= a2 <= wide_max):
            fail(chunk, f"baseline pair ({a1},{a2}) outside wide window")
        in_range = 0 <= a1 <= 255 and 0 <= a2 <= 255
        if d_new <= d and not in_range:
            fail(chunk, f"difference-decreasing baseline left range: ({a1},{a2})")
        if in_range:
            out.baseline_in_range_cases += 1
            value, t_back = pvd.extract_pair(a1, a2, table)
            if value != chunk or t_back != t:
                fail(chunk, f"baseline round trip gave {value} over {t_back} bits")
        base += (a1, a2)

        # adaptive scheme
        (b1, b2), flag, branch = apvd.embed_block_values(p, q, chunk, table)
        branches[branch] += 1
        if not (0 <= b1 <= 255 and 0 <= b2 <= 255):
            fail(chunk, f"adaptive pre-mark pair ({b1},{b2}) out of range")
        realized = lower + (chunk - half if flag else chunk)
        if abs(b2 - b1) != realized:
            fail(chunk, f"adaptive pair ({b1},{b2}) does not realize d'={realized}")
        if flag and not chunk >> (t - 1):
            fail(chunk, "flag set although the chunk MSB was 0")
        if branch in (apvd.BRANCH_ONE_SIDED, apvd.BRANCH_DISCARD_THEN_ONE_SIDED):
            if realized <= d:
                fail(chunk, f"one-sided fallback fired although d'={realized} <= d={d}")

        (m1, m2), case = apvd.mark_with_case((b1, b2), flag)
        marks[case] = marks.get(case, 0) + 1
        if not (0 <= m1 <= 255 and 0 <= m2 <= 255):
            fail(chunk, f"marked pair ({m1},{m2}) out of range")
        marked += (m1, m2)

        flag_back = m1 & 1  # the mark undone by hand, as extraction undoes it
        adjusted = m1 - 1 if flag_back else m1 + 1
        value, t_back = apvd.extract_block_value(m1, m2, table)
        if case == apvd.LOSSY_MARK_CASE:
            out.lossy_corner_cases.append((p, q, chunk))
            # documented loss: the unmarkable (0, 255) block reads one low
            if flag_back != 0 or abs(adjusted - m2) != realized - 1:
                fail(chunk, f"lossy corner recovered d={abs(adjusted - m2)}")
            if value != chunk - 1 or t_back != t:
                fail(chunk, f"lossy corner extracted {value}, expected {chunk - 1}")
        else:
            if flag_back != flag:
                fail(chunk, f"flag came back as {flag_back}, embedded {flag}")
            if abs(adjusted - m2) != realized:
                fail(chunk, f"difference recovery gave {abs(adjusted - m2)}, expected {realized}")
            if value != chunk or t_back != t:
                fail(chunk, f"round trip extracted {value} over {t_back} bits")


def _check_lookups(table: RangeTable, out: OracleResult) -> None:
    """The walks' chunk-key lookups, pair by pair, and the capacity pass against the kernels."""

    def texts(lookup, *args):
        # one raster of every pair, so the lookup's pairing of pixels is checked too
        try:
            for keys in lookup(raster, *args):
                yield from map(table.texts.__getitem__, keys)
        except Exception as exc:  # a defect of any kind: no text for this pair or any after it
            out.fail(f"{lookup.__module__}.{lookup.__name__} raised {exc!r}")

    every = list(product(range(256), repeat=2))
    raster = bytes(chain.from_iterable(every))
    for kernel, found in (
        (apvd.extract_block_value, texts(apvd.chunk_keys, table)),
        (pvd.extract_pair, texts(pvd.chunk_keys)),
    ):
        for pair, text in zip_longest(every, found):  # a pair with no text, or a text with no pair
            want = pair and "{:0{}b}".format(*kernel(*pair, table))
            if text != want:
                out.lookup_mismatches += 1
                out.fail(f"{kernel.__name__}{pair or ''}: lookup {text}, kernel {want}")

    # metrics.capacity reads the blocks' differences as apvd extraction does
    raw = capacity(GrayImage(len(raster), 1, raster), table)[0]
    want = sum(pvd.extract_pair(p, q, table)[1] for p, q in every)
    if raw != want:
        out.lookup_mismatches += 1
        out.fail(f"capacity of every pair: {raw} raw bits, kernels {want}")


def _sweep_row(p: int, table: RangeTable) -> OracleResult:
    """Check row p's cases with the kernels, then run both embed walks over them.

    The walks' cover holds block (p, q) once per chunk of its range and
    the stream hands each block its chunk, so each walk meets the row's
    cases in sweep order.  Filler (0, 0) blocks after them take the zero
    fill of the stream's last byte, ceil(fill / t[0]) of them; they enter
    the expected apvd counts, and the expected pvd rasters as they are,
    since chunk 0 at d = 0 leaves a pair unchanged.  The cover ends in a
    block the stream cannot reach and an odd pixel, so each walk has a
    tail of the cover's to copy.
    """
    out = OracleResult()
    base: list[int] = []
    marked: list[int] = []
    for q in range(256):
        _check_pair(p, q, table, out, base, marked)

    ts = [table.t[abs(p - q)] for q in range(256)]
    chunks = {t: "".join(format(v, f"0{t}b") for v in range(1 << t)) for t in set(ts)}
    bits = "".join(map(chunks.__getitem__, ts))
    fill = -len(bits) % 8
    stream = (int(bits, 2) << fill).to_bytes((len(bits) + fill) // 8, "big")
    # a filler block takes at least one bit
    cover = b"".join(bytes((p, q)) * (1 << t) for q, t in enumerate(ts)) + bytes(2 * fill) + b"\1\2\3"
    image = GrayImage(len(cover), 1, cover)
    try:
        walk = pvd.pvd_embed_image(image, stream, table)
        report = apvd.embed_walk(image, stream, table)
    except ValueError as exc:  # CapacityError, or a value the stego bytearray refuses
        out.walk_mismatches += 1
        out.fail(f"row p={p}: an embed walk raised {exc!r}")
        return out

    fillers = -(-fill // table.t[0])
    walked = len(base) + 2 * fillers  # stego values of the blocks walked
    want_branches, want_cases = dict(out.branch_counts), dict(out.mark_case_counts)
    if fillers:
        pair, flag, branch = apvd.embed_block_values(0, 0, 0, table)
        case = apvd.mark_with_case(pair, flag)[1]
        want_branches[branch] += fillers
        want_cases[case] = want_cases.get(case, 0) + fillers
    wide = base + list(cover[len(base) :])  # a filler block embeds chunk 0 at d = 0: unchanged
    stego, tail = report.stego.pixels, list(cover[walked:])
    for what, got, want in (
        ("pvd stored", list(walk.stored), [min(max(v, 0), 255) for v in wide]),
        ("pvd wrapped", list(walk.wrapped), [v % 256 for v in wide]),
        ("pvd blocks used", [walk.blocks_used], [walked // 2]),
        ("pvd bits embedded", [walk.bits_embedded], [8 * len(stream)]),
        ("pvd squared error", [(walk.mse, walk.psnr_db)], [mse_psnr(cover, wide)]),
        ("pvd violation count", [walk.violations], [len([v for v in wide if v < 0 or v > 255])]),
        ("apvd embed", list(stego[: len(marked)]), marked),
        ("apvd tail", list(stego[walked:]), tail),
        ("apvd blocks used", [report.blocks_used], [walked // 2]),
        ("apvd bits embedded", [report.bits_embedded], [8 * len(stream)]),
        ("apvd squared error", [(report.mse, report.psnr_db)], [mse_psnr(cover, stego)]),
        ("apvd branch count", sorted(report.branch_counts.items()), sorted(want_branches.items())),
        ("apvd mark-case count", sorted(report.mark_case_counts.items()), sorted(want_cases.items())),
    ):
        if got != want:
            bad = sum(g != w for g, w in zip_longest(got, want))
            out.walk_mismatches += bad
            out.fail(f"row p={p}: {bad} {what} item(s) differ from the kernels")
    return out


def run(table: RangeTable) -> OracleResult:
    """Run the full sweep, one row per task, over one worker process per CPU it may use.

    The pool never has more workers than rows; with one CPU, or an
    unknown count, the rows are swept in-process.
    """
    started = time.perf_counter()
    # a process limited to some of the machine's CPUs gets no more workers than those
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, 256)
    sweep = partial(_sweep_row, table=table)
    if workers == 1:
        parts = list(map(sweep, range(256)))
    else:
        # imported here: it loads multiprocessing, which no other command needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(sweep, range(256)))
    result = sum(parts, OracleResult())
    _check_lookups(table, result)
    result.lossy_corner_count = len(result.lossy_corner_cases)
    result.workers = workers
    result.elapsed_seconds = time.perf_counter() - started
    return result

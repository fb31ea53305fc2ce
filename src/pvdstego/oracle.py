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

The image walks inline the embed kernels' arithmetic and look each
block's extraction up (``embed_walk`` and ``chunk_texts`` in each
scheme), so they are checked against the kernels too.  After the sweep
of each first-pixel value p, all four walks run over the row's cases in
sweep order and must give the kernels' pairs and chunk texts block for
block, and the adaptive walk their branch and mark-case counts; the
blocks and counts that differ are ``walk_mismatches``.  After the whole
sweep the extraction lookups are checked on their own, on every pair:
the adaptive one on [0, 255]^2, the baseline one on the wide window,
where a pair more than 255 apart must fail in both; its mismatches are
``lookup_mismatches``.  Neither check is counted in ``total_cases``.

The sweep is embarrassingly parallel over first-pixel values; use
jobs > 1 to fan out across processes.  The lookup check runs once, in
the calling process.
"""

import os
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import zip_longest

from . import apvd, pvd
from .codec import RangeTable

FAIL_LIMIT = 5  # per sweep span; enough to diagnose, cheap to carry

# _TEXTS[t][value]: the chunk text of a kernel's (value, t)
_TEXTS = tuple(tuple(format(v, f"0{t}b") for v in range(1 << t)) for t in range(9))


@dataclass
class OracleResult:
    """Sweep counters; each span fills one and ``_merge`` sums them."""

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
    elapsed_seconds: float = 0.0


def expected_case_count(table: RangeTable) -> int:
    """Case count derived arithmetically, independent of the sweep loop."""
    total = 0
    for d in range(256):
        pairs = 256 if d == 0 else 2 * (256 - d)
        total += pairs << table.t[d]
    return total


def _check_pair(
    p: int,
    q: int,
    table: RangeTable,
    window: tuple[int, int],
    out: OracleResult,
    row: tuple[list, list, list, list],
) -> None:
    """Check every chunk of block (p, q); append the kernels' outputs to ``row``.

    ``row`` collects, case by case, the baseline pair and chunk text and
    the marked pair and chunk text, for ``_check_walks``.
    """
    base, base_texts, marked, marked_texts = row
    d = abs(q - p)
    t = table.t[d]
    lower = table.lower[d]
    half = 1 << (t - 1)
    wide_min, wide_max = window
    failures = out.failures
    branches = out.branch_counts
    marks = out.mark_case_counts

    def fail(chunk, message):
        if len(failures) < FAIL_LIMIT:
            failures.append(f"(p={p}, q={q}, chunk={chunk:0{t}b}): {message}")

    for chunk in range(1 << t):
        out.total_cases += 1
        d_new = lower + chunk

        # baseline scheme
        a1, a2 = pvd.embed_pair(p, q, chunk, table)
        if abs(a2 - a1) != d_new:
            fail(chunk, f"baseline pair ({a1},{a2}) does not realize d'={d_new}")
        if not (wide_min <= a1 <= wide_max and wide_min <= a2 <= wide_max):
            fail(chunk, f"baseline pair ({a1},{a2}) outside wide window")
        in_range = 0 <= a1 <= 255 and 0 <= a2 <= 255
        if d_new <= d and not in_range:
            fail(chunk, f"difference-decreasing baseline left range: ({a1},{a2})")
        value, t_back = pvd.extract_pair(a1, a2, table)
        if in_range:
            out.baseline_in_range_cases += 1
            if value != chunk or t_back != t:
                fail(chunk, f"baseline round trip gave {value} over {t_back} bits")
        base += a1, a2
        base_texts.append(_TEXTS[t_back][value])

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

        flag_back, adjusted = apvd.read_flag_and_adjust((m1, m2))
        value, t_back = apvd.extract_block_value(m1, m2, table)
        marked += m1, m2
        marked_texts.append(_TEXTS[t_back][value])
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
    """The walks' chunk-text lookups against the extraction kernels, pair by pair."""

    def check(kernel, p: int, q: int, text: str | None) -> None:
        try:
            value, t = kernel(p, q, table)
            want = format(value, f"0{t}b")
        except IndexError:  # a difference past the end of the table's lookups
            want = None
        if text != want:
            out.lookup_mismatches += 1
            if len(out.failures) < FAIL_LIMIT:
                out.failures.append(f"{kernel.__name__}({p}, {q}): lookup {text}, kernel {want}")

    pairs = [(p, q) for p in range(256) for q in range(256)]
    raster = bytes(v for pair in pairs for v in pair)
    for (p, q), text in zip(pairs, apvd.chunk_texts(raster, table)):
        check(apvd.extract_block_value, p, q, text)
    low, high = pvd.wide_window(table)
    for p in range(low, high + 1):
        for q in range(low, high + 1):
            try:
                text = next(pvd.chunk_texts((p, q), table))
            except IndexError:
                text = None
            check(pvd.extract_pair, p, q, text)


def _check_walks(
    p: int,
    table: RangeTable,
    out: OracleResult,
    row: tuple[list, list, list, list],
    counts_before: tuple[dict[str, int], dict[str, int]],
) -> None:
    """All four walks over row p's cases, against the kernels' outputs in ``row``.

    The cover holds block (p, q) once per chunk of its range and the
    stream hands each block its chunk, so each embed walk meets the
    row's cases in sweep order.  Filler (0, 0) blocks after them take
    the zero fill of the stream's last byte; they enter the expected
    counts, not the pair comparison.  The extraction walks read the
    kernels' stego pairs.  ``counts_before`` are the sweep's branch and
    mark-case counts before the row.
    """
    base, base_texts, marked, marked_texts = row
    ts = [table.t[abs(p - q)] for q in range(256)]
    cover = b"".join(bytes((p, q)) * (1 << t) for q, t in enumerate(ts))
    bits = "".join("".join(_TEXTS[t]) for t in ts)
    fill = -len(bits) % 8
    stream = (int(bits, 2) << fill).to_bytes((len(bits) + fill) // 8, "big")
    cover += bytes(2 * fill)  # a filler block takes at least one bit
    n = len(base_texts)

    try:
        wide = pvd.embed_walk(cover, stream, table)
        stego, branches, cases, _ = apvd.embed_walk(cover, stream, table)
    except ValueError as exc:  # CapacityError, or a value the stego bytearray refuses
        out.walk_mismatches += 1
        if len(out.failures) < FAIL_LIMIT:
            out.failures.append(f"row p={p}: an embed walk raised {exc!r}")
        return
    pair, flag, filler_branch = apvd.embed_block_values(0, 0, 0, table)
    filler_case = apvd.mark_with_case(pair, flag)[1]
    fillers = len(stego) // 2 - n
    branches_before, cases_before = counts_before
    want_branches = {k: v - branches_before[k] for k, v in out.branch_counts.items()}
    want_branches[filler_branch] += fillers
    want_cases = {k: v - cases_before.get(k, 0) for k, v in out.mark_case_counts.items()}
    want_cases[filler_case] = want_cases.get(filler_case, 0) + fillers
    want_cases = {k: v for k, v in want_cases.items() if v}

    compare = partial(_compare_walk, out, p)
    compare("pvd embed", wide[: 2 * n], base, 2)
    compare("apvd embed", list(stego[: 2 * n]), marked, 2)
    compare("pvd extraction", list(pvd.chunk_texts(base, table)), base_texts)
    compare("apvd extraction", list(apvd.chunk_texts(marked, table)), marked_texts)
    compare("apvd branch count", sorted(branches.items()), sorted(want_branches.items()))
    compare("apvd mark-case count", sorted(cases.items()), sorted(want_cases.items()))


def _compare_walk(
    out: OracleResult, p: int, what: str, got: list, want: list, per: int = 1
) -> None:
    """Count the items, ``per`` values each, where a walk disagrees with the kernels."""
    if got == want:
        return
    got, want = zip(*[iter(got)] * per), zip(*[iter(want)] * per)
    bad = sum(g != w for g, w in zip_longest(got, want))
    out.walk_mismatches += bad
    if len(out.failures) < FAIL_LIMIT:
        out.failures.append(f"row p={p}: {bad} {what} item(s) differ from the kernels")


def _sweep_span(widths: tuple[int, ...], p_start: int, p_stop: int) -> OracleResult:
    table = RangeTable(widths)
    window = pvd.wide_window(table)
    out = OracleResult()
    for p in range(p_start, p_stop):
        counts_before = dict(out.branch_counts), dict(out.mark_case_counts)
        row: tuple[list, list, list, list] = ([], [], [], [])
        for q in range(256):
            _check_pair(p, q, table, window, out, row)
        _check_walks(p, table, out, row, counts_before)
    return out


def _merge(parts: list[OracleResult]) -> OracleResult:
    merged = OracleResult()
    for part in parts:
        merged.total_cases += part.total_cases
        merged.failures += part.failures
        merged.lossy_corner_cases += part.lossy_corner_cases
        merged.baseline_in_range_cases += part.baseline_in_range_cases
        merged.walk_mismatches += part.walk_mismatches
        for k, v in part.branch_counts.items():
            merged.branch_counts[k] = merged.branch_counts.get(k, 0) + v
        for k, v in part.mark_case_counts.items():
            merged.mark_case_counts[k] = merged.mark_case_counts.get(k, 0) + v
    return merged


def run(table: RangeTable, jobs: int = 1) -> OracleResult:
    """Run the full sweep; jobs > 1 fans out over worker processes.

    The pool never has more workers than CPUs or sweep spans.
    """
    started = time.perf_counter()
    widths = table.widths
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        result = _sweep_span(widths, 0, 256)
    else:
        # imported here: it loads multiprocessing, which no other command needs
        from concurrent.futures import ProcessPoolExecutor

        step = max(1, 256 // (jobs * 4))
        spans = [(widths, lo, min(256, lo + step)) for lo in range(0, 256, step)]
        with ProcessPoolExecutor(max_workers=min(jobs, len(spans))) as pool:
            result = _merge(list(pool.map(_sweep_span, *zip(*spans))))
    _check_lookups(table, result)
    del result.failures[FAIL_LIMIT:]
    result.lossy_corner_cases.sort()
    result.lossy_corner_count = len(result.lossy_corner_cases)
    result.elapsed_seconds = time.perf_counter() - started
    return result

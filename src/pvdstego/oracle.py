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

The image walks call the embed kernels per block, but look each
block's extraction up (``chunk_texts`` in each scheme).  After the sweep
those lookups are checked against the extraction kernels: the adaptive
one on every pair in [0, 255]^2, the baseline one on every pair of the
wide window, where a pair more than 255 apart must fail in both.  The
lookup check is not counted in ``total_cases``; its mismatches are
``lookup_mismatches``.

The sweep is embarrassingly parallel over first-pixel values; use
jobs > 1 to fan out across processes.  The lookup check runs once, in
the calling process.
"""

import os
import time
from dataclasses import dataclass, field

from . import apvd, pvd
from .codec import RangeTable, build_range_table

FAIL_LIMIT = 5  # per sweep span; enough to diagnose, cheap to carry


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
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def expected_case_count(table: RangeTable) -> int:
    """Case count derived arithmetically, independent of the sweep loop."""
    total = 0
    for d in range(256):
        pairs = 256 if d == 0 else 2 * (256 - d)
        total += pairs << table.t[d]
    return total


def _check_pair(
    p: int, q: int, table: RangeTable, window: tuple[int, int], out: OracleResult
) -> None:
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
        if in_range:
            out.baseline_in_range_cases += 1
            value, t_back = pvd.extract_pair(a1, a2, table)
            if value != chunk or t_back != t:
                fail(chunk, f"baseline round trip gave {value} over {t_back} bits")

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

        marked, case = apvd.mark_with_case((b1, b2), flag)
        marks[case] = marks.get(case, 0) + 1
        m1, m2 = marked
        if not (0 <= m1 <= 255 and 0 <= m2 <= 255):
            fail(chunk, f"marked pair ({m1},{m2}) out of range")

        flag_back, adjusted = apvd.read_flag_and_adjust(marked)
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

    every = range(256)
    firsts = bytes(p for p in every for _ in every)
    seconds = bytes(every) * 256
    for p, q, text in zip(firsts, seconds, apvd.chunk_texts(firsts, seconds, table)):
        check(apvd.extract_block_value, p, q, text)
    low, high = pvd.wide_window(table)
    for p in range(low, high + 1):
        for q in range(low, high + 1):
            try:
                text = next(pvd.chunk_texts((p,), (q,), table))
            except IndexError:
                text = None
            check(pvd.extract_pair, p, q, text)


def _sweep_span(widths: tuple[int, ...], p_start: int, p_stop: int) -> OracleResult:
    table = build_range_table(widths)
    window = pvd.wide_window(table)
    out = OracleResult()
    for p in range(p_start, p_stop):
        for q in range(256):
            _check_pair(p, q, table, window, out)
    return out


def _merge(parts: list[OracleResult]) -> OracleResult:
    merged = OracleResult()
    for part in parts:
        merged.total_cases += part.total_cases
        merged.failures += part.failures
        merged.lossy_corner_cases += part.lossy_corner_cases
        merged.baseline_in_range_cases += part.baseline_in_range_cases
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

"""Image-quality and payload metrics: MSE/PSNR, capacity, comparison rows."""

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .codec import HEADER_BITS, RangeTable
from .imagery import GrayImage, block_differences, block_windows

PEAK_SQUARED = 255 * 255


ComparisonRow = namedtuple("ComparisonRow", "cover method capacity_bytes psnr_db violations")


def mse_psnr(a: Sequence[int], b: Iterable[int]) -> tuple[float, float]:
    """MSE and PSNR between two images of ``len(a)`` pixels each; ValueError otherwise."""
    return mse_psnr_of(sum((x - y) * (x - y) for x, y in zip(a, b, strict=True)), len(a))


def mse_psnr_of(ssd: int, n: int) -> tuple[float, float]:
    """MSE and PSNR of ``n`` pixels from their exact integer squared-error sum.

    The only division happens here, so a sum taken over the pixels that
    differ gives the same floats as one over the whole images.  PSNR uses
    the 8-bit peak 255 and is math.inf when nothing differs.
    """
    if ssd == 0:
        return 0.0, math.inf
    return ssd / n, 10.0 * math.log10(PEAK_SQUARED * n / ssd)


def format_db(value: float) -> str:
    """Serialize PSNR for reports; identical images yield the string 'inf'."""
    return "inf" if math.isinf(value) else f"{value:.2f}"


def capacity(cover: GrayImage, table: RangeTable) -> tuple[int, int]:
    """(raw bits, net payload bytes) hidable in the cover.

    Raw capacity is the sum of t over all blocks and is identical for
    both methods; net bytes account for the length header (and are
    clamped at zero for covers too small to hold even the header).
    Each window's block differences are translated into t and counted.
    """
    raw, distinct = 0, set(table.t)
    for window in block_windows(cover.pixels):
        ts = block_differences(window).translate(table.t)
        raw += sum(t * ts.count(t) for t in distinct)
    return raw, max(0, (raw - HEADER_BITS) // 8)


_HEADER = ComparisonRow._fields


def _cells(r: ComparisonRow) -> tuple[str, ...]:
    """One row's cells, for both formats: ``_HEADER``'s fields as text."""
    return r.cover, r.method, str(r.capacity_bytes), format_db(r.psnr_db), str(r.violations)


def rows_to_csv(rows: Sequence[ComparisonRow]) -> str:
    return "\n".join(map(",".join, [_HEADER, *map(_cells, rows)])) + "\n"


def rows_to_table(rows: Sequence[ComparisonRow]) -> str:
    cells = [_HEADER, *map(_cells, rows)]
    widths = [max(map(len, column)) for column in zip(*cells)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in cells]
    return "\n".join(lines) + "\n"

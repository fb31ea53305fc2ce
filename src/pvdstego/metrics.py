"""Image-quality and payload metrics: MSE/PSNR, capacity, method comparison."""

import math
from dataclasses import dataclass, fields
from operator import sub
from typing import Iterable, Sequence

from .codec import HEADER_BITS, RangeTable, frame_payload
from .imagery import GrayImage

PEAK_SQUARED = 255 * 255


@dataclass(frozen=True)
class ComparisonRow:
    cover: str
    method: str
    capacity_bytes: int
    psnr_db: float
    violations: int


def mse_psnr(a: Iterable[int], b: Iterable[int], n: int | None = None) -> tuple[float, float]:
    """MSE and PSNR between two images of ``n`` pixels, ``len(a)`` by default.

    ``a`` and ``b`` must hold the same number of values (ValueError
    otherwise): the whole images, or only a prefix where they differ if
    ``n`` counts the identical tail too.  The squared-error sum is
    accumulated in exact integer arithmetic; the only division happens at
    the end, so both forms give the same floats.  PSNR uses the 8-bit
    peak 255 and is math.inf for identical inputs.
    """
    if n is None:
        n = len(a)
    ssd = sum((x - y) * (x - y) for x, y in zip(a, b, strict=True))
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
    """
    px = cover.pixels
    raw = sum(map(table.t.__getitem__, map(abs, map(sub, px[0::2], px[1::2]))))
    return raw, max(0, (raw - HEADER_BITS) // 8)


def compare(
    cover: GrayImage, payload: bytes, table: RangeTable, name: str = "cover"
) -> list[ComparisonRow]:
    """Embed the same payload with both methods and report one row each.

    The violating method's PSNR is computed against its unclamped wide
    raster, measuring the distortion the arithmetic actually produced.
    """
    # imported here: these modules sit above metrics in the layering
    from .apvd import apvd_embed_image
    from .pvd import pvd_embed_image

    _, net_bytes = capacity(cover, table)
    framed = frame_payload(payload)
    base = pvd_embed_image(cover, framed, table)
    adaptive = apvd_embed_image(cover, payload, table)
    assert base.bits_embedded == adaptive.bits_embedded  # capacity parity
    return [
        ComparisonRow(name, "pvd", net_bytes, base.psnr_db, base.violations),
        ComparisonRow(name, "apvd", net_bytes, adaptive.psnr_db, 0),
    ]


_HEADER = tuple(f.name for f in fields(ComparisonRow))


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

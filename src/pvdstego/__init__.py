"""Grayscale PGM steganography by pixel-value differencing.

Two schemes share one payload format and block order: the classic
difference-based embedder (``pvd``), whose stego pixels can leave the
8-bit range near 0/255, and an adaptive variant (``apvd``) that keeps
every pixel in range at identical capacity.
"""

from .apvd import (
    ApvdReport,
    apvd_embed_image,
    apvd_extract_image,
    embed_block_values,
    extract_block_value,
    mark_with_case,
    read_flag_and_adjust,
)
from .codec import (
    CapacityError,
    PayloadError,
    RangeTable,
    TruncatedPayload,
    build_range_table,
    deframe_payload,
    frame_payload,
)
from .imagery import GrayImage, PgmError, load_pgm, save_pgm, synthetic_cover
from .metrics import ComparisonRow, capacity, compare
from .pvd import (
    PvdResult,
    embed_pair,
    extract_pair,
    pvd_embed_image,
    pvd_extract_image,
    wide_window,
)

__version__ = "0.1.0"

__all__ = [
    "ApvdReport",
    "CapacityError",
    "ComparisonRow",
    "GrayImage",
    "PayloadError",
    "PgmError",
    "PvdResult",
    "RangeTable",
    "TruncatedPayload",
    "apvd_embed_image",
    "apvd_extract_image",
    "build_range_table",
    "capacity",
    "compare",
    "deframe_payload",
    "embed_block_values",
    "embed_pair",
    "extract_block_value",
    "extract_pair",
    "frame_payload",
    "load_pgm",
    "mark_with_case",
    "pvd_embed_image",
    "pvd_extract_image",
    "read_flag_and_adjust",
    "save_pgm",
    "synthetic_cover",
    "wide_window",
]

"""Grayscale PGM steganography by pixel-value differencing.

Two schemes share one payload format and block order: the classic
difference-based embedder (``pvd``), whose stego pixels can leave the
8-bit range near 0/255, and an adaptive variant (``apvd``) that keeps
every pixel in range at identical capacity.
"""

from .apvd import ApvdReport, apvd_embed_image, apvd_extract_image
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
from .metrics import ComparisonRow, capacity
from .pvd import PvdResult, pvd_embed_image, pvd_extract_image

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
    "deframe_payload",
    "frame_payload",
    "load_pgm",
    "pvd_embed_image",
    "pvd_extract_image",
    "save_pgm",
    "synthetic_cover",
]

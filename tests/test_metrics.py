import math

import pytest

from pvdstego.codec import build_range_table
from pvdstego.imagery import GrayImage, synthetic_cover
from pvdstego.metrics import (
    ComparisonRow,
    capacity,
    format_db,
    mse_psnr,
    rows_to_csv,
    rows_to_table,
)

TABLE = build_range_table()


def test_identical_sequences_are_infinite_psnr():
    mse, db = mse_psnr([5, 6, 7], [5, 6, 7])
    assert mse == 0.0
    assert math.isinf(db)


def test_full_scale_error_is_zero_db():
    mse, db = mse_psnr([0], [255])
    assert mse == 65025.0
    assert db == 0.0


def test_hand_computed_psnr():
    mse, db = mse_psnr([100, 100], [100, 105])
    assert mse == 12.5
    assert abs(db - 37.1617) < 1e-3


def test_mse_psnr_symmetric_and_wide_safe():
    # wide rasters (values outside [0, 255]) are legal inputs
    assert mse_psnr([254, 255], [251, 258]) == mse_psnr([251, 258], [254, 255])


def test_mse_psnr_length_mismatch():
    with pytest.raises(ValueError):
        mse_psnr([1, 2], [1])


def test_format_db():
    assert format_db(math.inf) == "inf"
    assert format_db(37.16170) == "37.16"


def test_capacity_flat_full_frame():
    flat = GrayImage(512, 512, bytes([77] * (512 * 512)))
    assert capacity(flat, TABLE) == (393216, 49148)


def test_capacity_clamps_tiny_covers_to_zero_net():
    tiny = GrayImage(2, 2, bytes([0, 255, 0, 255]))
    assert capacity(tiny, TABLE) == (14, 0)


def test_capacity_is_pure():
    cover = synthetic_cover("noise", width=16, height=16, seed=0)
    assert capacity(cover, TABLE) == capacity(cover, TABLE)


def test_rows_to_csv_serializes_inf():
    rows = [ComparisonRow("c", "pvd", 10, math.inf, 0)]
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "cover,method,capacity_bytes,psnr_db,violations"
    assert lines[1] == "c,pvd,10,inf,0"


def test_rows_to_table_contains_all_cells():
    rows = [ComparisonRow("gradient", "apvd", 49148, 41.25, 0)]
    text = rows_to_table(rows)
    for cell in ("cover", "gradient", "apvd", "49148", "41.25", "0"):
        assert cell in text

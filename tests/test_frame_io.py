import math

import numpy as np
import pytest

from toposhadow.errors import FormatError
from toposhadow.frame_io import (
    crop_top,
    load_dataset,
    load_image,
    load_labels,
    write_image,
    write_labels,
    write_map,
)


def test_load_p5(tmp_path):
    path = tmp_path / "f.pgm"
    path.write_bytes(b"P5\n4 2\n255\n" + bytes(range(8)))
    img = load_image(path)
    assert img.shape == (2, 4)
    assert img.tolist() == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_load_p2_zeros(tmp_path):
    path = tmp_path / "f.pgm"
    body = " ".join(["0"] * (600 * 300))
    path.write_text(f"P2\n600 300\n255\n{body}\n")
    img = load_image(path)
    assert img.shape == (300, 600)
    assert not img.any()


def test_load_rejects_wide_maxval(tmp_path):
    path = tmp_path / "f.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(FormatError, match="bit depth"):
        load_image(path)


def test_image_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    img = rng.integers(0, 256, size=(37, 53)).astype(np.uint8)
    path = tmp_path / "r.pgm"
    write_image(img, path)
    assert np.array_equal(load_image(path), img)


def test_crop_top():
    img = np.arange(4).reshape(2, 2) + 1
    assert crop_top(img, 1).tolist() == [[3, 4]]
    assert np.array_equal(crop_top(img, 0), img)
    big = np.zeros((300, 600), dtype=np.uint8)
    assert crop_top(big, 100).shape == (200, 600)
    with pytest.raises(ValueError):
        crop_top(img, 2)


def test_load_labels(tmp_path):
    path = tmp_path / "f.labels"
    path.write_text("0011\n")
    assert load_labels(path, expected_width=4).tolist() == [0, 0, 1, 1]


def test_load_labels_bad_character(tmp_path):
    path = tmp_path / "f.labels"
    path.write_text("2\n")
    with pytest.raises(FormatError, match="invalid label character"):
        load_labels(path)


def test_load_labels_length_mismatch(tmp_path):
    path = tmp_path / "f.labels"
    path.write_text("0" * 599 + "\n")
    with pytest.raises(FormatError, match="length mismatch"):
        load_labels(path, expected_width=600)


def test_labels_roundtrip(tmp_path):
    labels = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    path = tmp_path / "r.labels"
    write_labels(labels, path)
    assert np.array_equal(load_labels(path, expected_width=5), labels)


def test_write_map_linear(tmp_path):
    field = np.array([[0.0, math.log(2.0)]])
    path = tmp_path / "m.pgm"
    write_map(field, path)
    assert load_image(path).tolist() == [[0, 255]]
    # an all-zero field stays all zero rather than dividing by zero
    write_map(np.zeros((2, 2)), path)
    assert not load_image(path).any()


def test_write_map_csv(tmp_path):
    field = np.array([[0.5, 1.5], [2.5, 0.25]])
    path = tmp_path / "m.csv"
    write_map(field, path, mode="csv-float")
    lines = path.read_text().splitlines()
    assert lines[0] == "# max=2.5"
    assert len(lines) == 3
    parsed = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert parsed == field.tolist()


def test_write_map_csv_bytes_are_each_values_repr(tmp_path):
    # every cell is repr(float(v)), whether or not its value repeats:
    # -0.0 and 0.0, subnormals, the extremes and a repeated row
    tiny = np.nextafter(0.0, 1.0)
    rng = np.random.default_rng(41)
    rows = [
        [0.0, -0.0, 0.0, -0.0, tiny, -tiny],
        [tiny * 3, 2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308, 0.1],
        [0.1, 0.1, 1 / 3, 1 / 3, 0.0, 1e-320],
    ]
    for field in (
        np.array(rows),
        np.array(rows)[:, ::-1],  # not contiguous
        rng.choice([0.0, -0.0, 0.5, 1 / 7, tiny], size=(40, 37)),
        rng.uniform(-1.0, 1.0, size=(9, 11)),
        np.zeros((3, 0)),
        np.zeros((0, 4)),
    ):
        path = tmp_path / "m.csv"
        write_map(field, path, mode="csv-float")
        peak = float(field.max()) if field.size else 0.0
        expected = f"# max={peak!r}\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in field
        )
        assert path.read_bytes() == expected.encode("ascii")


def test_write_map_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        write_map(np.array([[0.0, math.nan]]), tmp_path / "m.pgm")


def test_load_dataset(tmp_path):
    img = np.zeros((5, 4), dtype=np.uint8)
    for fid in ("b", "a"):
        write_image(img, tmp_path / f"{fid}.pgm")
        write_labels(np.zeros(4, dtype=np.uint8), tmp_path / f"{fid}.labels")
    data = load_dataset(tmp_path)
    assert list(data) == ["a", "b"]  # sorted by frame id


def test_load_dataset_missing_sidecar(tmp_path):
    write_image(np.zeros((5, 4), dtype=np.uint8), tmp_path / "a.pgm")
    with pytest.raises(FormatError, match="a.labels"):
        load_dataset(tmp_path)

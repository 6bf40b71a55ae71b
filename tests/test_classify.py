from dataclasses import fields

import numpy as np
import pytest

from toposhadow import _kernels
from toposhadow.classify import (
    BACK_END_FIELDS,
    CLOUD_FIELDS,
    TEXTURE_FIELDS,
    back_end,
    classify_scanlines,
    detect,
    salient_cloud,
    scanline_counts,
    texture,
)
from toposhadow.saliency import Params
from toposhadow.synth import PhantomSpec, synth_phantom
from toposhadow.topology import Complex, confidence_map, mean_confidence, occurrence_map


def _cx(vertices, triangles):
    return Complex(
        vertices=np.asarray(vertices, dtype=np.int64),
        triangles=np.asarray(triangles, dtype=np.int32).reshape(-1, 3),
    )


def test_counts_no_triangles():
    cx = _cx([[0, 0]], np.zeros((0, 3)))
    assert np.array_equal(scanline_counts(cx, 12), np.zeros(12, dtype=np.int64))


def test_counts_single_extent():
    cx = _cx([[0, 10], [5, 50], [9, 30]], [[0, 1, 2]])
    counts = scanline_counts(cx, 60)
    expect = np.zeros(60, dtype=counts.dtype)
    expect[10:51] = 1
    assert np.array_equal(counts, expect)


def test_counts_overlapping_extents():
    cx = _cx(
        [[0, 0], [0, 20], [5, 10], [0, 15], [0, 40], [5, 25]],
        [[0, 1, 2], [3, 4, 5]],
    )
    counts = scanline_counts(cx, 50)
    assert counts[:15].max() <= 1
    assert np.all(counts[15:21] == 2)
    assert np.all(counts[21:41] == 1)
    assert not counts[41:].any()


def test_classify_thresholds():
    counts = np.array([0, 1, 2, 3])
    labels = classify_scanlines(counts, 2)
    # strictly-below rule: a count equal to tau is visible
    assert labels.tolist() == [1, 1, 0, 0]
    assert labels.dtype == np.uint8
    assert classify_scanlines(np.zeros(5, dtype=np.int64), 2).tolist() == [1] * 5


def test_detect_constant_frames():
    for value in (0, 57, 255):
        img = np.full((300, 600), value, dtype=np.uint8)
        res = detect(img)
        assert res.cloud_size == 0
        assert res.triangle_count == 0
        assert res.labels.tolist() == [1] * 600
        assert res.mean_confidence == 0.0
        assert not res.confidence.any()


def test_detect_split_phantom():
    # textured left half, flat-dark right half: at least 95% of the
    # columns must match the construction labels
    spec = PhantomSpec(shadow_intervals=((300, 599),), seed=42)
    img, truth = synth_phantom(spec)
    res = detect(img)
    agree = float(np.mean(res.labels == truth))
    assert agree >= 0.95, agree


def test_detect_shapes():
    spec = PhantomSpec(seed=1)
    img, _ = synth_phantom(spec)
    p = Params()
    res = detect(img, p)
    assert res.labels.shape == (600,)
    assert res.confidence.shape == (300 - p.crop_rows, 600)
    assert res.simplex_counts.shape == (600,)
    assert res.cloud_size > 0
    assert res.triangle_count >= 0


def test_detect_counts_consistent():
    spec = PhantomSpec(seed=2)
    img, _ = synth_phantom(spec)
    res = detect(img)
    assert np.array_equal(res.labels, (res.simplex_counts < 2).astype(np.uint8))


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_detect_confidence_is_the_two_step_path(backend, monkeypatch):
    # detect writes the confidence straight from the rasterized triangles;
    # it must give the bytes of the public occurrence and confidence maps,
    # also at a triangle-heavy epsilon: 200 gives about 21,000 triangles,
    # a table past numpy's 8,192-element cast buffer and counts past 255
    try:
        impl = _kernels.get_backend(backend)
    except ImportError:
        pytest.skip("compiled core not built")
    for name in _kernels.KERNELS:
        monkeypatch.setattr(_kernels, name, getattr(impl, name))
    img, _ = synth_phantom(PhantomSpec(seed=123))
    for p in (Params(), Params(epsilon=200.0)):
        res = detect(img, p)
        counts = occurrence_map(res.triangle_complex, img.shape[1], img.shape[0] - p.crop_rows)
        conf = confidence_map(counts)
        assert res.confidence.tobytes() == conf.tobytes(), p.epsilon
        assert res.mean_confidence == mean_confidence(conf), p.epsilon
    assert counts.max() > 255


# ---------------------------------------------------------------- stages


class _Reads:
    """Params stand-in that records which fields are read."""

    def __init__(self, params):
        self._params = params
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._params, name)


def test_every_field_in_exactly_one_stage():
    names = [f.name for f in fields(Params)]
    stages = list(TEXTURE_FIELDS) + list(CLOUD_FIELDS) + list(BACK_END_FIELDS)
    assert sorted(stages) == sorted(names)


def test_stages_read_only_their_fields():
    img, _ = synth_phantom(PhantomSpec(seed=3))
    tex = _Reads(Params())
    saliency = texture(img, tex)
    assert tex.read == set(TEXTURE_FIELDS)
    cloud = _Reads(Params())
    sparse = salient_cloud(saliency, cloud)
    assert cloud.read == set(CLOUD_FIELDS)
    back = _Reads(Params())
    back_end(sparse, img.shape[1], back)
    assert back.read == set(BACK_END_FIELDS)


def test_detect_is_the_three_stages():
    img, _ = synth_phantom(PhantomSpec(seed=4))
    p = Params(epsilon=50.0)
    res = detect(img, p)
    cx, counts, labels = back_end(salient_cloud(texture(img, p), p), img.shape[1], p)
    assert np.array_equal(res.triangle_complex.vertices, cx.vertices)
    assert np.array_equal(res.triangle_complex.triangles, cx.triangles)
    assert np.array_equal(res.simplex_counts, counts)
    assert np.array_equal(res.labels, labels)
    assert res.cloud_size == len(cx.vertices)
    assert res.triangle_count == len(cx.triangles)


def test_texture_casts_after_cropping():
    # the frame is cropped in its own dtype and cast into the stack; the
    # deviation map is the same bytes as for a float64 frame, and strings
    # and objects still convert as np.asarray(img, dtype=np.float64) does
    img, _ = synth_phantom(PhantomSpec(seed=6))
    assert img.dtype == np.uint8
    p = Params()
    expected = texture(img.astype(np.float64), p).tobytes()
    for frame in (img, img.astype(np.int64), img.astype(str), img.astype(object)):
        assert texture(frame, p).tobytes() == expected, frame.dtype

"""The compiled kernels must be bit-identical to the pure numpy twins:
same values, same emission order, same cap behaviour.  Speed is allowed
to differ; nothing else is.
"""

import platform
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toposhadow._kernels import _pure
from toposhadow.errors import TriangleCapError
from toposhadow.saliency import gaussian_kernel_1d, std_map

_core = pytest.importorskip("toposhadow._kernels._core")


def random_cloud(rng, n, extent=200):
    pts = np.stack(
        [rng.integers(0, extent, n), rng.integers(0, extent, n)], axis=1
    ).astype(np.int64)
    return np.unique(pts, axis=0)


def test_correlate_identical():
    rng = np.random.default_rng(101)
    # the compiled axis-0 pass works in bands of 16 columns: widths below,
    # at and past a band edge, with and without a narrower last band
    shapes = [(45, 60)] * 6 + [(45, 15), (45, 32), (3, 16), (1, 17), (70, 1)]
    for sigma in (0.2, 1.8, 5.0, 20.0):
        weights = gaussian_kernel_1d(sigma)
        for shape in shapes:
            img = rng.uniform(0.0, 255.0, size=shape)
            for axis in (0, 1):
                b = _pure.correlate1d_replicate(img, weights, axis)
                for fn in (_core.correlate1d_replicate, _core._baseline_correlate1d_replicate):
                    assert np.array_equal(fn(img, weights, axis), b), (sigma, axis)


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.integers(1, 40),
    st.integers(1, 70),
    st.sampled_from([0.2, 1.8, 5.0, 20.0]),
    st.sampled_from([0, 1]),
    st.integers(0, 2**32 - 1),
)
def test_correlate_identical_property(h, w, sigma, axis, seed):
    # heights below the radius clamp most taps; widths cross the 16, 32
    # and 48 column band edges of the compiled axis-0 pass.  The baseline
    # entry runs the 2-lane instance, which an AVX-512 host would not pick.
    img = np.random.default_rng(seed).uniform(-255.0, 255.0, size=(h, w))
    weights = gaussian_kernel_1d(sigma)
    b = _pure.correlate1d_replicate(img, weights, axis)
    assert np.array_equal(_core.correlate1d_replicate(img, weights, axis), b)
    assert np.array_equal(_core._baseline_correlate1d_replicate(img, weights, axis), b)


def test_simd_names_the_instance():
    # Linux lists avx512f among a CPU's flags only where the kernel enables it
    try:
        flags = Path("/proc/cpuinfo").read_text().split()
    except OSError:
        flags = None
    if platform.machine() == "x86_64" and flags is not None:
        assert _core.SIMD == ("avx512f" if "avx512f" in flags else "baseline")
    else:
        assert _core.SIMD in ("avx512f", "baseline")


def dense_std(stack):
    """The deviation map as plain numpy reductions over the whole stack."""
    mean = stack.mean(axis=0)
    dev = stack - mean[None, :, :]
    return np.sqrt((dev * dev).mean(axis=0))


def assert_stack_std_identical(stack):
    a = _core.stack_std(stack)
    b = _pure.stack_std(stack)
    assert np.array_equal(a, b)
    # numpy sums layer by layer except over a one-pixel stack of 8 or more
    # layers, where it goes pairwise; std_map keeps numpy's result there
    if stack.shape[1] * stack.shape[2] != 1:
        assert np.array_equal(a, dense_std(stack))
    assert np.array_equal(std_map(stack), dense_std(stack))
    assert a.shape == stack.shape[1:] and a.dtype == np.float64


def test_stack_std_identical():
    rng = np.random.default_rng(505)
    for layers in range(2, 9):
        # planes of 15, 16, 17 and 33 pixels: below, at and past the
        # compiled kernel's 16-pixel block, and a tail after two blocks
        for shape in ((1, 1), (7, 1), (1, 9), (3, 5), (4, 4), (1, 17), (3, 11), (13, 17), (40, 60)):
            stack = rng.uniform(0.0, 255.0, size=(layers,) + shape)
            assert_stack_std_identical(stack)
            # a constant stack of 8-bit values deviates by exactly 0
            layer = rng.integers(0, 256, size=(1,) + shape).astype(np.float64)
            const = np.repeat(layer, layers, axis=0)
            assert_stack_std_identical(const)
            assert not _core.stack_std(const).any()
    # one-pixel stacks deep enough for numpy's pairwise sum
    for layers in range(8, 20):
        assert_stack_std_identical(rng.uniform(-1e6, 1e6, size=(layers, 1, 1)))
    # an empty frame, and the validation both backends share
    assert_stack_std_identical(np.zeros((3, 0, 4)))
    for bad in (np.zeros((0, 2, 2)), np.zeros((2, 2))):
        for mod in (_core, _pure):
            with pytest.raises(ValueError):
                mod.stack_std(bad)


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.integers(2, 8),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 255.0, 1e6]),
)
def test_stack_std_identical_property(layers, h, w, seed, scale):
    rng = np.random.default_rng(seed)
    assert_stack_std_identical(rng.uniform(-scale, scale, size=(layers, h, w)))


def dense_at_points(img, weights, pts, col0):
    """The dense axis-1 pass of the frame slice, gathered at the points."""
    dense = _pure.correlate1d_replicate(img, weights, 1)
    return dense[pts[:, 0], pts[:, 1] - col0]


def assert_points_identical(img, weights, pts, col0):
    a = _core.correlate1d_points(img, weights, pts, col0)
    b = _pure.correlate1d_points(img, weights, pts, col0)
    assert np.array_equal(a, b)
    assert np.array_equal(a, dense_at_points(img, weights, pts, col0))
    assert a.shape == (len(pts),) and a.dtype == np.float64


def test_correlate_points_identical():
    rng = np.random.default_rng(606)
    for sigma in (0.2, 1.8, 5.0, 20.0):
        weights = gaussian_kernel_1d(sigma)
        # 1-column and narrow frames: the radius reaches past both edges
        for h, w in ((1, 1), (12, 1), (5, 9), (30, 70)):
            img = rng.uniform(0.0, 1.0, size=(h, w))
            for col0 in (0, 13):
                rows = rng.integers(0, h, 40)
                cols = rng.integers(0, w, 40)
                # the first and last column are always among the points
                cols[:2] = (0, w - 1)
                pts = np.stack([rows, cols + col0], axis=1)
                assert_points_identical(img, weights, pts, col0)
    # no points at all, and a radius-0 kernel, which copies
    img = rng.uniform(0.0, 1.0, size=(4, 5))
    assert_points_identical(img, gaussian_kernel_1d(1.0), np.zeros((0, 2), np.int64), 0)
    assert_points_identical(img, np.ones(1), np.array([[1, 2], [3, 4]]), 0)


def test_correlate_points_rejects_point_outside_the_image():
    img = np.zeros((4, 5))
    weights = gaussian_kernel_1d(1.0)
    for pts, col0 in (([[4, 0]], 0), ([[0, 5]], 0), ([[-1, 0]], 0), ([[0, 2]], 3), ([[0, 8]], 3)):
        for mod in (_core, _pure):
            with pytest.raises(IndexError):
                mod.correlate1d_points(img, weights, np.array(pts), col0)


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.integers(1, 8),
    st.integers(1, 12),
    st.integers(0, 20),
    st.integers(1, 30),
    st.sampled_from([0.2, 0.9, 3.0, 20.0]),
    st.integers(0, 2**32 - 1),
)
def test_correlate_points_identical_property(h, w, col0, n, sigma, seed):
    rng = np.random.default_rng(seed)
    img = rng.uniform(-2.0, 2.0, size=(h, w))
    pts = np.stack([rng.integers(0, h, n), rng.integers(0, w, n) + col0], axis=1)
    assert_points_identical(img, gaussian_kernel_1d(sigma), pts, col0)


def test_thin_identical():
    rng = np.random.default_rng(202)
    cases = []
    for _ in range(12):
        cloud = random_cloud(rng, int(rng.integers(5, 300)))
        cases.append((cloud, rng.uniform(15.0, 35.0, size=len(cloud))))
    # duplicates, negative coordinates and a shuffled order, each against
    # zero, negative, mixed integer-tie, 5.0 and sqrt(5) spacings
    cloud = random_cloud(rng, 150, extent=40)
    for pts in (np.repeat(cloud, 2, axis=0), cloud - 20, rng.permutation(cloud)):
        n = len(pts)
        for spacing in (
            np.zeros(n),
            -rng.uniform(0.0, 9.0, size=n),
            rng.integers(-2, 8, size=n).astype(np.float64),
            np.full(n, 5.0),
            np.full(n, np.sqrt(5.0)),
        ):
            cases.append((pts, spacing))
    for trial, (pts, spacing) in enumerate(cases):
        a = _core.thin_points(pts, spacing)
        b = _pure.thin_points(pts, spacing)
        assert np.array_equal(a, b), trial


def test_rips_identical():
    rng = np.random.default_rng(303)
    for trial in range(12):
        cloud = random_cloud(rng, int(rng.integers(3, 120)))
        eps = float(rng.uniform(10.0, 90.0))
        a = _core.rips_triangles(cloud, eps, 2_000_000)
        b = _pure.rips_triangles(cloud, eps, 2_000_000)
        assert np.array_equal(a, b), trial
        assert a.dtype == b.dtype


def test_rips_exact_tie_distance():
    # a pair at exactly the threshold: both backends must agree on the
    # inclusive boundary
    cloud = np.array([[0, 0], [0, 60], [30, 30]], dtype=np.int64)
    for eps in (60.0, np.nextafter(60.0, 0.0)):
        a = _core.rips_triangles(cloud, eps, 100)
        b = _pure.rips_triangles(cloud, eps, 100)
        assert np.array_equal(a, b)


def test_rips_cap_parity():
    cloud = np.array([[0, c] for c in range(10)], dtype=np.int64)  # 120 triangles
    for cap in (119, 120, 121):
        outcomes = []
        for mod in (_core, _pure):
            try:
                tris = mod.rips_triangles(cloud, 60.0, cap)
                outcomes.append(("ok", len(tris)))
            except TriangleCapError as exc:
                outcomes.append(("raise", exc.cap))
        assert outcomes[0] == outcomes[1], cap


def test_occurrence_identical():
    rng = np.random.default_rng(404)
    cases = []
    for _ in range(12):
        cloud = random_cloud(rng, int(rng.integers(4, 40)), extent=60)
        cases.append((cloud, _pure.rips_triangles(cloud, 25.0, 2_000_000), 70, 70))
    # flat, vertical and repeated-vertex triangles, and one-row and
    # one-column frames, where every triangle is flat or vertical
    shapes = np.array(
        [[3, 1], [3, 7], [3, 4], [0, 5], [8, 5], [4, 5], [2, 2], [2, 2], [6, 7],
         [1, 1], [1, 8], [7, 4], [1, 2], [7, 2], [4, 8], [5, 5], [5, 5], [5, 5]],
        dtype=np.int64,
    )
    cases.append((shapes, np.arange(18).reshape(6, 3), 9, 9))
    for h, w in ((1, 30), (30, 1), (9, 9)):
        pts = np.stack([rng.integers(0, h, 12), rng.integers(0, w, 12)], axis=1)
        cases.append((pts, rng.integers(0, 12, size=(60, 3)), h, w))
    for trial, (pts, tris, h, w) in enumerate(cases):
        a = _core.occurrence_counts(pts, tris, h, w)
        b = _pure.occurrence_counts(pts, tris, h, w)
        assert np.array_equal(a, b), trial
        assert a.dtype == b.dtype


def test_occurrence_rejects_negative_index():
    cloud = np.array([[0, 0], [1, 1], [2, 2]], dtype=np.int64)
    for mod in (_core, _pure):
        with pytest.raises(IndexError):
            mod.occurrence_counts(cloud, np.array([[0, 1, -1]]), 5, 5)


def test_occurrence_identical_degenerate():
    # horizontally and vertically collinear triples plus a sliver
    cloud = np.array(
        [[2, 1], [2, 5], [2, 9], [1, 4], [5, 4], [9, 4], [0, 0], [1, 2], [2, 5]],
        dtype=np.int64,
    )
    tris = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8]], dtype=np.int32)
    a = _core.occurrence_counts(cloud, tris, 12, 12)
    b = _pure.occurrence_counts(cloud, tris, 12, 12)
    assert np.array_equal(a, b)


def test_full_pipeline_identical(monkeypatch):
    from toposhadow.saliency import Params
    from toposhadow.synth import PhantomSpec, synth_phantom
    from toposhadow import _kernels, classify

    img, _ = synth_phantom(PhantomSpec(seed=17))
    res_default = classify.detect(img, Params())
    # re-run with the pure backend forced through every dispatch name
    pure = _kernels.get_backend("pure")
    for name in _kernels.KERNELS:
        monkeypatch.setattr(_kernels, name, getattr(pure, name))
    res_pure = classify.detect(img, Params())
    # and on the compiled core's baseline-width axis-0 pass
    for name in _kernels.KERNELS:
        monkeypatch.setattr(_kernels, name, getattr(_core, name))
    monkeypatch.setattr(_kernels, "correlate1d_replicate", _core._baseline_correlate1d_replicate)
    res_baseline = classify.detect(img, Params())

    for res in (res_pure, res_baseline):
        assert np.array_equal(res_default.labels, res.labels)
        assert np.array_equal(res_default.confidence, res.confidence)
        assert res_default.mean_confidence == res.mean_confidence
        assert res_default.cloud_size == res.cloud_size
        assert res_default.triangle_count == res.triangle_count

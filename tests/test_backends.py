"""The compiled kernels must be bit-identical to the pure numpy twins:
same values, same emission order, same cap behaviour.  Speed is allowed
to differ; nothing else is.
"""

import contextlib
import os
import platform
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toposhadow import _kernels, classify
from toposhadow._kernels import _pure
from toposhadow.errors import TriangleCapError
from toposhadow.saliency import Params, deviation_map, filter_stack, gaussian_kernel_1d, std_map

_core = pytest.importorskip("toposhadow._kernels._core")

# every entry to the dense correlation: both backends and the compiled
# core's baseline-width instance
CORRELATE = {
    "compiled": _core.correlate1d_replicate,
    "baseline": _core._baseline_correlate1d_replicate,
    "pure": _pure.correlate1d_replicate,
}


@contextlib.contextmanager
def on_backend(impl):
    """Point every dispatch name at `impl` for a while."""
    saved = {name: getattr(_kernels, name) for name in _kernels.KERNELS}
    for name in _kernels.KERNELS:
        setattr(_kernels, name, getattr(impl, name))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(_kernels, name, fn)


def random_cloud(rng, n, extent=200):
    pts = np.stack(
        [rng.integers(0, extent, n), rng.integers(0, extent, n)], axis=1
    ).astype(np.int64)
    return np.unique(pts, axis=0)


def test_correlate_identical():
    rng = np.random.default_rng(101)
    # the compiled axis-0 pass works in bands of 16 columns: widths below,
    # at and past a band edge, with and without a narrower last band; the
    # last two frames split the pure pass into default-size row blocks
    # (234 rows and 27 rows) with a short last block
    shapes = [(45, 60)] * 6 + [(45, 15), (45, 32), (3, 16), (1, 17), (70, 1), (300, 70), (120, 600)]
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
    st.integers(1, 300),
    st.integers(1, 70),
    st.sampled_from([0.2, 1.8, 5.0, 20.0]),
    st.sampled_from([0, 1]),
    st.integers(0, 2**32 - 1),
)
def test_correlate_identical_property(h, w, sigma, axis, seed):
    # heights below the radius clamp most taps, and frames of more than
    # _pure._ROW_BLOCK pixels split the pure pass into row blocks; widths
    # cross the 16, 32 and 48 column band edges of the compiled axis-0
    # pass.  The baseline entry runs the 2-lane instance, which an
    # AVX-512 host would not pick.
    img = np.random.default_rng(seed).uniform(-255.0, 255.0, size=(h, w))
    weights = gaussian_kernel_1d(sigma)
    b = _pure.correlate1d_replicate(img, weights, axis)
    assert np.array_equal(_core.correlate1d_replicate(img, weights, axis), b)
    assert np.array_equal(_core._baseline_correlate1d_replicate(img, weights, axis), b)


@pytest.mark.parametrize("entry", sorted(CORRELATE))
def test_correlate_out_matches_return(entry):
    fn = CORRELATE[entry]
    rng = np.random.default_rng(111)
    kernels = [np.ones(1)] + [gaussian_kernel_1d(s) for s in (0.2, 1.8, 5.0)]
    for shape in ((45, 60), (1, 17), (70, 1), (1, 1), (3, 16)):
        img = rng.uniform(-255.0, 255.0, size=shape)
        for weights in kernels:
            for axis in (0, 1):
                returned = fn(img, weights, axis)
                out = np.full(shape, np.nan)
                assert fn(img, weights, axis, out=out) is out
                assert out.tobytes() == returned.tobytes(), (shape, len(weights), axis)
                assert out.tobytes() == _pure.correlate1d_replicate(img, weights, axis).tobytes()


@pytest.mark.parametrize("entry", sorted(CORRELATE))
def test_correlate_out_rejects_bad_destination(entry):
    fn = CORRELATE[entry]
    weights = gaussian_kernel_1d(1.8)
    img = np.random.default_rng(112).uniform(0.0, 255.0, size=(4, 5))
    read_only = np.empty((4, 5))
    read_only.flags.writeable = False
    shared = np.zeros((8, 5))  # rows 0-3 are the input, rows 2-5 the output
    bad = [
        (img, np.empty((5, 4))),
        (img, np.empty((4, 6))),
        (img, np.empty(20)),
        (img, np.empty((4, 5), dtype=np.float32)),
        (img, np.empty((4, 5), order="F")),
        (img, np.empty((4, 10))[:, ::2]),
        (img, read_only),
        (img, img),
        (shared[:4], shared[2:6]),
        (img, [[0.0] * 5] * 4),
    ]
    for axis in (0, 1):
        for src, out in bad:
            with pytest.raises(ValueError):
                fn(src, weights, axis, out=out)
    # rows next to the input, sharing no byte with it, are fine
    fn(shared[:4], weights, 0, out=shared[4:])


def test_filter_stack_allocates_one_scratch_frame(monkeypatch):
    monkeypatch.setattr(_kernels, "correlate1d_replicate", _core.correlate1d_replicate)
    img = np.random.default_rng(113).uniform(0.0, 255.0, size=(200, 600))
    params = Params()
    tracemalloc.start()
    try:
        stack = filter_stack(img, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack.shape == (params.stack_size, 200, 600)
    assert peak < stack.nbytes + 2 * img.nbytes, (peak, stack.nbytes, img.nbytes)


def test_pure_dense_passes_allocate_block_buffers(monkeypatch):
    # the pure twins of the test above: one padded copy and three row-block
    # buffers per correlation pass, two row-block buffers in stack_std
    monkeypatch.setattr(_kernels, "correlate1d_replicate", _pure.correlate1d_replicate)
    monkeypatch.setattr(_kernels, "stack_std", _pure.stack_std)
    img = np.random.default_rng(114).uniform(0.0, 255.0, size=(200, 600))
    tracemalloc.start()
    try:
        stack = filter_stack(img, Params())
        stack_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        s = std_map(stack)
        std_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert stack_peak < stack.nbytes + 3 * img.nbytes, (stack_peak, stack.nbytes, img.nbytes)
    assert s.shape == img.shape
    assert std_peak < 1.5 * img.nbytes, (std_peak, img.nbytes)


# pure row-block sizes, in doubles: one-row blocks, 7 doubles (a few rows
# of a narrow frame) and 250 doubles, which gives a 60-column frame
# 4-row blocks and its 45 rows a short last block
SMALL_BLOCKS = (1, 7, 250)


@pytest.mark.parametrize("block", SMALL_BLOCKS)
def test_correlate_identical_across_row_blocks(block, monkeypatch):
    monkeypatch.setattr(_pure, "_ROW_BLOCK", block)
    rng = np.random.default_rng(121)
    # sigma 20 reaches past every one of these frames, and past every
    # block; an empty frame gives an empty result on both backends
    for sigma in (0.2, 1.8, 20.0):
        weights = gaussian_kernel_1d(sigma)
        for shape in ((45, 60), (71, 1), (45, 3), (1, 17), (1, 1), (0, 5), (5, 0)):
            img = rng.uniform(-255.0, 255.0, size=shape)
            for axis in (0, 1):
                expected = _core.correlate1d_replicate(img, weights, axis).tobytes()
                assert _pure.correlate1d_replicate(img, weights, axis).tobytes() == expected
                out = np.full(shape, np.nan)
                assert _pure.correlate1d_replicate(img, weights, axis, out=out) is out
                assert out.tobytes() == expected, (sigma, shape, axis)


@pytest.mark.parametrize("block", SMALL_BLOCKS)
def test_stack_std_identical_across_row_blocks(block, monkeypatch):
    monkeypatch.setattr(_pure, "_ROW_BLOCK", block)
    rng = np.random.default_rng(122)
    for layers in range(2, 9):
        for shape in ((45, 60), (71, 1), (45, 3), (1, 17)):
            stack = rng.uniform(-255.0, 255.0, size=(layers,) + shape)
            assert _pure.stack_std(stack).tobytes() == _core.stack_std(stack).tobytes()


def test_dispatch_table_covers_both_backends(monkeypatch):
    for name in _kernels.KERNELS:
        assert callable(getattr(_core, name)) and callable(getattr(_pure, name)), name
    img = np.arange(12.0).reshape(3, 4)
    for mod in (_core, _pure):
        out = np.empty_like(img)
        assert mod.correlate1d_replicate(img, gaussian_kernel_1d(1.0), 0, out=out) is out
    # detect calls the kernels through their dispatch names, so a wrapper
    # installed there sees every call: one deviation map, and one axis-0
    # correlation for the spacing field; filter_stack, the reference, makes
    # two correlation calls per smoothed layer
    calls = []

    def counted(name):
        inner = getattr(_kernels, name)

        def call(*args, **kwargs):
            calls.append((name, args[2]) if name == "correlate1d_replicate" else name)
            return inner(*args, **kwargs)

        return call

    for name in ("correlate1d_replicate", "deviation_map"):
        monkeypatch.setattr(_kernels, name, counted(name))
    from toposhadow.synth import PhantomSpec, synth_phantom

    img, _ = synth_phantom(PhantomSpec(seed=5))
    classify.detect(img, Params())
    assert calls == ["deviation_map", ("correlate1d_replicate", 0)]
    calls.clear()
    filter_stack(img, Params())
    assert calls == [("correlate1d_replicate", 0), ("correlate1d_replicate", 1)] * (
        Params().stack_size - 1
    )


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
    # the unclamped tap loop takes a point whose taps all stay inside the
    # slice: exactly `radius` columns from an edge, one column inside and
    # one outside that bound, on both sides
    for sigma in (0.2, 1.8, 5.0, 20.0):
        weights = gaussian_kernel_1d(sigma)
        radius = (len(weights) - 1) // 2
        for w in (2 * radius + 1, 2 * radius + 2, 2 * radius + 9):
            img = rng.uniform(0.0, 1.0, size=(7, w))
            cols = [radius - 1, radius, radius + 1, w - 2 - radius, w - 1 - radius, w - radius]
            cols = [c for c in cols if 0 <= c < w]
            for col0 in (0, 13):
                pts = np.array([(r, c + col0) for r in range(7) for c in cols])
                assert_points_identical(img, weights, pts, col0)
        # a slice narrower than 2 radius + 1: every point clamps
        img = rng.uniform(0.0, 1.0, size=(5, 2 * radius))
        pts = np.array([(r, c) for r in range(5) for c in range(2 * radius)])
        assert_points_identical(img, weights, pts, 0)
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
    # duplicates, negative coordinates, and rows out of order (shuffled,
    # reversed, and sorted but for one swapped pair, which pure scans to
    # the end instead of by row window), each against zero, negative,
    # mixed integer-tie, 5.0 and sqrt(5) spacings
    cloud = random_cloud(rng, 150, extent=40)
    swapped = cloud.copy()
    i = int(np.flatnonzero(np.diff(cloud[:, 0]))[len(cloud) // 8])  # rows i, i + 1 differ
    swapped[[i, i + 1]] = swapped[[i + 1, i]]
    for pts in (np.repeat(cloud, 2, axis=0), cloud - 20, rng.permutation(cloud), cloud[::-1], swapped):
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
    # coincident points, at distance 0 from each other
    cloud = np.repeat(random_cloud(rng, 25, extent=40), 2, axis=0)
    for eps in (1e-3, 5.0, 20.0):
        a = _core.rips_triangles(cloud, eps, 2_000_000)
        assert np.array_equal(a, _pure.rips_triangles(cloud, eps, 2_000_000)), eps
        assert len(a) or eps < 5.0


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


@settings(max_examples=100, deadline=None, database=None)
@given(
    st.integers(2, 48),
    st.integers(1, 40),
    st.sampled_from(["noise", "constant", "bands"]),
    st.sampled_from(["none", "some", "all but one"]),
    st.integers(0, 2**32 - 1),
)
def test_full_pipeline_identical_property(h, w, kind, crop, seed):
    # 1-column frames, crop_rows = H - 1 (one row left) and constant frames,
    # through every dispatch name on each backend
    rng = np.random.default_rng(seed)
    if kind == "noise":
        img = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
    elif kind == "constant":
        img = np.full((h, w), rng.integers(0, 256), dtype=np.uint8)
    else:
        img = np.repeat(rng.integers(0, 256, size=(1, w)), h, axis=0).astype(np.uint8)
    crop_rows = {"none": 0, "some": int(rng.integers(0, h)), "all but one": h - 1}[crop]
    params = Params(crop_rows=crop_rows, gamma=float(rng.choice([0.5, 4.0, 30.0])))
    results = []
    for impl in (_core, _pure):
        with on_backend(impl):
            results.append(classify.detect(img, params))
    a, b = results
    assert np.array_equal(a.labels, b.labels)
    assert a.confidence.tobytes() == b.confidence.tobytes()
    assert a.mean_confidence == b.mean_confidence
    assert np.array_equal(a.simplex_counts, b.simplex_counts)
    assert np.array_equal(a.triangle_complex.vertices, b.triangle_complex.vertices)
    assert np.array_equal(a.triangle_complex.triangles, b.triangle_complex.triangles)


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.integers(2, 40),
    st.integers(1, 24),
    st.sampled_from([1.0, 2.0, 5.0, 60.0, 1e-3, 1e300]),
    st.sampled_from([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0), (15.0, 20.0), (0.0, 1e6), (1e6, 0.0)]),
    st.sampled_from([(1.8, 20.0), (13.0, 40.0), (40.0, 0.5)]),
    st.sampled_from([7, _pure._ROW_BLOCK]),
    st.integers(0, 2**32 - 1),
)
def test_detect_identical_at_ties_and_extremes(h, w, epsilon, phi, sigmas, block, seed):
    # integer epsilon and an integer phi1 with phi2 = 0 put distances on the
    # inclusive boundary of both the triangle build and the thinning;
    # sigma_u = 13 and 40 (radius 39 and 120) and sigma_w = 20 and 40 reach
    # past the frame's height and past the rows of a 7-double pure block
    img = np.random.default_rng(seed).integers(0, 256, size=(h, w)).astype(np.uint8)
    (phi1, phi2), (sigma_u, sigma_w) = phi, sigmas
    params = Params(
        sigma_u=sigma_u, sigma_w=sigma_w, epsilon=epsilon, phi1=phi1, phi2=phi2,
        gamma=0.5, crop_rows=0, triangle_cap=20_000,
    )
    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_pure, "_ROW_BLOCK", block)
        for impl in (_core, _pure):
            with on_backend(impl):
                try:
                    outcomes.append(classify.detect(img, params))
                except TriangleCapError as exc:
                    outcomes.append(exc.cap)
    a, b = outcomes
    if not isinstance(a, classify.DetectionResult):
        assert a == b
        return
    assert np.array_equal(a.labels, b.labels)
    assert a.confidence.tobytes() == b.confidence.tobytes()
    assert a.mean_confidence == b.mean_confidence
    assert np.array_equal(a.simplex_counts, b.simplex_counts)
    assert np.array_equal(a.triangle_complex.vertices, b.triangle_complex.vertices)
    assert np.array_equal(a.triangle_complex.triangles, b.triangle_complex.triangles)


# the compiled core splits a call only where the process may run on two
# CPUs; elsewhere every call is serial and the split counts stay put
TWO_CPUS = len(os.sched_getaffinity(0)) >= 2 if hasattr(os, "sched_getaffinity") else False


def split_calls():
    return _core._split_stats()[0]


def assert_deviation_identical(img, params, split=None):
    """Every deviation-map entry gives the bytes of the reference stack's
    std; `split` says whether the choosing entry must split or not."""
    ku, kv = gaussian_kernel_1d(params.sigma_u), gaussian_kernel_1d(params.sigma_v)
    stack = filter_stack(img, params)
    # layer by layer: std_map's result except on a one-pixel frame
    expected = _core.stack_std(stack).tobytes()
    before = split_calls()
    assert _core.deviation_map(img, ku, kv, params.stack_size).tobytes() == expected
    if split is not None and TWO_CPUS:
        assert split_calls() - before == int(split), (img.shape, params)
    for parts in (1, 2):
        got = _core._deviation_map_parts(img, ku, kv, params.stack_size, parts)
        assert got.tobytes() == expected, (parts, img.shape, params)
    assert _pure.deviation_map(img, ku, kv, params.stack_size).tobytes() == expected
    assert deviation_map(img, params).tobytes() == std_map(stack).tobytes()


def halo(params):
    """Columns a part reads past its own on either side."""
    return (params.stack_size - 1) * ((len(gaussian_kernel_1d(params.sigma_v)) - 1) // 2)


@settings(max_examples=120, deadline=None, database=None)
@given(
    st.integers(1, 60),
    st.integers(-3, 3),
    st.sampled_from([0.2, 1.8, 5.0]),
    st.sampled_from([2, 3, 6, 9]),
    st.integers(0, 2**32 - 1),
)
def test_deviation_map_identical_property(h, offset, sigma_v, layers, seed):
    # widths around the split threshold of 2 parts of 4 halos each, and
    # around 2 halos, where a part's halo reaches past the other part
    params = Params(sigma_v=sigma_v, stack_size=layers)
    w = max(1, 2 * (4 if seed % 2 else 1) * halo(params) + offset)
    img = np.random.default_rng(seed).uniform(0.0, 255.0, size=(h, w))
    assert_deviation_identical(img, params)


def test_deviation_map_splits_at_its_threshold():
    # 200 rows make every part's work large enough, so the width decides:
    # a part must be at least 4 halos wide
    rng = np.random.default_rng(131)
    for params in (Params(), Params(sigma_v=1.8), Params(sigma_v=1.8, stack_size=3)):
        edge = 2 * 4 * halo(params)
        for w in (edge - 2, edge - 1, edge, edge + 1, 600):
            img = rng.uniform(0.0, 255.0, size=(200, w))
            assert_deviation_identical(img, params, split=w // 2 >= edge // 2)
    # a frame too small to be worth a second core
    assert_deviation_identical(rng.uniform(0.0, 255.0, size=(2, 600)), Params(), split=False)


def test_deviation_map_small_and_extreme_frames():
    rng = np.random.default_rng(132)
    # 1x1 frames, where std_map keeps numpy's pairwise sum from 8 layers
    # on, 1-row and 1-column frames, and a halo wider than the frame
    for layers in (2, 6, 8, 9, 12):
        for shape in ((1, 1), (1, 50), (1, 600), (40, 1), (3, 2)):
            img = rng.uniform(-255.0, 255.0, size=shape)
            for sigma_v in (0.2, 5.0, 40.0):
                assert_deviation_identical(img, Params(stack_size=layers, sigma_v=sigma_v))
    # empty frames give empty maps
    ku = gaussian_kernel_1d(1.8)
    for shape in ((0, 5), (5, 0)):
        for fn in (_core.deviation_map, _pure.deviation_map):
            assert fn(np.zeros(shape), ku, ku, 6).shape == shape
    # the validation both backends share
    for bad in ((np.zeros(5), ku, ku, 6), (np.zeros((2, 2)), ku, np.ones(0), 6),
                (np.zeros((2, 2)), ku, ku, 0)):
        for fn in (_core.deviation_map, _pure.deviation_map):
            with pytest.raises(ValueError):
                fn(*bad)


def test_deviation_map_stack_too_large_is_memory_error():
    img = np.zeros((200, 600))
    ku = gaussian_kernel_1d(1.8)
    for layers in (10**15, 2**62, 10**300):
        for fn in (_core.deviation_map, _pure.deviation_map):
            with pytest.raises(MemoryError):
                fn(img, ku, ku, layers)
        with pytest.raises(MemoryError, match="stack_size"):
            deviation_map(img, Params(stack_size=layers))


def test_split_passes_identical():
    # the spacing field's axis-0 pass and point pass split over two parts
    # on a large call and run serial while the kernels are held serial;
    # both give the serial bytes, and the pure twin's
    rng = np.random.default_rng(133)
    kw = gaussian_kernel_1d(20.0)
    for shape in ((200, 600), (201, 77), (120, 1000)):
        img = rng.uniform(0.0, 1.0, size=shape)
        with _kernels.serial():
            before = split_calls()
            serial = _core.correlate1d_replicate(img, kw, 0).tobytes()
            assert split_calls() == before
        split = _core.correlate1d_replicate(img, kw, 0).tobytes()
        assert split_calls() == before + TWO_CPUS, shape
        assert split == serial == _pure.correlate1d_replicate(img, kw, 0).tobytes()
        out = np.full(shape, np.nan)
        _core.correlate1d_replicate(img, kw, 0, out=out)
        assert out.tobytes() == serial
        h, w = shape
        for n in (5001, 20000):
            pts = np.stack([rng.integers(0, h, n), rng.integers(0, w, n)], axis=1)
            for col0 in (0, 9):
                with _kernels.serial():
                    before = split_calls()
                    serial = _core.correlate1d_points(img, kw, pts + (0, col0), col0).tobytes()
                    assert split_calls() == before
                split = _core.correlate1d_points(img, kw, pts + (0, col0), col0).tobytes()
                assert split_calls() == before + TWO_CPUS
                assert split == serial
                assert serial == _pure.correlate1d_points(img, kw, pts + (0, col0), col0).tobytes()


def phantom_frames(seeds):
    from toposhadow.synth import PhantomSpec, synth_phantom

    return [synth_phantom(PhantomSpec(seed=seed))[0] for seed in seeds]


def same_detection(a, b):
    return (
        np.array_equal(a.labels, b.labels)
        and a.confidence.tobytes() == b.confidence.tobytes()
        and np.array_equal(a.triangle_complex.triangles, b.triangle_complex.triangles)
    )


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_detect_after_fork():
    # fork copies only the forking thread; the child forgets the parent's
    # helper, starts its own, and its detect finishes with the same result
    img = phantom_frames([21])[0]
    with _kernels.serial():
        expected = classify.detect(img)
    assert same_detection(classify.detect(img), expected)  # splits, helper started
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            ran = _core._split_stats()[1]
            ok = all(same_detection(classify.detect(img), expected) for _ in range(8))
            code = 0 if ok and (not TWO_CPUS or _core._split_stats()[1] > ran) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("detect in the forked child did not finish in 60 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


def test_concurrent_callers_match_serial():
    # two threads split at once: one holds the helper, the other finds it
    # busy and runs both parts itself; both get the serial result
    frames = phantom_frames([21, 22])
    with _kernels.serial():
        expected = [classify.detect(img) for img in frames]
    results = [[], []]

    def run(k):
        for _ in range(6):
            results[k].append(classify.detect(frames[k]))

    threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    assert not any(t.is_alive() for t in threads)
    for k in (0, 1):
        assert len(results[k]) == 6
        assert all(same_detection(res, expected[k]) for res in results[k])


def test_dataset_commands_hold_the_kernels_serial(tmp_path, capsys):
    # --workers N keeps N threads in total: evaluate, sweep and gridsearch
    # make no split call at any --workers; detect on the same frames does
    from toposhadow import cli

    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--frames", "3"]) == 0
    for workers in ("1", "2"):
        before = split_calls()
        for argv in (
            ["evaluate", "--folds", str(data / "folds.txt"), "--method", "topol"],
            ["sweep", "--param", "gamma", "--values", "3,4"],
            ["gridsearch", "--grid", "tau=1,2"],
        ):
            assert cli.main(argv + ["--dataset", str(data), "--workers", workers]) == 0
        assert split_calls() == before, workers
    frame = next(data.glob("*.pgm"))
    capsys.readouterr()
    before = split_calls()
    assert cli.main(["detect", "--input", str(frame)]) == 0
    assert split_calls() > before or not TWO_CPUS

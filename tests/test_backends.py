"""The compiled kernels must be bit-identical to the pure numpy twins:
same values, same emission order, same cap behaviour.  Speed is allowed
to differ; nothing else is.
"""

import contextlib
import inspect
import os
import platform
import re
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
from toposhadow.saliency import (
    Params,
    deviation_map,
    filter_stack,
    gaussian_kernel_1d,
    salient_threshold,
    std_map,
    threshold_points,
)
from toposhadow.topology import confidence_map

_core = pytest.importorskip("toposhadow._kernels._core")

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


@contextlib.contextmanager
def forced(simd=None, parts=0):
    """Run the compiled kernels on the baseline vector instances
    (simd="baseline"), and deviation maps on `parts` column parts (0 to
    choose), for a while."""
    prev = _core._force(simd=simd, parts=parts)
    try:
        yield
    finally:
        _core._force(*prev)


# the compiled instances a test runs: module init's pick, and the 2-wide
# baseline, which an AVX-512 host would not pick
SIMDS = (None, "baseline")


@pytest.fixture
def compiled_dispatch():
    """The dispatch names on the compiled core for the test, whichever
    backend the session loaded: for tests of how it splits."""
    with on_backend(_core):
        yield


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
                for simd in SIMDS:
                    with forced(simd):
                        got = _core.correlate1d_replicate(img, weights, axis)
                    assert np.array_equal(got, b), (sigma, axis, simd)


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
    # pass, on both of its instances
    img = np.random.default_rng(seed).uniform(-255.0, 255.0, size=(h, w))
    weights = gaussian_kernel_1d(sigma)
    b = _pure.correlate1d_replicate(img, weights, axis)
    for simd in SIMDS:
        with forced(simd):
            assert np.array_equal(_core.correlate1d_replicate(img, weights, axis), b), simd


def test_pure_dense_passes_allocate_block_buffers():
    # pure deviation_map builds one column strip's stack at a time, through
    # two padded pass buffers of a strip; each correlation pass adds three
    # row-block buffers, and the reduction three more
    img = np.random.default_rng(114).uniform(0.0, 255.0, size=(200, 600))
    params = Params()
    ku, kv = taps(params)
    tracemalloc.start()
    try:
        s = _pure.deviation_map(img, ku, kv, params.stack_size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.shape == img.shape
    stack_nbytes = params.stack_size * img.nbytes
    assert peak < stack_nbytes + 3 * img.nbytes, (peak, stack_nbytes, img.nbytes)


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
                got = _pure.correlate1d_replicate(img, weights, axis).tobytes()
                assert got == expected, (sigma, shape, axis)


def test_dispatch_table_covers_both_backends(monkeypatch):
    for name in _kernels.KERNELS:
        assert callable(getattr(_core, name)) and callable(getattr(_pure, name)), name
    # and the converse: every public kernel of either backend is in the
    # table, so a kernel left behind on one backend fails here
    core_names = {name for name in vars(_core) if not name.startswith("_")} - {"SIMD"}
    pure_names = {
        name
        for name, value in vars(_pure).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == _pure.__name__
    }
    assert core_names == set(_kernels.KERNELS)
    assert pure_names == set(_kernels.KERNELS)
    # the core's private entries are its test hooks and nothing else
    core_private = {name for name in vars(_core) if name[:1] == "_" and name[:2] != "__"}
    assert core_private == {"_force", "_split_stats", "_thin_stats"}
    # detect calls the kernels through their dispatch names, so a wrapper
    # installed there sees every call: one deviation map and one salient
    # thinning, and no correlation; filter_stack, the reference, makes two
    # correlation calls per smoothed layer
    calls = []

    def counted(name):
        inner = getattr(_kernels, name)

        def call(*args, **kwargs):
            calls.append((name, args[2]) if name == "correlate1d_replicate" else name)
            return inner(*args, **kwargs)

        return call

    for name in ("correlate1d_replicate", "deviation_map", "thin_salient"):
        monkeypatch.setattr(_kernels, name, counted(name))
    from toposhadow.synth import PhantomSpec, synth_phantom

    img, _ = synth_phantom(PhantomSpec(seed=5))
    classify.detect(img, Params())
    assert calls == ["deviation_map", "thin_salient"]
    calls.clear()
    filter_stack(img, Params())
    assert calls == [("correlate1d_replicate", 0), ("correlate1d_replicate", 1)] * (
        Params().stack_size - 1
    )


def test_force_returns_the_previous_setting():
    assert _core._force() == (None, 0)
    assert _core._force(simd="baseline", parts=2) == (None, 0)
    assert _core._force(parts=1) == ("baseline", 2)
    # a rejected setting changes nothing
    for bad in ({"simd": "avx512f"}, {"simd": 1}, {"parts": 3}, {"parts": -1}):
        with pytest.raises(ValueError):
            _core._force(**bad)
    assert _core._force() == (None, 1)
    assert _core._force() == (None, 0)


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


def dense_at_points(img, weights, pts, col0):
    """The dense axis-1 pass of the frame slice, gathered at the points."""
    dense = _pure.correlate1d_replicate(img, weights, 1)
    return dense[pts[:, 0], pts[:, 1] - col0]


def assert_points_identical(img, weights, pts, col0):
    """The point pass of the pure spacing gives the dense pass's values;
    its compiled twin runs inside thin_salient, whose tests hold it to
    the same values."""
    a = _pure._correlate_points(img, weights, pts, col0)
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
        with pytest.raises(IndexError):
            _pure._correlate_points(img, weights, np.array(pts), col0)


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
    # mixed integer-tie, 5.0, sqrt(5), infinite and 1e200 (whose square is
    # infinite) spacings
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
            np.full(n, np.inf),
            np.full(n, 1e200),
        ):
            cases.append((pts, spacing))
    for trial, (pts, spacing) in enumerate(cases):
        a = _core.thin_points(pts, spacing)
        b = _pure.thin_points(pts, spacing)
        assert np.array_equal(a, b), trial


def thin_outcome(fn):
    """fn()'s kept points as a list, or the class and message of what it
    raised."""
    try:
        kept = fn()
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)
    assert kept.dtype == np.int64 and kept.ndim == 2 and kept.shape[1] == 2
    return kept.tolist()


def reference_thin(impl, saliency, weights, threshold, phi1, phi2):
    """thin(cloud, density_field(...)) over the cloud of pixels at or above
    `threshold`, with backend `impl`'s thin_points: the points as
    threshold_points finds them, then the pure dense passes and
    thin_points, as sparsify runs them.  Returns the kept points."""
    s = np.asarray(saliency, dtype=np.float64)
    pts = np.argwhere(s >= threshold)
    return pts[impl.thin_points(pts, _pure._spacing_at(s, weights, pts, phi1, phi2))]


def assert_thin_salient_identical(saliency, weights, threshold, phi1, phi2):
    """Both kernels give the reference's kept points on either backend,
    the compiled one on both of its instances, or raise the reference's
    exception class with its message."""
    args = (saliency, weights, threshold, phi1, phi2)
    expected = thin_outcome(lambda: reference_thin(_pure, *args))
    assert thin_outcome(lambda: reference_thin(_core, *args)) == expected
    assert thin_outcome(lambda: _pure.thin_salient(*args)) == expected
    for simd in SIMDS:
        with forced(simd):
            assert thin_outcome(lambda: _core.thin_salient(*args)) == expected, simd
    return expected


# spacing bounds (phi1, phi2): the defaults, either end at zero, and
# integer spacings that put pixel distances on the inclusive boundary:
# (3, 4) gives exactly 7, 5 and 3 where the map is 0, 127.5 and 255; and
# spacings whose squares are infinite, where a candidate with no kept
# neighbour is still kept
THIN_PHIS = [
    (15.0, 20.0), (0.0, 20.0), (15.0, 0.0), (0.0, 0.0), (3.0, 4.0), (1.0, 1e6), (2.0, 0.5),
    (1e200, 20.0), (0.0, 1e200),
]


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.integers(1, 30),
    st.integers(1, 45),
    st.sampled_from(["noise", "constant", "ties", "spikes", "bands"]),
    st.sampled_from([1.0, 255.0, 1e6]),
    st.sampled_from([0.2, 1.0, 2.5, 7.0, 20.0]),
    st.sampled_from(THIN_PHIS),
    st.sampled_from(["all", "median", "pixel", "top", "none"]),
    st.integers(0, 2**32 - 1),
)
def test_thin_salient_identical_property(h, w, kind, scale, sigma, phi, threshold, seed):
    # sigma 7 and 20 (radius 21 and 60) reach past most of these maps;
    # constant and tie maps give blurred values that are exact, so the
    # integer spacings of (3, 4) land on integer squared distances
    rng = np.random.default_rng(seed)
    if kind == "noise":
        sal = rng.uniform(-scale, scale, size=(h, w))
    elif kind == "constant":
        sal = np.full((h, w), rng.choice([0.0, -0.0, 127.5, 255.0, scale, -scale]))
    elif kind == "ties":
        # -0.0 beside 0.0 in whole 8 x 8 tiles and in partial ones
        sal = rng.choice([0.0, -0.0, 127.5, 255.0], size=(h // 4 + 1, w // 4 + 1))
        sal = np.repeat(np.repeat(sal, 4, axis=0), 4, axis=1)[:h, :w]
    elif kind == "spikes":
        sal = rng.uniform(0.0, 255.0, size=(h, w))
        spikes = rng.integers(0, h * w, size=3)
        sal.flat[spikes] = rng.choice([-scale, scale], size=3) * 1e3
    else:
        sal = np.repeat(rng.uniform(0.0, scale, size=(1, w)), h, axis=0)
    # every pixel, about half, those on or above one pixel's value (which
    # sits exactly on the threshold), the largest tenth, or none
    thr = {
        "all": -np.inf,
        "median": float(np.median(sal)),
        "pixel": float(sal.flat[rng.integers(0, h * w)]),
        "top": float(np.quantile(sal, 0.9)),
        "none": np.inf,
    }[threshold]
    assert_thin_salient_identical(sal, gaussian_kernel_1d(sigma), thr, *phi)


def test_thin_salient_identical_on_phantoms():
    from toposhadow.synth import PhantomSpec, synth_phantom, synth_tilt_sequence

    frames = [synth_phantom(PhantomSpec(seed=seed))[0] for seed in (1, 7, 123)]
    frames += synth_tilt_sequence(9, PhantomSpec(seed=4))[1][::4]
    for img in frames:
        sal = classify.texture(img, Params())
        for p in (Params(), Params(sigma_w=3.0, phi1=5.0), Params(gamma=2.0, phi1=0.0)):
            kept = assert_thin_salient_identical(
                sal, gaussian_kernel_1d(p.sigma_w), salient_threshold(p.gamma), p.phi1, p.phi2
            )
            assert len(kept) > 0
            assert kept == classify.salient_cloud(sal, p).tolist()


def test_thin_salient_window_reaches_its_edge():
    # one spike exactly `radius` rows or columns from many candidates, and
    # one just past it: a bound over a window one row or one column short
    # of the taps misses the spike and keeps or drops the wrong points
    for radius in range(1, 18):
        weights = gaussian_kernel_1d((radius - 0.5) / 3.0)
        assert len(weights) == 2 * radius + 1
        for value in (1e6, -1e6):
            sal = np.full((2 * radius + 12, 2 * radius + 12), 100.0)
            sal[radius + 5, radius + 6] = value
            for phi in ((2.0, 6.0), (1.0, 2.0)):
                assert_thin_salient_identical(sal, weights, -np.inf, *phi)


def test_thin_salient_tiles_reach_the_map_edge():
    # a spike in the last row or the last column of maps whose height or
    # width is no multiple of the 8-pixel tile, so that it lies in a
    # partial tile: tile extremes that skip a partial tile's last row or
    # column miss it and keep or drop the wrong points
    weights = gaussian_kernel_1d(1.0)
    for h, w in ((9, 16), (13, 24), (15, 17), (8, 21), (23, 31)):
        for r, c in ((h - 1, 3), (h - 1, 8), (h - 1, w - 1), (2, w - 1)):
            for value in (1e6, -1e6):
                sal = np.full((h, w), 100.0)
                sal[r, c] = value
                assert_thin_salient_identical(sal, weights, -np.inf, 2.0, 6.0)


def test_thin_salient_margin_covers_rounding():
    # with the centre weight 0 this window blurs to exactly 1.0 while its
    # largest value is 1 - 2^-53: the spacing of (1, 1) is phi1 = 1, so
    # the kept point (0, 0) at squared distance 2 leaves it alone, while a
    # bound from the extremes alone says 1.5.  Every pixel is a candidate
    top, low = 254.99999999999997, 104.66620848781591
    sal = np.full((3, 3), top)
    sal[1, 1:] = low
    weights = np.array([0.5, 0.0, 0.5])
    kept = assert_thin_salient_identical(sal, weights, low, 1.0, 2.0**52)
    assert kept[:2] == [[0, 0], [1, 1]]
    blurred = _pure._correlate_points(
        _pure.correlate1d_replicate(sal / 255.0, weights, 0), weights, np.array([[1, 1]]), 0
    )
    assert blurred[0] == 1.0 > (sal / 255.0).max()


def test_thin_salient_weights_that_are_not_a_mean():
    # negative taps or taps summing past 1: the bounds do not hold, and
    # every spacing is computed, on each compiled instance
    rng = np.random.default_rng(241)
    sal = rng.uniform(0.0, 255.0, size=(20, 30))
    n = int((sal >= 100.0).sum())
    for weights in (np.array([-0.1, 1.2, -0.1]), np.array([0.6, 0.0, 0.6]), np.ones(5), np.ones(1)):
        before = _core._thin_stats()
        assert_thin_salient_identical(sal, weights, 100.0, 3.0, 4.0)
        if len(weights) > 1:
            assert _core._thin_stats()[1] - before[1] == len(SIMDS) * n


def test_thin_salient_non_finite_maps():
    # NaN or an infinity within reach of a point makes a NaN spacing, which
    # the reference rejects; out of reach it changes nothing
    rng = np.random.default_rng(242)
    weights = gaussian_kernel_1d(1.0)  # radius 3
    with np.errstate(invalid="ignore"):  # inf - inf in the pure passes
        non_finite_cases(rng, weights)


def non_finite_cases(rng, weights):
    for bad in (np.nan, np.inf, -np.inf):
        for where in ((5, 5), (0, 0), (19, 39), (5, 20)):
            sal = rng.uniform(0.0, 255.0, size=(20, 40))
            sal[where] = bad
            # every pixel (a NaN one is never salient), and two far ones
            assert_thin_salient_identical(sal, weights, -np.inf, 15.0, 20.0)
            sal[15, 35] = sal[16, 38] = 300.0
            assert_thin_salient_identical(sal, weights, 300.0, 15.0, 20.0)
    # a NaN first in its 8 x 8 tile can make the tile's maximum NaN: the
    # salient pixel beside it must still be found
    sal = rng.uniform(0.0, 255.0, size=(20, 40))
    sal[8, 8], sal[9, 9] = np.nan, 300.0
    assert assert_thin_salient_identical(sal, np.ones(1), 300.0, 15.0, 20.0) == [[9, 9]]
    sal = np.full((20, 40), 50.0)
    sal[5, 5] = np.nan
    sal[5, 7] = 60.0
    outcome = assert_thin_salient_identical(sal, weights, 60.0, 15.0, 20.0)
    assert outcome == (ValueError, "spacing must not contain NaN")
    # radius 0: an infinite pixel clamps to phi1, and a NaN one is no point
    sal[5, 6] = np.inf
    sal[19, 39] = 60.0
    kept = assert_thin_salient_identical(sal, np.ones(1), 60.0, 15.0, 20.0)
    assert kept == [[5, 6], [19, 39]]


def test_thin_salient_small_and_empty_inputs():
    rng = np.random.default_rng(243)
    weights = gaussian_kernel_1d(20.0)
    for shape in ((1, 1), (1, 60), (60, 1), (2, 3)):
        sal = rng.uniform(0.0, 255.0, size=shape)
        assert_thin_salient_identical(sal, weights, -np.inf, 15.0, 20.0)
        assert_thin_salient_identical(sal, weights, float(np.median(sal)), 0.5, 0.0)
    # maps with no pixel, and one with no pixel at or above the threshold
    for shape, thr in (((0, 5), -np.inf), ((5, 0), -np.inf), ((4, 4), 1.0)):
        assert assert_thin_salient_identical(np.zeros(shape), weights, thr, 15.0, 20.0) == []
        assert _core.thin_salient(np.zeros(shape), weights, thr, 15.0, 20.0).shape == (0, 2)


def test_thin_salient_rejects_bad_input():
    sal = np.zeros((4, 5))
    weights = gaussian_kernel_1d(1.0)
    for phi in ((-1.0, 20.0), (15.0, -0.5), (np.nan, 20.0), (15.0, np.inf)):
        for mod in (_core, _pure):
            # on a map with no salient pixel too
            for thr in (0.0, np.inf):
                with pytest.raises(ValueError, match="phi1 and phi2 must be finite and non-negative"):
                    mod.thin_salient(sal, weights, thr, *phi)
    for bad in ((np.zeros(5), weights), (sal, np.ones((1, 1))), (sal, np.ones(0))):
        for mod in (_core, _pure):
            with pytest.raises(ValueError, match="expected a 2D image"):
                mod.thin_salient(*bad, 0.0, 15.0, 20.0)


def test_spacing_rejects_point_outside_the_map():
    # the density field's points come from its caller: one outside the map
    # raises the point pass's IndexError, on a map with no columns too, and
    # with every point far past either side, before any buffer is sized
    weights = gaussian_kernel_1d(1.0)
    cases = [(np.zeros((4, 5)), pts) for pts in (
        [[4, 0]], [[0, 5]], [[-1, 0]], [[0, -1]], [[1, 1], [9, 9]], [[0, 100]], [[0, -100]],
        [[0, -5]], [[0, 9]],
    )]
    cases.append((np.zeros((5, 0)), [[0, 0]]))
    for sal, pts in cases:
        with pytest.raises(IndexError, match="point outside the image"):
            _pure._spacing_at(sal, weights, np.array(pts), 15.0, 20.0)
        for impl in (_core, _pure):
            with pytest.raises(IndexError, match="point outside the image"):
                impl.thin_points(np.array(pts), _pure._spacing_at(sal, weights, pts, 15.0, 20.0))


def test_thin_salient_is_lazy_on_the_phantom():
    # the seed-123 phantom: few candidates need their exact spacing, and
    # those read few of the map's axis-0 cells; a kernel that fell back to
    # the whole field would compute every spacing and every cell.  Tier 2
    # decides more than half of what tier 1 leaves (with tier 1 alone the
    # kernel computed 411 spacings and 23,216 cells here)
    from toposhadow.synth import PhantomSpec, synth_phantom

    img, _ = synth_phantom(PhantomSpec(seed=123))
    p = Params()
    sal = classify.texture(img, p)
    weights = gaussian_kernel_1d(p.sigma_w)
    thr = salient_threshold(p.gamma)
    before = _core._thin_stats()
    kept = _core.thin_salient(sal, weights, thr, p.phi1, p.phi2)
    seen, exact, cells, tier2 = (b - a for a, b in zip(before, _core._thin_stats()))
    assert np.array_equal(kept, reference_thin(_core, sal, weights, thr, p.phi1, p.phi2))
    assert seen == len(threshold_points(sal, p.gamma)) == 22293
    assert 0 < exact < 0.05 * seen, exact
    assert tier2 > exact, (tier2, exact)
    assert 0 < cells < 0.20 * sal.size, cells


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


@pytest.mark.parametrize("block", SMALL_BLOCKS)
def test_rips_identical_across_pair_blocks(block, monkeypatch):
    # pure walks a neighbourhood's pairs in row blocks of about _BLOCK
    # pairs: one row per block, a few rows, and blocks with a short last
    monkeypatch.setattr(_pure, "_BLOCK", block)
    rng = np.random.default_rng(305)
    clouds = [random_cloud(rng, int(rng.integers(3, 90)), extent=60) for _ in range(6)]
    clouds.append(np.repeat(random_cloud(rng, 20, extent=30), 2, axis=0))
    for cloud in clouds:
        for eps in (5.0, 20.0, 90.0):
            a = _core.rips_triangles(cloud, eps, 2_000_000)
            assert np.array_equal(a, _pure.rips_triangles(cloud, eps, 2_000_000)), (block, eps)
            # the cap at and around the exact count
            for cap in {max(1, len(a) - 1), max(1, len(a)), len(a) + 1}:
                outcomes = []
                for mod in (_core, _pure):
                    try:
                        outcomes.append(len(mod.rips_triangles(cloud, eps, cap)))
                    except TriangleCapError as exc:
                        outcomes.append(("raise", exc.cap))
                assert outcomes[0] == outcomes[1], (block, eps, cap)


def test_rips_cap_in_bounded_memory():
    # one anchor whose neighbourhood is the whole cloud: pure compares it
    # in blocks of _BLOCK pairs and stops at the cap, as compiled does,
    # instead of building the (m, m, 2) difference array (122 MiB here)
    n = 2000
    rng = np.random.default_rng(306)
    cloud = np.stack([rng.integers(0, 500, n), rng.integers(0, 500, n)], axis=1)
    with pytest.raises(TriangleCapError):
        _core.rips_triangles(cloud, 1000.0, 10)
    tracemalloc.start()
    try:
        with pytest.raises(TriangleCapError):
            _pure.rips_triangles(cloud, 1000.0, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few dozen bytes per pair of one block, and per point
    assert peak < 48 * (_pure._BLOCK + n), peak


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


def test_occurrence_confidence_is_the_confidence_of_the_counts():
    # both backends write the bytes of confidence_map(occurrence_map(...)):
    # no triangles, collinear and single-point triangles, 1x1 frames and
    # frames with no rows or no columns, and counts past 255
    rng = np.random.default_rng(2801)
    none = np.zeros((0, 2), dtype=np.int64)
    cases = [(none, np.zeros((0, 3), dtype=np.int32), h, w)
             for h, w in ((0, 0), (0, 7), (7, 0), (1, 1), (9, 9))]
    lines = np.array(
        [[2, 1], [2, 5], [2, 9], [1, 4], [5, 4], [9, 4], [0, 0], [1, 2], [2, 5], [4, 4]],
        dtype=np.int64,
    )
    cases.append((lines, [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 9, 9], [0, 0, 1]], 12, 12))
    cases.append((np.zeros((1, 2), dtype=np.int64), [[0, 0, 0]] * 3, 1, 1))
    # 400 triangles that all cover the middle of a 24 x 24 frame
    corners = np.array([[0, 0], [0, 23], [23, 12]])
    pts = (corners + rng.integers(-3, 4, size=(400, 3, 2))).clip(0, 23).reshape(-1, 2)
    cases.append((pts, np.arange(len(pts)).reshape(-1, 3), 24, 24))
    for _ in range(6):
        cloud = random_cloud(rng, int(rng.integers(4, 40)), extent=60)
        cases.append((cloud, _pure.rips_triangles(cloud, 25.0, 2_000_000), 70, 61))
    peak = 0
    for trial, (pts, tris, h, w) in enumerate(cases):
        m = len(np.reshape(tris, (-1, 3)))
        counts = _pure.occurrence_counts(pts, tris, h, w)
        expect = confidence_map(counts)
        peak = max(peak, counts.max(initial=0))
        for mod in (_core, _pure):
            for table in (np.log1p(np.arange(m + 1.0)), np.log1p(np.arange(m + 9.0))):
                got = mod.occurrence_confidence(pts, tris, h, w, table)
                assert got.dtype == np.float64 and got.shape == (h, w), (trial, mod.__name__)
                assert got.flags.c_contiguous, (trial, mod.__name__)
                assert got.tobytes() == expect.tobytes(), (trial, mod.__name__)
    assert peak > 255
    # a vertex outside the points or the frame raises the IndexError of
    # occurrence_counts before the table is read; a table with no more
    # entries than triangles, or not one-dimensional, raises one ValueError
    cloud = np.array([[0, 0], [1, 1], [2, 2]], dtype=np.int64)
    messages = set()
    for mod in (_core, _pure):
        for tris in ([[0, 1, 5]], [[0, 1, 2]]):
            with pytest.raises(IndexError) as counted:
                mod.occurrence_counts(cloud, tris, 2, 2)
            for table in (np.zeros(2), np.zeros(0)):
                with pytest.raises(IndexError) as caught:
                    mod.occurrence_confidence(cloud, tris, 2, 2, table)
                assert str(caught.value) == str(counted.value), mod.__name__
        for tris, table in (
            ([[0, 1, 0]], np.zeros(1)),
            (np.zeros((0, 3)), np.zeros(0)),
            ([[0, 1, 1], [1, 1, 0]], np.zeros(2)),
            ([[0, 1, 0]], np.zeros((2, 2))),
        ):
            with pytest.raises(ValueError) as caught:
                mod.occurrence_confidence(cloud, tris, 2, 2, table)
            messages.add(str(caught.value))
    assert len(messages) == 1, messages


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
    # and on the compiled core's 2-wide instances, on one column part and
    # on two; the deviation maps match bit for bit too
    texture = classify.texture(img, Params()).tobytes()
    res_baseline = []
    with on_backend(_core):
        for parts in (1, 2):
            with forced("baseline", parts):
                res_baseline.append(classify.detect(img, Params()))
                assert classify.texture(img, Params()).tobytes() == texture, parts

    for res in (res_pure, *res_baseline):
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
    # through every dispatch name on each backend, and on the compiled
    # core's 2-wide instances on one column part and on two; the
    # deviation maps match bit for bit too
    rng = np.random.default_rng(seed)
    if kind == "noise":
        img = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
    elif kind == "constant":
        img = np.full((h, w), rng.integers(0, 256), dtype=np.uint8)
    else:
        img = np.repeat(rng.integers(0, 256, size=(1, w)), h, axis=0).astype(np.uint8)
    crop_rows = {"none": 0, "some": int(rng.integers(0, h)), "all but one": h - 1}[crop]
    params = Params(crop_rows=crop_rows, gamma=float(rng.choice([0.5, 4.0, 30.0])))
    results, textures = [], set()

    def run():
        results.append(classify.detect(img, params))
        textures.add(classify.texture(img, params).tobytes())

    for impl in (_core, _pure):
        with on_backend(impl):
            run()
    with on_backend(_core):
        for parts in (1, 2):
            with forced("baseline", parts):
                run()
    assert len(textures) == 1
    a = results[0]
    for b in results[1:]:
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


def taps(params):
    """The (ku, kv) Gaussian taps of a deviation map."""
    return gaussian_kernel_1d(params.sigma_u), gaussian_kernel_1d(params.sigma_v)


def layered_std(stack):
    """The deviation map's reduction in plain numpy: the layers summed one
    by one from layer 0 and divided by L, then the squared deviations
    summed the same way and divided by L, then the root."""
    mean = stack[0].copy()
    for layer in stack[1:]:
        mean += layer
    mean /= len(stack)
    var = (stack[0] - mean) ** 2
    for layer in stack[1:]:
        var += (layer - mean) ** 2
    return np.sqrt(var / len(stack))


def assert_deviation_identical(img, params, split=None):
    """The deviation map gives the bytes of the reference stack's std on
    either backend, the compiled one also on both instances and on one
    and on two column parts; `split` says whether it must split or not
    where it chooses."""
    ku, kv = taps(params)
    stack = filter_stack(img, params)
    expected = layered_std(stack).tobytes()
    if img.size != 1:  # numpy sums a one-pixel stack pairwise from 8 layers on
        assert std_map(stack).tobytes() == expected
    before = split_calls()
    assert _core.deviation_map(img, ku, kv, params.stack_size).tobytes() == expected
    if split is not None and TWO_CPUS:
        assert split_calls() - before == int(split), (img.shape, params)
    for simd in SIMDS:
        for parts in (1, 2):
            with forced(simd, parts):
                got = _core.deviation_map(img, ku, kv, params.stack_size)
            assert got.tobytes() == expected, (simd, parts, img.shape, params)
    assert _pure.deviation_map(img, ku, kv, params.stack_size).tobytes() == expected
    assert deviation_map(img, params).tobytes() == std_map(stack).tobytes()


def halo(params):
    """Columns a part reads past its own on either side."""
    return (params.stack_size - 1) * ((len(gaussian_kernel_1d(params.sigma_v)) - 1) // 2)


# the compiled core builds a deviation map's layers 8 rows at a time
ROW_BLOCK = 8


@settings(max_examples=160, deadline=None, database=None)
@given(
    st.one_of(st.integers(0, 7), st.integers(20, 30)),
    st.integers(-2, 2),
    st.integers(-3, 3),
    st.sampled_from([0.2, 1.8, 5.0]),
    st.sampled_from([0.2, 1.8, 2.4, 3.0, 5.0, 11.0, 25.0]),
    st.sampled_from([2, 3, 6, 9]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_deviation_map_identical_property(
    blocks, h_offset, offset, sigma_v, sigma_u, layers, signed_zeros, seed
):
    # heights around multiples of the row block, up to 7 blocks and from
    # 20 to 30, where the row window of each layer past the first (at most
    # 8 blocks at sigma_u 1.8 and 9 layers) wraps more than once; sigma_u
    # radii of 1, 6, 8, 9, 15, 33 and 75 rows: below, at and past one
    # block, and past the frame, where a layer must wait for the whole
    # layer below and the window is the whole plane; widths
    # around the split threshold of 2 parts of 4 halos each, and around 2
    # halos, where a part's halo reaches past the other part; and -0.0
    # pixels among 0.0 ones in some frames
    params = Params(sigma_u=sigma_u, sigma_v=sigma_v, stack_size=layers)
    h = max(1, blocks * ROW_BLOCK + h_offset)
    w = max(1, 2 * (4 if seed % 2 else 1) * halo(params) + offset)
    rng = np.random.default_rng(seed)
    img = rng.uniform(0.0, 255.0, size=(h, w))
    if signed_zeros:
        img[rng.random((h, w)) < 0.3] = 0.0
        img[rng.random((h, w)) < 0.3] = -0.0
    assert_deviation_identical(img, params)


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.integers(2, 8),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 255.0, 1e6]),
)
def test_deviation_map_identical_small_frames_property(layers, h, w, seed, scale):
    # frames from 1x1 up, signed values at three scales
    img = np.random.default_rng(seed).uniform(-scale, scale, size=(h, w))
    assert_deviation_identical(img, Params(stack_size=layers))


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


def test_deviation_map_identical_across_std_blocks():
    rng = np.random.default_rng(505)
    for layers in range(2, 9):
        # rows of 15, 16, 17 and 33 pixels: below, at and past the
        # compiled reduction's 16-pixel block, and a tail after two blocks
        for shape in ((1, 1), (7, 1), (1, 9), (3, 5), (4, 4), (2, 15), (3, 16), (1, 17),
                      (3, 11), (13, 17), (3, 33), (40, 60)):
            params = Params(stack_size=layers)
            assert_deviation_identical(rng.uniform(0.0, 255.0, size=shape), params)
            # a constant 8-bit frame deviates by exactly 0
            const = np.full(shape, rng.integers(0, 256), dtype=np.uint8)
            assert_deviation_identical(const, params)
            assert not _core.deviation_map(const, *taps(params), layers).any()
    # one-pixel frames deep enough for numpy's pairwise sum
    for layers in range(8, 20):
        img = rng.uniform(-1e6, 1e6, size=(1, 1))
        assert_deviation_identical(img, Params(stack_size=layers))
    # an empty frame, and the validation of the reference
    assert std_map(np.zeros((3, 0, 4))).shape == (0, 4)
    for bad in (np.zeros((0, 2, 2)), np.zeros((2, 2))):
        with pytest.raises(ValueError):
            std_map(bad)


@pytest.mark.parametrize("block", SMALL_BLOCKS)
def test_deviation_map_identical_across_row_blocks(block, monkeypatch):
    monkeypatch.setattr(_pure, "_ROW_BLOCK", block)
    rng = np.random.default_rng(122)
    for layers in range(2, 9):
        ku, kv = taps(Params(stack_size=layers))
        for shape in ((45, 60), (71, 1), (45, 3), (1, 17)):
            img = rng.uniform(-255.0, 255.0, size=shape)
            expected = _core.deviation_map(img, ku, kv, layers).tobytes()
            got = _pure.deviation_map(img, ku, kv, layers).tobytes()
            assert got == expected, (layers, shape)


def box_taps(radius):
    """Symmetric taps of `radius`, any width: a box of 2 radius + 1."""
    return np.full(2 * radius + 1, 1.0 / (2 * radius + 1))


# pure strip budgets, in doubles: 1, which makes every strip as narrow as
# its 4 halos allow (a 60-column frame builds up to 15 strips), and 5000,
# a few strips of a 60-column frame
SMALL_STRIPS = (1, 5000)


@pytest.mark.parametrize("strip", SMALL_STRIPS)
def test_deviation_map_identical_across_strips(strip, monkeypatch):
    monkeypatch.setattr(_pure, "_STRIP", strip)
    strips = []
    cuts = _pure._strip_cuts

    def counted(*args):
        built = cuts(*args)
        strips.append(len(built) - 1)
        return built

    monkeypatch.setattr(_pure, "_strip_cuts", counted)
    rng = np.random.default_rng(124)
    most = 0
    # sigma_u taps of radius 6 at an odd layer count, radius-0 taps at an
    # even one
    for layers, ku in zip(range(1, 9), [gaussian_kernel_1d(1.8), np.ones(1)] * 4):
        for shape in ((45, 60), (71, 1), (45, 3), (1, 17)):
            width = shape[1]
            img = rng.uniform(-255.0, 255.0, size=shape)
            # radius-0 taps, which copy, sigma_v radii of 1 and 6, and radii
            # at and above the frame width, where the halo covers the frame
            # and the map is one strip
            for kv in (np.ones(1), gaussian_kernel_1d(0.2), gaussian_kernel_1d(1.8),
                       box_taps(width), box_taps(width + 1), box_taps(2 * width)):
                strips.clear()
                expected = _core.deviation_map(img, ku, kv, layers).tobytes()
                got = _pure.deviation_map(img, ku, kv, layers).tobytes()
                assert got == expected, (layers, shape, len(kv))
                if layers > 1 and len(kv) > 2 * width:
                    assert strips == [1], (layers, shape, strips)
                most = max(most, strips[0])
    assert most >= (15 if strip == 1 else 3), most


def test_spacing_identical_across_strips(monkeypatch):
    # the axis-0 pass of the pure spacing runs strip by strip; strips of
    # every width from 1 column up end on the points' first and last
    # columns and on every column between, and the spacings keep the
    # bytes of the dense passes on the compiled core.  Radius 60 reaches
    # past the map on both sides
    rng = np.random.default_rng(707)
    sal = rng.uniform(0.0, 255.0, size=(9, 40))
    for sigma in (0.9, 1.8, 20.0):
        weights = gaussian_kernel_1d(sigma)
        radius = (len(weights) - 1) // 2
        pts = np.stack([rng.integers(0, 9, 30), rng.integers(10, 26, 30)], axis=1)
        pts[:2, 1] = (10, 25)
        dense = _core.correlate1d_replicate(sal / 255.0, weights, 0)
        dense = _core.correlate1d_replicate(dense, weights, 1)[pts[:, 0], pts[:, 1]]
        expected = (15.0 + 20.0 * (1.0 - np.clip(dense, 0.0, 1.0))).tobytes()
        c0, c1 = max(0, 10 - radius), min(40, 26 + radius)
        ends = set()
        for own in range(1, c1 - c0 + 1):
            budget = own * (9 + 2 * radius)
            monkeypatch.setattr(_pure, "_SPACING_STRIP", budget)
            assert _pure._spacing_at(sal, weights, pts, 15.0, 20.0).tobytes() == expected, own
            ends |= {c0 + cut - 1 for cut in _pure._strip_cuts(c1 - c0, 9 + 2 * radius, budget)[1:]}
        assert {10, 25} <= ends, sigma


def test_deviation_map_stack_too_large_is_memory_error():
    img = np.zeros((200, 600))
    ku = gaussian_kernel_1d(1.8)
    for layers in (10**15, 2**62, 10**300):
        for fn in (_core.deviation_map, _pure.deviation_map):
            with pytest.raises(MemoryError):
                fn(img, ku, ku, layers)
        with pytest.raises(MemoryError, match="stack_size"):
            deviation_map(img, Params(stack_size=layers))


@pytest.mark.parametrize("backend, parts", [("compiled", 1), ("compiled", 2), ("pure", 0)])
def test_detect_peak_memory(backend, parts):
    # a compiled map keeps layer 0 and a window of rows of each later
    # layer, and a pure map builds one column strip's stack at a time, not
    # whole planes: detect on a 300 x 600 frame peaks below 4.5 cropped
    # float64 frames on either backend.  At sigma_u 40 the compiled window
    # is the whole plane: the map holds its stack_size planes and the
    # output, and stays exact.  At stack_size 12 the compiled windows hold
    # more rows, while a pure strip narrows, so its bound stays 4.5 frames
    from toposhadow.synth import PhantomSpec, synth_phantom

    impl = _core if backend == "compiled" else _pure
    img, _ = synth_phantom(PhantomSpec(seed=7))
    deep = 4.5 if impl is _pure else 12 + 1.5
    tall = Params().stack_size + 1.5
    for params, frames in ((Params(), 4.5), (Params(stack_size=12), deep), (Params(sigma_u=40.0), tall)):
        crop = np.ascontiguousarray(img[params.crop_rows:], dtype=np.float64)
        with on_backend(impl), forced(parts=parts):
            classify.detect(img, params)
            tracemalloc.start()
            try:
                classify.detect(img, params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < frames * crop.nbytes, (params, parts, peak / crop.nbytes)
    assert_deviation_identical(crop, params)


def phantom_frames(seeds):
    from toposhadow.synth import PhantomSpec, synth_phantom

    return [synth_phantom(PhantomSpec(seed=seed))[0] for seed in seeds]


def same_detection(a, b):
    return (
        np.array_equal(a.labels, b.labels)
        and a.confidence.tobytes() == b.confidence.tobytes()
        and np.array_equal(a.triangle_complex.triangles, b.triangle_complex.triangles)
    )


def exit_code_in_child(check):
    """Run `check()` in a forked child and return the child's exit code:
    what `check` returned, or 1 if it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = check()
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish in 60 s")
        time.sleep(0.01)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.usefixtures("compiled_dispatch")
def test_detect_after_fork():
    # fork copies only the forking thread, and no split leaves a thread
    # behind to lose; the child's detect splits on a thread of its own and
    # finishes with the same result
    img = phantom_frames([21])[0]
    with forced(parts=1):
        expected = classify.detect(img)
    assert same_detection(classify.detect(img), expected)  # splits

    def check():
        ran = _core._split_stats()[1]
        ok = all(same_detection(classify.detect(img), expected) for _ in range(8))
        return 0 if ok and (not TWO_CPUS or _core._split_stats()[1] > ran) else 2

    assert exit_code_in_child(check) == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.skipif(
    not (os.path.isdir("/proc/self/task") and TWO_CPUS),
    reason="needs /proc/self/task and two usable CPUs",
)
@pytest.mark.usefixtures("compiled_dispatch")
def test_split_leaves_no_thread_behind():
    # a split joins the thread it starts before it returns.  Counted in a
    # forked child, whose one thread is the one that forked, so that no
    # thread an earlier call left alive is already in the count
    img = phantom_frames([21])[0]

    def check():
        tasks, calls = len(os.listdir("/proc/self/task")), split_calls()
        classify.detect(img)
        if split_calls() == calls:
            return 2  # did not split
        return 0 if len(os.listdir("/proc/self/task")) == tasks else 3

    assert exit_code_in_child(check) == 0


def test_concurrent_callers_match_one_part():
    # two threads split at once, as forced, since neither is the only
    # thread: each call starts and joins its own thread for the right
    # part; both get the one-part result
    frames = phantom_frames([21, 22])
    with forced(parts=1):
        expected = [classify.detect(img) for img in frames]
    results = [[], []]

    def run(k):
        for _ in range(6):
            results[k].append(classify.detect(frames[k]))

    threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
    with forced(parts=2):
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    assert not any(t.is_alive() for t in threads)
    for k in (0, 1):
        assert len(results[k]) == 6
        assert all(same_detection(res, expected[k]) for res in results[k])


def dataset_command_outputs(data, out, workers):
    """The data files of evaluate and sweep, after running them and
    gridsearch (which writes to stdout) at `workers`."""
    from toposhadow import cli

    for argv in (
        ["evaluate", "--folds", str(data / "folds.txt"), "--method", "topol",
         "--out", str(out / "evaluate.csv")],
        ["sweep", "--param", "gamma", "--values", "3,4", "--out", str(out / "sweep.csv")],
        ["gridsearch", "--grid", "tau=1,2"],
    ):
        assert cli.main(argv + ["--dataset", str(data), "--workers", workers]) == 0
    return [(out / name).read_bytes() for name in ("evaluate.csv", "sweep.csv")]


@pytest.mark.usefixtures("compiled_dispatch")
def test_dataset_commands_split_maps_only_while_alone(tmp_path, capsys, monkeypatch):
    # --workers 1 builds each deviation map on the calling thread and
    # finishes it on one helper thread; a pool of 2 runs both on its own
    # threads.  A map splits only while its caller is the only Python
    # thread: the pipeline's first map, built before its helper starts,
    # splits, and no map built while a helper or pool thread is alive
    # does.  The next detect splits.  Outputs are the same bytes either
    # way, and with every map forced onto one part
    from toposhadow import cli, evaluation

    data, out = tmp_path / "data", tmp_path / "out"
    out.mkdir()
    assert cli.main(["synth", "--out", str(data), "--frames", "3"]) == 0
    img = phantom_frames([21])[0]
    threads = {"texture": set(), "salient_cloud": set()}
    for name in threads:
        real = getattr(evaluation, name)

        def on_thread(*args, _name=name, _real=real):
            threads[_name].add(threading.get_ident())
            return _real(*args)

        monkeypatch.setattr(evaluation, name, on_thread)
    # (Python threads alive, calls that split) around each texture call
    textures = []
    real_texture = evaluation.texture

    def texture(*args):
        alive, before = threading.active_count(), split_calls()
        result = real_texture(*args)
        textures.append((alive, split_calls() - before))
        return result

    monkeypatch.setattr(evaluation, "texture", texture)
    runs = {}
    for workers in ("1", "2"):
        for seen in threads.values():
            seen.clear()
        textures.clear()
        capsys.readouterr()
        files = dataset_command_outputs(data, out, workers)
        runs[workers] = (capsys.readouterr().out, files)
        assert textures, workers
        assert all(alive == 1 for alive, split in textures if split), (workers, textures)
        if workers == "1":
            assert any(split for _, split in textures) or not TWO_CPUS, textures
            assert threads["texture"] == {threading.get_ident()}
            assert threads["salient_cloud"] and threading.get_ident() not in threads["salient_cloud"]
        else:
            assert threading.get_ident() not in threads["texture"] | threads["salient_cloud"]
        before = split_calls()
        classify.detect(img)
        assert split_calls() > before or not TWO_CPUS, workers
    before = split_calls()
    with forced(parts=1):
        files = dataset_command_outputs(data, out, "1")
        runs["one part"] = (capsys.readouterr().out, files)
    assert split_calls() == before
    assert runs["1"] == runs["2"] == runs["one part"]
    assert "accuracy=" in runs["1"][0]


@pytest.mark.usefixtures("compiled_dispatch")
def test_next_detect_splits_after_failed_pool(tmp_path, capsys):
    # a pool that stops on an error splits no map while its threads run,
    # and shuts them down: the next detect splits again
    from toposhadow import cli

    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--frames", "3"]) == 0
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("triangle_cap = 1\n")
    for argv in (
        ["gridsearch", "--grid", "tau=1,2"],
        ["evaluate", "--folds", str(data / "folds.txt"), "--method", "topol"],
    ):
        before = split_calls()
        code = cli.main(argv + ["--dataset", str(data), "--config", str(cfg), "--workers", "2"])
        assert code == 4, argv
        assert split_calls() == before
    capsys.readouterr()
    before = split_calls()
    assert cli.main(["detect", "--input", str(next(data.glob("*.pgm")))]) == 0
    assert split_calls() > before or not TWO_CPUS


@pytest.mark.usefixtures("compiled_dispatch")
def test_next_detect_splits_after_failed_pipeline(tmp_path, capsys):
    # --workers 1 that stops on an error shuts its helper thread down:
    # the thread count is back, and the next detect splits
    from toposhadow import cli

    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--frames", "3"]) == 0
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("triangle_cap = 1\n")
    for argv in (
        ["gridsearch", "--grid", "tau=1,2"],
        ["evaluate", "--folds", str(data / "folds.txt"), "--method", "topol"],
    ):
        threads = threading.active_count()
        code = cli.main(argv + ["--dataset", str(data), "--config", str(cfg), "--workers", "1"])
        assert code == 4, argv
        assert threading.active_count() == threads
        before = split_calls()
        classify.detect(phantom_frames([21])[0])
        assert split_calls() > before or not TWO_CPUS
    capsys.readouterr()


def test_backends_warn_alike():
    # pure squares a spacing of 1e200 to infinity, and an infinite pixel
    # turns the maps around it NaN; neither backend warns about either,
    # and both reach the same labels or the same error
    img = phantom_frames([24])[0]
    inf_img = img.astype(np.float64)
    inf_img[150, 300] = np.inf
    seen = {}
    for impl in (_core, _pure):
        outcomes = []
        with on_backend(impl), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for frame, params in ((img, Params(phi1=1e200)), (inf_img, Params())):
                try:
                    outcomes.append(classify.detect(frame, params).labels.tolist())
                except ValueError as exc:
                    outcomes.append(str(exc))
        seen[impl.__name__] = outcomes, [str(w.message) for w in caught]
    assert seen[_core.__name__] == seen[_pure.__name__]
    assert seen[_pure.__name__][1] == []


def test_huge_sigma_names_its_field():
    # taps past any array are a data error, taps past this host's memory
    # an allocation failure; both name the field, on either backend
    img = phantom_frames([23])[0]
    for impl in (_core, _pure):
        with on_backend(impl):
            for name in ("sigma_u", "sigma_v", "sigma_w"):
                # 1e308: 3 sigma is past float range
                for sigma in ("1e+300", "1e+308"):
                    with pytest.raises(ValueError, match=f"^{name} {re.escape(sigma)} needs"):
                        classify.detect(img, Params(**{name: float(sigma)}))
                with pytest.raises(MemoryError, match=f"^{name} 1e\\+15 needs"):
                    classify.detect(img, Params(**{name: 1e15}))
            # the sigma_w taps are built before the cloud is found, so a
            # constant frame, whose map has no salient pixel, names it too
            assert len(classify.detect(np.zeros((150, 40), np.uint8)).triangle_complex.vertices) == 0
            with pytest.raises(ValueError, match="^sigma_w 1e\\+300 needs"):
                classify.detect(np.zeros((150, 40), np.uint8), Params(sigma_w=1e300))


def test_huge_int_fields_name_their_field():
    # an integer field past float range is rounded without a float
    # conversion in the error that names it, on either backend
    img = phantom_frames([23])[0]
    for impl in (_core, _pure):
        with on_backend(impl):
            too_far = r"^crop_rows must lie in \[0, 300\), the frame height, got 1e\+400$"
            with pytest.raises(ValueError, match=too_far):
                classify.detect(img, Params(crop_rows=10**400))
            with pytest.raises(MemoryError, match=r"^stack_size 1e\+400 on a 200 x 600 frame"):
                classify.detect(img, Params(stack_size=10**400))


def test_frames_with_no_columns_are_rejected():
    # a frame with no columns, like one with no rows left after the crop,
    # raises a ValueError that says so, with no numpy warning, on either
    # backend
    for impl in (_core, _pure):
        with on_backend(impl), warnings.catch_warnings():
            warnings.simplefilter("error")
            for frame in (np.zeros((130, 0), np.uint8), np.zeros((1, 0)), np.zeros((0, 0))):
                with pytest.raises(ValueError, match="^expected a frame at least 1 column wide"):
                    classify.detect(frame, Params())
            with pytest.raises(ValueError, match=r"^crop_rows must lie in \[0, 100\)"):
                classify.detect(np.zeros((100, 5), np.uint8), Params())

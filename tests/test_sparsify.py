import tracemalloc

import numpy as np
import pytest

from toposhadow import _kernels
from toposhadow._kernels import _pure
from toposhadow.classify import texture
from toposhadow.saliency import Params, gaussian_kernel_1d, salient_threshold, threshold_points
from toposhadow.sparsify import density_field, thin
from toposhadow.synth import PhantomSpec, synth_phantom, synth_tilt_sequence


def field(saliency, p):
    """density_field at every pixel, shaped as the frame."""
    saliency = np.asarray(saliency)
    every_pixel = np.argwhere(np.ones(saliency.shape))
    return density_field(saliency, every_pixel, p).reshape(saliency.shape)


def at(cloud, density):
    """The spacing vector thin takes: the density field at each point."""
    cloud = np.asarray(cloud)
    return density[cloud[:, 0], cloud[:, 1]]


def test_density_bounds():
    p = Params()
    flat = field(np.zeros((30, 30)), p)
    assert np.array_equal(flat, np.full((30, 30), 35.0))
    bright = field(np.full((30, 30), 255.0), p)
    assert np.array_equal(bright, np.full((30, 30), 15.0))
    mid = field(np.full((30, 30), 100.0), p)
    assert np.all(mid > 15.0) and np.all(mid < 35.0)


def test_density_monotone_in_saliency():
    p = Params()
    lo = field(np.full((10, 10), 20.0), p)[5, 5]
    hi = field(np.full((10, 10), 200.0), p)[5, 5]
    assert hi < lo  # more salient -> tighter spacing


def full_field(saliency, p):
    """The spacing field over the whole frame, as the detector once built it."""
    s_hat = np.asarray(saliency, dtype=np.float64) / 255.0
    kw = gaussian_kernel_1d(p.sigma_w)
    blurred = _kernels.correlate1d_replicate(s_hat, kw, 0)
    blurred = _kernels.correlate1d_replicate(blurred, kw, 1)
    np.clip(blurred, 0.0, 1.0, out=blurred)
    return p.phi1 + p.phi2 * (1.0 - blurred)


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_density_field_is_the_full_field_at_the_points(backend, monkeypatch):
    try:
        impl = _kernels.get_backend(backend)
    except ImportError:
        pytest.skip("compiled core not built")
    for name in _kernels.KERNELS:
        monkeypatch.setattr(_kernels, name, getattr(impl, name))
    frames = [synth_phantom(PhantomSpec(seed=seed))[0] for seed in (1, 123)]
    frames.append(synth_tilt_sequence(9, PhantomSpec(seed=4))[1][0])
    for img in frames:
        sal = texture(img, Params())
        for p in (Params(), Params(sigma_w=3.0, phi1=5.0), Params(sigma_w=0.3, gamma=2.0)):
            pts = threshold_points(sal, p.gamma)
            # the whole cloud, and column bands that slice the frame on
            # the left, on the right and on both sides
            for lo, hi in ((0, sal.shape[1]), (0, 90), (510, sal.shape[1]), (200, 260)):
                band = pts[(pts[:, 1] >= lo) & (pts[:, 1] < hi)]
                expected = full_field(sal, p)[band[:, 0], band[:, 1]]
                assert np.array_equal(density_field(sal, band, p), expected)


def test_thin_close_pair():
    cloud = np.array([[0, 0], [0, 10]])
    density = np.full((5, 20), 15.0)
    kept = thin(cloud, at(cloud, density))
    assert kept.tolist() == [[0, 0]]


def test_thin_far_pair():
    cloud = np.array([[0, 0], [0, 40]])
    density = np.full((5, 50), 15.0)
    kept = thin(cloud, at(cloud, density))
    assert kept.tolist() == [[0, 0], [0, 40]]


def test_thin_boundary_inclusive():
    # separation exactly equal to the local spacing is still too close
    cloud = np.array([[0, 0], [0, 15]])
    density = np.full((5, 20), 15.0)
    assert thin(cloud, at(cloud, density)).tolist() == [[0, 0]]


def test_thin_uses_candidate_spacing():
    # the second point's own requirement (10) rejects it even though the
    # first point's requirement (5) would not have
    cloud = np.array([[0, 0], [0, 8]])
    density = np.full((3, 20), 5.0)
    density[0, 8] = 10.0
    assert thin(cloud, at(cloud, density)).tolist() == [[0, 0]]
    # and with roles flipped the pair survives
    density = np.full((3, 20), 10.0)
    density[0, 8] = 5.0
    assert thin(cloud, at(cloud, density)).tolist() == [[0, 0], [0, 8]]


def test_thin_empty():
    assert thin(np.zeros((0, 2), dtype=np.int64), np.zeros(0)).shape == (
        0,
        2,
    )


def test_thin_first_point_always_kept():
    rng = np.random.default_rng(5)
    for _ in range(10):
        cloud = np.stack(
            [rng.integers(0, 40, 30), rng.integers(0, 40, 30)], axis=1
        )
        cloud = np.unique(cloud, axis=0)
        density = rng.uniform(15.0, 35.0, size=(40, 40))
        kept = thin(cloud, at(cloud, density))
        assert kept[0].tolist() == cloud[0].tolist()
        # kept points are a subsequence of the input ordering
        pos = {tuple(p): i for i, p in enumerate(cloud.tolist())}
        idx = [pos[tuple(p)] for p in kept.tolist()]
        assert idx == sorted(idx)


def test_thin_pairwise_spacing_respected():
    rng = np.random.default_rng(9)
    cloud = np.stack([rng.integers(0, 60, 80), rng.integers(0, 60, 80)], axis=1)
    cloud = np.unique(cloud, axis=0)
    density = rng.uniform(15.0, 35.0, size=(60, 60))
    kept = thin(cloud, at(cloud, density))
    # no kept point violates the spacing demanded at any later kept point
    for i in range(1, len(kept)):
        lam = density[kept[i][0], kept[i][1]]
        d = np.sqrt(((kept[:i] - kept[i]) ** 2).sum(axis=1))
        assert np.all(d > lam)


def test_density_field_allocates_two_frames():
    # the axis-0 pass cannot run in place, so its input (the map) and its
    # output are alive together; the pure pass, which density_field runs
    # on either backend, adds the padded buffer of one column strip of the
    # map over 255 (height + 2 radius rows) and its row-block buffers
    img, _ = synth_phantom(PhantomSpec(seed=123))
    p = Params()
    sal = texture(img, p)
    pts = threshold_points(sal, p.gamma)
    assert pts[:, 1].min() == 0 and pts[:, 1].max() == sal.shape[1] - 1  # every column
    tracemalloc.start()
    try:
        density_field(sal, pts, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.01 * sal.nbytes, peak / sal.nbytes


def test_pure_thin_salient_scales_the_map_into_the_padded_pass():
    # the map over 255 is written straight into the axis-0 pass's padded
    # buffer, with no scaled copy of the map beside it: on the seed-123
    # phantom pure thin_salient peaks below 3.6 frames besides the cloud
    # it finds, where the copy made it 4.0 (the row-padded pass output,
    # which the point pass reads, and its per-point buffers set the peak)
    img, _ = synth_phantom(PhantomSpec(seed=123))
    p = Params()
    sal = texture(img, p)
    weights = gaussian_kernel_1d(p.sigma_w)
    thr = salient_threshold(p.gamma)
    cloud = threshold_points(sal, p.gamma)
    _pure.thin_salient(sal, weights, thr, p.phi1, p.phi2)
    tracemalloc.start()
    try:
        _pure.thin_salient(sal, weights, thr, p.phi1, p.phi2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.6 * sal.nbytes + cloud.nbytes, (peak - cloud.nbytes) / sal.nbytes
import math

import numpy as np
import pytest

from toposhadow.saliency import (
    INT_FIELDS,
    PARAM_FIELDS,
    Params,
    field_value,
    filter_stack,
    gaussian_kernel_1d,
    std_map,
    threshold_points,
)


def test_kernel_narrow_sigma():
    w = gaussian_kernel_1d(0.2)
    assert w.shape == (3,)
    # independent scalar: Z = 1 + 2 exp(-1/(2*0.04))
    z = 1.0 + 2.0 * math.exp(-12.5)
    assert w[1] == pytest.approx(1.0 / z, rel=1e-12)
    assert abs(w.sum() - 1.0) < 1e-12


def test_kernel_wide_sigma():
    w = gaussian_kernel_1d(1.8)
    assert w.shape == (13,)  # radius ceil(3 * 1.8) = 6
    assert abs(w.sum() - 1.0) < 1e-12
    # spot-check one off-center tap against the scalar formula
    z = sum(math.exp(-(k * k) / (2.0 * 1.8 * 1.8)) for k in range(-6, 7))
    assert w[6 + 2] == pytest.approx(math.exp(-4.0 / (2.0 * 1.8 * 1.8)) / z, rel=1e-12)


def test_kernel_symmetry():
    for sigma in (0.2, 0.7, 1.8, 5.0, 20.0):
        w = gaussian_kernel_1d(sigma)
        assert np.array_equal(w, w[::-1]), sigma


def test_stack_preserves_constants_exactly():
    img = np.full((40, 30), 137, dtype=np.uint8)
    stack = filter_stack(img, Params())
    assert stack.shape == (6, 40, 30)
    for layer in stack:
        assert np.array_equal(layer, np.full((40, 30), 137.0))


def test_stack_first_layer_is_input():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(25, 35)).astype(np.uint8)
    stack = filter_stack(img, Params())
    assert np.array_equal(stack[0], img.astype(np.float64))


def test_stack_peak_shrinks_every_layer():
    img = np.zeros((31, 31), dtype=np.uint8)
    img[15, 15] = 255
    stack = filter_stack(img, Params())
    peaks = [float(layer.max()) for layer in stack]
    for a, b in zip(peaks, peaks[1:]):
        assert b < a


def test_std_map_single_outlier():
    stack = np.array([0, 0, 0, 0, 0, 6], dtype=np.float64).reshape(6, 1, 1)
    s = std_map(stack)
    # mean 1, squared deviations 5*1 + 25, divided by all 6 layers
    assert s[0, 0] == pytest.approx(math.sqrt(5.0), rel=1e-12)


def test_std_map_two_layers_exact():
    stack = np.array([10.0, 16.0]).reshape(2, 1, 1)
    assert std_map(stack)[0, 0] == 3.0


def test_std_map_identical_layers():
    layer = np.arange(12.0).reshape(3, 4)
    stack = np.stack([layer] * 6)
    assert not std_map(stack).any()


def test_threshold_empty_when_flat():
    assert threshold_points(np.zeros((5, 5)), 4.0).shape == (0, 2)


def test_threshold_boundary_inclusive():
    s = np.zeros((6, 7))
    s[2, 3] = 10.2  # exactly gamma * 255 / 100 at gamma=4
    pts = threshold_points(s, 4.0)
    assert pts.tolist() == [[2, 3]]
    s[2, 3] = np.nextafter(10.2, 0.0)
    assert threshold_points(s, 4.0).shape == (0, 2)


def test_threshold_high_gamma():
    s = np.full((4, 4), 50.0)
    assert threshold_points(s, 100.0).shape == (0, 2)


def test_threshold_row_major_order():
    rng = np.random.default_rng(11)
    s = rng.uniform(0.0, 30.0, size=(20, 20))
    pts = threshold_points(s, 4.0)
    order = [tuple(p) for p in pts.tolist()]
    assert order == sorted(order)


def test_threshold_layout_is_c_contiguous_int64():
    s = np.random.default_rng(12).uniform(0.0, 30.0, size=(30, 40))
    pts = threshold_points(s, 4.0)
    assert pts.dtype == np.int64 and pts.ndim == 2 and pts.shape[1] == 2
    assert pts.flags.c_contiguous
    assert len(pts) > 0


def test_threshold_equals_argwhere():
    rng = np.random.default_rng(13)
    thr = 4.0 * 255.0 / 100.0
    maps = [rng.uniform(0.0, 20.0, size=shape)
            for shape in ((1, 1), (1, 37), (29, 1), (17, 23), (64, 600))]
    maps += [np.zeros(shape) for shape in ((0, 0), (0, 5), (5, 0), (4, 6))]  # empty
    maps += [np.full((3, 5), 255.0), np.full((1, 1), thr)]  # all salient
    on = rng.uniform(0.0, 20.0, size=(12, 9))
    on[rng.random(on.shape) < 0.3] = thr  # pixels exactly on the threshold
    on[0, 0], on[-1, -1] = np.nextafter(thr, 0.0), thr
    maps.append(on)
    for s in maps:
        pts = threshold_points(s, 4.0)
        expected = np.argwhere(s >= thr)
        assert pts.shape == expected.shape and pts.dtype == np.int64, s.shape
        assert np.array_equal(pts, expected), s.shape
        assert pts.flags.c_contiguous


def test_params_validation():
    # every rejection names its field and the value it got
    for kwargs, message in (
        ({"sigma_u": 0.0}, "sigma_u must be positive, got 0.0"),
        ({"sigma_v": -1.0}, "sigma_v must be positive, got -1.0"),
        ({"sigma_w": -2.5}, "sigma_w must be positive, got -2.5"),
        ({"stack_size": 1}, "stack_size must be at least 2, got 1"),
        ({"gamma": 0.0}, r"gamma must lie in \(0, 100\], got 0.0"),
        ({"gamma": 100.5}, r"gamma must lie in \(0, 100\], got 100.5"),
        ({"phi1": -0.1}, "phi1 must be non-negative, got -0.1"),
        ({"phi2": -3.0}, "phi2 must be non-negative, got -3.0"),
        ({"epsilon": 0.0}, "epsilon must be positive, got 0.0"),
        ({"tau": 0}, "tau must be at least 1, got 0"),
        ({"crop_rows": -1}, "crop_rows must be non-negative, got -1"),
        ({"triangle_cap": 0}, "triangle_cap must be positive, got 0"),
        # past the 4300 digits that repr writes, an int is written rounded
        ({"crop_rows": -10**5000}, r"crop_rows must be non-negative, got -1e\+5000"),
        ({"triangle_cap": 10**5000}, r"triangle_cap must be at most 2\*\*63 - 1, got 1e\+5000"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Params(**kwargs)
    for name in sorted(PARAM_FIELDS - INT_FIELDS):
        # ints past float range too, which math.isfinite cannot convert,
        # one of them past the 4300 digits that repr writes
        for value in (float("nan"), float("inf"), float("-inf"), 10**400, 10**5000):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                Params(**{name: value})
    # a sigma so small that 2 sigma^2 is not a normal float (1e-300: 0)
    for name in ("sigma_u", "sigma_v", "sigma_w"):
        for value in (1e-300, 5e-324, 1e-155):
            with pytest.raises(ValueError, match=f"{name} is too small"):
                Params(**{name: value})
        # the smallest accepted sigma still gives finite taps, silently
        with np.errstate(all="raise", under="ignore"):
            taps = gaussian_kernel_1d(getattr(Params(**{name: 1e-153}), name))
        assert taps.tolist() == [0.0, 1.0, 0.0]
    # the compiled core reads the cap as a C long long
    assert Params(triangle_cap=2**63 - 1).triangle_cap == 2**63 - 1
    # one past it, and one past float range, which is compared as an int
    for value in (2**63, 10**400):
        too_large = rf"^triangle_cap must be at most 2\*\*63 - 1, got {value}$"
        with pytest.raises(ValueError, match=too_large):
            Params(triangle_cap=value)


def test_field_value_coerces_by_field_type():
    for value in (2, "2", 2.0, "2.0", " 2 ", "2e0"):
        got = field_value("tau", value)
        assert got == 2 and type(got) is int, value
    assert field_value("crop_rows", "1e3") == 1000
    # integer text keeps every digit, past float precision
    assert field_value("triangle_cap", "12345678901234567891") == 12345678901234567891
    for value in (60, "60", 60.0, "6e1"):
        got = field_value("epsilon", value)
        assert got == 60.0 and type(got) is float, value
    for name in sorted(PARAM_FIELDS):
        for value in ("nan", "inf", "-inf", "1e400", float("nan"), "abc", "", None):
            with pytest.raises(ValueError, match=name):
                field_value(name, value)
    for name in sorted(INT_FIELDS):
        for value in (2.5, "2.5", "1e-3"):
            with pytest.raises(ValueError, match=name):
                field_value(name, value)
    with pytest.raises(ValueError, match="kappa.*choose from sigma_u, "):
        field_value("kappa", 1.0)


def test_params_defaults_frozen():
    p = Params()
    assert (p.sigma_u, p.sigma_v, p.stack_size) == (1.8, 0.2, 6)
    assert (p.gamma, p.phi1, p.phi2, p.sigma_w) == (4.0, 15.0, 20.0, 20.0)
    assert (p.epsilon, p.tau, p.crop_rows) == (60.0, 2, 100)
    with pytest.raises(Exception):
        p.gamma = 5.0

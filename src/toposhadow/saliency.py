"""Filter-stack saliency: where does repeated smoothing change the image?

The stack holds the input frame followed by successively smoothed copies;
the per-pixel standard deviation across the stack is large exactly where
the local texture is destroyed by smoothing, i.e. where visible tissue
speckle lives.
"""

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import _kernels
from ._kernels import _pure
from .errors import number_text
from .topology import DEFAULT_TRIANGLE_CAP


@dataclass(frozen=True)
class Params:
    """Pipeline parameters, defaulting to the tuned operating point.

    ``sigma_u`` smooths along rows (the depth axis), ``sigma_v`` along
    columns, so the default smoothing is strongly vertical.  ``gamma`` is
    a percentage of the 8-bit intensity range.  ``phi1``/``phi2`` bound
    the thinning distance in pixels, ``sigma_w`` smooths the density
    field, ``epsilon`` is the triangle edge threshold and ``tau`` the
    scan-line triangle-count threshold.
    """

    sigma_u: float = 1.8
    sigma_v: float = 0.2
    stack_size: int = 6
    gamma: float = 4.0
    phi1: float = 15.0
    phi2: float = 20.0
    sigma_w: float = 20.0
    epsilon: float = 60.0
    tau: int = 2
    crop_rows: int = 100
    triangle_cap: int = DEFAULT_TRIANGLE_CAP

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # an int on an integer field is finite, and may lie past float
            # range; any other value must convert to a finite float
            try:
                finite = f.type is int and isinstance(value, int) or math.isfinite(value)
            except OverflowError:
                finite = False
            if not finite:
                raise ValueError(f"{f.name} must be finite, got {number_text(value)}")
        for name in ("sigma_u", "sigma_v", "sigma_w"):
            sigma = getattr(self, name)
            if sigma <= 0:
                raise ValueError(f"{name} must be positive, got {sigma!r}")
            # gaussian_kernel_1d divides by 2 sigma^2, which must be a
            # normal float: below that the division overflows or is by 0
            if 2.0 * sigma * sigma < sys.float_info.min:
                raise ValueError(f"{name} is too small for Gaussian taps, got {sigma!r}")
        for name, ok, rule in (
            ("stack_size", self.stack_size >= 2, "must be at least 2"),
            ("gamma", 0.0 < self.gamma <= 100.0, "must lie in (0, 100]"),
            ("phi1", self.phi1 >= 0, "must be non-negative"),
            ("phi2", self.phi2 >= 0, "must be non-negative"),
            ("epsilon", self.epsilon > 0, "must be positive"),
            ("tau", self.tau >= 1, "must be at least 1"),
            ("crop_rows", self.crop_rows >= 0, "must be non-negative"),
            ("triangle_cap", self.triangle_cap >= 1, "must be positive"),
            # the compiled core reads the cap as a C long long
            ("triangle_cap", self.triangle_cap <= 2**63 - 1, "must be at most 2**63 - 1"),
        ):
            if not ok:
                raise ValueError(f"{name} {rule}, got {_value_text(getattr(self, name))}")


def _value_text(value):
    """`value` as repr writes it, or past the digits repr may write (4300
    for an int) as ``errors.number_text`` does."""
    try:
        return repr(value)
    except ValueError:
        return number_text(value)


# the Params field names, and the integer-valued ones; the rest are floats
PARAM_FIELDS = frozenset(f.name for f in fields(Params))
INT_FIELDS = frozenset(f.name for f in fields(Params) if f.type is int)


def field_value(name, value):
    """`value`, a number or its text, as the type of Params field `name`.

    A float field takes any finite number.  An integer field takes a
    whole one, written as ``2``, ``2.0`` or ``1e3``; integer text keeps
    every digit.  Anything else raises ValueError naming the field: an
    unknown name (with the choices), a fraction on an integer field, or
    a value that is not a finite number (``nan``, ``inf``, ``1e400``).
    """
    if name not in PARAM_FIELDS:
        choices = ", ".join(f.name for f in fields(Params))
        raise ValueError(f"unknown parameter {name!r}; choose from {choices}")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name}: bad value {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if name not in INT_FIELDS:
        return number
    if not number.is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    try:
        return int(value)  # exact for integer text, past float precision
    except ValueError:  # text such as "2.0" or "1e3"
        return int(number)


def gaussian_kernel_1d(sigma, name="sigma"):
    """Unit-sum Gaussian taps truncated at ceil(3*sigma).

    Returns an odd-length float64 vector, symmetric about its centre.
    ``name`` is the field ``sigma`` came from.  Taps that cannot be built
    raise an error naming it: ValueError when no array can hold them,
    MemoryError when this host cannot.
    """
    if sigma <= 0:
        raise ValueError(f"{name} must be positive")
    reach = 3.0 * sigma
    # past float range 3 sigma is inf, which has no ceil, and so are its taps
    radius = math.ceil(reach) if math.isfinite(reach) else math.inf
    taps = 2 * radius + 1
    if taps > sys.maxsize // 8:  # float64 bytes past any address
        raise ValueError(
            f"{name} {sigma:.6g} needs {taps:.3g} Gaussian taps, more than an array holds"
        )
    try:
        k = np.arange(-radius, radius + 1, dtype=np.float64)
        w = np.exp(-(k * k) / (2.0 * sigma * sigma))
    except MemoryError:
        raise MemoryError(f"{name} {sigma:.6g} needs {taps:.3g} Gaussian taps") from None
    return w / w.sum()


def as_real(img):
    """`img` as an array whose values cast to float64 exactly as
    ``np.asarray(img, dtype=np.float64)`` gives them: a bool, integer or
    float array keeps its dtype, anything else is converted here."""
    img = np.asarray(img)
    if img.dtype.kind not in "biuf":
        img = np.asarray(img, dtype=np.float64)
    return img


def filter_stack(img, params):
    """Iterated anisotropic blur: layer 0 is the input, each later layer
    is the previous one smoothed vertically by sigma_u then horizontally
    by sigma_v (replicate borders).  Returns (stack_size, H, W) float64.
    Layer 0 is cast from the input in place, with no float64 copy first.
    """
    img = as_real(img)
    if img.ndim != 2:
        raise ValueError("expected a 2D image")
    ku = gaussian_kernel_1d(params.sigma_u, "sigma_u")
    kv = gaussian_kernel_1d(params.sigma_v, "sigma_v")
    stack = np.empty((params.stack_size,) + img.shape, dtype=np.float64)
    stack[0] = img
    for f in range(1, params.stack_size):
        smoothed = _kernels.correlate1d_replicate(stack[f - 1], ku, 0)
        stack[f] = _kernels.correlate1d_replicate(smoothed, kv, 1)
    return stack


def std_map(stack):
    """Per-pixel population standard deviation across the stack layers,
    by numpy's own reductions over the stack as a contiguous float64 array.

    The reference for the deviation map, whose kernels sum the layers one
    by one: numpy's order too, except on a one-pixel stack of 8 or more
    layers, which numpy sums pairwise.
    """
    s = np.ascontiguousarray(stack, dtype=np.float64)
    if s.ndim != 3 or s.shape[0] == 0:
        raise ValueError("expected a non-empty (layers, H, W) stack")
    return np.sqrt(((s - s.mean(axis=0)) ** 2).mean(axis=0))


def deviation_map(img, params):
    """The deviation map of a frame: ``std_map(filter_stack(img, params))``,
    bit for bit, in one kernel call.

    The compiled kernel splits a large frame into two column parts, run on
    two cores when a second one is free.  Raises MemoryError naming
    ``stack_size`` when the stack cannot be held.
    """
    img = as_real(img)
    if img.ndim != 2:
        raise ValueError("expected a 2D image")
    if img.size == 1:
        # numpy sums a one-pixel stack pairwise from 8 layers on, not
        # layer by layer as the kernel does; it is cheap here, so use it
        return std_map(filter_stack(img, params))
    ku = gaussian_kernel_1d(params.sigma_u, "sigma_u")
    kv = gaussian_kernel_1d(params.sigma_v, "sigma_v")
    try:
        return _kernels.deviation_map(img, ku, kv, params.stack_size)
    except MemoryError as exc:
        height, width = img.shape
        raise MemoryError(
            f"stack_size {number_text(params.stack_size)} on a {height} x {width} frame: {exc}"
        ) from None


def salient_threshold(gamma):
    """The value a deviation-map pixel must reach to be salient: gamma
    percent of 255.  Raises ValueError unless gamma lies in (0, 100]."""
    if not 0.0 < gamma <= 100.0:
        raise ValueError("gamma must lie in (0, 100]")
    return gamma * 255.0 / 100.0


def threshold_points(saliency, gamma):
    """All (row, col) with saliency >= gamma percent of 255, row-major.

    The comparison is inclusive; a pixel sitting exactly on the threshold
    is salient.  Returns a C-contiguous (N, 2) int64 array, equal to
    ``np.argwhere(saliency >= thr)`` (whose result is transposed in
    memory), so the kernels read it without a copy.  The reference for
    the points the ``thin_salient`` kernel finds itself.
    """
    thr = salient_threshold(gamma)
    s = np.asarray(saliency, dtype=np.float64)
    if s.ndim != 2:
        raise ValueError("expected a 2D saliency map")
    return _pure._salient_points(s, thr)

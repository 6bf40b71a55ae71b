"""Density-adaptive thinning of the salient point cloud.

Salient regions get a small spacing threshold (keep many points), bland
regions a large one, so the retained cloud is dense exactly where the
saliency map says tissue is.
"""

import numpy as np

from . import _kernels
from ._kernels import _pure
from .saliency import gaussian_kernel_1d


def density_field(saliency, points, params):
    """Spacing threshold in [phi1, phi1 + phi2] at each (row, col) point.

    The saliency map is normalized to [0, 1], blurred isotropically with
    sigma_w, clamped, and mapped so high saliency gives the minimum
    spacing phi1.  Only what the points read is computed: the axis-0
    pass runs over the columns within the kernel radius of a point, and
    the axis-1 pass, clamp and map at the points alone.  Each value is
    bit-identical to the full-frame field at its point.  Returns a
    float64 vector, one value per point.  The reference for the
    ``thin_salient`` kernel, which the detector runs; it runs on the pure
    numpy passes whichever backend is loaded.
    """
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    if len(pts) == 0:
        return np.zeros(0, dtype=np.float64)
    kw = gaussian_kernel_1d(params.sigma_w, "sigma_w")
    return _pure._spacing_at(saliency, kw, pts, params.phi1, params.phi2)


def thin(cloud, spacing):
    """Greedy row-major thinning against each candidate's own spacing.

    ``spacing`` holds one threshold per cloud point, as
    ``density_field`` returns it.  A candidate survives iff no previously
    kept point lies within (inclusive) its spacing.  The result is an
    order-preserving subset of the input cloud.  With ``density_field``,
    the reference for the ``thin_salient`` kernel.
    """
    pts = np.asarray(cloud, dtype=np.int64)
    if pts.size == 0:
        return pts.reshape(0, 2)
    kept = _kernels.thin_points(pts, spacing)
    return pts[kept]

"""Scan-line shadow classification and the end-to-end detector."""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .frame_io import crop_top
from .saliency import Params, as_real, deviation_map, gaussian_kernel_1d, salient_threshold
from .topology import Complex, mean_confidence, occurrence_confidence, rips_triangles


# the Params fields each stage reads; together they cover every field once
TEXTURE_FIELDS = ("crop_rows", "sigma_u", "sigma_v", "stack_size")
CLOUD_FIELDS = ("gamma", "sigma_w", "phi1", "phi2")
BACK_END_FIELDS = ("epsilon", "triangle_cap", "tau")


@dataclass(frozen=True)
class DetectionResult:
    """Everything the detector produces for one frame.

    ``labels`` spans the full frame width (1 = shadow, 0 = visible);
    ``confidence`` covers the cropped region only.  ``simplex_counts``
    is the per-column triangle count the labels are thresholded from,
    and ``triangle_complex`` the triangles over the thinned cloud, in
    cropped coordinates.
    """

    labels: np.ndarray
    confidence: np.ndarray
    mean_confidence: float
    simplex_counts: np.ndarray
    triangle_complex: Complex

    @property
    def cloud_size(self):
        return len(self.triangle_complex.vertices)

    @property
    def triangle_count(self):
        return len(self.triangle_complex.triangles)


def scanline_counts(cx, width):
    """Number of triangles whose closed region meets each image column.

    A closed triangle meets exactly the columns between its leftmost and
    rightmost vertex, so the count reduces to a column-extent sweep.
    Returns an int64 vector of length ``width``.
    """
    counts = np.zeros(int(width), dtype=np.int64)
    if len(cx.triangles) == 0:
        return counts
    cols = cx.vertices[:, 1][cx.triangles]
    cmin = cols.min(axis=1)
    cmax = cols.max(axis=1)
    diff = np.zeros(int(width) + 1, dtype=np.int64)
    np.add.at(diff, cmin, 1)
    np.add.at(diff, cmax + 1, -1)
    return np.cumsum(diff[:-1])


def classify_scanlines(counts, tau):
    """Label a column shadow (1) iff its triangle count is strictly
    below tau."""
    if tau < 1:
        raise ValueError("tau must be at least 1")
    return (np.asarray(counts) < tau).astype(np.uint8)


def texture(img, params):
    """Dense texture stages of one uncropped frame: crop -> deviation map
    (the std map of the filter stack).

    Reads only the ``TEXTURE_FIELDS`` of ``params``.  Returns the
    deviation map, float64 over the cropped frame.  A frame with no
    columns, or no rows left after the crop, raises ValueError.  The
    frame is cropped in its own dtype; only the kept rows are cast.
    """
    img = as_real(img)
    if img.ndim != 2:
        raise ValueError("expected a 2D image")
    if img.shape[1] == 0:
        raise ValueError("expected a frame at least 1 column wide, got 0 columns")
    return deviation_map(crop_top(img, params.crop_rows), params)


def salient_cloud(saliency, params):
    """Salient points of a deviation map: threshold -> density thinning.

    Reads only the ``CLOUD_FIELDS`` of ``params``.  Returns the thinned
    cloud, (N, 2) int64 in cropped coordinates: the points of
    ``sparsify.thin(cloud, sparsify.density_field(saliency, cloud,
    params))`` with ``cloud = threshold_points(saliency, params.gamma)``,
    from one ``thin_salient`` kernel call, which finds the cloud itself.
    The sigma_w taps are built first, so a sigma_w too large for them
    raises its named error on any frame, one with no salient pixel too.
    """
    kw = gaussian_kernel_1d(params.sigma_w, "sigma_w")
    thr = salient_threshold(params.gamma)
    return _kernels.thin_salient(saliency, kw, thr, params.phi1, params.phi2)


def back_end(sparse, width, params):
    """Geometric stages over a thinned cloud: triangle build -> scan-line
    counts -> labels for a frame ``width`` columns wide.

    Reads only the ``BACK_END_FIELDS`` of ``params``.  Returns
    (complex, counts, labels).
    """
    cx = rips_triangles(sparse, params.epsilon, params.triangle_cap)
    counts = scanline_counts(cx, width)
    return cx, counts, classify_scanlines(counts, params.tau)


def detect(img, params=None):
    """Run the full pipeline on one uncropped frame.

    ``texture`` -> ``salient_cloud`` -> ``back_end`` -> confidence map.
    The map is written straight from the triangles by
    ``topology.occurrence_confidence``, with no count map in between, and
    has the bytes of ``confidence_map(occurrence_map(...))``.
    Deterministic: identical inputs give bit-identical results.
    """
    if params is None:
        params = Params()
    sparse = salient_cloud(texture(img, params), params)
    height, width = np.shape(img)
    cx, counts, labels = back_end(sparse, width, params)
    conf = occurrence_confidence(cx, width, height - params.crop_rows)
    return DetectionResult(
        labels=labels,
        confidence=conf,
        mean_confidence=mean_confidence(conf),
        simplex_counts=counts,
        triangle_complex=cx,
    )

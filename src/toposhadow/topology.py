"""Proximity triangles over the sparse cloud and their pixel coverage."""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels

DEFAULT_TRIANGLE_CAP = 2_000_000


@dataclass(frozen=True)
class Complex:
    """A point cloud plus every triangle whose three pairwise vertex
    distances are all within the build threshold.

    ``vertices`` is (N, 2) int64 (row, col); ``triangles`` is (M, 3)
    int32 index triples with i < j < k, in lexicographic order.
    """

    vertices: np.ndarray
    triangles: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), dtype=np.int32))

    def __len__(self):
        return len(self.triangles)


def rips_triangles(cloud, epsilon, cap=DEFAULT_TRIANGLE_CAP):
    """Build the triangle set: all index triples with pairwise distance
    <= epsilon (inclusive).  Raises TriangleCapError past ``cap``.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    pts = np.asarray(cloud, dtype=np.int64)
    if pts.size == 0:
        pts = pts.reshape(0, 2)
    tris = _kernels.rips_triangles(pts, float(epsilon), int(cap))
    return Complex(vertices=pts, triangles=tris)


def occurrence_map(cx, width, height):
    """Count, per pixel, the closed triangles whose region contains the
    pixel centre.  Degenerate (collinear) triangles count as segments.
    Returns (height, width) int32.
    """
    return _kernels.occurrence_counts(cx.vertices, cx.triangles, int(height), int(width))


def confidence_map(occurrence):
    """Natural log of (count + 1): zero exactly where nothing covers.  The
    counts are cast to float64 inside the ufunc, with no frame-sized copy."""
    return np.log1p(np.asarray(occurrence), dtype=np.float64)


def mean_confidence(confidence):
    """Arithmetic mean over every pixel of the map."""
    return float(np.asarray(confidence, dtype=np.float64).mean())

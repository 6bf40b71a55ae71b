"""Proximity triangles over the sparse cloud and their pixel coverage.

``occurrence_map`` counts the triangles over each pixel and
``confidence_map`` turns counts into ln(count + 1); ``detect`` takes both
steps in one kernel call through ``occurrence_confidence``, which gives
the same bytes.
"""

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


def occurrence_confidence(cx, width, height):
    """``confidence_map(occurrence_map(cx, width, height))``, bit for bit,
    with no count map in between: the kernel writes each pixel's entry of
    a table of ln(k + 1) over the counts k from 0 to the number of
    triangles, which no count exceeds.  The table has the bytes of
    ``confidence_map`` at each count, since the int32 to float64 cast is
    exact and log1p acts element by element.  The table takes 8 bytes per
    triangle, less than the triangles themselves.  Returns (height, width)
    float64.
    """
    table = np.log1p(np.arange(len(cx.triangles) + 1, dtype=np.float64))
    return _kernels.occurrence_confidence(
        cx.vertices, cx.triangles, int(height), int(width), table
    )


def confidence_map(occurrence):
    """Natural log of (count + 1): zero exactly where nothing covers.  The
    counts are cast to float64 inside the ufunc, with no frame-sized copy."""
    return np.log1p(np.asarray(occurrence), dtype=np.float64)


def mean_confidence(confidence):
    """Arithmetic mean over every pixel of the map."""
    return float(np.asarray(confidence, dtype=np.float64).mean())

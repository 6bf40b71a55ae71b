import itertools
import math
import tracemalloc

import numpy as np
import pytest

from toposhadow._kernels import _pure
from toposhadow.errors import TriangleCapError
from toposhadow.topology import (
    Complex,
    confidence_map,
    mean_confidence,
    occurrence_map,
    rips_triangles,
)


# ---------------------------------------------------------------- oracles


def brute_triangles(pts, epsilon):
    """Independent O(n^3) triple enumeration.

    The pairwise predicate is evaluated with Python's exact int-vs-float
    comparison on squared distances, so it cannot inherit any rounding
    quirk from the implementation under test.
    """
    eps_sq = float(epsilon) * float(epsilon)
    n = len(pts)
    out = []
    for i, j, k in itertools.combinations(range(n), 3):
        ok = True
        for a, b in ((i, j), (i, k), (j, k)):
            dr = int(pts[a][0]) - int(pts[b][0])
            dc = int(pts[a][1]) - int(pts[b][1])
            if dr * dr + dc * dc > eps_sq:
                ok = False
                break
        if ok:
            out.append((i, j, k))
    return out


def brute_occurrence(cx, width, height):
    """Per-pixel point-in-closed-triangle counting, exact integer signs.

    A non-degenerate triangle covers a pixel when the three edge cross
    products all match the triangle orientation (or vanish: boundary).
    A collinear triple covers the pixels on its segment.
    """
    counts = np.zeros((height, width), dtype=np.int64)
    v = cx.vertices
    for ia, ib, ic in cx.triangles:
        a, b, c = v[ia], v[ib], v[ic]
        orient = int(b[0] - a[0]) * int(c[1] - a[1]) - int(b[1] - a[1]) * int(
            c[0] - a[0]
        )
        for r in range(height):
            for col in range(width):
                p = (r, col)
                s1 = _cross(a, b, p)
                s2 = _cross(b, c, p)
                s3 = _cross(c, a, p)
                if orient > 0:
                    inside = s1 >= 0 and s2 >= 0 and s3 >= 0
                elif orient < 0:
                    inside = s1 <= 0 and s2 <= 0 and s3 <= 0
                else:
                    # collinear: on the supporting line and inside the bbox
                    inside = (
                        s1 == 0
                        and s2 == 0
                        and s3 == 0
                        and min(a[0], b[0], c[0]) <= r <= max(a[0], b[0], c[0])
                        and min(a[1], b[1], c[1]) <= col <= max(a[1], b[1], c[1])
                    )
                if inside:
                    counts[r, col] += 1
    return counts


def _cross(p, q, x):
    return int(q[0] - p[0]) * int(x[1] - p[1]) - int(q[1] - p[1]) * int(
        x[0] - p[0]
    )


def random_complex(rng, height, width, n_points, epsilon):
    pts = np.unique(
        np.stack(
            [rng.integers(0, height, n_points), rng.integers(0, width, n_points)],
            axis=1,
        ),
        axis=0,
    ).astype(np.int64)
    return rips_triangles(pts, epsilon)


# ---------------------------------------------------------------- rips


def test_rips_exact_distances_one_triangle():
    # pairwise distances 50, 50, 60: the 60 edge is included (<=)
    pts = np.array([[0, 0], [30, 40], [60, 0]])
    cx = rips_triangles(pts, 60.0)
    assert cx.triangles.tolist() == [[0, 1, 2]]


def test_rips_far_pair_blocks_triangle():
    pts = np.array([[0, 0], [100, 0], [50, 10]])
    cx = rips_triangles(pts, 60.0)
    assert len(cx) == 0


def test_rips_four_points_four_triangles():
    pts = np.array([[0, 0], [0, 10], [10, 0], [10, 10]])
    cx = rips_triangles(pts, 60.0)
    assert len(cx) == 4
    assert cx.triangles.tolist() == [
        [0, 1, 2],
        [0, 1, 3],
        [0, 2, 3],
        [1, 2, 3],
    ]


def test_rips_boundary_edge_inclusive():
    # (0,0)-(0,60) sit exactly at the threshold; the triangle exists only
    # because that edge is included
    pts = np.array([[0, 0], [0, 60], [30, 30]])
    cx = rips_triangles(pts, 60.0)
    assert cx.triangles.tolist() == [[0, 1, 2]]


def test_rips_empty_cloud():
    cx = rips_triangles(np.zeros((0, 2), dtype=np.int64), 60.0)
    assert cx.vertices.shape == (0, 2)
    assert len(cx) == 0


def test_rips_epsilon_validation():
    pts = np.array([[0, 0], [0, 1]])
    with pytest.raises(ValueError):
        rips_triangles(pts, 0.0)
    with pytest.raises(ValueError):
        rips_triangles(pts, -5.0)


def test_rips_cap():
    # 10 mutually close points: C(10,3) = 120 triangles
    pts = np.array([[0, c] for c in range(10)])
    cx = rips_triangles(pts, 60.0, cap=120)
    assert len(cx) == 120
    with pytest.raises(TriangleCapError) as exc:
        rips_triangles(pts, 60.0, cap=119)
    assert exc.value.cap == 119


def test_pure_rips_memory_is_not_quadratic():
    # 2,000 points: dense n x n distance matrices would take over 100 MiB
    rng = np.random.default_rng(7)
    pts = np.unique(rng.integers(0, 400, size=(2100, 2)), axis=0)[:2000]
    assert len(pts) == 2000
    tracemalloc.start()
    try:
        with pytest.raises(TriangleCapError):
            _pure.rips_triangles(pts, 60.0, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_pure_occurrence_memory_is_bounded_by_the_frame():
    # 100,000 small triangles span about 1.1 M (triangle, row) pairs;
    # rasterizing them all in one numpy pass would take over 100 MiB
    rng = np.random.default_rng(8)
    corners = rng.integers(0, [180, 580], size=(100_000, 1, 2))
    pts = (corners + rng.integers(0, 20, size=(100_000, 3, 2))).reshape(-1, 2)
    tris = np.arange(len(pts)).reshape(-1, 3)
    tracemalloc.start()
    try:
        counts = _pure.occurrence_counts(pts, tris, 200, 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.max() > 0
    assert peak < 32 * 2**20, peak


def test_rips_matches_brute_force():
    rng = np.random.default_rng(20240811)
    for trial in range(40):
        n = int(rng.integers(3, 26))
        pts = np.stack(
            [rng.integers(0, 120, n), rng.integers(0, 120, n)], axis=1
        ).astype(np.int64)
        eps = float(rng.uniform(5.0, 80.0))
        cx = rips_triangles(pts, eps)
        expect = brute_triangles(pts, eps)
        got = [tuple(t) for t in cx.triangles.tolist()]
        assert got == sorted(expect), f"trial {trial} eps {eps}"
        # emission order is lexicographic, no duplicates
        assert got == sorted(set(got))


# ---------------------------------------------------------------- occurrence


def test_occurrence_no_triangles():
    cx = Complex(vertices=np.array([[0, 0], [5, 5]]))
    assert not occurrence_map(cx, 10, 10).any()


def test_occurrence_right_triangle():
    cx = Complex(
        vertices=np.array([[0, 0], [0, 4], [4, 0]]),
        triangles=np.array([[0, 1, 2]], dtype=np.int32),
    )
    counts = occurrence_map(cx, 8, 8)
    for r in range(8):
        for c in range(8):
            assert counts[r, c] == (1 if r + c <= 4 else 0), (r, c)


def test_occurrence_doubling():
    tris = np.array([[0, 1, 2], [0, 1, 2]], dtype=np.int32)
    cx1 = Complex(np.array([[1, 1], [1, 6], [6, 3]]), tris[:1])
    cx2 = Complex(np.array([[1, 1], [1, 6], [6, 3]]), tris)
    assert np.array_equal(occurrence_map(cx2, 9, 9), 2 * occurrence_map(cx1, 9, 9))


def test_occurrence_matches_brute_force():
    rng = np.random.default_rng(7)
    for trial in range(12):
        cx = random_complex(rng, 18, 24, int(rng.integers(4, 10)), 12.0)
        if len(cx) > 40:  # keep the python oracle affordable
            cx = Complex(cx.vertices, cx.triangles[:40])
        got = occurrence_map(cx, 24, 18)
        expect = brute_occurrence(cx, 24, 18)
        assert np.array_equal(got, expect), f"trial {trial}"


def test_occurrence_degenerate_collinear():
    # all three vertices on one row: covers exactly the segment pixels
    cx = Complex(
        vertices=np.array([[3, 1], [3, 5], [3, 9]]),
        triangles=np.array([[0, 1, 2]], dtype=np.int32),
    )
    counts = occurrence_map(cx, 12, 6)
    expect = np.zeros((6, 12), dtype=counts.dtype)
    expect[3, 1:10] = 1
    assert np.array_equal(counts, expect)


# ---------------------------------------------------------------- confidence


def test_confidence_values():
    occ = np.array([[0, 1, 3]])
    conf = confidence_map(occ)
    assert conf[0, 0] == 0.0
    assert conf[0, 1] == pytest.approx(math.log(2.0), rel=1e-15)
    assert conf[0, 2] == pytest.approx(2.0 * math.log(2.0), rel=1e-15)


def test_confidence_matches_log1p_of_float64_counts():
    # the cast inside the ufunc gives the bytes of casting first
    rng = np.random.default_rng(260)
    occ = rng.integers(0, 40, size=(30, 50), dtype=np.int32)
    occ[0, :4] = (0, 1, 2, 2**31 - 1)
    for counts in (occ, occ[::2, 1::3], occ.T):
        conf = confidence_map(counts)
        expect = np.log1p(np.asarray(counts, dtype=np.float64))
        assert conf.dtype == np.float64 and conf.shape == counts.shape
        assert conf.tobytes() == expect.tobytes()


def test_mean_confidence():
    assert mean_confidence(np.zeros((4, 4))) == 0.0
    half = np.zeros(10)
    half[:5] = math.log(2.0)
    assert mean_confidence(half.reshape(2, 5)) == pytest.approx(
        math.log(2.0) / 2.0, rel=1e-15
    )
    assert mean_confidence(np.full((3, 3), 1.25)) == pytest.approx(1.25, rel=1e-15)

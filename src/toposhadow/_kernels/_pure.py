"""Pure numpy fallback for the hot kernels.

Every function here is the semantic twin of its compiled counterpart in
the C extension ``_core`` (source ``_coremodule.c``) and must stay
bit-identical to it: same arithmetic, same accumulation order, same tie
rules.  The compiled core exists for speed only; the cross-backend
equality tests hold both sides to that contract.
"""

import numpy as np

from ..errors import TriangleCapError


def correlate1d_replicate(img, weights, axis):
    """Symmetric 1D correlation along `axis` with clamp-to-edge borders.

    Evaluated in center-deviation form with tap pairs accumulated from the
    innermost pair outward:

        out[p] = x[p] + sum_{k=1..r} w[k] * ((x[p-k]-x[p]) + (x[p+k]-x[p]))

    which preserves constant inputs exactly (every deviation is 0.0).
    `weights` is the full odd-length kernel; it must be symmetric.
    """
    img = np.ascontiguousarray(img, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    radius = (len(weights) - 1) // 2
    if axis == 1:
        return correlate1d_replicate(img.T, weights, 0).T.copy()
    if radius == 0:
        return img.copy()
    padded = np.pad(img, ((radius, radius), (0, 0)), mode="edge")
    height = img.shape[0]
    acc = np.zeros_like(img)
    center = padded[radius : radius + height]
    for k in range(1, radius + 1):
        before = padded[radius - k : radius - k + height]
        after = padded[radius + k : radius + k + height]
        acc += weights[radius + k] * ((before - center) + (after - center))
    return center + acc


def thin_points(points, spacing):
    """Greedy row-major thinning.

    `points` must already be in processing order; a candidate is kept iff
    no previously kept point lies within its own spacing threshold
    (Euclidean, inclusive).  Returns the kept indices in order.
    """
    n = len(points)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    cell = float(np.max(spacing))
    if cell <= 0.0:
        return np.arange(n, dtype=np.int64)
    kept = []
    grid = {}
    for i in range(n):
        r = int(points[i, 0])
        c = int(points[i, 1])
        limit = float(spacing[i])
        limit_sq = limit * limit
        gr = int(r // cell)
        gc = int(c // cell)
        ok = True
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                for (pr, pc) in grid.get((gr + dr, gc + dc), ()):
                    dy = r - pr
                    dx = c - pc
                    if dy * dy + dx * dx <= limit_sq:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            kept.append(i)
            grid.setdefault((gr, gc), []).append((r, c))
    return np.asarray(kept, dtype=np.int64)


def rips_triangles(points, epsilon, cap):
    """Enumerate every index triple with pairwise distance <= epsilon.

    Output is an (M, 3) int32 array of triples i < j < k in lexicographic
    order.  Comparison is inclusive and exact: integer squared distances
    against epsilon**2.  Raises TriangleCapError beyond `cap` triples.
    """
    n = len(points)
    if n < 3:
        return np.zeros((0, 3), dtype=np.int32)
    pts = np.asarray(points, dtype=np.int64)
    eps_sq = float(epsilon) * float(epsilon)

    def near(d):
        return (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]).astype(np.float64) <= eps_sq

    out = []
    count = 0
    for i in range(n - 2):
        # memory stays linear in n plus the square of one neighbourhood
        nbrs = np.nonzero(near(pts[i + 1 :] - pts[i]))[0] + i + 1
        if len(nbrs) < 2:
            continue
        block = pts[nbrs]
        jj, kk = np.nonzero(np.triu(near(block[:, None, :] - block[None, :, :]), 1))
        if len(jj) == 0:
            continue
        count += len(jj)
        if count > cap:
            raise TriangleCapError(cap)
        tris = np.empty((len(jj), 3), dtype=np.int32)
        tris[:, 0] = i
        tris[:, 1] = nbrs[jj]
        tris[:, 2] = nbrs[kk]
        out.append(tris)
    if not out:
        return np.zeros((0, 3), dtype=np.int32)
    return np.concatenate(out)


def _row_span(tri_pts, r):
    """Exact column span [cmin, cmax] of a closed triangle at integer row r.

    Intersections are tracked as integer fractions; ceil/floor are exact.
    Returns None when the span contains no integer column.
    """
    best_min = None  # (num, den), den > 0
    best_max = None
    for e in range(3):
        r1, c1 = tri_pts[e]
        r2, c2 = tri_pts[(e + 1) % 3]
        if r1 == r2:
            if r1 != r:
                continue
            for c in (c1, c2):
                frac = (c, 1)
                if best_min is None or frac[0] * best_min[1] < best_min[0] * frac[1]:
                    best_min = frac
                if best_max is None or frac[0] * best_max[1] > best_max[0] * frac[1]:
                    best_max = frac
        else:
            lo, hi = (r1, r2) if r1 < r2 else (r2, r1)
            if not lo <= r <= hi:
                continue
            den = r2 - r1
            num = c1 * den + (c2 - c1) * (r - r1)
            if den < 0:
                num, den = -num, -den
            frac = (num, den)
            if best_min is None or frac[0] * best_min[1] < best_min[0] * frac[1]:
                best_min = frac
            if best_max is None or frac[0] * best_max[1] > best_max[0] * frac[1]:
                best_max = frac
    if best_min is None:
        return None
    cmin = -((-best_min[0]) // best_min[1])  # ceil
    cmax = best_max[0] // best_max[1]  # floor
    if cmin > cmax:
        return None
    return cmin, cmax


def occurrence_counts(points, triangles, height, width):
    """Per-pixel count of closed triangles containing the pixel center.

    Rasterizes each triangle row by row with exact integer arithmetic and
    accumulates spans into a difference array; degenerate triangles cover
    exactly the pixel centers on their segment.
    """
    diff = np.zeros((height, width + 1), dtype=np.int32)
    pts = np.asarray(points, dtype=np.int64)
    for t in np.asarray(triangles, dtype=np.int64):
        tri = [(int(pts[i, 0]), int(pts[i, 1])) for i in t]
        rmin = min(p[0] for p in tri)
        rmax = max(p[0] for p in tri)
        for r in range(rmin, rmax + 1):
            span = _row_span(tri, r)
            if span is None:
                continue
            cmin, cmax = span
            diff[r, cmin] += 1
            diff[r, cmax + 1] -= 1
    return np.cumsum(diff[:, :-1], axis=1, dtype=np.int32)

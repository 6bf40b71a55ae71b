"""Pure numpy fallback for the hot kernels.

Every function here is the semantic twin of its compiled counterpart in
the C extension ``_core`` (sources ``_coremodule.c`` and ``_dense.c``)
and must stay bit-identical to it: same arithmetic, same accumulation
order, same tie rules.  The compiled core exists for speed only; the
cross-backend equality tests hold both sides to that contract.

Python loops here run over a correlation's taps (also when it is
evaluated only at given points), a stack's layers, blocks of output rows
in the dense passes, the triangle search's anchor points and blocks of
their neighbour pairs, the points a thinning keeps and blocks of
rasterized rows; thinning and rasterizing never loop per candidate or
per triangle row, and no loop runs per pixel.  A dense pass works on
blocks of about _ROW_BLOCK doubles, which stay in cache across its taps
or layers, and reads the image in its own row-major layout along either
axis: no pass transposes.  ``thin_salient`` stays on the dense reference:
the axis-0 pass over the columns the points read, the point pass, then
``thin_points``, where the compiled twin computes a point's spacing only
where bounds on it cannot decide the point.  Both backends rasterize
with one integer rule: each edge that meets row r crosses it at the
exact column num/den, a flat edge at its first end (den = 1; its other
end starts the next edge), and the row's span is [min ceil, max floor]
over those crossings.
"""

import functools
import math
import operator
import sys

import numpy as np

from ..errors import TriangleCapError

_BLOCK = 1 << 16  # (triangle, row) or neighbour pairs per numpy pass
_ROW_BLOCK = 1 << 14  # doubles per block of output rows in the dense passes


def _quiet(kernel):
    """`kernel` under ``np.errstate(all="ignore")``.  The compiled twins
    never warn, so neither do these: an infinite pixel turns its
    neighbourhood NaN and a spacing of 1e200 squares to infinity without a
    word, and the values are those computed with the warnings."""

    @functools.wraps(kernel)
    def quiet(*args, **kwargs):
        with np.errstate(all="ignore"):
            return kernel(*args, **kwargs)

    return quiet


@_quiet
def correlate1d_replicate(img, weights, axis):
    """Symmetric 1D correlation along `axis` with clamp-to-edge borders.

    Evaluated in center-deviation form with tap pairs accumulated from the
    innermost pair outward:

        out[p] = x[p] + sum_{k=1..r} w[k] * ((x[p-k]-x[p]) + (x[p+k]-x[p]))

    which preserves constant inputs exactly (every deviation is 0.0).
    `weights` is the full odd-length kernel; it must be symmetric.

    The taps read row or column offsets of one edge-padded copy of the
    image, a block of output rows at a time, through three block-sized
    buffers reused for every tap and block.
    """
    img = np.asarray(img, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    return _correlate_into(img, weights, axis, np.empty_like(img, order="C"))


def _correlate_into(img, weights, axis, out):
    """`correlate1d_replicate` of a float64 image with float64 weights,
    written into `out`, a C-contiguous float64 array of the image's shape
    that does not overlap it; returns `out`."""
    radius = (len(weights) - 1) // 2
    if radius == 0 or img.size == 0:
        np.copyto(out, img)
        return out
    height, width = img.shape
    if axis == 0:
        padded = np.empty((height + 2 * radius, width))
        padded[radius : radius + height] = img
        padded[:radius] = img[0]
        padded[radius + height :] = img[-1]

        def tap(k, r0, r1):  # rows r0 + k .. r1 + k of the image, clamped
            return padded[radius + r0 + k : radius + r1 + k]

    else:
        padded = _pad_rows(img, radius)

        def tap(k, r0, r1):  # columns shifted by k, clamped
            return padded[r0:r1, radius + k : radius + k + width]

    rows = max(1, _ROW_BLOCK // width)
    acc, lo, hi = (np.empty((min(rows, height), width)) for _ in range(3))
    for r0 in range(0, height, rows):
        r1 = min(r0 + rows, height)
        n = r1 - r0
        a, d, e = acc[:n], lo[:n], hi[:n]
        center = tap(0, r0, r1)
        a.fill(0.0)
        for k in range(1, radius + 1):
            # w[k] * ((before - center) + (after - center)), in place
            np.subtract(tap(-k, r0, r1), center, out=d)
            np.subtract(tap(k, r0, r1), center, out=e)
            d += e
            d *= weights[radius + k]
            a += d
        np.add(center, a, out=out[r0:r1])
    return out


def _pad_rows(img, pad):
    """A copy of the 2D `img` with each row edge-replicated by `pad`
    columns on either side."""
    height, width = img.shape
    padded = np.empty((height, width + 2 * pad))
    padded[:, pad : pad + width] = img
    padded[:, :pad] = img[:, :1]
    padded[:, pad + width :] = img[:, -1:]
    return padded


def _correlate_points(img, weights, points, col0):
    """The axis-1 pass of `correlate1d_replicate`, only at `points`.

    Point i reads row points[i, 0] of `img` at column points[i, 1] - col0,
    so `img` may be a column slice of a frame whose first column is frame
    column `col0`; taps clamp to the slice.  Each value is the same sum,
    in the same order, as the dense pass at that pixel.  Raises IndexError
    for a point outside `img`.
    """
    img = np.asarray(img, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    height, width = img.shape
    rows, cols = pts[:, 0], pts[:, 1] - col0
    if len(pts) and (rows.min() < 0 or rows.max() >= height or cols.min() < 0 or cols.max() >= width):
        raise IndexError("point outside the image")
    radius = (len(weights) - 1) // 2
    if radius == 0 or len(pts) == 0:
        return img[rows, cols]
    # each row edge-replicated by `pad` columns on either side, so that every
    # tap gathers at the points' one base index from an offset view: tap
    # +-k reads flat[pad +- min(k, pad):], which holds the clamped column,
    # as a tap `width` or more columns away reads the row end either way
    pad = min(radius, width)
    padded = _pad_rows(img, pad)
    flat = padded.ravel()
    at = rows * padded.shape[1] + cols
    center = flat[pad:].take(at)
    acc = np.zeros_like(center)
    before, after = np.empty_like(center), np.empty_like(center)
    for k in range(1, radius + 1):
        j = min(k, pad)
        # "clip" never clamps: every index is in range, as checked above.
        # Unlike the default "raise", it writes `out` without a buffer.
        flat[pad - j :].take(at, out=before, mode="clip")
        flat[pad + j :].take(at, out=after, mode="clip")
        # w[k] * ((before - center) + (after - center)), in place
        before -= center
        after -= center
        before += after
        before *= weights[radius + k]
        acc += before
    return center + acc


def _stack_std(stack):
    """Per-pixel population standard deviation across the layers of a
    C-contiguous float64 (L, H, W) stack of at least one pixel.

    Layer by layer, which is numpy's order for a contiguous stack of more
    than one pixel per layer: the mean sums the layers from layer 0 and
    divides by L; the variance sums the squared deviations in the same
    order and divides by L.  Blocks of rows are reduced one at a time, so
    only two block-sized buffers are allocated besides the result.
    """
    layers, height, width = stack.shape
    out = np.empty((height, width))
    rows = max(1, _ROW_BLOCK // width)
    mean, dev = (np.empty((min(rows, height), width)) for _ in range(2))
    for r0 in range(0, height, rows):
        r1 = min(r0 + rows, height)
        m, d, o = mean[: r1 - r0], dev[: r1 - r0], out[r0:r1]
        np.copyto(m, stack[0, r0:r1])
        for layer in stack[1:, r0:r1]:
            m += layer
        m /= layers
        np.subtract(stack[0, r0:r1], m, out=o)
        o *= o
        for layer in stack[1:, r0:r1]:
            np.subtract(layer, m, out=d)
            d *= d
            o += d
        o /= layers
        np.sqrt(o, out=o)
    return out


@_quiet
def deviation_map(img, ku, kv, layers):
    """Per-pixel population standard deviation across the filter stack of
    `img`: layer 0 is the image, each later layer the previous one
    correlated along axis 0 by `ku` and then along axis 1 by `kv`.  Equal
    to ``saliency.std_map`` of that stack on a frame of more than one
    pixel.  The layers are built in place in the stack, through one
    scratch frame.  Raises MemoryError when the stack's size does not fit
    an address.
    """
    img = np.asarray(img)
    ku = np.asarray(ku, dtype=np.float64)
    kv = np.asarray(kv, dtype=np.float64)
    if img.ndim != 2 or ku.ndim != 1 or kv.ndim != 1 or not (len(ku) and len(kv)):
        raise ValueError("expected a 2D image and non-empty 1D kernels")
    layers = operator.index(layers)
    if layers < 1:
        raise ValueError("layers must be at least 1")
    height, width = img.shape
    if (layers + 1) * height * width > sys.maxsize // 8:
        raise MemoryError("the filter stack does not fit in memory")
    if img.size == 0:
        return np.empty((height, width))
    stack = np.empty((layers, height, width))
    stack[0] = img
    scratch = np.empty((height, width))
    for f in range(1, layers):
        _correlate_into(stack[f - 1], ku, 0, scratch)
        _correlate_into(scratch, kv, 1, stack[f])
    return _stack_std(stack)


@_quiet
def _spacing_at(saliency, weights, points, phi1, phi2):
    """The spacing threshold in [phi1, phi1 + phi2] at each (row, col) point.

    The map over 255 is correlated by `weights` along axis 0, then along
    axis 1 at the points alone, clamped to [0, 1] and mapped so that high
    saliency gives the minimum spacing phi1.  The axis-0 pass runs over
    the columns within the kernel radius of a point only: columns are
    independent in it, and a point's axis-1 taps clamp inside that slice
    exactly where they clamp in the frame.  Raises IndexError for a point
    outside the map.  The one statement of the spacing formula in
    Python: ``sparsify.density_field`` calls it too.
    """
    s = np.asarray(saliency, dtype=np.float64)
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    if len(pts) == 0:
        return np.zeros(0, dtype=np.float64)
    radius = (len(weights) - 1) // 2
    c0 = max(0, int(pts[:, 1].min()) - radius)
    c1 = min(s.shape[1], int(pts[:, 1].max()) + radius + 1)
    blurred = _correlate_points(
        correlate1d_replicate(s[:, c0:c1] / 255.0, weights, 0), weights, pts, c0
    )
    np.clip(blurred, 0.0, 1.0, out=blurred)
    return phi1 + phi2 * (1.0 - blurred)


@_quiet
def thin_salient(saliency, weights, points, phi1, phi2):
    """``thin_points(points, _spacing_at(saliency, weights, points, phi1,
    phi2))``: the greedy thinning of `points` against the spacing the
    blurred saliency map gives each one.  The compiled twin computes a
    point's spacing only where bounds on it cannot decide the point; here
    the dense passes run in full.  Returns the kept indices in order.
    """
    if not (math.isfinite(phi1) and math.isfinite(phi2) and phi1 >= 0 and phi2 >= 0):
        raise ValueError("phi1 and phi2 must be finite and non-negative")
    s = np.asarray(saliency, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if s.ndim != 2 or weights.ndim != 1 or len(weights) == 0:
        raise ValueError("expected a 2D image and a non-empty 1D kernel")
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    return thin_points(pts, _spacing_at(s, weights, pts, float(phi1), float(phi2)))


@_quiet
def thin_points(points, spacing):
    """Greedy row-major thinning.

    `points` must already be in processing order; a candidate is kept iff
    no previously kept point lies within its own spacing threshold
    (Euclidean, inclusive).  Returns the kept indices in order.  Each
    kept point rules out every later candidate within reach in one step;
    the first candidate still live is kept next.

    When the rows are sorted, as ``threshold_points`` emits them, a kept
    point can reach only the candidates at most ceil(max spacing) rows
    below it, and each step scans that window alone; the inclusive ceil
    keeps a spacing whose square rounds up within the window.  Unsorted
    rows are scanned to the end.
    """
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    n = len(pts)
    spacing = np.asarray(spacing, dtype=np.float64).reshape(n)
    if np.isnan(spacing).any():
        raise ValueError("spacing must not contain NaN")
    top = spacing.max() if n else 0.0
    if top <= 0.0:
        return np.arange(n, dtype=np.int64)
    rows, cols, limit_sq = pts[:, 0], pts[:, 1], spacing * spacing
    if top < int(rows[-1]) - int(rows[0]) and not (rows[1:] < rows[:-1]).any():
        ends = np.searchsorted(rows, rows + math.ceil(top), side="right")
    else:
        ends = np.full(n, n)
    live = np.ones(n + 1, dtype=bool)  # live[n] ends the scan
    kept = []
    i = 0
    while i < n:
        kept.append(i)
        e = ends[i]
        dr, dc = rows[i:e] - rows[i], cols[i:e] - cols[i]
        live[i:e] &= ~((dr * dr + dc * dc).astype(np.float64) <= limit_sq[i:e])
        i += 1 + int(np.argmax(live[i + 1 :]))
    return np.asarray(kept, dtype=np.int64)


@_quiet
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
        nbrs = np.nonzero(near(pts[i + 1 :] - pts[i]))[0] + i + 1
        m = len(nbrs)
        if m < 2:
            continue
        block = pts[nbrs]
        # neighbour pairs j < k in blocks of rows j of about _BLOCK pairs,
        # checking the cap after each: memory stays linear in n + _BLOCK
        rows = max(1, _BLOCK // m)
        for a in range(0, m - 1, rows):
            b = min(a + rows, m - 1)
            # rows j in [a, b) against columns k in [a + 1, m): keep k > j
            jj, kk = np.nonzero(np.triu(near(block[a:b, None, :] - block[None, a + 1 :, :])))
            if len(jj) == 0:
                continue
            count += len(jj)
            if count > cap:
                raise TriangleCapError(cap)
            tris = np.empty((len(jj), 3), dtype=np.int32)
            tris[:, 0] = i
            tris[:, 1] = nbrs[a:][jj]
            tris[:, 2] = nbrs[a + 1 :][kk]
            out.append(tris)
    if not out:
        return np.zeros((0, 3), dtype=np.int32)
    return np.concatenate(out)


@_quiet
def occurrence_counts(points, triangles, height, width):
    """Per-pixel count of closed triangles containing the pixel center.

    Rasterizes every (triangle, row) pair with exact integer arithmetic
    and accumulates the spans into difference rows; degenerate triangles
    cover exactly the pixel centers on their segment.  A block holds at
    most _BLOCK + height pairs, so memory stays bounded by the frame.
    """
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    diff = np.zeros((height, width + 1), dtype=np.int32)
    if len(tris):
        if tris.min() < 0 or tris.max() >= len(pts):
            raise IndexError("triangle vertex outside the points or the frame")
        rows, cols = pts[tris, 0], pts[tris, 1]
        if rows.min() < 0 or rows.max() >= height or cols.min() < 0 or cols.max() >= width:
            raise IndexError("triangle vertex outside the points or the frame")
        top = rows.min(axis=1)
        count = rows.max(axis=1) - top + 1
        ends = np.cumsum(count)
        shift = ends - count - top  # a pair's number minus its row
        cuts = np.unique(np.searchsorted(ends, np.arange(0, ends[-1] + _BLOCK, _BLOCK), "right"))
        for a, b in zip(cuts[:-1], cuts[1:]):
            t = np.repeat(np.arange(a, b), count[a:b])
            r = np.arange(ends[a] - count[a], ends[b - 1]) - shift[t]
            _add_spans(r, rows[t], cols[t], diff)
    return np.cumsum(diff[:, :-1], axis=1, dtype=np.int32)


def _add_spans(r, rows, cols, diff):
    """Add each triangle's span on its row r to the difference rows, by
    the span rule in the module docstring."""
    cmin = np.full(len(r), np.iinfo(np.int64).max)
    cmax = np.full(len(r), np.iinfo(np.int64).min)
    for e in range(3):
        r1, c1, r2, c2 = rows[:, e], cols[:, e], rows[:, (e + 1) % 3], cols[:, (e + 1) % 3]
        den = np.where(r1 == r2, 1, r2 - r1)
        num = c1 * den + (c2 - c1) * (r - r1)
        floor = num // den
        meets = (r - r1) * (r - r2) <= 0
        np.minimum(cmin, floor + (floor * den != num), out=cmin, where=meets)
        np.maximum(cmax, floor, out=cmax, where=meets)
    ok = cmin <= cmax
    # int32 increments, as diff holds, keep np.add.at off its casting path
    np.add.at(diff, (r[ok], cmin[ok]), np.int32(1))
    np.add.at(diff, (r[ok], cmax[ok] + 1), np.int32(-1))

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
axis: no pass transposes.  The deviation map and the spacing's axis-0
pass also loop over column strips of about _STRIP and _SPACING_STRIP
doubles, so their memory is a few frames whatever the stack's depth; a
deviation map's strip carries the halo a compiled part carries.
``thin_salient`` stays on the dense reference: the threshold, the axis-0
pass over the columns the points read (the map over 255 written straight
into its edge-padded strip buffers), the point pass, then
``thin_points``, where the compiled twin finds the points in one scan
and computes a point's spacing only where bounds on it cannot decide the
point.  Both backends rasterize with one integer rule: each edge that
meets row r crosses it at the exact column num/den, a flat edge at its
first end (den = 1; its other end starts the next edge), and the row's
span is [min ceil, max floor] over those crossings.
"""

import functools
import math
import operator
import sys

import numpy as np

from ..errors import TriangleCapError

_BLOCK = 1 << 16  # (triangle, row) or neighbour pairs per numpy pass
_ROW_BLOCK = 1 << 14  # doubles per block of output rows in the dense passes
_STRIP = 1 << 18  # doubles per column strip of a deviation map, with its buffers
_SPACING_STRIP = 1 << 17  # doubles per padded axis-0 buffer of a spacing strip
_SPLIT_HALOS = 4  # a deviation map's strip is at least this many halos wide


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
    if axis == 0:
        padded = np.empty((img.shape[0] + 2 * radius, img.shape[1]))
        padded[radius : radius + img.shape[0]] = img
        return _axis0_padded(padded, weights, out)
    return _taps_into(_pad_rows(img, radius), weights, 1, out)


def _axis0_padded(padded, weights, out):
    """The axis-0 pass of the image held in rows [radius, -radius) of
    `padded`, written into `out`: the edge rows are replicated here, in
    place, and the taps run as ``_correlate_into`` runs them."""
    radius = (len(weights) - 1) // 2
    if radius:
        padded[:radius] = padded[radius]
        padded[-radius:] = padded[-radius - 1]
    return _taps_into(padded, weights, 0, out)


def _taps_into(padded, weights, axis, out):
    """The tap loop of ``_correlate_into`` over an edge-padded image:
    `padded` holds 2 radius more rows (axis 0) or columns (axis 1) than
    `out`.  A radius-0 kernel copies, as ``_correlate_into`` does."""
    radius = (len(weights) - 1) // 2
    if radius == 0:
        np.copyto(out, padded)
        return out
    height, width = out.shape
    if axis == 0:

        def tap(k, r0, r1):  # rows r0 + k .. r1 + k of the image, clamped
            return padded[radius + r0 + k : radius + r1 + k]

    else:

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
    return _replicate_columns(padded, pad)


def _replicate_columns(padded, pad):
    """Fill the `pad` columns on either side of `padded` with its first and
    last inner column, in place; returns `padded`."""
    padded[:, :pad] = padded[:, pad : pad + 1]
    padded[:, padded.shape[1] - pad :] = padded[:, -pad - 1 : -pad]
    return padded


def _strip_cuts(width, column_doubles, budget, halo=0):
    """The first columns of the strips that `width` columns split into,
    and `width`: strips of about `budget` doubles, counting
    `column_doubles` per column and `halo` more columns on either side,
    each at least _SPLIT_HALOS halos wide, as a compiled part must be
    (narrower, its halo columns cost more than the strip saves).  A frame
    too narrow for two such strips is one strip."""
    own = max(1, budget // column_doubles - 2 * halo)
    strips = -(-width // own)
    if halo:
        strips = min(strips, width // (_SPLIT_HALOS * halo))
    strips = max(1, strips)
    return [width * i // strips for i in range(strips + 1)]


def _correlate_points(img, weights, points, col0):
    """The axis-1 pass of `correlate1d_replicate`, only at `points`.

    Point i reads row points[i, 0] of `img` at column points[i, 1] - col0,
    so `img` may be a column slice of a frame whose first column is frame
    column `col0`; taps clamp to the slice.  Each value is the same sum,
    in the same order, as the dense pass at that pixel.  Raises IndexError
    for a point outside `img`.  The pass runs on a row-padded copy of
    `img` (``_points_padded``); ``_spacing_at`` writes its axis-0 pass
    into such a buffer and calls that directly, with no copy.
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
    pad = min(radius, width)
    return _points_padded(_pad_rows(img, pad), pad, weights, rows, cols)


def _points_padded(padded, pad, weights, rows, cols):
    """The point pass of ``_correlate_points`` over the image held in
    columns [pad, -pad) of the C-contiguous `padded`, its rows
    edge-replicated by ``pad = min(radius, width)`` columns on either
    side, at in-range points (rows, cols) of the image, for a radius of at
    least 1."""
    radius = (len(weights) - 1) // 2
    # every tap gathers at the points' one base index from an offset view:
    # tap +-k reads flat[pad +- min(k, pad):], which holds the clamped
    # column, as a tap `width` or more columns away reads the row end
    # either way
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


def _stack_std(stack, out, first=0):
    """Per-pixel population standard deviation across the layers of a
    float64 (L, H, W) stack of at least one pixel whose layers hold
    contiguous rows, at its columns [first, first + w), written into the
    (H, w) float64 `out`; returns `out`.

    Layer by layer, which is numpy's order for a contiguous stack of more
    than one pixel per layer: the mean sums the layers from layer 0 and
    divides by L; the variance sums the squared deviations in the same
    order and divides by L.  Blocks of whole rows are reduced one at a
    time through three block-sized buffers, so every step but the root
    runs on contiguous rows.
    """
    layers, height, width = stack.shape
    cols = slice(first, first + out.shape[1])
    rows = max(1, _ROW_BLOCK // width)
    mean, dev, var = (np.empty((min(rows, height), width)) for _ in range(3))
    for r0 in range(0, height, rows):
        r1 = min(r0 + rows, height)
        m, d, o = mean[: r1 - r0], dev[: r1 - r0], var[: r1 - r0]
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
        np.sqrt(o[:, cols], out=out[r0:r1])
    return out


@_quiet
def deviation_map(img, ku, kv, layers):
    """Per-pixel population standard deviation across the filter stack of
    `img`: layer 0 is the image, each later layer the previous one
    correlated along axis 0 by `ku` and then along axis 1 by `kv`.  Equal
    to ``saliency.std_map`` of that stack on a frame of more than one
    pixel.  Raises MemoryError when the stack's size does not fit an
    address.

    The map is built one column strip at a time (``_strip_cuts``), as the
    compiled core builds a column part: a strip holds its own columns
    and a halo of ``(layers - 1) * radius(kv)`` columns on either side,
    clamped to the frame, and its stack and pass buffers about _STRIP
    doubles.  A layer's
    axis-1 pass clamps at the band's inner edge, so the radius(kv)
    columns nearest that edge go wrong once per layer, and the halo keeps
    every owned column exact; the strip writes only its own columns.  A
    layer's axis-0 pass reads it from one buffer padded by rows and
    writes into the inner columns of one buffer padded by columns, which
    the axis-1 pass reads; both are reused for every layer and strip.
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
    out = np.empty((height, width))
    if img.size == 0:
        return out
    ru, rv = (len(ku) - 1) // 2, (len(kv) - 1) // 2
    halo = min((layers - 1) * rv, width)
    # per column: the stack, and the two pass buffers
    cuts = _strip_cuts(width, (layers + 2) * height + 2 * ru, _STRIP, halo)
    bands = [(c0, c1, max(0, c0 - halo), min(width, c1 + halo)) for c0, c1 in zip(cuts, cuts[1:])]
    # for the widest band, reshaped to each band: the stack, and the buffers
    # that the axis-0 and axis-1 passes read, padded by rows and by columns
    widest = max(b1 - b0 for _, _, b0, b1 in bands)
    stack_cells = np.empty(layers * height * widest)
    down_cells = np.empty((height + 2 * ru) * widest)
    across_cells = np.empty(height * (widest + 2 * rv))
    for c0, c1, b0, b1 in bands:
        band = b1 - b0
        stack = stack_cells[: layers * height * band].reshape(layers, height, band)
        down = down_cells[: (height + 2 * ru) * band].reshape(height + 2 * ru, band)
        across = across_cells[: height * (band + 2 * rv)].reshape(height, band + 2 * rv)
        stack[0] = img[:, b0:b1]
        for f in range(1, layers):
            down[ru : ru + height] = stack[f - 1]
            _axis0_padded(down, ku, across[:, rv : rv + band])
            _taps_into(_replicate_columns(across, rv), kv, 1, stack[f])
        _stack_std(stack, out[:, c0:c1], c0 - b0)
    return out


def _salient_points(saliency, threshold):
    """Every (row, col) of the 2D float64 map `saliency` whose value is at
    or above `threshold` (inclusive; NaN never is), row-major, as a
    C-contiguous (N, 2) int64 array: ``np.argwhere(saliency >=
    threshold)``, without its transposed memory layout."""
    flat = np.flatnonzero(saliency >= threshold)
    pts = np.empty((len(flat), 2), dtype=np.int64)
    np.divmod(flat, saliency.shape[1], out=(pts[:, 0], pts[:, 1]))
    return pts


@_quiet
def _spacing_at(saliency, weights, points, phi1, phi2):
    """The spacing threshold in [phi1, phi1 + phi2] at each (row, col) point.

    The map over 255 is correlated by `weights` along axis 0, then along
    axis 1 at the points alone, clamped to [0, 1] and mapped so that high
    saliency gives the minimum spacing phi1.  The axis-0 pass runs over
    the columns within the kernel radius of a point only: columns are
    independent in it, and a point's axis-1 taps clamp inside that slice
    exactly where they clamp in the frame.  It runs one column strip of
    about _SPACING_STRIP doubles at a time, each strip's map over 255 in
    one padded strip buffer, and writes into the inner columns of the
    row-padded buffer the point pass reads.  Raises IndexError for a point
    outside the map.  The one statement of the spacing formula in
    Python: ``sparsify.density_field`` calls it too.
    """
    s = np.asarray(saliency, dtype=np.float64)
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    if len(pts) == 0:
        return np.zeros(0, dtype=np.float64)
    height, width = s.shape
    rows, cols = pts[:, 0], pts[:, 1]
    if rows.min() < 0 or rows.max() >= height or cols.min() < 0 or cols.max() >= width:
        raise IndexError("point outside the image")
    weights = np.asarray(weights, dtype=np.float64)
    radius = (len(weights) - 1) // 2
    if radius == 0:
        blurred = s[rows, cols] / 255.0
    else:
        c0 = max(0, int(cols.min()) - radius)
        c1 = min(width, int(cols.max()) + radius + 1)
        pad = min(radius, c1 - c0)
        # the axis-0 pass, strip by strip, into the inner columns of the
        # point pass's row-padded buffer; each strip's map over 255 goes
        # straight into the pass's padded strip buffer
        scaled = np.empty((height, c1 - c0 + 2 * pad))
        cuts = _strip_cuts(c1 - c0, height + 2 * radius, _SPACING_STRIP)
        cells = np.empty((height + 2 * radius) * max(b - a for a, b in zip(cuts, cuts[1:])))
        for a, b in zip(cuts, cuts[1:]):
            padded = cells[: (height + 2 * radius) * (b - a)].reshape(height + 2 * radius, b - a)
            np.divide(s[:, c0 + a : c0 + b], 255.0, out=padded[radius : radius + height])
            _axis0_padded(padded, weights, scaled[:, pad + a : pad + b])
        del cells, padded
        blurred = _points_padded(_replicate_columns(scaled, pad), pad, weights, rows, cols - c0)
    np.clip(blurred, 0.0, 1.0, out=blurred)
    return phi1 + phi2 * (1.0 - blurred)


@_quiet
def thin_salient(saliency, weights, threshold, phi1, phi2):
    """The salient points of a map, thinned against the spacing the
    blurred map gives each one: ``pts[thin_points(pts, _spacing_at(
    saliency, weights, pts, phi1, phi2))]`` with ``pts =
    _salient_points(saliency, threshold)``.  The compiled twin finds the
    points in one scan and computes a point's spacing only where bounds on
    it cannot decide the point; here the dense passes run in full.
    Returns the kept points, (N, 2) int64, row-major.
    """
    if not (math.isfinite(phi1) and math.isfinite(phi2) and phi1 >= 0 and phi2 >= 0):
        raise ValueError("phi1 and phi2 must be finite and non-negative")
    s = np.asarray(saliency, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if s.ndim != 2 or weights.ndim != 1 or len(weights) == 0:
        raise ValueError("expected a 2D image and a non-empty 1D kernel")
    pts = _salient_points(s, float(threshold))
    if len(pts) == 0:
        return pts
    return pts[thin_points(pts, _spacing_at(s, weights, pts, float(phi1), float(phi2)))]


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


def occurrence_confidence(points, triangles, height, width, table):
    """``table[count]`` per pixel, for the counts of ``occurrence_counts``.

    No count exceeds the number of triangles, so a one-dimensional table
    with more entries than that covers every pixel.
    """
    counts = occurrence_counts(points, triangles, height, width)
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 1 or len(table) <= np.size(triangles) // 3:
        raise ValueError("table must be one-dimensional with more entries than triangles")
    return table[counts]

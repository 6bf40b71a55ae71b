/* The dense loops of the compiled core: pure C, with no Python or numpy
 * header, built apart from the bindings in ``_coremodule.c`` (see
 * ``_dense.h``).
 *
 * Bit-identical by construction: every float result follows the same
 * per-element operation order as its twin in ``_pure``.  Any semantic
 * change here must land in ``_pure`` too.  Build with -ffp-contract=off:
 * a fused multiply-add rounds once where the twin rounds twice.
 *
 * The dense loops are each built twice from one body: the banded axis-0
 * pass, the one-pass axis-1 pass, the stack std and the salient scan, at
 * 8 doubles per vector for AVX-512 hosts and at 2 for every other CPU (see
 * "instances" below), into the `Simd` tables.  Both widths stay
 * bit-identical, to each other and to ``_pure``: vector operations are
 * lane-wise IEEE adds, subtracts, multiplies, divides, roots and compares,
 * nothing is contracted, and every element sees the same operations in the
 * same order at either width.  A deviation map's part builds its layers 8
 * rows at a time as a wavefront, so that the rows a layer reads are still
 * in cache, and keeps of each layer past the first only the rows still to
 * be read (see "deviation map" below).
 */

#include <math.h>
#include <stddef.h>
#include <string.h>

#include "_dense.h"

/* ------------------------------------------------------------ correlate */

/* out[p] = x[p] + sum_{k=1..radius} w[k] * ((x[p-k]-x[p]) + (x[p+k]-x[p])),
 * accumulated from k = 1 outward in a per-row accumulator so that the
 * loop over the n columns of row r vectorizes without changing any
 * element's operation order.  `x` points at the first column, whose row
 * r starts at x + row[r]; `acc` is the output row.  Not inlined: it runs
 * only the narrow last band of a pass, and its callers share one copy. */
__attribute__((noinline)) static void
axis0_row_cols(const double *restrict x, const ptrdiff_t *restrict row, double *restrict acc,
               ptrdiff_t h, ptrdiff_t r, ptrdiff_t n, const double *restrict wt,
               ptrdiff_t radius)
{
    const double *restrict xc = x + row[r];
    for (ptrdiff_t c = 0; c < n; c++)
        acc[c] = 0.0;
    for (ptrdiff_t k = 1; k <= radius; k++) {
        const double *restrict xl = x + row[r - k < 0 ? 0 : r - k];
        const double *restrict xh = x + row[r + k > h - 1 ? h - 1 : r + k];
        const double wk = wt[radius + k];
        for (ptrdiff_t c = 0; c < n; c++)
            acc[c] += wk * ((xl[c] - xc[c]) + (xh[c] - xc[c]));
    }
    for (ptrdiff_t c = 0; c < n; c++)
        acc[c] = xc[c] + acc[c];
}

/* The same formula over bands of AXIS0_BAND columns.  A band's rows are
 * 128-byte strips, so the 2 * radius + 1 strips an output row reads stay
 * in L1 and its accumulators in registers.  Streaming whole rows instead
 * made the pass bound by L2, and its time swung with the load on the
 * shared caches.  The last, narrower band takes the general loop.
 *
 * AXIS0_BANDS(name, V, attr) defines the pass for a GNU C vector type V,
 * a band holding AXIS0_BAND / lanes of them.  The body is written with
 * explicit vectors: a band of scalars left to auto-vectorise under an
 * AVX-512 target ran 3x slower than its SSE2 build. */
#define AXIS0_BANDS(name, V, attr)                                                        \
    attr static inline __attribute__((always_inline)) void name##_band(                   \
        const double *restrict x, const ptrdiff_t *restrict row, double *restrict out,    \
        ptrdiff_t h, ptrdiff_t r, const double *restrict wt, ptrdiff_t radius)            \
    {                                                                                     \
        enum { N = sizeof(V) / sizeof(double), NV = AXIS0_BAND / N };                     \
        V xc[NV], acc[NV], lo, hi;                                                        \
        memcpy(xc, x + row[r], sizeof(xc));                                               \
        for (int v = 0; v < NV; v++)                                                      \
            acc[v] = (V){0};                                                              \
        for (ptrdiff_t k = 1; k <= radius; k++) {                                         \
            const double *xl = x + row[r - k < 0 ? 0 : r - k];                            \
            const double *xh = x + row[r + k > h - 1 ? h - 1 : r + k];                    \
            const double wk = wt[radius + k];                                             \
            for (int v = 0; v < NV; v++) {                                                \
                memcpy(&lo, xl + v * N, sizeof(V));                                       \
                memcpy(&hi, xh + v * N, sizeof(V));                                       \
                acc[v] += wk * ((lo - xc[v]) + (hi - xc[v]));                             \
            }                                                                             \
        }                                                                                 \
        for (int v = 0; v < NV; v++)                                                      \
            acc[v] = xc[v] + acc[v];                                                      \
        memcpy(out, acc, sizeof(acc));                                                    \
    }                                                                                     \
                                                                                          \
    attr static void name(const double *restrict x, const ptrdiff_t *restrict row,        \
                          double *restrict out, ptrdiff_t ldo, ptrdiff_t h, ptrdiff_t w,  \
                          ptrdiff_t r0, ptrdiff_t r1, const double *restrict wt,          \
                          ptrdiff_t radius)                                               \
    {                                                                                     \
        ptrdiff_t c0 = 0;                                                                 \
        for (; c0 + AXIS0_BAND <= w; c0 += AXIS0_BAND)                                    \
            for (ptrdiff_t r = r0; r < r1; r++)                                           \
                name##_band(x + c0, row, out + (r - r0) * ldo + c0, h, r, wt, radius);    \
        if (c0 < w)                                                                       \
            for (ptrdiff_t r = r0; r < r1; r++)                                           \
                axis0_row_cols(x + c0, row, out + (r - r0) * ldo + c0, h, r, w - c0, wt,  \
                               radius);                                                   \
    }

/* The baseline width: 16-byte vectors, native on every 64-bit CPU.  A
 * 64-byte type at baseline width ran 5x slower, and a 4-wide AVX2 body
 * 12x slower under generic tuning, so neither is built. */
typedef double v2df __attribute__((vector_size(16)));
AXIS0_BANDS(correlate_axis0_v2, v2df, )

/* Same formula along a row of w values, only at column c, with taps
 * clamped to the row. */
static inline __attribute__((always_inline)) double
axis1_clamped(const double *restrict row, ptrdiff_t w, const double *restrict wt,
              ptrdiff_t radius, ptrdiff_t c)
{
    const double xc = row[c];
    double acc = 0.0;
    for (ptrdiff_t k = 1; k <= radius; k++) {
        const double xl = row[c - k < 0 ? 0 : c - k];
        const double xh = row[c + k > w - 1 ? w - 1 : c + k];
        acc += wt[radius + k] * ((xl - xc) + (xh - xc));
    }
    return xc + acc;
}

/* Same formula along each row, in one pass over it.  The interior
 * columns, whose taps all lie in the row, run AXIS1_BLOCK at a time as
 * vectors read straight from the row, with their accumulators in
 * registers; the last block overlaps the one before it and rewrites the
 * same bytes.  The `radius` columns at either end, and an interior
 * narrower than a block, take clamped taps one column at a time.
 * AXIS1_PASS(name, V, attr) builds it with explicit vectors of type V
 * under the target `attr`.  Not inlined: its callers share one copy of
 * its loops. */
#define AXIS1_BLOCK 8

#define AXIS1_PASS(name, V, attr)                                                         \
    attr __attribute__((noinline)) static void name(                                      \
        const double *restrict x, double *restrict out, ptrdiff_t h, ptrdiff_t w,         \
        const double *restrict wt, ptrdiff_t radius)                                      \
    {                                                                                     \
        enum { N = sizeof(V) / sizeof(double), NV = AXIS1_BLOCK / N };                    \
        /* the interior columns [i0, i1): no tap reaches a row end */                     \
        const ptrdiff_t i0 = radius < w ? radius : w;                                     \
        const ptrdiff_t i1 = w - radius > i0 ? w - radius : i0;                           \
        const int blocks = i1 - i0 >= AXIS1_BLOCK;                                        \
        for (ptrdiff_t r = 0; r < h; r++) {                                               \
            const double *restrict row = x + r * w;                                       \
            double *restrict o = out + r * w;                                             \
            for (ptrdiff_t c = 0; c < (blocks ? i0 : i1); c++)                            \
                o[c] = axis1_clamped(row, w, wt, radius, c);                              \
            for (ptrdiff_t c = i0; blocks && c < i1; c += AXIS1_BLOCK) {                  \
                const ptrdiff_t b = c + AXIS1_BLOCK <= i1 ? c : i1 - AXIS1_BLOCK;         \
                V xc[NV], acc[NV], lo, hi;                                                \
                memcpy(xc, row + b, sizeof(xc));                                          \
                for (int v = 0; v < NV; v++)                                              \
                    acc[v] = (V){0};                                                      \
                for (ptrdiff_t k = 1; k <= radius; k++) {                                 \
                    const double wk = wt[radius + k];                                     \
                    for (int v = 0; v < NV; v++) {                                        \
                        memcpy(&lo, row + b + v * N - k, sizeof(V));                      \
                        memcpy(&hi, row + b + v * N + k, sizeof(V));                      \
                        acc[v] += wk * ((lo - xc[v]) + (hi - xc[v]));                     \
                    }                                                                     \
                }                                                                         \
                for (int v = 0; v < NV; v++)                                              \
                    acc[v] = xc[v] + acc[v];                                              \
                memcpy(o + b, acc, sizeof(acc));                                          \
            }                                                                             \
            for (ptrdiff_t c = i1; c < w; c++)                                            \
                o[c] = axis1_clamped(row, w, wt, radius, c);                              \
        }                                                                                 \
    }

AXIS1_PASS(correlate_axis1_v2, v2df, )

/* ------------------------------------------------------------ stack std */

/* Population standard deviation across the L layers of a stack, layer by
 * layer as numpy reduces a contiguous stack of more than one pixel per
 * layer: the mean sums the layers from layer 0 and divides by L, the
 * variance sums the squared deviations in the same order and divides by L.
 * STD_BLOCK pixels at a time, so that each step runs across the block as
 * vectors and no stack-sized temporary exists.  The square root vectorises
 * because the build sets -fno-math-errno. */
#define STD_BLOCK 16

/* One pixel, for runs shorter than a block. */
static void std_pixel(const double *restrict s0, const double *restrict s, ptrdiff_t plane,
                      double *restrict out, ptrdiff_t L)
{
    double m = s0[0];
    for (ptrdiff_t l = 1; l < L; l++)
        m += s[(l - 1) * plane];
    m /= (double)L;
    double q = (s0[0] - m) * (s0[0] - m);
    for (ptrdiff_t l = 1; l < L; l++) {
        const double d = s[(l - 1) * plane] - m;
        q += d * d;
    }
    *out = sqrt(q / (double)L);
}

/* STD_RUN(name, V, attr) defines the deviation of `n` contiguous pixels
 * (layer 0 at s0, the rest `plane` apart from s), a block of STD_BLOCK /
 * lanes vectors of type V at a time.
 * When n >= STD_BLOCK the last block overlaps the one before it: a
 * pixel's value does not depend on its block, so the overlap rewrites the
 * same bytes.  Kept out of line: the vector loops compile apart from the
 * band loop that calls them. */
#define STD_RUN(name, V, attr)                                                            \
    attr static inline __attribute__((always_inline)) void name##_block(                  \
        const double *restrict s0, const double *restrict s, ptrdiff_t plane,             \
        double *restrict out, ptrdiff_t L)                                                \
    {                                                                                     \
        enum { N = sizeof(V) / sizeof(double), NV = STD_BLOCK / N };                      \
        V m[NV], q[NV], d;                                                                \
        double var[STD_BLOCK];                                                            \
        memcpy(m, s0, sizeof(m));                                                         \
        for (ptrdiff_t l = 1; l < L; l++)                                                 \
            for (int v = 0; v < NV; v++) {                                                \
                memcpy(&d, s + (l - 1) * plane + v * N, sizeof(V));                       \
                m[v] += d;                                                                \
            }                                                                             \
        for (int v = 0; v < NV; v++) {                                                    \
            m[v] /= (double)L;                                                            \
            memcpy(&d, s0 + v * N, sizeof(V));                                            \
            q[v] = (d - m[v]) * (d - m[v]);                                               \
        }                                                                                 \
        for (ptrdiff_t l = 1; l < L; l++)                                                 \
            for (int v = 0; v < NV; v++) {                                                \
                memcpy(&d, s + (l - 1) * plane + v * N, sizeof(V));                       \
                d -= m[v];                                                                \
                q[v] += d * d;                                                            \
            }                                                                             \
        for (int v = 0; v < NV; v++)                                                      \
            q[v] /= (double)L;                                                            \
        memcpy(var, q, sizeof(var));                                                      \
        for (int j = 0; j < STD_BLOCK; j++)                                               \
            out[j] = sqrt(var[j]);                                                        \
    }                                                                                     \
                                                                                          \
    attr __attribute__((noinline)) static void name(                                      \
        const double *restrict s0, const double *restrict s, ptrdiff_t plane,             \
        double *restrict out, ptrdiff_t L, ptrdiff_t n)                                   \
    {                                                                                     \
        if (n < STD_BLOCK) {                                                              \
            for (ptrdiff_t p = 0; p < n; p++)                                             \
                std_pixel(s0 + p, s + p, plane, out + p, L);                              \
            return;                                                                       \
        }                                                                                 \
        for (ptrdiff_t p = 0; p < n; p += STD_BLOCK) {                                    \
            const ptrdiff_t q = p + STD_BLOCK <= n ? p : n - STD_BLOCK;                   \
            name##_block(s0 + q, s + q, plane, out + q, L);                               \
        }                                                                                 \
    }

STD_RUN(std_run_v2, v2df, )

/* --------------------------------------------------------- salient scan */

/* One strip of TILE rows or fewer: the points at or above `thr` and the
 * tile extremes (see scan_fn in ``_dense.h``).  SALIENT_SCAN(name, V,
 * attr) builds it with explicit vectors of type V: a tile's rows are
 * reduced lane by lane, TILE / lanes vectors to a row, and its lanes then
 * one by one.  The tiles of a last, narrower tile column take the scalar
 * loop, which reads no column past the map.  Lanes pick as EXT_MIN and
 * EXT_MAX do: the new value only when it compares below (above) the
 * current one.  With every value finite, the order of the picks can only
 * choose between 0.0 and -0.0, which the bounds map to the same spacing;
 * a NaN or an infinity marks the map unbounded whatever the order.  The
 * points follow, a row at a time while the strip's rows are still in
 * cache: each column's point is written and kept only when it compares
 * at or above `thr`, as numpy's `s >= thr` keeps it. */
#define SALIENT_SCAN(name, V, attr)                                                       \
    attr __attribute__((noinline)) static ptrdiff_t name(                                 \
        const double *s, ptrdiff_t ld, ptrdiff_t r0, ptrdiff_t rows, ptrdiff_t w,         \
        double thr, double *lo, double *hi, int64_t *pts, int64_t cols[2], double *nan)   \
    {                                                                                     \
        enum { N = sizeof(V) / sizeof(double), NV = TILE / N };                           \
        typedef __typeof__((V){0} < (V){0}) M;                                            \
        const ptrdiff_t whole = w / TILE * TILE;                                          \
        const double *strip = s + r0 * ld;                                                \
        V nanv = {0}; /* NaN from a NaN or an infinity */                                 \
        for (ptrdiff_t c0 = 0; c0 < whole; c0 += TILE) {                                  \
            const double *v = strip + c0;                                                 \
            V mn[NV], mx[NV], x;                                                          \
            memcpy(mn, v, sizeof(mn));                                                    \
            memcpy(mx, v, sizeof(mx));                                                    \
            for (ptrdiff_t r = 0; r < rows; r++)                                          \
                for (int k = 0; k < NV; k++) {                                            \
                    memcpy(&x, v + r * ld + k * N, sizeof(V));                            \
                    const M below = x < mn[k], above = x > mx[k];                         \
                    mn[k] = (V)(((M)x & below) | ((M)mn[k] & ~below));                    \
                    mx[k] = (V)(((M)x & above) | ((M)mx[k] & ~above));                    \
                    nanv += x - x;                                                        \
                }                                                                         \
            double a[TILE], b[TILE];                                                      \
            memcpy(a, mn, sizeof(a));                                                     \
            memcpy(b, mx, sizeof(b));                                                     \
            for (int k = 1; k < TILE; k++) {                                              \
                a[0] = EXT_MIN(a[0], a[k]);                                               \
                b[0] = EXT_MAX(b[0], b[k]);                                               \
            }                                                                             \
            lo[c0 / TILE] = a[0];                                                         \
            hi[c0 / TILE] = b[0];                                                         \
        }                                                                                 \
        if (whole < w) {                                                                  \
            const double *v = strip + whole;                                              \
            double mn = v[0], mx = v[0];                                                  \
            for (ptrdiff_t r = 0; r < rows; r++)                                          \
                for (ptrdiff_t k = 0; k < w - whole; k++) {                               \
                    const double x = v[r * ld + k];                                       \
                    mn = EXT_MIN(mn, x);                                                  \
                    mx = EXT_MAX(mx, x);                                                  \
                    *nan += x - x;                                                        \
                }                                                                         \
            lo[whole / TILE] = mn;                                                        \
            hi[whole / TILE] = mx;                                                        \
        }                                                                                 \
        double lanes[N];                                                                  \
        memcpy(lanes, &nanv, sizeof(lanes));                                              \
        for (int k = 0; k < N; k++)                                                       \
            *nan += lanes[k];                                                             \
        return salient_points(strip, ld, r0, rows, w, thr, hi, pts, cols);                \
    }

/* The points of a strip at or above `thr`, for SALIENT_SCAN, which has
 * put each tile's maximum in hi.  A tile whose maximum is below `thr`
 * holds no point and is passed over; one that holds a NaN first may have
 * a NaN maximum, and is scanned. */
static ptrdiff_t salient_points(const double *strip, ptrdiff_t ld, ptrdiff_t r0, ptrdiff_t rows,
                                ptrdiff_t w, double thr, const double *hi, int64_t *pts,
                                int64_t cols[2])
{
    ptrdiff_t n = 0;
    for (ptrdiff_t r = 0; r < rows; r++) {
        const double *restrict row = strip + r * ld;
        const ptrdiff_t first = n;
        for (ptrdiff_t c0 = 0; c0 < w; c0 += TILE) {
            if (hi[c0 / TILE] < thr)
                continue;
            const ptrdiff_t c1 = w - c0 < TILE ? w : c0 + TILE;
            for (ptrdiff_t c = c0; c < c1; c++) {
                pts[2 * n] = r0 + r;
                pts[2 * n + 1] = c;
                n += row[c] >= thr;
            }
        }
        if (n > first) {
            cols[0] = EXT_MIN(cols[0], pts[2 * first + 1]);
            cols[1] = EXT_MAX(cols[1], pts[2 * n - 1]);
        }
    }
    return n;
}

SALIENT_SCAN(salient_scan_v2, v2df, )

/* ------------------------------------------------------------ instances */

/* The loops above at 8 doubles per vector, for AVX-512 hosts. */
#ifdef HAVE_AVX512
typedef double v8df __attribute__((vector_size(64)));
AXIS0_BANDS(correlate_axis0_v8, v8df, __attribute__((target("avx512f"))))
AXIS1_PASS(correlate_axis1_v8, v8df, __attribute__((target("avx512f"))))
STD_RUN(std_run_v8, v8df, __attribute__((target("avx512f"))))
SALIENT_SCAN(salient_scan_v8, v8df, __attribute__((target("avx512f"))))
#endif

const Simd simd_baseline = {correlate_axis0_v2, correlate_axis1_v2, std_run_v2,
                            salient_scan_v2};
#ifdef HAVE_AVX512
const Simd simd_avx512 = {correlate_axis0_v8, correlate_axis1_v8, std_run_v8,
                          salient_scan_v8};
#endif

/* axis1_clamped, without the clamps where no tap reaches a row end.  Out
 * of line in its own unit: it runs only for the candidates whose bounds
 * cannot decide them. */
double correlate_point(const double *restrict row, ptrdiff_t w, const double *restrict wt,
                       ptrdiff_t radius, ptrdiff_t c)
{
    const double xc = row[c];
    if (radius == 0)
        return xc;
    if (!(radius <= c && c + radius <= w - 1))
        return axis1_clamped(row, w, wt, radius, c);
    /* no tap reaches a row end: the same sum without clamps */
    const double *restrict at = row + c;
    double acc = 0.0;
    for (ptrdiff_t k = 1; k <= radius; k++)
        acc += wt[radius + k] * ((at[-k] - xc) + (at[k] - xc));
    return xc + acc;
}

/* ------------------------------------------------------- salient bounds */

/* reach_lines: see ``_dense.h``.  Down the columns of a tile grid and
 * then along its rows, it gives each tile the extremes of the tiles within
 * `reach` on both axes, as a running window (van Herk, Gil-Werman): a
 * line splits into blocks of k = 2 reach + 1 cells, and each cell gets
 * the extremes of its block up to it (the head, kept in the output until
 * the window pass overwrites it) and from it on (the rest, in `scratch`).
 * A window [a, b] spans at most two blocks, so its extremes are the rest
 * at a and the head at b, or the head at b alone when a starts b's block,
 * or the rest at a alone when b ends the line in a's block.  So a cell
 * costs a few picks, whatever the reach. */
void reach_lines(const double *lo, const double *hi, double *olo, double *ohi, ptrdiff_t count,
                 ptrdiff_t gap, ptrdiff_t n, ptrdiff_t step, ptrdiff_t reach, double *scratch)
{
    const ptrdiff_t k = 2 * reach + 1;
    double *rest_lo = scratch, *rest_hi = scratch + n;
    for (ptrdiff_t l = 0; l < count; l++) {
        const double *x = lo + l * gap, *y = hi + l * gap;
        double *hl = olo + l * gap, *hh = ohi + l * gap;
        for (ptrdiff_t start = 0; start < n; start += k) {
            const ptrdiff_t end = n - start < k ? n : start + k;
            hl[start * step] = x[start * step];
            hh[start * step] = y[start * step];
            for (ptrdiff_t i = start + 1; i < end; i++) {
                hl[i * step] = EXT_MIN(hl[(i - 1) * step], x[i * step]);
                hh[i * step] = EXT_MAX(hh[(i - 1) * step], y[i * step]);
            }
            rest_lo[end - 1] = x[(end - 1) * step];
            rest_hi[end - 1] = y[(end - 1) * step];
            for (ptrdiff_t i = end - 2; i >= start; i--) {
                rest_lo[i] = EXT_MIN(rest_lo[i + 1], x[i * step]);
                rest_hi[i] = EXT_MAX(rest_hi[i + 1], y[i * step]);
            }
        }
        /* cell i's window [a, b], and the places of a and b in their
         * blocks; b >= i, so the head at b is read before it is written */
        ptrdiff_t a = 0, at = 0, b = n - 1 < reach ? n - 1 : reach, bt = b;
        for (ptrdiff_t i = 0; i < n; i++) {
            double mn = hl[b * step], mx = hh[b * step];
            if (bt < at) {
                mn = EXT_MIN(rest_lo[a], mn);
                mx = EXT_MAX(rest_hi[a], mx);
            } else if (at != 0) {
                mn = rest_lo[a];
                mx = rest_hi[a];
            }
            hl[i * step] = mn;
            hh[i * step] = mx;
            if (i >= reach) {
                a++;
                at = at + 1 == k ? 0 : at + 1;
            }
            if (b < n - 1) {
                b++;
                bt = bt + 1 == k ? 0 : bt + 1;
            }
        }
    }
}

/* tap_mass: see ``_dense.h``. */
ptrdiff_t tap_mass(const double *P, ptrdiff_t radius, ptrdiff_t at, ptrdiff_t n, double *mass,
                   ptrdiff_t *first)
{
    const ptrdiff_t t0 = (at - radius < 0 ? 0 : at - radius) / TILE;
    const ptrdiff_t t1 = (n - 1 - at < radius ? n - 1 : at + radius) / TILE;
    for (ptrdiff_t u = t0; u <= t1; u++) {
        /* taps i0 .. i1 read pixels of tile u, the edge tiles also the
         * taps clamped to the edge */
        const ptrdiff_t i0 = u == t0 ? -radius : u * TILE - at;
        const ptrdiff_t i1 = u == t1 ? radius : u * TILE + TILE - 1 - at;
        mass[u - t0] = P[i1 + radius + 1] - P[i0 + radius];
    }
    *first = t0;
    return t1 - t0 + 1;
}

/* tile_sums: see ``_dense.h``.  Sums of terms >= 0, a tile row at a
 * time, as tier2_margin in ``_coremodule.c`` assumes. */
void tile_sums(const double *lo, const double *hi, ptrdiff_t tw, const double *mass_r, ptrdiff_t nr,
               const double *mass_c, ptrdiff_t nc, double m, double M, double *above_m,
               double *below_M)
{
    double above = 0.0, below = 0.0;
    for (ptrdiff_t u = 0; u < nr; u++) {
        double up = 0.0, down = 0.0;
        for (ptrdiff_t v = 0; v < nc; v++) {
            up += mass_c[v] * (lo[u * tw + v] - m);
            down += mass_c[v] * (M - hi[u * tw + v]);
        }
        above += mass_r[u] * up;
        below += mass_r[u] * down;
    }
    *above_m = above;
    *below_M = below;
}

/* -------------------------------------------------------- deviation map */

/* A part builds its layers ROW_BLOCK rows at a time, as a wavefront down
 * the layers: at step s, layer f builds block s - (f - 1) * lag, where lag
 * is the number of blocks the axis-0 taps reach past a block (wave_lag),
 * and layer f - 1 has just built the last block that they read.  Block b's
 * deviation follows as soon as the top layer has built it.  So a block's
 * rows are still in cache when the next layer reads them, where whole
 * planes of a frame are not, and each layer past layer 0 keeps only the
 * rows still to be read, in a window of window_rows rows: row r at row
 * r % window, through a table of row offsets that the axis-0 pass reads.
 * A block never wraps, as the window is whole blocks or the whole plane.
 * On 200 x 600 frames, 8-row blocks ran as fast as 16 and faster than 4,
 * 32 or whole planes. */
void deviation_part(void *job, int part)
{
    DevJob *j = job;
    ptrdiff_t b0, b1;
    band_range(j, part, &b0, &b1);
    const ptrdiff_t h = j->h, bw = b1 - b0, L = j->layers, plane = j->window * bw;
    const ptrdiff_t c0 = j->cut[part], c1 = j->cut[part + 1];
    double *first = j->band[part], *rest = first + h * bw, *scratch = rest + (L - 1) * plane;
    /* the row offsets of layer 0 and of the windows */
    ptrdiff_t *at0 = j->rows[part], *at = at0 + h;
    for (ptrdiff_t r = 0; r < h; r++) {
        at0[r] = r * bw;
        at[r] = r % j->window * bw;
    }
    const ptrdiff_t blocks = (h + ROW_BLOCK - 1) / ROW_BLOCK, lag = wave_lag(h, j->ru);
    const ptrdiff_t top = L > 2 ? (L - 2) * lag : 0; /* the top layer's lag */
    for (ptrdiff_t s = 0; s < blocks + top; s++) {
        /* the layers with a block to build at step s, from the lowest */
        const ptrdiff_t f0 = lag == 0 || s < blocks ? 1 : (s - blocks) / lag + 2;
        const ptrdiff_t f1 = lag == 0 || s / lag + 1 > L - 1 ? L - 1 : s / lag + 1;
        for (ptrdiff_t f = f0; f <= f1; f++) {
            const ptrdiff_t r0 = (s - (f - 1) * lag) * ROW_BLOCK;
            const ptrdiff_t rows = h - r0 < ROW_BLOCK ? h - r0 : ROW_BLOCK;
            const double *prev = f == 1 ? first : rest + (f - 2) * plane;
            const ptrdiff_t *prev_at = f == 1 ? at0 : at;
            double *next = rest + (f - 1) * plane + at[r0];
            if (j->ru == 0)
                memcpy(scratch, prev + prev_at[r0], (size_t)(rows * bw) * sizeof(double));
            else
                j->simd->axis0(prev, prev_at, scratch, bw, h, bw, r0, r0 + rows, j->ku, j->ru);
            if (j->rv == 0)
                memcpy(next, scratch, (size_t)(rows * bw) * sizeof(double));
            else
                j->simd->axis1(scratch, next, rows, bw, j->kv, j->rv);
        }
        if (s >= top) {
            const ptrdiff_t r0 = (s - top) * ROW_BLOCK;
            const ptrdiff_t r1 = h - r0 < ROW_BLOCK ? h : r0 + ROW_BLOCK;
            for (ptrdiff_t r = r0; r < r1; r++)
                j->simd->std(first + at0[r] + (c0 - b0), rest + at[r] + (c0 - b0), plane,
                             j->out + r * j->w + c0, L, c1 - c0);
        }
    }
}

/* The dense loops of the compiled core, shared by its two units.
 *
 * ``_dense.c`` holds the numeric loops: the axis-0 and axis-1 passes, the
 * stack std, the salient thinning's tile extremes, each at two vector
 * widths, and a deviation map's column part.  It includes no Python or
 * numpy header, so it compiles apart from, and at the same time as,
 * ``_coremodule.c``, which holds the bindings and calls the loops through
 * the `Simd` tables declared here.  Sizes are ptrdiff_t, which
 * ``_coremodule.c`` checks is Py_ssize_t's width.
 */

#ifndef TOPOSHADOW_DENSE_H
#define TOPOSHADOW_DENSE_H

#include <stddef.h>

/* Private to the extension library: nothing here is exported. */
#pragma GCC visibility push(hidden)

/* The columns of an axis-0 band (see AXIS0_BANDS in ``_dense.c``). */
#define AXIS0_BAND 16

/* Salient thinning bounds the spacings of a TILE x TILE tile's points
 * together, from the extremes of the map over the tile and its
 * neighbours (see "salient thinning" in ``_coremodule.c``).  Lanes and
 * tiles pick as EXT_MIN and EXT_MAX do: the new value only when it
 * compares below (above) the current one. */
#define TILE 8
#define EXT_MIN(a, b) ((b) < (a) ? (b) : (a))
#define EXT_MAX(a, b) ((b) > (a) ? (b) : (a))

/* The AVX-512 instances are built on x86 only. */
#if defined(__x86_64__) || defined(__i386__)
#define HAVE_AVX512 1
#endif

/* out[p] = x[p] + sum_{k=1..radius} w[k] * ((x[p-k]-x[p]) + (x[p+k]-x[p]))
 * along axis 0, for rows [r0, r1) of the w columns of an image of h rows.
 * Row r of the input starts at x + row[r], so that its rows may lie in any
 * order, and row r of the output at out + (r - r0) * ldo.  The whole pass
 * is rows [0, h) of an image with row[r] = r * w and ldo = w. */
typedef void (*axis0_fn)(const double *restrict x, const ptrdiff_t *restrict row,
                         double *restrict out, ptrdiff_t ldo, ptrdiff_t h, ptrdiff_t w,
                         ptrdiff_t r0, ptrdiff_t r1, const double *restrict wt, ptrdiff_t radius);

/* The same formula along each of the h rows of w values of `x`, with taps
 * clamped to the row. */
typedef void (*axis1_fn)(const double *restrict x, double *restrict out, ptrdiff_t h,
                         ptrdiff_t w, const double *restrict wt, ptrdiff_t radius);

/* Population standard deviation across the L layers of a stack at `n`
 * contiguous pixels, into `out`: layer 0 at s0, and layers 1 .. L - 1 at
 * s, `plane` values apart. */
typedef void (*std_fn)(const double *restrict s0, const double *restrict s, ptrdiff_t plane,
                       double *restrict out, ptrdiff_t L, ptrdiff_t n);

/* The extremes of each TILE x TILE tile of the (h, w) slice `s` (row
 * stride ld), clamped to the slice, into the tile grids lo and hi.
 * Returns whether every value of the slice is finite. */
typedef int (*tiles_fn)(const double *s, ptrdiff_t ld, ptrdiff_t h, ptrdiff_t w, double *lo,
                        double *hi);

/* The vector instances of the dense loops at one width. */
typedef struct {
    axis0_fn axis0;
    axis1_fn axis1;
    std_fn std;
    tiles_fn tiles;
} Simd;

/* 2 doubles per vector, for every CPU, and 8 for AVX-512 hosts. */
extern const Simd simd_baseline;
#ifdef HAVE_AVX512
extern const Simd simd_avx512;
#endif

/* The axis-1 pass of row `row` (w values) at column c alone. */
double correlate_point(const double *restrict row, ptrdiff_t w, const double *restrict wt,
                       ptrdiff_t radius, ptrdiff_t c);

/* The deviation map of a frame: the per-pixel std_map of its filter stack,
 * without the stack.  Each part owns columns [cut[p], cut[p + 1]) and
 * works in a private band: its columns plus `halo` columns on either side,
 * clamped to the frame.  A layer's axis-1 pass clamps at the band's inner
 * edge, so the radius(kv) columns nearest that edge go wrong once per
 * layer; with halo = (layers - 1) * radius(kv), every owned column stays
 * exact, and the part writes only those to `out`.
 *
 * A band holds b1 - b0 columns of: layer 0, all h rows, which the caller
 * casts from the image; then each of layers 1 .. layers - 1 in a window of
 * `window` rows (see window_rows), row r at row r % window; then one
 * ROW_BLOCK of scratch.  `rows` holds 2h row offsets for the part to fill:
 * layer 0's, then the windows'. */
typedef struct {
    const Simd *simd;
    const double *ku, *kv;
    double *out;
    ptrdiff_t h, w, ru, rv, layers, halo, window, cut[3];
    double *band[2];
    ptrdiff_t *rows[2];
} DevJob;

/* A part builds its layers ROW_BLOCK rows at a time, as a wavefront down
 * the layers (see "deviation map" in ``_dense.c``): at step s, layer f
 * builds block s - (f - 1) * lag, and the deviation takes block s - top,
 * top = (layers - 2) * lag, which the top layer has just built. */
#define ROW_BLOCK 8

/* lag: the blocks the axis-0 taps of radius ru reach past a block, but no
 * more than the h rows have. */
static inline ptrdiff_t wave_lag(ptrdiff_t h, ptrdiff_t ru)
{
    const ptrdiff_t blocks = (h + ROW_BLOCK - 1) / ROW_BLOCK;
    const ptrdiff_t lag = ru / ROW_BLOCK + (ru % ROW_BLOCK != 0);
    return lag < blocks ? lag : blocks;
}

/* The rows each of layers 1 .. layers - 1 keeps: as layer f builds block
 * b, layer f + 1 still reads blocks b - 2 lag .. b of it, and the
 * deviation block b - top + (f - 1) lag.  So max(2 lag, top) + 1 blocks
 * hold every block still to be read, and the top layer's single block
 * suffices on a stack of two layers.  A window reaching the frame's last
 * block is the whole plane, h rows. */
static inline ptrdiff_t window_rows(ptrdiff_t h, ptrdiff_t ru, ptrdiff_t layers)
{
    const ptrdiff_t blocks = (h + ROW_BLOCK - 1) / ROW_BLOCK, lag = wave_lag(h, ru);
    ptrdiff_t live = 1;
    if (layers > 2) {
        ptrdiff_t top;
        if (__builtin_mul_overflow(layers - 2, lag, &top) || top > blocks)
            top = blocks;
        live = (2 * lag > top ? 2 * lag : top) + 1;
    }
    return live < blocks ? live * ROW_BLOCK : h;
}

/* The columns [b0, b1) of part `part`'s band. */
static inline void band_range(const DevJob *j, int part, ptrdiff_t *b0, ptrdiff_t *b1)
{
    *b0 = j->cut[part] - j->halo < 0 ? 0 : j->cut[part] - j->halo;
    *b1 = j->w - j->cut[part + 1] < j->halo ? j->w : j->cut[part + 1] + j->halo;
}

/* Build part `part` (0 or 1) of the DevJob `job` into its columns of
 * `out`; touches no Python object, so the helper thread may run it. */
void deviation_part(void *job, int part);

#pragma GCC visibility pop

#endif

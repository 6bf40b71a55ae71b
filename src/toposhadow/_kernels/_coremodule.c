/* The CPython bindings of the compiled twins of the pure numpy kernels in
 * ``_pure``, and the kernels that are not dense loops.
 *
 * Bit-identical by construction: every float result follows the same
 * per-element operation order as its twin, and the geometric kernels are
 * exact integer arithmetic.  Any semantic change here must land in
 * ``_pure`` too.  Build with -ffp-contract=off: a fused multiply-add
 * rounds once where the twin rounds twice.
 *
 * The dense loops (the axis-0 and axis-1 passes, the stack std, the tile
 * extremes and a deviation map's part) live in ``_dense.c``, which
 * includes no Python header, so that setup.py compiles both units at
 * the same time; they are built at two vector widths into the `Simd`
 * tables of ``_dense.h``.  Module init picks one width and names it in
 * ``SIMD``, and ``_force`` runs the 2-wide instances on any host, for
 * tests.
 *
 * Every kernel releases the GIL around its loops.  The deviation map
 * splits a large call into two parts, the second run by a thread started
 * for the call and joined before it returns (see "two parts" below).  The
 * salient thinning computes a candidate's spacing only where bounds on it
 * cannot decide the candidate (see "thin" below).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>

#include <float.h>
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

#include "_dense.h"

/* the dense loops take Py_ssize_t sizes as ptrdiff_t */
_Static_assert(sizeof(ptrdiff_t) == sizeof(Py_ssize_t), "ptrdiff_t must be Py_ssize_t's width");

typedef npy_int64 i64;
typedef npy_int32 i32;

#define AS_ARRAY(obj, type) \
    ((PyArrayObject *)PyArray_FROM_OTF((obj), (type), NPY_ARRAY_IN_ARRAY | NPY_ARRAY_FORCECAST))

/* (N, 2) int64 (row, col) points; any empty input counts as N = 0. */
static PyArrayObject *as_points(PyObject *obj, Py_ssize_t *n)
{
    PyArrayObject *arr = AS_ARRAY(obj, NPY_INT64);
    if (arr == NULL)
        return NULL;
    if (PyArray_SIZE(arr) == 0) {
        *n = 0;
        return arr;
    }
    if (PyArray_NDIM(arr) != 2 || PyArray_DIM(arr, 1) != 2) {
        PyErr_SetString(PyExc_ValueError, "points must be an (N, 2) array");
        Py_DECREF(arr);
        return NULL;
    }
    *n = PyArray_DIM(arr, 0);
    return arr;
}

/* A uniform grid over the points' bounding box.  It only prunes the
 * candidate pairs, so any cell at least as large as the search radius is
 * correct.  The cell is a whole number of pixels, at least ceil(radius):
 * a pair whose integer squared distance is within the rounded square of
 * the radius is then at most one cell apart on either axis, however the
 * radius rounds.  It is doubled until the grid holds no more than about
 * 2n cells, which bounds its memory by the input. */
typedef struct {
    i64 r0, c0;
    double cell; /* a whole number: the floor of a quotient of two whole
                  * numbers below 2^53 never rounds up to the next one */
    Py_ssize_t gh, gw;
    Py_ssize_t *head; /* per cell: latest point, -1 when empty */
    Py_ssize_t *next; /* per point: previous point in its cell */
} Grid;

static int grid_init(Grid *g, const i64 *pts, Py_ssize_t n, double radius)
{
    i64 r1 = pts[0], c1 = pts[1];
    g->r0 = pts[0];
    g->c0 = pts[1];
    for (Py_ssize_t i = 1; i < n; i++) {
        i64 r = pts[2 * i], c = pts[2 * i + 1];
        if (r < g->r0) g->r0 = r;
        if (r > r1) r1 = r;
        if (c < g->c0) g->c0 = c;
        if (c > c1) c1 = c;
    }
    const double rows = (double)(r1 - g->r0), cols = (double)(c1 - g->c0);
    /* past the box one cell holds every point; NaN and 0 take a unit cell */
    double cell = ceil(radius);
    if (!(cell >= 1.0))
        cell = 1.0;
    if (cell > (rows > cols ? rows : cols) + 1.0)
        cell = (rows > cols ? rows : cols) + 1.0;
    double max_cells = 2.0 * (double)n + 64.0;
    while ((rows / cell + 1.0) * (cols / cell + 1.0) > max_cells)
        cell *= 2.0;
    g->cell = cell;
    g->gh = (Py_ssize_t)(rows / cell) + 1;
    g->gw = (Py_ssize_t)(cols / cell) + 1;
    g->head = malloc((size_t)(g->gh * g->gw) * sizeof(Py_ssize_t));
    g->next = malloc((size_t)n * sizeof(Py_ssize_t));
    if (g->head == NULL || g->next == NULL) {
        free(g->head);
        free(g->next);
        return -1;
    }
    for (Py_ssize_t i = 0; i < g->gh * g->gw; i++)
        g->head[i] = -1;
    return 0;
}

static void grid_free(Grid *g)
{
    free(g->head);
    free(g->next);
}

static inline Py_ssize_t grid_row(const Grid *g, i64 r)
{
    return (Py_ssize_t)((double)(r - g->r0) / g->cell);
}

static inline Py_ssize_t grid_col(const Grid *g, i64 c)
{
    return (Py_ssize_t)((double)(c - g->c0) / g->cell);
}

static inline void grid_insert(Grid *g, const i64 *pts, Py_ssize_t i)
{
    Py_ssize_t slot = grid_row(g, pts[2 * i]) * g->gw + grid_col(g, pts[2 * i + 1]);
    g->next[i] = g->head[slot];
    g->head[slot] = i;
}

static inline double dist_sq(const i64 *pts, Py_ssize_t a, Py_ssize_t b)
{
    i64 dy = pts[2 * a] - pts[2 * b];
    i64 dx = pts[2 * a + 1] - pts[2 * b + 1];
    return (double)(dy * dy + dx * dx);
}

/* ------------------------------------------------------------ two parts */

/* A deviation map splits its columns into a left and a right part.  The
 * call starts one thread, runs the left part itself and joins the thread
 * before it returns, so no thread outlives the call and a forked child
 * has nothing to forget.  Whichever of the two claims the right part first
 * runs it: a caller whose thread has not started by the time the left
 * part is done runs the right part too, as it does when the thread cannot
 * start.  The thread touches no Python object.  Parts write disjoint
 * outputs, so the result does not depend on who ran which part. */
typedef struct {
    DevJob *job;
    atomic_int claimed; /* 1 once a thread has claimed the right part */
} Split;

static int claim_right(Split *s)
{
    return atomic_exchange(&s->claimed, 1) == 0;
}

static void *right_part(void *arg)
{
    Split *s = arg;
    if (claim_right(s))
        deviation_part(s->job, 1);
    return NULL;
}

/* Calls that split, and right parts a split's own thread ran, for tests;
 * read and written with the GIL held. */
static long long split_calls, thread_parts;

/* Run both parts of `job`; call without the GIL.  1 when the call's
 * thread ran the right part.  The thread starts with every signal
 * blocked, so that signals keep going to the interpreter's threads. */
static int run_parts(DevJob *job)
{
    Split s = {job, 0};
    sigset_t all, old;
    pthread_t thread;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    const int started = pthread_create(&thread, NULL, right_part, &s) == 0;
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    deviation_part(job, 0);
    const int mine = claim_right(&s);
    if (mine)
        deviation_part(job, 1);
    if (started)
        pthread_join(thread, NULL);
    return !mine;
}

/* The CPUs this process may run on. */
static int cpus_allowed(void)
{
#ifdef CPU_COUNT
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return CPU_COUNT(&set);
#endif
    long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? (int)n : 1;
}

/* Whether the calling thread is its interpreter's only Python thread;
 * call with the GIL held: an ending thread leaves the list while it holds
 * the GIL, so the walk reads no freed state, and a thread that ended
 * before this call is gone from it. */
static int only_thread(void)
{
    PyThreadState *head = PyInterpreterState_ThreadHead(PyInterpreterState_Get());
    return head != NULL && PyThreadState_Next(head) == NULL;
}

/* Whether a call whose parts each do about `part_work` multiply-adds
 * should split; call with the GIL held.  Below SPLIT_MIN_WORK starting
 * and joining the call's thread costs more than the part.  A call splits
 * only while its caller is the process's only Python thread: other
 * threads, such as a dataset command's pool or pipeline helper, already
 * use the other cores, and a split would take one from them. */
#define SPLIT_MIN_WORK 100000.0

__attribute__((noinline)) static int should_split(double part_work)
{
    if (part_work < SPLIT_MIN_WORK || !only_thread() || cpus_allowed() < 2)
        return 0;
    split_calls++;
    return 1;
}

/* ------------------------------------------------------------ correlate */

/* The instances module init picked; `SIMD` names them. */
static const Simd *picked = &simd_baseline;

/* What `_force` set, for tests; read and written with the GIL held: the
 * baseline instances in place of module init's pick, and a deviation
 * map's column parts (0 to choose).  A call reads it once into its job,
 * so the call's thread never reads it. */
static struct {
    int baseline, parts;
} forced;

static const Simd *pick(void)
{
    return forced.baseline ? &simd_baseline : picked;
}

/* The offsets r * ld of rows [0, h), for the axis-0 pass; free with
 * PyMem_RawFree.  NULL with MemoryError set. */
static ptrdiff_t *row_offsets(Py_ssize_t h, Py_ssize_t ld)
{
    ptrdiff_t *row = PyMem_RawMalloc((size_t)h * sizeof(ptrdiff_t));
    if (row == NULL)
        PyErr_NoMemory();
    for (Py_ssize_t r = 0; row != NULL && r < h; r++)
        row[r] = r * ld;
    return row;
}

static PyObject *correlate1d_replicate(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"img", "weights", "axis", NULL};
    PyObject *img_obj, *w_obj;
    int axis;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOi", kwlist, &img_obj, &w_obj, &axis))
        return NULL;
    if (axis != 0 && axis != 1) {
        PyErr_SetString(PyExc_ValueError, "axis must be 0 or 1");
        return NULL;
    }
    PyArrayObject *img = AS_ARRAY(img_obj, NPY_DOUBLE);
    if (img == NULL)
        return NULL;
    PyArrayObject *wts = AS_ARRAY(w_obj, NPY_DOUBLE);
    if (wts == NULL) {
        Py_DECREF(img);
        return NULL;
    }
    PyArrayObject *out = NULL;
    if (PyArray_NDIM(img) != 2 || PyArray_NDIM(wts) != 1 || PyArray_DIM(wts, 0) == 0) {
        PyErr_SetString(PyExc_ValueError, "expected a 2D image and a non-empty 1D kernel");
        goto done;
    }
    Py_ssize_t h = PyArray_DIM(img, 0), w = PyArray_DIM(img, 1);
    Py_ssize_t radius = (PyArray_DIM(wts, 0) - 1) / 2;
    out = (PyArrayObject *)PyArray_SimpleNew(2, PyArray_DIMS(img), NPY_DOUBLE);
    if (out == NULL)
        goto done;
    const double *x = PyArray_DATA(img), *wt = PyArray_DATA(wts);
    double *o = PyArray_DATA(out);
    const Simd *simd = pick();
    if (radius == 0 || h == 0 || w == 0) {
        memcpy(o, x, (size_t)(h * w) * sizeof(double));
    } else if (axis == 0) {
        ptrdiff_t *row = row_offsets(h, w);
        if (row == NULL) {
            Py_CLEAR(out);
            goto done;
        }
        Py_BEGIN_ALLOW_THREADS
        simd->axis0(x, row, o, w, h, w, 0, h, wt, radius);
        Py_END_ALLOW_THREADS
        PyMem_RawFree(row);
    } else {
        Py_BEGIN_ALLOW_THREADS
        simd->axis1(x, o, h, w, wt, radius);
        Py_END_ALLOW_THREADS
    }
done:
    Py_DECREF(img);
    Py_DECREF(wts);
    return (PyObject *)out;
}

/* -------------------------------------------------------- deviation map */

/* The call sets up a DevJob (see ``_dense.h``): its column parts, their
 * bands with layer 0 cast from the image and their row tables, and the
 * output; the parts then run in ``_dense.c``'s deviation_part, the second
 * on the thread that run_parts starts for the call.  A band holds layer 0
 * and a window of rows of each later layer, not whole planes: at the
 * default Params, 40 rows of each, and about 2.1 frames for a 200 x 600
 * map in all. */

/* Columns [b0, b1) of `img`, of any real dtype, cast into the (h, b1 - b0)
 * float64 rows at `dst` as numpy assigns them.  0, or -1 with an error. */
static int cast_columns(PyArrayObject *img, Py_ssize_t b0, Py_ssize_t b1, double *dst)
{
    npy_intp dims[2] = {PyArray_DIM(img, 0), b1 - b0};
    PyArray_Descr *descr = PyArray_DESCR(img);
    Py_INCREF(descr);
    /* a read-only view that lives only while `img` is held */
    PyObject *from = PyArray_NewFromDescr(&PyArray_Type, descr, 2, dims, PyArray_STRIDES(img),
                                          PyArray_BYTES(img) + b0 * PyArray_STRIDE(img, 1), 0,
                                          NULL);
    PyObject *to = from == NULL ? NULL : PyArray_SimpleNewFromData(2, dims, NPY_DOUBLE, dst);
    int rc = to == NULL ? -1 : PyArray_CopyInto((PyArrayObject *)to, (PyArrayObject *)from);
    Py_XDECREF(from);
    Py_XDECREF(to);
    return rc;
}

/* A part must be at least SPLIT_HALOS halos wide: narrower, its halo
 * columns cost more than the second core saves. */
#define SPLIT_HALOS 4

static PyObject *deviation_map(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"img", "ku", "kv", "layers", NULL};
    PyObject *img_obj, *ku_obj, *kv_obj, *layers_obj;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOO", kwlist, &img_obj, &ku_obj, &kv_obj,
                                     &layers_obj))
        return NULL;
    /* a count past Py_ssize_t clips to its maximum and fails the size check */
    Py_ssize_t layers = PyNumber_AsSsize_t(layers_obj, NULL);
    if (layers == -1 && PyErr_Occurred())
        return NULL;
    if (layers < 1) {
        PyErr_SetString(PyExc_ValueError, "layers must be at least 1");
        return NULL;
    }
    /* any dtype: layer 0 is cast straight into the bands */
    PyArrayObject *img = (PyArrayObject *)PyArray_FROM_O(img_obj);
    if (img == NULL)
        return NULL;
    PyArrayObject *ku = AS_ARRAY(ku_obj, NPY_DOUBLE);
    PyArrayObject *kv = ku == NULL ? NULL : AS_ARRAY(kv_obj, NPY_DOUBLE);
    PyArrayObject *out = NULL, *bands = NULL;
    ptrdiff_t *rows = NULL;
    if (kv == NULL)
        goto done;
    if (PyArray_NDIM(img) != 2 || PyArray_NDIM(ku) != 1 || PyArray_DIM(ku, 0) == 0
        || PyArray_NDIM(kv) != 1 || PyArray_DIM(kv, 0) == 0) {
        PyErr_SetString(PyExc_ValueError, "expected a 2D image and non-empty 1D kernels");
        goto done;
    }
    DevJob job = {pick(), PyArray_DATA(ku), PyArray_DATA(kv), NULL,
                  PyArray_DIM(img, 0), PyArray_DIM(img, 1), (PyArray_DIM(ku, 0) - 1) / 2,
                  (PyArray_DIM(kv, 0) - 1) / 2, layers, 0, 0, {0, 0, 0}, {NULL, NULL},
                  {NULL, NULL}};
    const Py_ssize_t h = job.h, w = job.w;
    /* both parts' band widths, and the size arithmetic checked for overflow */
    Py_ssize_t mid = w / 2;
    size_t halo;
    if (__builtin_mul_overflow((size_t)(layers - 1), (size_t)job.rv, &halo) || halo > (size_t)w)
        halo = (size_t)w;
    job.halo = (Py_ssize_t)halo;
    /* 1 to run serial and 2 to split, as forced; 0 to choose */
    int parts = forced.parts;
    if (parts == 0) {
        /* per pixel and layer: the taps of both passes, and the copy and std */
        double work = (double)h * (double)(w - mid) * (double)(layers - 1)
                      * (double)(job.ru + job.rv + 2);
        parts = mid > 0 && mid >= SPLIT_HALOS * job.halo && should_split(work) ? 2 : 1;
    } else if (parts == 2) {
        split_calls++;
    }
    job.cut[1] = parts == 2 ? mid : w;
    job.cut[2] = w;
    job.window = window_rows(h, job.ru, layers);
    /* a band's rows: layer 0's h, a window of each later layer's, and one
     * block of scratch */
    size_t band_rows, band[2] = {0, 0}, total = 0;
    int overflow = __builtin_mul_overflow((size_t)(layers - 1), (size_t)job.window, &band_rows);
    overflow |= __builtin_add_overflow(band_rows, (size_t)h + ROW_BLOCK, &band_rows);
    for (int p = 0; p < parts; p++) {
        ptrdiff_t b0, b1;
        band_range(&job, p, &b0, &b1);
        overflow |= __builtin_mul_overflow(band_rows, (size_t)(b1 - b0), &band[p]);
        overflow |= __builtin_add_overflow(total, band[p], &total);
    }
    if (overflow || total > PY_SSIZE_T_MAX / sizeof(double)) {
        PyErr_SetString(PyExc_MemoryError, "the filter stack does not fit in memory");
        goto done;
    }
    out = (PyArrayObject *)PyArray_SimpleNew(2, PyArray_DIMS(img), NPY_DOUBLE);
    if (out == NULL)
        goto done;
    job.out = PyArray_DATA(out);
    if (h == 0 || w == 0)
        goto done;
    /* a numpy array, so that tracemalloc sees it and a large one gets
     * numpy's huge-page advice, as the stack it replaces did */
    npy_intp cells = (npy_intp)total;
    bands = (PyArrayObject *)PyArray_SimpleNew(1, &cells, NPY_DOUBLE);
    if (bands == NULL) {
        Py_CLEAR(out);
        goto done;
    }
    rows = PyMem_RawMalloc((size_t)(2 * parts * h) * sizeof(ptrdiff_t));
    if (rows == NULL) {
        PyErr_NoMemory();
        Py_CLEAR(out);
        goto done;
    }
    job.band[0] = PyArray_DATA(bands);
    job.band[1] = job.band[0] + band[0];
    job.rows[0] = rows;
    job.rows[1] = rows + 2 * h;
    for (int p = 0; p < parts; p++) {
        ptrdiff_t b0, b1;
        band_range(&job, p, &b0, &b1);
        if (cast_columns(img, b0, b1, job.band[p]) < 0) {
            Py_CLEAR(out);
            goto done;
        }
    }
    int ran = 0;
    Py_BEGIN_ALLOW_THREADS
    if (parts == 2)
        ran = run_parts(&job);
    else
        deviation_part(&job, 0);
    Py_END_ALLOW_THREADS
    thread_parts += ran;
done:
    PyMem_RawFree(rows);
    Py_XDECREF(bands);
    Py_DECREF(img);
    Py_XDECREF(ku);
    Py_XDECREF(kv);
    return (PyObject *)out;
}

/* Force the baseline instances (simd="baseline") or module init's pick
 * (simd=None), and a deviation map's column parts (1 or 2, or 0 to
 * choose), for tests.  Returns the previous (simd, parts). */
static PyObject *force(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"simd", "parts", NULL};
    PyObject *simd = Py_None;
    int parts = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|Oi", kwlist, &simd, &parts))
        return NULL;
    const int baseline = simd != Py_None;
    if (baseline
        && !(PyUnicode_Check(simd) && PyUnicode_CompareWithASCIIString(simd, "baseline") == 0)) {
        PyErr_SetString(PyExc_ValueError, "simd must be None or 'baseline'");
        return NULL;
    }
    if (parts < 0 || parts > 2) {
        PyErr_SetString(PyExc_ValueError, "parts must be 0, 1 or 2");
        return NULL;
    }
    PyObject *prev = Py_BuildValue("zi", forced.baseline ? "baseline" : NULL, forced.parts);
    if (prev != NULL) {
        forced.baseline = baseline;
        forced.parts = parts;
    }
    return prev;
}

static PyObject *split_stats(PyObject *self, PyObject *unused)
{
    return Py_BuildValue("LL", split_calls, thread_parts);
}

/* ----------------------------------------------------------------- thin */

/* The spacing a blurred saliency value asks for: the value clamped to
 * [0, 1] as np.clip clamps it, then mapped so that high saliency gives the
 * minimum spacing phi1.  For phi2 >= 0 it does not increase with the
 * value, as every step rounds monotonically, so bounds on the value bound
 * the spacing.  NaN stays NaN. */
static inline double spacing_of(double blurred, double phi1, double phi2)
{
    if (blurred < 0.0)
        blurred = 0.0;
    else if (blurred > 1.0)
        blurred = 1.0;
    return phi1 + phi2 * (1.0 - blurred);
}

/* The spacing of candidate i, for when its bounds cannot decide it. */
typedef double (*spacing_fn)(void *ctx, Py_ssize_t i);

/* Candidate i's spacing lies in [lo[k], hi[k]]: k = i, or with tw > 0 the
 * index of i's tile in a grid of tiles tw wide whose first column is c0. */
typedef struct {
    const double *lo, *hi;
    Py_ssize_t tw, c0;
} Bounds;

static inline Py_ssize_t bound_at(const Bounds *b, const i64 *pts, Py_ssize_t i)
{
    return b->tw > 0 ? pts[2 * i] / TILE * b->tw + (pts[2 * i + 1] - b->c0) / TILE : i;
}

/* Greedy row-major thinning: keep a candidate iff no already-kept point
 * lies within the candidate's own spacing (inclusive).  Its bounds are
 * both >= 0, or equal (thin_points, whose spacings may be negative and are
 * compared by their squares): a kept point within the lower one rules it
 * out, and none within the upper one keeps it; only in between is
 * `spacing` asked for the exact value.  The kept point that ruled out the
 * previous candidate is tried before the grid, as row-major neighbours
 * mostly fall to the same point.  The grid's cell must be at least the
 * largest upper bound. */
static Py_ssize_t thin_greedy(Grid *g, const i64 *pts, Py_ssize_t n, const Bounds *b,
                              spacing_fn spacing, void *ctx, i64 *kept)
{
    Py_ssize_t n_kept = 0, blocker = -1;
    for (Py_ssize_t i = 0; i < n; i++) {
        const Py_ssize_t k = bound_at(b, pts, i);
        const double lo_sq = b->lo[k] * b->lo[k];
        if (blocker >= 0 && dist_sq(pts, i, blocker) <= lo_sq)
            continue;
        const Py_ssize_t gr = grid_row(g, pts[2 * i]), gc = grid_col(g, pts[2 * i + 1]);
        double nearest = INFINITY;
        Py_ssize_t nearest_j = -1;
        for (Py_ssize_t ar = gr - 1; ar <= gr + 1; ar++) {
            if (ar < 0 || ar >= g->gh)
                continue;
            for (Py_ssize_t ac = gc - 1; ac <= gc + 1; ac++) {
                if (ac < 0 || ac >= g->gw)
                    continue;
                for (Py_ssize_t j = g->head[ar * g->gw + ac]; j >= 0; j = g->next[j]) {
                    const double d = dist_sq(pts, i, j);
                    if (d <= lo_sq) {
                        nearest_j = j;
                        goto ruled_out;
                    }
                    if (d < nearest) {
                        nearest = d;
                        nearest_j = j;
                    }
                }
            }
        }
        /* with no kept neighbour nothing rules i out, even at an infinite
         * spacing (inf <= inf would) */
        if (nearest_j >= 0 && nearest <= b->hi[k] * b->hi[k]) {
            const double exact = spacing(ctx, i);
            if (nearest <= exact * exact)
                goto ruled_out;
        }
        kept[n_kept++] = i;
        grid_insert(g, pts, i);
        continue;
    ruled_out:
        blocker = nearest_j;
    }
    return n_kept;
}

/* `thin_points` knows every spacing, so its bounds are exact. */
static double known_spacing(void *ctx, Py_ssize_t i)
{
    return ((const double *)ctx)[i];
}

/* `n` kept indices as an int64 vector. */
static PyObject *kept_array(const i64 *kept, Py_ssize_t n)
{
    npy_intp dims[1] = {n};
    PyArrayObject *out = (PyArrayObject *)PyArray_SimpleNew(1, dims, NPY_INT64);
    if (out != NULL && n > 0)
        memcpy(PyArray_DATA(out), kept, (size_t)n * sizeof(i64));
    return (PyObject *)out;
}

/* The kept indices of thin_greedy, after the checks that thin_points makes
 * on the spacings, here on the upper bounds: NaN raises, and a largest
 * spacing <= 0 keeps every point.  NULL with an error set. */
__attribute__((noinline)) static PyObject *thin_with(const i64 *p, Py_ssize_t n, const Bounds *b,
                                                     spacing_fn spacing, void *ctx)
{
    double cell = 0.0;
    for (Py_ssize_t i = 0; i < n; i++) {
        const double top = b->hi[bound_at(b, p, i)];
        if (top > cell || isnan(top))
            cell = top;
    }
    if (isnan(cell))
        return PyErr_Format(PyExc_ValueError, "spacing must not contain NaN");
    i64 *kept = malloc((size_t)(n > 0 ? n : 1) * sizeof(i64));
    if (kept == NULL)
        return PyErr_NoMemory();
    Py_ssize_t n_kept = 0;
    if (cell <= 0.0) {
        for (n_kept = 0; n_kept < n; n_kept++)
            kept[n_kept] = n_kept;
    } else {
        Grid g;
        if (grid_init(&g, p, n, cell) < 0) {
            free(kept);
            return PyErr_NoMemory();
        }
        Py_BEGIN_ALLOW_THREADS
        n_kept = thin_greedy(&g, p, n, b, spacing, ctx, kept);
        Py_END_ALLOW_THREADS
        grid_free(&g);
    }
    PyObject *out = kept_array(kept, n_kept);
    free(kept);
    return out;
}

static PyObject *thin_points(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"points", "spacing", NULL};
    PyObject *p_obj, *s_obj;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO", kwlist, &p_obj, &s_obj))
        return NULL;
    Py_ssize_t n;
    PyArrayObject *pts = as_points(p_obj, &n);
    if (pts == NULL)
        return NULL;
    PyArrayObject *lam = AS_ARRAY(s_obj, NPY_DOUBLE);
    PyObject *out = NULL;
    if (lam == NULL)
        goto done;
    if (PyArray_SIZE(lam) != n) {
        PyErr_SetString(PyExc_ValueError, "spacing must hold one value per point");
        goto done;
    }
    const double *s = PyArray_DATA(lam);
    out = thin_with(PyArray_DATA(pts), n, &(Bounds){s, s, 0, 0}, known_spacing, (void *)s);
done:
    Py_DECREF(pts);
    Py_XDECREF(lam);
    return out;
}

/* ------------------------------------------------------ salient thinning */

/* thin_points(points, the spacing field at the points) without most of the
 * field.  A point's blurred value is a weighted mean, with weights >= 0
 * that sum to 1, of the values its replicate-edge taps read, all of which
 * lie in its window of (2 radius + 1)^2 pixels clamped to the frame.  So
 * it lies within the extremes of any region holding that window, widened
 * by a margin that covers the rounding of both passes; mapped through
 * spacing_of, those extremes bound the spacing, and thin_greedy asks for
 * the exact value only when the bounds cannot decide the point.  That
 * value is the dense passes' sum at the point: the axis-0 cells its row
 * reads are computed on demand by the same band body, each (row, band)
 * once per run of points on that row, so once per call for points in row
 * order, as threshold_points gives them.
 *
 * The region is a square of whole TILE x TILE tiles of the column slice
 * the points read: the point's tile and `reach` tiles on every side, with
 * reach = ceil(radius / TILE), clamped to the slice.  It holds the window
 * of every point of the tile. */

/* Along each of `count` lines (`gap` apart) of n cells (`step` apart) of
 * the grids lo and hi, each cell's min (of lo) or max (of hi) over the
 * cells within `reach` of it on the line, clamped to it, into olo and
 * ohi.  Down the columns of a tile grid and then along its rows, it gives
 * each tile the extremes of the tiles within `reach` on both axes. */
__attribute__((noinline)) static void reach_lines(const double *lo, const double *hi, double *olo,
                                                  double *ohi, Py_ssize_t count, Py_ssize_t gap,
                                                  Py_ssize_t n, Py_ssize_t step, Py_ssize_t reach)
{
    for (Py_ssize_t l = 0; l < count; l++)
        for (Py_ssize_t i = 0; i < n; i++) {
            const Py_ssize_t a = i - reach < 0 ? 0 : i - reach;
            const Py_ssize_t b = n - 1 - i < reach ? n - 1 : i + reach;
            double mn = lo[l * gap + a * step], mx = hi[l * gap + a * step];
            for (Py_ssize_t k = a + 1; k <= b; k++) {
                mn = EXT_MIN(mn, lo[l * gap + k * step]);
                mx = EXT_MAX(mx, hi[l * gap + k * step]);
            }
            olo[l * gap + i * step] = mn;
            ohi[l * gap + i * step] = mx;
        }
}

/* Whether the weights w[radius + k], k >= 1, make every blurred value a
 * mean of the taps it reads: each >= 0 and twice their sum <= 1, so that
 * the implicit centre weight 1 - 2 sum is >= 0 up to the rounding of the
 * sum, which the margin covers. */
static int mean_weights(const double *wt, Py_ssize_t radius)
{
    double sum = 0.0;
    for (Py_ssize_t k = 1; k <= radius; k++) {
        if (!(wt[radius + k] >= 0.0))
            return 0;
        sum += wt[radius + k];
    }
    return 2.0 * sum <= 1.0;
}

/* Salient thinning state: the (h, W) map `s`, the column slice [c0, c0 + w)
 * that the points' taps read, and, filled on demand over that slice, s / 255
 * by band (`x`, each band's h rows of AXIS0_BAND values in turn) and the
 * axis-0 pass of row `a_row` by band (`a`, w values). */
typedef struct {
    const double *s, *wt;
    const i64 *pts;
    Py_ssize_t h, W, c0, w, radius, bands, a_row;
    double phi1, phi2;
    double *x, *a;
    const ptrdiff_t *x_row; /* the offsets of x's rows in a band */
    unsigned char *x_done, *a_done;
    axis0_fn axis0;
    long long exact, cells;
} Salient;

/* The spacing of point i exactly as the dense passes give it. */
__attribute__((noinline)) static double salient_spacing(void *ctx, Py_ssize_t i)
{
    Salient *t = ctx;
    const Py_ssize_t r = t->pts[2 * i], c = t->pts[2 * i + 1] - t->c0, w = t->w, h = t->h;
    const Py_ssize_t b0 = (c - t->radius < 0 ? 0 : c - t->radius) / AXIS0_BAND;
    const Py_ssize_t b1 = (c + t->radius > w - 1 ? w - 1 : c + t->radius) / AXIS0_BAND;
    if (r != t->a_row) {
        memset(t->a_done, 0, (size_t)t->bands);
        t->a_row = r;
    }
    for (Py_ssize_t b = b0; b <= b1; b++) {
        if (t->a_done[b])
            continue;
        const Py_ssize_t cb = b * AXIS0_BAND, n = w - cb < AXIS0_BAND ? w - cb : AXIS0_BAND;
        double *restrict x = t->x + cb * h;
        if (!t->x_done[b]) {
            const double *restrict s = t->s + t->c0 + cb;
            for (Py_ssize_t y = 0; y < h; y++)
                for (Py_ssize_t k = 0; k < n; k++)
                    x[y * AXIS0_BAND + k] = s[y * t->W + k] / 255.0;
            t->x_done[b] = 1;
        }
        /* row r of the pass, written at `a` itself (a row step of 0) */
        t->axis0(x, t->x_row, t->a + cb, 0, h, n, r, r + 1, t->wt, t->radius);
        t->a_done[b] = 1;
        t->cells += n;
    }
    t->exact++;
    return spacing_of(correlate_point(t->a, w, t->wt, t->radius, c), t->phi1, t->phi2);
}

/* Counters over every call, for tests; read and written with the GIL. */
static long long thin_candidates, thin_exact, thin_cells;

/* 0 when every point lies in the (h, w) image, with the least and greatest
 * point column in cols[0] and cols[1]; else -1 with IndexError set. */
static int check_points(const i64 *p, Py_ssize_t n, Py_ssize_t h, Py_ssize_t w, i64 cols[2])
{
    cols[0] = cols[1] = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        const i64 c = p[2 * i + 1];
        if (p[2 * i] < 0 || p[2 * i] >= h || c < 0 || c >= w) {
            PyErr_SetString(PyExc_IndexError, "point outside the image");
            return -1;
        }
        if (i == 0 || c < cols[0])
            cols[0] = c;
        if (i == 0 || c > cols[1])
            cols[1] = c;
    }
    return 0;
}

static PyObject *thin_salient(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"saliency", "weights", "points", "phi1", "phi2", NULL};
    PyObject *s_obj, *w_obj, *p_obj;
    double phi1, phi2;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOdd", kwlist, &s_obj, &w_obj, &p_obj, &phi1,
                                     &phi2))
        return NULL;
    if (!(isfinite(phi1) && isfinite(phi2) && phi1 >= 0.0 && phi2 >= 0.0)) {
        PyErr_SetString(PyExc_ValueError, "phi1 and phi2 must be finite and non-negative");
        return NULL;
    }
    PyArrayObject *sal = AS_ARRAY(s_obj, NPY_DOUBLE);
    if (sal == NULL)
        return NULL;
    PyArrayObject *wts = AS_ARRAY(w_obj, NPY_DOUBLE);
    Py_ssize_t n = 0;
    PyArrayObject *pts = wts == NULL ? NULL : as_points(p_obj, &n);
    PyObject *out = NULL;
    double *buf = NULL, *bound = NULL;
    ptrdiff_t *x_row = NULL;
    unsigned char *flags = NULL;
    if (pts == NULL)
        goto done;
    if (PyArray_NDIM(sal) != 2 || PyArray_NDIM(wts) != 1 || PyArray_DIM(wts, 0) == 0) {
        PyErr_SetString(PyExc_ValueError, "expected a 2D image and a non-empty 1D kernel");
        goto done;
    }
    const Py_ssize_t h = PyArray_DIM(sal, 0), W = PyArray_DIM(sal, 1);
    const i64 *p = PyArray_DATA(pts);
    if (n == 0) {
        out = kept_array(NULL, 0);
        goto done;
    }
    i64 cols[2];
    if (check_points(p, n, h, W, cols) < 0)
        goto done;
    const Py_ssize_t radius = (PyArray_DIM(wts, 0) - 1) / 2;
    const Py_ssize_t c0 = cols[0] - radius < 0 ? 0 : cols[0] - radius;
    const Py_ssize_t c1 = W - 1 - cols[1] < radius ? W : cols[1] + radius + 1;
    const Py_ssize_t w = c1 - c0, bands = (w + AXIS0_BAND - 1) / AXIS0_BAND;
    const Simd *simd = pick();
    Salient t = {PyArray_DATA(sal), PyArray_DATA(wts), p, h, W, c0, w, radius, bands, -1,
                 phi1, phi2, NULL, NULL, NULL, NULL, NULL, simd->axis0, 0, 0};
    /* x and a; the raw tile grids fit in x, which fills only after them */
    const Py_ssize_t plane = bands * AXIS0_BAND * h;
    const Py_ssize_t th = (h + TILE - 1) / TILE, tw = (w + TILE - 1) / TILE;
    /* the tiles' spacing bounds, or else every point's exact spacing */
    const Py_ssize_t n_bound = n > 2 * th * tw ? n : 2 * th * tw;
    /* the raw allocator, so that tracemalloc sees these frame-sized buffers */
    buf = PyMem_RawMalloc((size_t)(plane + bands * AXIS0_BAND) * sizeof(double));
    bound = PyMem_RawMalloc((size_t)n_bound * sizeof(double));
    flags = PyMem_RawCalloc(2 * (size_t)bands, 1);
    if (buf == NULL || bound == NULL || flags == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if ((x_row = row_offsets(h, AXIS0_BAND)) == NULL)
        goto done;
    t.x_row = x_row;
    t.x = buf;
    t.a = buf + plane;
    t.x_done = flags + bands;
    t.a_done = flags;
    const Bounds tiles = {bound, bound + th * tw, tw, c0};
    int bounded;
    Py_BEGIN_ALLOW_THREADS
    double *tlo = t.x, *thi = tlo + th * tw, *tmp = thi + th * tw;
    double *lo = bound, *hi = bound + th * tw;
    bounded = mean_weights(t.wt, radius) && simd->tiles(t.s + c0, W, h, w, tlo, thi);
    if (bounded) {
        const Py_ssize_t reach = radius / TILE + (radius % TILE != 0);
        reach_lines(tlo, thi, tmp, tmp + th * tw, tw, 1, th, tw, reach);
        reach_lines(tmp, tmp + th * tw, lo, hi, th, tw, tw, 1, reach);
        /* a tile's extremes, widened and mapped, bound the spacing of each
         * of its points */
        for (Py_ssize_t cell = 0; cell < th * tw; cell++) {
            const double mn = lo[cell] / 255.0, mx = hi[cell] / 255.0;
            const double margin = 8.0 * DBL_EPSILON
                                  * (((double)radius + 8.0) * (mx - mn)
                                     + (fabs(mn) > fabs(mx) ? fabs(mn) : fabs(mx)))
                                  + DBL_MIN;
            lo[cell] = spacing_of(mx + margin, phi1, phi2);
            hi[cell] = spacing_of(mn - margin, phi1, phi2);
        }
        double top = 0.0;
        for (Py_ssize_t i = 0; i < n; i++)
            top = EXT_MAX(top, lo[bound_at(&tiles, p, i)]);
        /* with every lower bound 0, whether the largest spacing is 0, which
         * keeps every point, takes the exact values */
        bounded = top > 0.0;
    }
    Py_END_ALLOW_THREADS
    if (bounded) {
        out = thin_with(p, n, &tiles, salient_spacing, &t);
    } else {
        Py_BEGIN_ALLOW_THREADS
        for (Py_ssize_t i = 0; i < n; i++)
            bound[i] = salient_spacing(&t, i);
        Py_END_ALLOW_THREADS
        out = thin_with(p, n, &(Bounds){bound, bound, 0, 0}, known_spacing, bound);
    }
    thin_candidates += n;
    thin_exact += t.exact;
    thin_cells += t.cells;
done:
    PyMem_RawFree(buf);
    PyMem_RawFree(bound);
    PyMem_RawFree(flags);
    PyMem_RawFree(x_row);
    Py_DECREF(sal);
    Py_XDECREF(wts);
    Py_XDECREF(pts);
    return out;
}

static PyObject *thin_stats(PyObject *self, PyObject *unused)
{
    return Py_BuildValue("LLL", thin_candidates, thin_exact, thin_cells);
}

/* ----------------------------------------------------------------- rips */

static int cmp_index(const void *a, const void *b)
{
    Py_ssize_t x = *(const Py_ssize_t *)a, y = *(const Py_ssize_t *)b;
    return (x > y) - (x < y);
}

enum { RIPS_OK = 0, RIPS_CAP = 1, RIPS_NOMEM = 2 };

/* All triples i < j < k with pairwise squared distance <= eps_sq, in
 * lexicographic order.  On success *tris holds 3 * *count int32 indices. */
static int rips_enumerate(Grid *g, const i64 *pts, Py_ssize_t n, double eps_sq,
                          long long cap, i32 **tris, Py_ssize_t *count)
{
    Py_ssize_t buf_cap = 4096, m = 0;
    i32 *buf = malloc((size_t)buf_cap * 3 * sizeof(i32));
    Py_ssize_t *nbrs = malloc((size_t)n * sizeof(Py_ssize_t));
    int status = RIPS_OK;
    if (buf == NULL || nbrs == NULL) {
        status = RIPS_NOMEM;
        goto done;
    }
    for (Py_ssize_t i = 0; i < n; i++)
        grid_insert(g, pts, i);
    for (Py_ssize_t i = 0; i < n; i++) {
        const Py_ssize_t gr = grid_row(g, pts[2 * i]), gc = grid_col(g, pts[2 * i + 1]);
        Py_ssize_t n_nbrs = 0;
        for (Py_ssize_t ar = gr - 1; ar <= gr + 1; ar++) {
            if (ar < 0 || ar >= g->gh)
                continue;
            for (Py_ssize_t ac = gc - 1; ac <= gc + 1; ac++) {
                if (ac < 0 || ac >= g->gw)
                    continue;
                for (Py_ssize_t j = g->head[ar * g->gw + ac]; j >= 0; j = g->next[j])
                    if (j > i && dist_sq(pts, i, j) <= eps_sq)
                        nbrs[n_nbrs++] = j;
            }
        }
        if (n_nbrs < 2)
            continue;
        qsort(nbrs, (size_t)n_nbrs, sizeof(Py_ssize_t), cmp_index);
        for (Py_ssize_t a = 0; a < n_nbrs - 1; a++) {
            for (Py_ssize_t b = a + 1; b < n_nbrs; b++) {
                if (!(dist_sq(pts, nbrs[a], nbrs[b]) <= eps_sq))
                    continue;
                if (m >= cap) {
                    status = RIPS_CAP;
                    goto done;
                }
                if (m == buf_cap) {
                    i32 *grown = realloc(buf, (size_t)buf_cap * 2 * 3 * sizeof(i32));
                    if (grown == NULL) {
                        status = RIPS_NOMEM;
                        goto done;
                    }
                    buf = grown;
                    buf_cap *= 2;
                }
                buf[3 * m] = (i32)i;
                buf[3 * m + 1] = (i32)nbrs[a];
                buf[3 * m + 2] = (i32)nbrs[b];
                m++;
            }
        }
    }
done:
    free(nbrs);
    if (status != RIPS_OK) {
        free(buf);
        buf = NULL;
    }
    *tris = buf;
    *count = m;
    return status;
}

static PyObject *raise_cap_error(long long cap)
{
    PyObject *mod = PyImport_ImportModule("toposhadow.errors");
    if (mod == NULL)
        return NULL;
    PyObject *exc = PyObject_CallMethod(mod, "TriangleCapError", "L", cap);
    Py_DECREF(mod);
    if (exc != NULL) {
        PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
        Py_DECREF(exc);
    }
    return NULL;
}

static PyObject *rips_triangles(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"points", "epsilon", "cap", NULL};
    PyObject *p_obj;
    double epsilon;
    long long cap;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OdL", kwlist, &p_obj, &epsilon, &cap))
        return NULL;
    Py_ssize_t n;
    PyArrayObject *pts = as_points(p_obj, &n);
    if (pts == NULL)
        return NULL;
    npy_intp dims[2] = {0, 3};
    if (n < 3) {
        Py_DECREF(pts);
        return PyArray_ZEROS(2, dims, NPY_INT32, 0);
    }
    const i64 *p = PyArray_DATA(pts);
    /* a NaN or zero epsilon matches nothing (or only coincident points);
     * the grid then just uses a unit cell */
    double cell = fabs(epsilon);
    if (!(cell > 0.0))
        cell = 1.0;
    Grid g;
    if (grid_init(&g, p, n, cell) < 0) {
        Py_DECREF(pts);
        return PyErr_NoMemory();
    }
    i32 *tris;
    Py_ssize_t m;
    int status;
    Py_BEGIN_ALLOW_THREADS
    status = rips_enumerate(&g, p, n, epsilon * epsilon, cap, &tris, &m);
    Py_END_ALLOW_THREADS
    grid_free(&g);
    Py_DECREF(pts);
    if (status == RIPS_CAP)
        return raise_cap_error(cap);
    if (status == RIPS_NOMEM)
        return PyErr_NoMemory();
    dims[0] = m;
    PyArrayObject *out = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_INT32);
    if (out != NULL)
        memcpy(PyArray_DATA(out), tris, (size_t)m * 3 * sizeof(i32));
    free(tris);
    return (PyObject *)out;
}

/* ----------------------------------------------------------- occurrence */

/* Python's floor division, for any b != 0. */
static inline i64 floor_div(i64 a, i64 b)
{
    i64 q = a / b;
    return (a % b != 0 && (a < 0) != (b < 0)) ? q - 1 : q;
}

/* Rasterize one closed triangle (vertices inside the frame) into the
 * (h, w + 1) difference rows.  Each edge meeting row r crosses it at the
 * exact column num/den; a flat edge takes den = 1 and so crosses at its
 * first end (its other end starts the next edge).  The row's span is
 * [min ceil, max floor] over the crossings, as in ``_pure``. */
static void rasterize(const i64 r0[3], const i64 c0[3], i32 *diff, Py_ssize_t w)
{
    i64 rmin = r0[0], rmax = r0[0];
    for (int e = 1; e < 3; e++) {
        if (r0[e] < rmin) rmin = r0[e];
        if (r0[e] > rmax) rmax = r0[e];
    }
    for (i64 r = rmin; r <= rmax; r++) {
        i64 cmin = NPY_MAX_INT64, cmax = NPY_MIN_INT64;
        for (int e = 0; e < 3; e++) {
            i64 r1 = r0[e], c1 = c0[e], r2 = r0[(e + 1) % 3], c2 = c0[(e + 1) % 3];
            if ((r - r1) * (r - r2) > 0)
                continue;
            i64 den = r1 == r2 ? 1 : r2 - r1;
            i64 num = c1 * den + (c2 - c1) * (r - r1);
            i64 fl = floor_div(num, den), cl = fl + (fl * den != num);
            if (cl < cmin) cmin = cl;
            if (fl > cmax) cmax = fl;
        }
        if (cmin > cmax)
            continue;
        diff[r * (w + 1) + cmin] += 1;
        diff[r * (w + 1) + cmax + 1] -= 1;
    }
}

static PyObject *occurrence_counts(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"points", "triangles", "height", "width", NULL};
    PyObject *p_obj, *t_obj;
    Py_ssize_t h, w;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOnn", kwlist, &p_obj, &t_obj, &h, &w))
        return NULL;
    if (h < 0 || w < 0) {
        PyErr_SetString(PyExc_ValueError, "negative dimensions are not allowed");
        return NULL;
    }
    Py_ssize_t n;
    PyArrayObject *pts = as_points(p_obj, &n);
    if (pts == NULL)
        return NULL;
    PyArrayObject *tri = AS_ARRAY(t_obj, NPY_INT64);
    PyArrayObject *out = NULL;
    i32 *diff = NULL;
    if (tri == NULL)
        goto done;
    Py_ssize_t m = PyArray_SIZE(tri) / 3;
    if (PyArray_SIZE(tri) != 0 && (PyArray_NDIM(tri) != 2 || PyArray_DIM(tri, 1) != 3)) {
        PyErr_SetString(PyExc_ValueError, "triangles must be an (M, 3) array");
        goto done;
    }
    const i64 *p = PyArray_DATA(pts), *t = PyArray_DATA(tri);
    for (Py_ssize_t i = 0; i < 3 * m; i++) {
        if (t[i] < 0 || t[i] >= n || p[2 * t[i]] < 0 || p[2 * t[i]] >= h
            || p[2 * t[i] + 1] < 0 || p[2 * t[i] + 1] >= w) {
            PyErr_SetString(PyExc_IndexError, "triangle vertex outside the points or the frame");
            goto done;
        }
    }
    npy_intp dims[2] = {h, w};
    out = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_INT32);
    if (out == NULL)
        goto done;
    /* the raw allocator, so that tracemalloc sees it */
    diff = PyMem_RawCalloc((size_t)(h * (w + 1)) + 1, sizeof(i32));
    if (diff == NULL) {
        Py_CLEAR(out);
        PyErr_NoMemory();
        goto done;
    }
    i32 *o = PyArray_DATA(out);
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t k = 0; k < m; k++) {
        i64 r0[3], c0[3];
        for (int e = 0; e < 3; e++) {
            r0[e] = p[2 * t[3 * k + e]];
            c0[e] = p[2 * t[3 * k + e] + 1];
        }
        rasterize(r0, c0, diff, w);
    }
    for (Py_ssize_t r = 0; r < h; r++) {
        i32 run = 0;
        for (Py_ssize_t c = 0; c < w; c++) {
            run += diff[r * (w + 1) + c];
            o[r * w + c] = run;
        }
    }
    Py_END_ALLOW_THREADS
done:
    PyMem_RawFree(diff);
    Py_DECREF(pts);
    Py_XDECREF(tri);
    return (PyObject *)out;
}

/* --------------------------------------------------------------- module */

static PyMethodDef methods[] = {
    {"correlate1d_replicate", (PyCFunction)(void (*)(void))correlate1d_replicate,
     METH_VARARGS | METH_KEYWORDS,
     "Symmetric 1D correlation with clamp-to-edge borders, evaluated in\n"
     "center-deviation form (see the pure twin for the exact formula)."},
    {"deviation_map", (PyCFunction)(void (*)(void))deviation_map, METH_VARARGS | METH_KEYWORDS,
     "Per-pixel population standard deviation across the filter stack of\n"
     "`img`: layer 0 the image, each later layer the previous one\n"
     "correlated along axis 0 by `ku` and then along axis 1 by `kv`.\n"
     "Equal to saliency.std_map of that stack; splits over two cores when\n"
     "its caller is the only Python thread."},
    {"_force", (PyCFunction)(void (*)(void))force, METH_VARARGS | METH_KEYWORDS,
     "_force(simd=None, parts=0): run the kernels on the baseline vector\n"
     "instances (simd='baseline') and deviation maps on forced column parts\n"
     "(1 or 2), for tests; returns the previous (simd, parts)."},
    {"_split_stats", split_stats, METH_NOARGS,
     "(calls that split, right parts a split's own thread ran), for tests."},
    {"thin_points", (PyCFunction)(void (*)(void))thin_points, METH_VARARGS | METH_KEYWORDS,
     "Greedy row-major thinning: keep a candidate iff no already-kept\n"
     "point lies within the candidate's own spacing threshold (inclusive)."},
    {"thin_salient", (PyCFunction)(void (*)(void))thin_salient, METH_VARARGS | METH_KEYWORDS,
     "thin_points(points, spacing) with the spacing of each point taken\n"
     "from the saliency map blurred by `weights` along both axes, clamped\n"
     "to [0, 1] and mapped to [phi1, phi1 + phi2]; computes a point's\n"
     "spacing only when bounds on it cannot decide the point."},
    {"_thin_stats", thin_stats, METH_NOARGS,
     "(candidates seen, exact spacings computed, axis-0 cells computed) of\n"
     "every thin_salient call, for tests."},
    {"rips_triangles", (PyCFunction)(void (*)(void))rips_triangles, METH_VARARGS | METH_KEYWORDS,
     "All index triples with pairwise distance <= epsilon, i < j < k,\n"
     "in lexicographic order; TriangleCapError past `cap` triples."},
    {"occurrence_counts", (PyCFunction)(void (*)(void))occurrence_counts,
     METH_VARARGS | METH_KEYWORDS,
     "Per-pixel count of closed triangles containing the pixel center;\n"
     "exact integer scanline rasterization accumulated via difference rows."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_core",
    .m_doc = "Compiled twins of the pure numpy kernels in ``_pure``.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__core(void)
{
    import_array();
    const char *width = "baseline";
#ifdef HAVE_AVX512
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) {
        picked = &simd_avx512;
        width = "avx512f";
    }
#endif
    PyObject *mod = PyModule_Create(&module);
    if (mod != NULL && PyModule_AddStringConstant(mod, "SIMD", width) < 0)
        Py_CLEAR(mod);
    return mod;
}

"""Hot-kernel backend selection.

The compiled C core (``_core``, linked from ``_dense.c``, the dense loops,
and ``_coremodule.c``, the bindings and the other kernels) is preferred
when it was built; otherwise the pure numpy twins take over.  Both produce
bit-identical results, so the choice only affects speed.  The detector
and the dataset commands call four of the kernels: ``deviation_map``,
``thin_salient``, ``rips_triangles`` and ``occurrence_confidence``; the
public references call the other three: ``saliency.filter_stack``
calls ``correlate1d_replicate``, ``sparsify.thin`` calls ``thin_points``
and ``topology.occurrence_map`` calls ``occurrence_counts``.
``occurrence_confidence`` rasterizes as ``occurrence_counts`` does and
writes each pixel's entry of a table indexed by its count, so ``detect``
builds no count map; the compiled kernel writes the entries in its
prefix pass over the difference rows.  On the compiled core
``deviation_map`` splits a large call over two cores when its caller is
the process's only Python thread; while the dataset commands run their
own threads (a pool of N at ``--workers N >= 2``, and at ``--workers 1``
the calling thread and one helper) their maps stay on one core.
``thin_salient`` finds the points of a saliency map at or above a
threshold and thins them against the map's spacing field, returning the
kept points: the compiled kernel finds them and the map's tile extremes
in one scan, and computes a point's spacing only where two tiers of
bounds on it cannot decide the point; its pure twin thresholds, runs
the dense passes and then ``thin_points``, as
``sparsify.thin(cloud, sparsify.density_field(...))`` does on the cloud
of ``saliency.threshold_points``.  ``NAME`` names the kernels that
run, such as ``compiled/avx512f`` or ``pure``.  Override with
TOPOSHADOW_KERNELS=pure or =compiled (the latter raises if the
extension is missing).
"""

import os

from . import _pure

_requested = os.environ.get("TOPOSHADOW_KERNELS", "auto")
if _requested not in ("auto", "compiled", "pure"):
    raise ValueError(
        f"TOPOSHADOW_KERNELS={_requested!r}: expected auto, compiled or pure"
    )

if _requested == "pure":
    _impl = _pure
    BACKEND = "pure"
else:
    try:
        from . import _core as _impl
        BACKEND = "compiled"
    except ImportError:
        if _requested == "compiled":
            raise
        _impl = _pure
        BACKEND = "pure"

# the dispatch table: every kernel name, bound to the chosen backend
KERNELS = (
    "correlate1d_replicate",
    "deviation_map",
    "thin_points",
    "thin_salient",
    "rips_triangles",
    "occurrence_counts",
    "occurrence_confidence",
)
globals().update((name, getattr(_impl, name)) for name in KERNELS)
NAME = f"compiled/{_impl.SIMD}" if BACKEND == "compiled" else BACKEND


def get_backend(name="auto"):
    """Return the module implementing the given backend name."""
    if name in ("auto", BACKEND):
        return _impl
    if name == "pure":
        return _pure
    if name == "compiled":
        from . import _core
        return _core
    raise ValueError(f"unknown backend {name!r}")

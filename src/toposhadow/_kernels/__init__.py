"""Hot-kernel backend selection.

The compiled C core (``_core``, linked from ``_dense.c``, the dense loops,
and ``_coremodule.c``, the bindings and the other kernels) is preferred
when it was built; otherwise the pure numpy twins take over.  Both produce
bit-identical results, so the choice only affects speed.  The detector
and the dataset commands call four of the kernels: ``deviation_map``,
``thin_salient``, ``rips_triangles`` and ``occurrence_counts``; the
public references (``saliency.filter_stack``, ``sparsify.thin``) call
``correlate1d_replicate`` and ``thin_points``.  On the compiled core
``deviation_map`` splits a large call over two cores when a second
one is free; ``serial()`` holds it on the calling thread while the
dataset commands run their own threads: a pool of N at ``--workers N >=
2``, and at ``--workers 1`` the calling thread and one helper.
``thin_salient`` thins a cloud against the spacing field of a saliency
map: the compiled kernel computes a point's spacing only where bounds
on it cannot decide the point, and its pure twin runs the dense passes
and then ``thin_points``, as ``sparsify.thin(cloud,
sparsify.density_field(...))`` does.  ``NAME`` names the kernels that
run, such as ``compiled/avx512f`` or ``pure``.  Override with
TOPOSHADOW_KERNELS=pure or =compiled (the latter raises if the
extension is missing).
"""

import contextlib
import os
import sys

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
)
globals().update((name, getattr(_impl, name)) for name in KERNELS)
NAME = f"compiled/{_impl.SIMD}" if BACKEND == "compiled" else BACKEND


@contextlib.contextmanager
def serial():
    """Keep every compiled kernel call, from any thread, on its calling
    thread while the block runs.  Entered around a command's own threads
    (a worker pool, or a pipeline's caller and helper), so that no kernel
    adds one; outside it the deviation map splits.  Outputs are the same
    either way."""
    core = sys.modules.get(__name__ + "._core")
    if core is None:  # never loaded: nothing splits
        yield
        return
    core._hold_serial(1)
    try:
        yield
    finally:
        core._hold_serial(-1)


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

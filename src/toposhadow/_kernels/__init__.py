"""Hot-kernel backend selection.

The compiled C core (``_core``, built from ``_coremodule.c``) is preferred
when it was built; otherwise the pure numpy twins take over.  Both produce
bit-identical results, so the choice only affects speed.  On the compiled
core the dense kernels split a large call over two cores when a second
one is free; ``serial()`` holds them on the calling thread.  Override with
TOPOSHADOW_KERNELS=pure or =compiled (the latter raises if the extension
is missing).
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
    "correlate1d_points",
    "stack_std",
    "deviation_map",
    "thin_points",
    "rips_triangles",
    "occurrence_counts",
)
globals().update((name, getattr(_impl, name)) for name in KERNELS)


@contextlib.contextmanager
def serial():
    """Keep every compiled kernel call, from any thread, on its calling
    thread while the block runs: a pool of N workers then uses N threads
    in total.  Outputs are the same either way."""
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

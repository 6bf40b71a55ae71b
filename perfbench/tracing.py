"""Span tracing of the package's public functions, installed from outside.

``Tracer.install`` replaces each traced function, in every toposhadow
module that holds it by name, with a wrapper that records a span: its
self time (duration minus child spans), its call count and, for some
stages, the size of what it produced.  Nothing under ``src/`` changes;
the kernel implementation modules themselves (``_pure``, ``_core``) are
left alone, so a kernel's internal calls are not counted twice.
Bookkeeping done by an observer (sizes, frame hashes) is charged to no
span, so it shows only in the traced-versus-untraced overhead.
"""

import hashlib
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

SKIP_MODULES = ("toposhadow._kernels._pure", "toposhadow._kernels._core")


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _cloud(tracer, fn, args, kwargs, result):
    tracer.sizes["saliency.cloud_points"] += len(result)


def _thinned(tracer, fn, args, kwargs, result):
    tracer.sizes["sparsify.thinned_points"] += len(result)


def _triangles(tracer, fn, args, kwargs, result):
    n = len(result.triangles)
    tracer.sizes["topology.triangles"] += n
    headroom = _bound(fn, args, kwargs)["cap"] - n
    tracer.headroom = headroom if tracer.headroom is None else min(tracer.headroom, headroom)


def _frontend(tracer, fn, args, kwargs, result):
    """Key a filter-stack call by its image and front-end parameters."""
    call = _bound(fn, args, kwargs)
    img, params = np.ascontiguousarray(call["img"]), call["params"]
    digest = hashlib.sha1(img.tobytes()).hexdigest()
    tracer.frontend.add((digest, img.shape, params.sigma_u, params.sigma_v, params.stack_size))


# span name -> (defining module, function name, observer or None)
SPANS = {
    "cli.main": ("toposhadow.cli", "main", None),
    "frame_io.load_dataset": ("toposhadow.frame_io", "load_dataset", None),
    "frame_io.load_image": ("toposhadow.frame_io", "load_image", None),
    "frame_io.load_labels": ("toposhadow.frame_io", "load_labels", None),
    "evaluation.evaluate_folds": ("toposhadow.evaluation", "evaluate_folds", None),
    "evaluation.grid_search": ("toposhadow.evaluation", "grid_search", None),
    "classify.detect": ("toposhadow.classify", "detect", None),
    "classify.scanline_counts": ("toposhadow.classify", "scanline_counts", None),
    "classify.classify_scanlines": ("toposhadow.classify", "classify_scanlines", None),
    "saliency.filter_stack": ("toposhadow.saliency", "filter_stack", _frontend),
    "saliency.std_map": ("toposhadow.saliency", "std_map", None),
    "saliency.threshold_points": ("toposhadow.saliency", "threshold_points", _cloud),
    "sparsify.density_field": ("toposhadow.sparsify", "density_field", None),
    "sparsify.thin": ("toposhadow.sparsify", "thin", _thinned),
    "topology.rips_triangles": ("toposhadow.topology", "rips_triangles", _triangles),
    "topology.occurrence_map": ("toposhadow.topology", "occurrence_map", None),
    "topology.confidence_map": ("toposhadow.topology", "confidence_map", None),
    "topology.mean_confidence": ("toposhadow.topology", "mean_confidence", None),
    "kernels.correlate1d": ("toposhadow._kernels", "correlate1d_replicate", None),
    "kernels.thin_points": ("toposhadow._kernels", "thin_points", None),
    "kernels.rips_triangles": ("toposhadow._kernels", "rips_triangles", None),
    "kernels.occurrence_counts": ("toposhadow._kernels", "occurrence_counts", None),
}


class Tracer:
    """Spans of one pass, aggregated by name; a context that installs it."""

    def __init__(self):
        self._patched = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.sizes = defaultdict(int)
        self.headroom = None
        self.frontend = set()
        self._stack = []

    def wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            start = perf_counter()
            self._stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    mark = perf_counter()
                    observe(self, fn, args, kwargs, result)
                    self._stack[-1] += perf_counter() - mark
                return result
            finally:
                elapsed = perf_counter() - start
                self.self_s[name] += elapsed - self._stack.pop()
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1] += elapsed

        return traced

    def install(self):
        """Wrap every traced function wherever the package holds it."""
        wrappers = {}
        for name, (module, attr, observe) in SPANS.items():
            fn = getattr(importlib.import_module(module), attr)
            wrappers[id(fn)] = (fn, self.wrap(name, fn, observe))
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("toposhadow") or modname in SKIP_MODULES:
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def seconds(self, *names):
        """Summed self time of the named spans."""
        return sum(self.self_s[n] for n in names)

"""Every name the repo benchmark looks up in the package exists.

perfbench wraps the functions that ``perfbench/tracing.py`` lists in
``SPANS`` and swaps the kernels that ``perfbench/run.py`` lists in
``KERNELS``.  A package change that renames or moves one of them fails
here, in the test suite, instead of in a traced benchmark run.  Both
files are read as they are: ``tracing.py`` is imported from its own
directory, and ``run.py`` is parsed with ``ast``, so that nothing of it
runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from toposhadow import _kernels

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_kernels():
    """The tuple literal bound to KERNELS at the top level of run.py."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(), filename="run.py")
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "KERNELS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py binds no KERNELS")


def test_traced_spans_name_existing_functions():
    spans = _tracing().SPANS
    assert spans
    for span, (module, attr, _) in spans.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), span


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_swapped_kernels_exist_on_both_backends(backend):
    try:
        impl = _kernels.get_backend(backend)
    except ImportError:
        pytest.skip("compiled core not built")
    names = _run_kernels()
    assert names
    for name in names:
        assert name in _kernels.KERNELS, name
        assert callable(getattr(impl, name, None)), name

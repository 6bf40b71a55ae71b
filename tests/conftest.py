"""Session set-up: build the C kernel core before toposhadow is imported.

The extension is compiled from the committed C source by ``setup.py
build_ext`` into a session temporary directory, so the source tree stays
untouched, and an import hook resolves ``toposhadow._kernels._core`` to
that build.  Where no C compiler works the session runs on the pure numpy
backend.  The report header names the backend that ran, where it came
from and, for the compiled core, the vector width it picked.  Tests that
start the CLI in a subprocess use whichever backend a fresh interpreter
finds.
"""

import importlib.abc
import importlib.util
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORE = "toposhadow._kernels._core"

_session = {"dir": None, "finder": None, "note": ""}


class _BuiltCore(importlib.abc.MetaPathFinder):
    def __init__(self, path):
        self.path = path

    def find_spec(self, name, path, target=None):
        if name == CORE:
            return importlib.util.spec_from_file_location(name, self.path)
        return None


def _build_core(dest):
    """Compile the core into `dest`; return (path or None, note)."""
    proc = subprocess.run(
        [
            sys.executable,
            "setup.py",
            "-q",
            "build_ext",
            "--build-lib",
            str(dest / "lib"),
            "--build-temp",
            str(dest / "tmp"),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    built = sorted((dest / "lib").glob("toposhadow/_kernels/_core.*"))
    if built:
        return built[0], "built this session from src/toposhadow/_kernels/_coremodule.c"
    lines = [ln for ln in (proc.stderr + proc.stdout).splitlines() if ln.strip()]
    reason = lines[-1] if lines else f"setup.py exited {proc.returncode}"
    return None, f"C core not built: {reason}"


def pytest_configure(config):
    dest = Path(tempfile.mkdtemp(prefix="toposhadow-core-"))
    _session["dir"] = dest
    path, _session["note"] = _build_core(dest)
    if path is not None:
        _session["finder"] = _BuiltCore(str(path))
        sys.meta_path.insert(0, _session["finder"])


def pytest_unconfigure(config):
    if _session["finder"] in sys.meta_path:
        sys.meta_path.remove(_session["finder"])
    if _session["dir"] is not None:
        shutil.rmtree(_session["dir"], ignore_errors=True)


def pytest_report_header(config):
    from toposhadow import _kernels

    backend = _kernels.get_backend()
    origin = getattr(backend, "__file__", "?")
    simd = f", simd {backend.SIMD}" if hasattr(backend, "SIMD") else ""
    return f"toposhadow kernels: {_kernels.BACKEND}{simd} from {origin} ({_session['note']})"

"""The C core's units compile without a warning under -Wall -Wextra at the
flags setup.py builds them with, so a static function left without a
caller (-Wunused-function) fails here.  The dense-loop unit also compiles
with no Python or numpy include path, and with its AVX-512 instances left
out, as on a CPU other than x86.  A compiler that fails leaves setup.py
on the pure numpy fallback with one warning, and the units compile at the
same time, each through the compiler's own compile(), after their object
directories are made once."""

import os
import re
import runpy
import shlex
import shutil
import subprocess
import sys
import sysconfig
import threading
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
# setup.py's own source list and flags; run_path does not run setup()
SETUP = runpy.run_path(str(ROOT / "setup.py"))
SOURCES = [ROOT / src for src in SETUP["SOURCES"]]
DENSE = ROOT / "src/toposhadow/_kernels/_dense.c"
WARNINGS = ["-Wall", "-Wextra", "-Wno-unused-parameter", "-Werror"]


def compiler():
    # the compiler setup.py build_ext uses: $CC, else Python's own
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler: {cc[0]} not found")
    return cc


def compile_unit(source, out, *flags):
    """Compile `source` at setup.py's flags with every warning an error;
    the compiler's stderr on failure, else ''.  An object build, not
    -fsyntax-only: GCC reports a static function without a caller only
    once it compiles the unit, and some warnings on the vector bodies
    (uninitialised or out-of-bounds lanes) only once it optimises."""
    proc = subprocess.run(
        [*compiler(), *flags, *SETUP["COMPILE_ARGS"], *WARNINGS, "-o", str(out), str(source)],
        capture_output=True,
        text=True,
    )
    return proc.stderr if proc.returncode != 0 else ""


def test_sources_list_every_c_unit():
    # an unlisted unit would leave the library with undefined symbols,
    # and the session would quietly fall back to pure
    assert sorted(SOURCES) == sorted(DENSE.parent.glob("*.c"))


def test_core_compiles_without_warnings(tmp_path):
    includes = ["-I", sysconfig.get_paths()["include"], "-I", np.get_include()]
    for source in SOURCES:
        assert compile_unit(source, tmp_path / "unit.o", "-c", *includes) == "", source.name


def test_dense_unit_needs_no_python_headers(tmp_path):
    assert compile_unit(DENSE, tmp_path / "dense.o", "-c") == ""


def test_dense_unit_compiles_without_avx512_instances(tmp_path):
    # the standard headers first, on the real target; then the unit with
    # the x86 macros gone, as a CPU without the AVX-512 instances sees it
    text = DENSE.read_text() + (DENSE.parent / "_dense.h").read_text()
    headers = sorted(set(re.findall(r"^#include <([^>]+)>", text, re.M)))
    wrapper = tmp_path / "portable.c"
    wrapper.write_text(
        "".join(f"#include <{h}>\n" for h in headers)
        + "#undef __x86_64__\n#undef __i386__\n"
        + f'#include "{DENSE}"\n'
    )
    asm = tmp_path / "portable.s"
    assert compile_unit(wrapper, asm, "-S") == ""
    code = asm.read_text()
    assert "correlate_axis0_v2" in code and "simd_baseline" in code
    assert "_v8" not in code and "simd_avx512" not in code


def test_failed_compile_falls_back_to_pure(tmp_path):
    # every unit fails, each on its own thread; the error must still
    # reach optional_build_ext, which warns once, naming the compiler's
    # failure, and exits 0, out of tree and in place alike.  Each build
    # runs on a copy of the tree, so nothing is written into the source
    for case, where in (("lib", ["--build-lib", "lib", "--build-temp", "tmp"]),
                        ("inplace", ["--inplace"])):
        tree = tmp_path / case
        shutil.copytree(ROOT / "src", tree / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd"))
        for name in ("setup.py", "pyproject.toml"):
            shutil.copy(ROOT / name, tree)
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext", *where],
            cwd=tree,
            env=dict(os.environ, CC="false", PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, (case, proc.stderr)
        warned = [ln for ln in proc.stderr.splitlines() if "falling back to the pure numpy" in ln]
        assert len(warned) == 1, (case, proc.stderr)
        assert "failed with exit code 1" in warned[0], (case, warned)
        # the compile error stopped the build before the link
        assert "-c src/toposhadow/_kernels/_dense.c" in proc.stdout, case
        assert " -shared " not in proc.stdout, (case, proc.stdout)
        assert not list(tree.rglob("_core.*")), case


def test_out_of_tree_build_makes_each_directory_once(tmp_path):
    # the units compile at the same time, but the object directories they
    # share are made, and logged, once, before either unit starts; the
    # compiler fails at once, after that, so nothing is built
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(tmp_path / "lib"), "--build-temp", str(tmp_path / "tmp")],
        cwd=ROOT,
        env=dict(os.environ, CC="false", PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
    )
    created = [ln for ln in (proc.stdout + proc.stderr).splitlines() if ln.startswith("creating ")]
    assert f"creating {tmp_path / 'tmp/src/toposhadow/_kernels'}" in created, proc.stdout
    assert len(created) == len(set(created)), created


class NappingCompiler(SETUP["CCompiler"]):
    """A compiler on CCompiler.compile's own loop whose units sleep, then
    record their thread and their (start, end) time; a unit in `fail`
    then raises."""

    executables = {}
    src_extensions = [".c"]
    obj_extension = ".o"

    def __init__(self, naps, fail=()):
        super().__init__()
        self.naps, self.fail, self.runs = naps, fail, {}

    def _compile(self, obj, src, ext, cc_args, extra_postargs, pp_opts):
        start = time.monotonic()
        time.sleep(self.naps[src])
        self.runs[src] = (threading.get_ident(), start, time.monotonic())
        if src in self.fail:
            raise RuntimeError(f"{src} failed")


def test_units_compile_concurrently(tmp_path, monkeypatch):
    # with two usable CPUs the two units overlap on two threads; the
    # objects come back in source order although the first unit ends
    # last, and the first unit's error is raised only once the second
    # unit has ended
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    sources = ["a.c", "b.c"]
    cc = NappingCompiler({"a.c": 0.3, "b.c": 0.1})
    SETUP["compile_concurrently"](cc)
    assert cc.compile(sources, output_dir=str(tmp_path)) == [
        str(tmp_path / "a.o"), str(tmp_path / "b.o")
    ]
    (a_thread, a_start, a_end), (b_thread, b_start, b_end) = cc.runs["a.c"], cc.runs["b.c"]
    assert a_thread != b_thread
    assert a_start < b_end and b_start < a_end, cc.runs

    cc = NappingCompiler({"a.c": 0.05, "b.c": 0.3}, fail={"a.c"})
    SETUP["compile_concurrently"](cc)
    with pytest.raises(RuntimeError, match="a.c failed"):
        try:
            cc.compile(sources, output_dir=str(tmp_path))
        finally:
            ended = sorted(cc.runs)  # the units that had ended as the error came
    assert ended == sources

"""The C core's units compile without a warning under -Wall -Wextra at the
flags setup.py builds them with, so a static function left without a
caller (-Wunused-function) fails here.  The dense-loop unit also compiles
with no Python or numpy include path, and with its AVX-512 instances left
out, as on a CPU other than x86.  A compiler that fails leaves setup.py
on the pure numpy fallback."""

import os
import re
import runpy
import shlex
import shutil
import subprocess
import sys
import sysconfig
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
    # reach optional_build_ext, which warns and exits 0
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(tmp_path / "lib"), "--build-temp", str(tmp_path / "tmp")],
        cwd=ROOT,
        env=dict(os.environ, CC="false", PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("falling back to the pure numpy kernels") == 1, proc.stderr
    # the compile error stopped the build before the link
    assert "-c src/toposhadow/_kernels/_dense.c" in proc.stdout
    assert " -shared " not in proc.stdout, proc.stdout
    assert not list(tmp_path.glob("lib/toposhadow/_kernels/_core.*"))

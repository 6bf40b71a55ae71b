"""The C core's source compiles without a warning under -Wall -Wextra at
the flags setup.py builds it with, so a static function left without a
caller (-Wunused-function) fails here."""

import os
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import numpy as np
import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src/toposhadow/_kernels/_coremodule.c"


def test_core_compiles_without_warnings(tmp_path):
    # the compiler setup.py build_ext uses: $CC, else Python's own, at
    # setup.py's optimisation and floating-point flags.  An object build,
    # not -fsyntax-only: GCC reports a static function without a caller
    # only once it compiles the unit, and some warnings on the vector
    # bodies (uninitialised or out-of-bounds lanes) only once it optimises
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler: {cc[0]} not found")
    proc = subprocess.run(
        [*cc, "-c", "-O3", "-ffp-contract=off", "-fno-math-errno",
         "-o", str(tmp_path / "core.o"),
         "-Wall", "-Wextra", "-Wno-unused-parameter", "-Werror",
         "-I", sysconfig.get_paths()["include"], "-I", np.get_include(), str(SOURCE)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr

"""Build script: compiles the C kernel core when a toolchain is available.

The package works without the extension (a pure numpy fallback is selected at
import time), so a failed compile only costs speed, not functionality.  The
core is two C units linked into one library: ``_dense.c``, the dense loops,
and ``_coremodule.c``, the CPython bindings and the other kernels.  They
compile at the same time, one per usable CPU.
"""

import os
import sys
from concurrent.futures import ThreadPoolExecutor

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext
from distutils.ccompiler import CCompiler  # setuptools' copy, once setuptools is imported

# the units of the core, and the flags both compile with.  -ffp-contract=off
# keeps the compiler from fusing multiply-adds, which would round
# differently from the pure numpy twins.  -fno-math-errno lets sqrt compile
# to the vector instruction instead of a libm call that must keep errno;
# the core only takes roots of sums of squares, which never set it.  -g0
# drops the debug info Python's own flags ask for: nothing reads it, and
# writing it costs about a tenth of each build.
SOURCES = ["src/toposhadow/_kernels/_coremodule.c", "src/toposhadow/_kernels/_dense.c"]
COMPILE_ARGS = ["-O3", "-ffp-contract=off", "-fno-math-errno", "-g0"]


def compile_concurrently(compiler):
    """Make `compiler.compile` run CCompiler.compile's per-unit `_compile`
    calls on up to one thread per usable CPU, where it runs them one after
    the other.  Every unit runs; the first unit's error is raised, once
    every unit has ended."""

    def compile(sources, output_dir=None, macros=None, include_dirs=None, debug=0,
                extra_preargs=None, extra_postargs=None, depends=None):
        macros, objects, extra_postargs, pp_opts, build = compiler._setup_compile(
            output_dir, macros, include_dirs, sources, depends, extra_postargs
        )
        cc_args = compiler._get_cc_args(pp_opts, debug, extra_preargs)

        def one(obj):
            src, ext = build[obj]
            compiler._compile(obj, src, ext, cc_args, extra_postargs, pp_opts)

        todo = [obj for obj in objects if obj in build]
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        with ThreadPoolExecutor(max(1, min(len(todo), cpus))) as pool:
            futures = [pool.submit(one, obj) for obj in todo]
        for future in futures:
            future.result()
        return objects

    compiler.compile = compile


class optional_build_ext(build_ext):
    """Degrade to the pure-Python fallback instead of failing the install."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # toolchain missing entirely
            self._warn(exc)

    def build_extension(self, ext):
        try:
            # a compiler class that overrides compile() keeps its own loop
            if type(self.compiler).compile is CCompiler.compile:
                compile_concurrently(self.compiler)
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(
            f"WARNING: building the compiled kernel core failed ({exc}); "
            "falling back to the pure numpy kernels.",
            file=sys.stderr,
        )


def extensions():
    try:
        import numpy as np
    except ImportError as exc:
        print(f"WARNING: {exc}; skipping compiled kernels.", file=sys.stderr)
        return []
    return [
        Extension(
            "toposhadow._kernels._core",
            SOURCES,
            include_dirs=[np.get_include()],
            depends=["src/toposhadow/_kernels/_dense.h"],
            extra_compile_args=COMPILE_ARGS,
        )
    ]


if __name__ == "__main__":
    setup(ext_modules=extensions(), cmdclass={"build_ext": optional_build_ext})

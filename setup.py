"""Build script: compiles the C kernel core when a toolchain is available.

The package works without the extension (a pure numpy fallback is selected at
import time), so a failed build only costs speed, not functionality, and
prints one warning that names the failure.  The core is two C units linked
into one library: ``_dense.c``, the dense loops, and ``_coremodule.c``, the
CPython bindings and the other kernels.  They compile at the same time, one
per usable CPU, each through the compiler's own ``compile()``.
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
    """Make `compiler.compile` call the compiler's own `compile` once per
    source, on up to one thread per usable CPU, and return the objects in
    source order.  The object directories are made first, on this thread,
    so that two units do not both make (and log) a directory they share.
    Every unit runs; the first unit's error is raised, once every unit has
    ended."""
    compile_one = compiler.compile
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

    def compile(sources, output_dir=None, *args, **kwargs):
        for obj in compiler.object_filenames(sources, output_dir=output_dir or compiler.output_dir):
            compiler.mkpath(os.path.dirname(obj))
        with ThreadPoolExecutor(max(1, min(len(sources), cpus or 1))) as pool:
            futures = [
                pool.submit(compile_one, [src], output_dir, *args, **kwargs) for src in sources
            ]
        return [obj for future in futures for obj in future.result()]

    compiler.compile = compile


class optional_build_ext(build_ext):
    """Degrade to the pure-Python fallback instead of failing the install."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # no toolchain, a failed unit or a failed link
            print(
                f"WARNING: building the compiled kernel core failed ({exc}); "
                "falling back to the pure numpy kernels.",
                file=sys.stderr,
            )

    def build_extensions(self):
        # only a compiler that runs CCompiler.compile's own loop: MSVC's
        # compile() initializes itself on its first call, and two threads
        # must not race that.
        if type(self.compiler).compile is CCompiler.compile:
            compile_concurrently(self.compiler)
        super().build_extensions()


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

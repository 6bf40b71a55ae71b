"""Build script: compiles the C kernel core when a toolchain is available.

The package works without the extension (a pure numpy fallback is selected at
import time), so a failed compile only costs speed, not functionality.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Degrade to the pure-Python fallback instead of failing the install."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # toolchain missing entirely
            self._warn(exc)

    def build_extension(self, ext):
        try:
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
    # -ffp-contract=off keeps the compiler from fusing multiply-adds, which
    # would round differently from the pure numpy twins.  -fno-math-errno
    # lets sqrt compile to the vector instruction instead of a libm call
    # that must keep errno; the core only takes roots of sums of squares,
    # which never set it.  -g0 drops the debug info Python's own flags ask
    # for: nothing reads it, and writing it costs about a tenth of each
    # build.
    return [
        Extension(
            "toposhadow._kernels._core",
            ["src/toposhadow/_kernels/_coremodule.c"],
            include_dirs=[np.get_include()],
            extra_compile_args=["-O3", "-ffp-contract=off", "-fno-math-errno", "-g0"],
        )
    ]


setup(ext_modules=extensions(), cmdclass={"build_ext": optional_build_ext})

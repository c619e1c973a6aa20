"""Build script for the optional compiled fixpoint kernel.

The package is fully functional without the extension (the pure-Python
kernel is used instead); compiling it just makes large-game solving much
faster.  The extension is the hand-written C file ``_core.c``, built with
the system C compiler.  Set OMEGAGAMES_PURE=1 to skip the build.
"""
import os

from setuptools import Extension, setup

ext_modules = []
if os.environ.get("OMEGAGAMES_PURE") != "1":
    ext_modules = [
        Extension(
            "omegagames._kernels._core",
            ["src/omegagames/_kernels/_core.c"],
            extra_compile_args=["-O3"],
        )
    ]

setup(ext_modules=ext_modules)

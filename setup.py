"""Build script for the optional compiled fixpoint kernel.

The package is fully functional without the extension (a pure-Python
kernel is selected at import time); compiling it just makes large-game
solving much faster.  With Cython the extension is built from _core.pyx,
without it from the shipped, generated _core.c.  Set OMEGAGAMES_PURE=1 to
skip the build.
"""
import os

from setuptools import Extension, setup

ext_modules = []
if os.environ.get("OMEGAGAMES_PURE") != "1":
    try:
        from Cython.Build import cythonize

        ext_modules = cythonize(
            [
                Extension(
                    "omegagames._kernels._core",
                    ["src/omegagames/_kernels/_core.pyx"],
                    extra_compile_args=["-O3"],
                )
            ],
            compiler_directives={
                "language_level": 3,
                "boundscheck": False,
                "wraparound": False,
                "initializedcheck": False,
                "cdivision": True,
            },
        )
    except ImportError:
        ext_modules = [
            Extension(
                "omegagames._kernels._core",
                ["src/omegagames/_kernels/_core.c"],
                extra_compile_args=["-O3"],
            )
        ]

setup(ext_modules=ext_modules)

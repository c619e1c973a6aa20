"""Fixpoint kernel selection.

The hot loops (attractor BFS, Zielonka recursion) exist twice: a
hand-written C extension (``_core``, built from ``_core.c``) and a
pure-Python twin (``pure``) that mirrors it routine for routine, with
identical outputs.  One kernel is active per process: the compiled one
when importable, unless ``OMEGAGAMES_BACKEND=python`` or ``=compiled``
names another, or ``using`` switches it (``omegagames --backend NAME``
does).
Every solve reads ``active()``, which resolves the variable on first use.
"""
import os
from contextlib import contextmanager

from ..errors import KernelUnavailable
from . import pure

try:
    from . import _core
except ImportError:
    _core = None


def resolve(name):
    """The kernel module called ``name``: auto, compiled or python."""
    if name == "auto":
        return _core if _core is not None else pure
    if name == "python":
        return pure
    if name == "compiled":
        if _core is None:
            raise KernelUnavailable("the compiled kernel is not built")
        return _core
    raise KernelUnavailable(f"unknown kernel {name!r} (expected auto, compiled or python)")


_active = None  # resolved from OMEGAGAMES_BACKEND by the first active()


def active():
    """The kernel module every solve in this process calls."""
    global _active
    if _active is None:
        _active = resolve(os.environ.get("OMEGAGAMES_BACKEND") or "auto")
    return _active


@contextmanager
def using(name):
    """Make kernel ``name`` active for the body, then restore the previous
    one.  ``None`` keeps the active kernel."""
    global _active
    previous = _active
    if name is not None:
        _active = resolve(name)
    try:
        yield active()
    finally:
        _active = previous


def available():
    """Names of the usable kernels."""
    return ("compiled", "python") if _core is not None else ("python",)


def default_name():
    """Name of the active kernel."""
    return active().NAME

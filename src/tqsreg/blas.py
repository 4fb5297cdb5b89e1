"""Scoped control of the BLAS thread count, and kernel ridge's LAPACK.

The numpy and scipy wheels for Linux each bundle an OpenBLAS (in
``numpy.libs`` and ``scipy.libs``) whose thread count follows the
host's cores.  Threaded BLAS sums in an order that depends
on that count, so the last digits of a solve do, too; and several
processes that each start one thread per core oversubscribe the CPUs.
The CLI and the synthetic sweeps therefore compute at one thread, set
through the libraries' own ``*_set_num_threads`` entry points (ctypes;
``CDLL`` on an already loaded library returns that library).  The
libraries are found next to each package without importing it, so a pin
set before scipy is first imported holds for the OpenBLAS that scipy
then loads: the dynamic loader hands scipy the instance mapped here.
Where no setter is found (another platform, or numpy/scipy built against
another BLAS), everything here is a no-op and BLAS runs unpinned.
No environment variable is read or written.

``lapack()`` binds the ``dpotrf``, ``dpotrs`` and ``dgemv`` of scipy's
OpenBLAS, so kernel ridge calls them, pinned, without importing scipy.

A count is set only where it differs from the library's current one.
The OpenBLAS of these wheels stops its thread pool in the parent at every
``fork`` and restarts it inside the next ``*_set_num_threads`` call,
whatever the count; each restarted thread then spins for about 0.13 s
before it sleeps.  A redundant call after a worker pool forks therefore
costs CPU time, and a skipped one costs nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib.util
import os

import numpy as np

# (package, library file pattern next to it, symbol with %s for get/set)
_OPENBLAS = (
    ("numpy", "*openblas64_*", "scipy_openblas_%s_num_threads64_"),
    ("scipy", "*openblas-*", "scipy_openblas_%s_num_threads"),
)


def package_root(package):
    """The directory of ``package``, found without importing it; None if absent."""
    spec = importlib.util.find_spec(package)
    locations = spec and spec.submodule_search_locations
    return locations[0] if locations else None


@functools.cache
def _controls():
    """(getter, setter, package, library) of each bundled OpenBLAS found;
    () when none."""
    found = []
    for package, pattern, symbol in _OPENBLAS:
        root = package_root(package)  # pinning loads no scipy
        paths = glob.glob(os.path.join(root + ".libs", pattern)) if root else ()
        for path in sorted(paths):
            try:
                lib = ctypes.CDLL(path)
                get, set_ = getattr(lib, symbol % "get"), getattr(lib, symbol % "set")
            except (OSError, AttributeError):
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            found.append((get, set_, package, lib))
    return tuple(found)


@functools.cache
def lapack():
    """``(dpotrf, dpotrs, dgemv)`` of scipy's bundled OpenBLAS, called as
    scipy's wrappers call them; None where a symbol is missing.  They take
    C-contiguous float64 arrays: ``dpotrf(a)`` factors the symmetric ``a``
    in place (upper, in Fortran order) and returns LAPACK's info,
    ``dpotrs(c, b)`` solves on that factor in ``b`` and returns it, and
    ``dgemv(k, v)`` returns ``k @ v`` for a ``k`` of at least one row."""
    lib = next((lib for *_, package, lib in _controls() if package == "scipy"), None)
    try:
        potrf, potrs, gemv = (getattr(lib, f"scipy_{name}_")
                              for name in ("dpotrf", "dpotrs", "dgemv"))
    except AttributeError:
        return None
    # Fortran takes every argument by reference (integers of 32 bits here)
    # and, last, the hidden length of each one-character flag
    s, i, d, p, n = (ctypes.c_char_p, ctypes.POINTER(ctypes.c_int),
                     ctypes.POINTER(ctypes.c_double), ctypes.c_void_p, ctypes.c_size_t)
    potrf.argtypes = [s, i, p, i, i, n]
    potrs.argtypes = [s, i, i, p, i, p, i, i, n]
    gemv.argtypes = [s, i, i, d, p, i, p, i, d, p, i, n]
    potrf.restype = potrs.restype = gemv.restype = None

    def ref(v):
        return ctypes.byref(ctypes.c_int(v) if isinstance(v, int) else ctypes.c_double(v))

    def address(a, *shape):
        if a.dtype != np.float64 or not a.flags.c_contiguous or a.shape != shape:
            raise ValueError(f"expected a C-contiguous float64 array of shape {shape}")
        return a.ctypes.data

    def dpotrf(a):
        m, info = len(a), ctypes.c_int()
        potrf(b"U", ref(m), address(a, m, m), ref(m), ctypes.byref(info), 1)
        return info.value

    def dpotrs(c, b):  # its info is < 0 only for a bad argument
        m = len(c)
        potrs(b"U", ref(m), ref(1), address(c, m, m), ref(m), address(b, m), ref(m),
              ref(0), 1)
        return b

    def dgemv(k, v):
        (r, m), y = k.shape, np.zeros(len(k))
        gemv(b"T", ref(m), ref(r), ref(1.0), address(k, r, m), ref(m), address(v, m),
             ref(1), ref(0.0), address(y, r), ref(1), 1)
        return y

    return dpotrf, dpotrs, dgemv


def get_num_threads():
    """The thread count of each controllable BLAS library, as a tuple."""
    return tuple(get() for get, *_ in _controls())


def set_num_threads(n):
    """Set every controllable BLAS library to ``n`` threads; a library
    already at ``n`` is left alone (see the module docstring)."""
    n = int(n)
    for get, set_, *_ in _controls():
        if get() != n:
            set_(n)


@contextlib.contextmanager
def num_threads(n):
    """Run the block at ``n`` BLAS threads; restore each old count on exit,
    again only where the count differs."""
    saved = [(get(), get, set_) for get, set_, *_ in _controls()]
    set_num_threads(n)
    try:
        yield
    finally:
        for old, get, set_ in saved:
            if get() != old:
                set_(old)

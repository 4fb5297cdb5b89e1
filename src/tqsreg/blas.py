"""Scoped control of the BLAS thread count.

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

# (package, library file pattern next to it, symbol with %s for get/set)
_OPENBLAS = (
    ("numpy", "*openblas64_*", "scipy_openblas_%s_num_threads64_"),
    ("scipy", "*openblas-*", "scipy_openblas_%s_num_threads"),
)


@functools.cache
def _controls():
    """(getter, setter) of each bundled OpenBLAS found; () when none."""
    found = []
    for package, pattern, symbol in _OPENBLAS:
        # the package's location without importing it: pinning loads no scipy
        spec = importlib.util.find_spec(package)
        if spec is None or not spec.submodule_search_locations:
            continue
        root = spec.submodule_search_locations[0]
        for path in sorted(glob.glob(os.path.join(root + ".libs", pattern))):
            try:
                lib = ctypes.CDLL(path)
                get, set_ = getattr(lib, symbol % "get"), getattr(lib, symbol % "set")
            except (OSError, AttributeError):
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            found.append((get, set_))
    return tuple(found)


def get_num_threads():
    """The thread count of each controllable BLAS library, as a tuple."""
    return tuple(get() for get, _ in _controls())


def set_num_threads(n):
    """Set every controllable BLAS library to ``n`` threads; a library
    already at ``n`` is left alone (see the module docstring)."""
    n = int(n)
    for get, set_ in _controls():
        if get() != n:
            set_(n)


@contextlib.contextmanager
def num_threads(n):
    """Run the block at ``n`` BLAS threads; restore each old count on exit,
    again only where the count differs."""
    saved = [(get(), get, set_) for get, set_ in _controls()]
    set_num_threads(n)
    try:
        yield
    finally:
        for old, get, set_ in saved:
            if get() != old:
                set_(old)

"""Thread counts of the OpenBLAS libraries bundled with numpy and scipy.

Every product here is n x n (n = 40 or 60) or p x 512, sizes at which an
OpenBLAS thread pool costs more in spin-up and core contention than it
saves, and pool workers multiply the threads.  The package therefore runs
its numerical work with one BLAS thread per process.  numpy and scipy each
load their own OpenBLAS; both are reached through the thread setters they
export, with no third-party dependency.  Where neither library is loaded
(another BLAS build), every function here does nothing.
"""

from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager

import numpy
import scipy

# (package, library glob, symbol suffix): numpy bundles the 64-bit-integer
# build, whose exported symbols carry a "64_" suffix.
_BUNDLED = ((numpy, "libscipy_openblas64_*.so", "64_"),
            (scipy, "libscipy_openblas-*.so", ""))


class _OpenBLAS:
    def __init__(self, lib: ctypes.CDLL, suffix: str):
        self.get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        self.get.argtypes, self.get.restype = [], ctypes.c_int
        self.set = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        self.set.argtypes, self.set.restype = [ctypes.c_int], None


def loaded_openblas() -> list[_OpenBLAS]:
    """The bundled OpenBLAS libraries already loaded into this process."""
    found = []
    for package, pattern, suffix in _BUNDLED:
        libs_dir = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                                f"{package.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libs_dir, pattern))):
            try:
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
                found.append(_OpenBLAS(lib, suffix))
            except (OSError, AttributeError):  # not loaded, or not this build
                continue
    return found


def thread_counts() -> list[int]:
    """Current thread count of each loaded library, in discovery order."""
    return [lib.get() for lib in loaded_openblas()]


def pin_single_thread() -> None:
    """Set every loaded library to one thread; the process-pool initializer."""
    for lib in loaded_openblas():
        lib.set(1)


@contextmanager
def single_threaded():
    """Run the block with one BLAS thread, then restore the caller's counts."""
    libs = loaded_openblas()
    before = [lib.get() for lib in libs]
    for lib in libs:
        lib.set(1)
    try:
        yield
    finally:
        for lib, count in zip(libs, before):
            lib.set(count)

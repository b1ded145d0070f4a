"""Thread count of the OpenBLAS library bundled with numpy.

Every product here is n x n (n = 40 or 60), p x n, or Monte-Carlo batches
of 512 draws in O(n) rows, sizes at which an OpenBLAS thread pool costs
more in spin-up and core contention than it saves, and a sweep's worker
processes multiply the threads.  The package therefore runs
its numerical work with one BLAS thread per process.  Its only BLAS is
numpy's bundled OpenBLAS (the package does not import scipy), reached
through the thread setters it exports, with no third-party dependency.
Where that library is not loaded (another BLAS build), every function here
does nothing.

The command-line entry point goes further and has OpenBLAS start with one
thread (``start_single_threaded``), before numpy loads.  Otherwise OpenBLAS
starts a helper thread per extra core when numpy is imported.  The commands
pin the count to 1, so that thread never does useful work; yet it spins on a
core for a while after it starts, and OpenBLAS stops and restarts it around
every fork of a sweep's worker processes.  On 2 cores with the other core busy,
``import numpy`` takes 75 ms with that helper thread and 38 ms without it.
Library imports leave the environment alone, so library callers keep their
own BLAS threads.  This module imports no numpy, so that the entry point
can run it first.
"""

from __future__ import annotations

import ctypes
import glob
import os
import sys
from contextlib import contextmanager
from importlib.util import find_spec

# numpy bundles the 64-bit-integer build, whose exported symbols carry a
# "64_" suffix.  find_spec locates numpy without importing it.
_LIBS = os.path.join(os.path.dirname(os.path.dirname(find_spec("numpy").origin)),
                     "numpy.libs", "libscipy_openblas64_*.so")


def start_single_threaded() -> None:
    """Have numpy's OpenBLAS start with one thread, unless numpy is loaded.

    For the command-line entry point only.  A thread count the caller set in
    ``OPENBLAS_NUM_THREADS`` stands.
    """
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


class _OpenBLAS:
    def __init__(self, lib: ctypes.CDLL):
        self.get = lib.scipy_openblas_get_num_threads64_
        self.get.argtypes, self.get.restype = [], ctypes.c_int
        self.set = lib.scipy_openblas_set_num_threads64_
        self.set.argtypes, self.set.restype = [ctypes.c_int], None


def loaded_openblas() -> list[_OpenBLAS]:
    """numpy's bundled OpenBLAS, if it is already loaded into this process."""
    found = []
    for path in sorted(glob.glob(_LIBS)):
        try:
            found.append(_OpenBLAS(ctypes.CDLL(path, mode=os.RTLD_NOLOAD)))
        except (OSError, AttributeError):  # not loaded, or not this build
            continue
    return found


def thread_counts() -> list[int]:
    """Current thread count of each loaded library, in discovery order."""
    return [lib.get() for lib in loaded_openblas()]


def pin_single_thread() -> None:
    """Set every loaded library to one thread; run first in every forked sweep worker."""
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

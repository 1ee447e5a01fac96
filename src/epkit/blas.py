"""numpy's bundled OpenBLAS, reached through ctypes.

numpy wheels ship OpenBLAS as ``numpy.libs/libscipy_openblas64_*.so`` and
export its control functions under ``scipy_openblas_*64_`` names: the kernel
set picked at run time (the library is built with DYNAMIC_ARCH, and gemv and
gemm bits depend on the kernel) and the number of threads it runs on.  Other
numpy builds have no such library, and every lookup then finds nothing.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def bundled_function(name: str):
    """The exported C function ``name`` of numpy's bundled OpenBLAS as a
    ctypes function, or None where that library or the symbol is absent.

    ctypes is imported here, not with the module, so that only a lookup
    pays for it."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        fn = getattr(ctypes.CDLL(str(path)), name, None)
        if fn is not None:
            return fn
    return None


def thread_getter():
    """``get_num_threads()`` of the bundled OpenBLAS, or None where it is
    absent."""
    import ctypes

    fn = bundled_function("scipy_openblas_get_num_threads64_")
    if fn is not None:
        fn.argtypes, fn.restype = [], ctypes.c_int
    return fn


def thread_setter():
    """``set_num_threads(k)`` of the bundled OpenBLAS, or None where it is
    absent."""
    import ctypes

    fn = bundled_function("scipy_openblas_set_num_threads64_")
    if fn is not None:
        fn.argtypes, fn.restype = [ctypes.c_int], None
    return fn

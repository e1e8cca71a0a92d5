"""Print, as JSON, the interpreter, numpy and BLAS facts a benchmark result records.

The BLAS thread count is read from the loaded OpenBLAS when numpy bundles
one; it is the default the `fockmzi` children run with, since they inherit
the same environment.
"""

import ctypes
import json
import os
import platform
from pathlib import Path

import numpy

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_info() -> dict:
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        info = {"name": None, "version": None}
    info["threads"] = None
    for lib_path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in _THREAD_SYMBOLS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


if __name__ == "__main__":
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }))

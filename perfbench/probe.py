"""Set-up probe, run in a fresh interpreter:

    python3 perfbench/probe.py MODEL.json [MODEL.json ...]

times ``import cycleflow`` followed by ``cycleflow.load_model`` on each
file, then prints one JSON line with that time and the environment the
benchmark's children see.
"""

import json
import sys
import time

started = time.perf_counter()
import cycleflow  # noqa: E402

for path in sys.argv[1:]:
    cycleflow.load_model(path)
setup_s = time.perf_counter() - started


def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return None


import numpy  # noqa: E402
import scipy  # noqa: E402

print(json.dumps({
    "setup_s": setup_s,
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas_threads": _blas_threads(),
    "kernel_path": getattr(cycleflow, "BACKEND_NAME", None),
}))

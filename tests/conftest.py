"""Run the suite on one BLAS thread, as ``benchmarks/run.py`` runs the benchmark.

numpy and scipy each bundle an OpenBLAS.  Each reads ``OPENBLAS_NUM_THREADS``
when it loads, and the subprocesses that the command-line tests start inherit
it.  In this process the count is also set through the function each library
exports, which holds even if a plugin loaded numpy before this file.  A
second thread made the suite's solves no faster on a two-core machine and
doubled their CPU time.
"""

import ctypes
import importlib.util
import os
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# Each package's bundled OpenBLAS, in <site-packages>/<package>.libs, and the
# function that sets its thread count.
for _package, _symbol in (
    ("numpy", "scipy_openblas_set_num_threads64_"),
    ("scipy", "scipy_openblas_set_num_threads"),
):
    _spec = importlib.util.find_spec(_package)
    if _spec is not None and _spec.origin is not None:
        for _library in (Path(_spec.origin).parents[1] / f"{_package}.libs").glob(
            "libscipy_openblas*.so"
        ):
            getattr(ctypes.CDLL(str(_library)), _symbol)(1)

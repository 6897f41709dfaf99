"""Run the suite on one BLAS thread, as every ``cdanneal`` command runs, and
draw the same hypothesis examples on every run.

``cdanneal.cli._one_blas_thread`` sets the thread count for this process
and, through the environment, for the subprocesses the tests start.  The
benchmark sets one thread too (``benchmarks/run.py``).  A second thread made
the suite's solves no faster on a two-core machine and doubled their CPU
time.

The hypothesis profile derandomizes every property test and keeps no example
database, so each test draws the same examples on every run and a failure
found once is found again.
"""

from hypothesis import settings

from cdanneal.cli import _one_blas_thread

_one_blas_thread()

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

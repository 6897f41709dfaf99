"""Run the suite on one BLAS thread, as every ``cdanneal`` command runs.

``cdanneal.cli._one_blas_thread`` sets the thread count for this process
and, through the environment, for the subprocesses the tests start.  The
benchmark sets one thread too (``benchmarks/run.py``).  A second thread made
the suite's solves no faster on a two-core machine and doubled their CPU
time.
"""

from cdanneal.cli import _one_blas_thread

_one_blas_thread()

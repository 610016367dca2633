"""Test-process setup shared by every test module.

One BLAS thread, fixed before numpy loads its BLAS, as perfbench/run.py
does: the timing tests measure the program on one core, the way the
benchmark does, whatever numpy's default thread count on the host.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

"""Test-session settings that must hold before numpy is imported.

BLAS runs one thread per process, as in `bench/run.py`: the pooled
pipeline tests fork one worker per CPU, and a multi-threaded BLAS in each
would oversubscribe the CPUs on the networks' small matrix products.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

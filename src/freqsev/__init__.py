"""Frequency-severity insurance pricing models and tariff tools.

Importing freqsev pins BLAS to one thread unless the environment says
otherwise. Seeded runs write the same bytes at one BLAS thread only, and
the forked fold workers would oversubscribe the CPUs with more. The
setting takes effect only when numpy loads after it: a caller that
imports numpy first must set `OPENBLAS_NUM_THREADS`, `OMP_NUM_THREADS`
and `MKL_NUM_THREADS` to 1 itself.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

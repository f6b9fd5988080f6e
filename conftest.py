"""Test-session settings that must hold before numpy is imported.

BLAS runs one thread per process, as in `bench/run.py`: the pooled
pipeline tests fork one worker per CPU, and a multi-threaded BLAS in each
would oversubscribe the CPUs on the networks' small matrix products.
Importing freqsev sets those defaults; this file runs before any test
module imports numpy, so they take effect.
"""

import freqsev  # noqa: F401 - sets the BLAS thread variables

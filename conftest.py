"""Test-session set-up shared by ``tests/`` and ``perfbench/``.

The suite's dense problems are small, and with the BLAS library's default
of one thread per core the whole suite took 185 s on a 2-vCPU machine
against 59 s with one thread.  pytest loads this file before any test
module imports numpy, so the defaults below take effect; a value already
exported by the shell wins.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

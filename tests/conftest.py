"""Pin BLAS and OpenMP to one thread before numpy is first imported.

Many small solves (one per rule and IRLS step) run far slower when a
multi-threaded BLAS competes with another process for the cores, so the
suite's wall time would depend on what else runs on the machine.  An
explicit setting in the environment wins.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

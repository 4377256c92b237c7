"""Process set-up shared by the benchmark's entry points; import it first.

It pins BLAS and OpenMP to one thread before numpy loads (thread count
changes both timings and the last bits of some results) and puts the
checkout's ``src/`` first on the import path, so the benchmark measures
the source next to it and never an installed copy.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))


def check_source() -> None:
    """Raise unless ``aaolq`` was imported from this checkout's ``src/``."""
    import aaolq

    where = Path(aaolq.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"aaolq imported from {where}, expected under {SRC}")

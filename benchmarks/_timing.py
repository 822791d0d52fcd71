"""The perf benchmarks' shared timer: best-of-N wall time and geomean.

Every perf benchmark times an engine the same way — the fastest of
``reps`` ``time.perf_counter`` samples of one call — and summarizes
per-workload speedups by their geometric mean.  Benchmarks run as
scripts (``python benchmarks/bench_x.py``) or under pytest; both put
this directory on ``sys.path``, so they import it as ``_timing``.
"""

from __future__ import annotations

import time

import numpy as np


def best(fn, reps: int) -> float:
    """Fastest of ``reps`` timed calls of ``fn``, in seconds."""
    fastest = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        fastest = min(fastest, time.perf_counter() - t0)
    return fastest


def geomean(values) -> float:
    """Geometric mean of positive ``values`` (e.g. speedups)."""
    return float(np.exp(np.mean(np.log(values))))

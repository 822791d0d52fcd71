"""A fixed calibration kernel that gauges the host's current speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent within minutes, so wall times of the same code differ
far more between runs than any change worth detecting.  Each load
process therefore runs one calibration slice before its first timed
operation and one after every operation (outside the operation's
timing), and the harness runs a block of slices before each set-up it
times.  A time ``t`` measured next to slices of median time ``c`` is
reported as ``t * REFERENCE_SLICE_S / c``: the time it would have taken
on a host that runs a slice in exactly :data:`REFERENCE_SLICE_S`.  The
kernel is the benchmark's own code, fixed across commits, and mixes the
two kinds of work the program does: interpreted dict/list code and
NumPy passes over a 1 MB array.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Nominal duration of one slice, the median measured on the 2-vCPU host
#: the benchmark was defined on.  Normalized times are in seconds at
#: this host speed.
REFERENCE_SLICE_S = 0.030

_KEYS = list(range(4096))
_ARRAY = np.random.default_rng(0).integers(0, 1 << 20, size=1 << 17)


def _kernel() -> int:
    table = {}
    total = 0
    for _ in range(20):
        for i in _KEYS:
            key = (i * 2654435761) & 0xFFFF
            table[key] = table.get(key, 0) + 1
            total += len(str(i))
    ordered = np.sort(_ARRAY)
    return total + int(ordered[_ARRAY & 0xFFFF][0])


def slice_s() -> float:
    """Wall time of one calibration slice."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def block_s(slices: int = 5) -> float:
    """Median wall time of ``slices`` back-to-back slices."""
    return statistics.median(slice_s() for _ in range(slices))


def normalized(latencies, calibration):
    """Operation times at the reference host speed.

    ``calibration`` holds one slice time before the first operation and
    one after each: operation ``i`` is scaled by the mean of the slices
    on either side of it.
    """
    return [
        t * REFERENCE_SLICE_S * 2.0 / (calibration[i] + calibration[i + 1])
        for i, t in enumerate(latencies)
    ]

"""Host-speed probe: scales measured times to a host of reference speed.

Where vCPUs share physical cores, whatever runs on the other hardware
thread slows the program's lane-packed DP kernels, by up to about 1.5x
for as long as it runs.  Every operation
is therefore preceded by :func:`probe`, a fixed DP sweep written in the
same style as those kernels (gathers of int16 emission rows, shifted
copies and running maxima over a 16-lane batch) but owned by the
benchmark, so no change to the program can make it faster or slower.
An operation's time, multiplied by :data:`NOMINAL_S` over the median
probe time around it (a few seconds of operations), reads as the time
it would have taken on a host where the probe takes its nominal time.
Measured alone, scaled and unscaled times differ by a near-constant
factor.  With a second benchmark process running on the other vCPU of a
2-vCPU Xeon VM, the median ``envnr_service`` latency rose 27% unscaled
and 5% scaled.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe time on a quiet 2-vCPU Xeon host (2.0 GHz, nothing else
#: running); the scale on which the scaled times read as seconds.
NOMINAL_S = 0.0065
#: Probes on each side of an operation that its scale factor uses.
WINDOW = 5

_rng = np.random.default_rng(0)
_EMISSIONS = _rng.integers(-20, 8, size=(20, 96)).astype(np.int16)
_SEQS = _rng.integers(0, 20, size=(16, 300))


def probe() -> float:
    """Wall seconds of one fixed DP sweep of 16 lanes x 300 rows."""
    t0 = time.perf_counter()
    h = np.zeros((16, 96), np.int16)
    best = np.zeros(16, np.int16)
    for r in range(_SEQS.shape[1]):
        shifted = np.empty_like(h)
        shifted[:, 0] = 0
        shifted[:, 1:] = h[:, :-1]
        h = np.maximum(shifted + _EMISSIONS[_SEQS[:, r]], -50)
        best = np.maximum(best, h.max(axis=1))
    # interpreter work between the array calls, as in a search's Python
    # orchestration
    counts: dict = {}
    for k in range(3000):
        counts[k & 255] = counts.get(k & 255, 0) + k
    return time.perf_counter() - t0


def scale_factors(probes: list[float]) -> list[float]:
    """``NOMINAL_S`` over the median of each probe and its ``WINDOW``
    neighbours on either side (one factor per probe)."""
    return [
        NOMINAL_S / statistics.median(probes[max(0, i - WINDOW):i + WINDOW + 1])
        for i in range(len(probes))
    ]

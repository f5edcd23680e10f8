"""Machine-speed correction for wall-clock timings.

On a shared 2-CPU host the same work runs up to ~25% slower or faster
from one few-second stretch to the next, and process CPU time moves with
wall time, so neither gives steady numbers on its own. The benchmark runs
a fixed ~2 ms burst of Python and small-matrix numpy work (the mix
nmchain spends its time on) right before every timed call and around
every set-up process. Each timing is
then rescaled to a nominal machine, on which the burst takes
REFERENCE_BURST_S:

    corrected = measured * REFERENCE_BURST_S / (burst time near the call)

where the burst time near a call is the median of the bursts of the
calls around it (about a second of work). Set-up processes, which last
about a second each, are rescaled by the median of every burst of the run. The burst touches no nmchain code, so a change to nmchain
moves corrected and raw timings alike.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_BURST_S = 0.002
NEIGHBOURS = 4          # bursts on each side that set the speed of a call

_U = np.linalg.qr(np.arange(64, dtype=float).reshape(8, 8) % 7 + np.eye(8))[0].astype(complex)


def burst() -> float:
    """Seconds the fixed calibration work takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(8500):
        acc += i * i % 7
    u = _U
    m = np.eye(8, dtype=complex)
    for _ in range(170):
        m = u @ m @ u.conj().T
    return time.perf_counter() - t0


def corrected(times: list, bursts: list) -> list:
    """Rescale times[i] by the median of the bursts around bursts[i]."""
    n = len(bursts)
    out = []
    for i, t in enumerate(times):
        near = bursts[max(0, i - NEIGHBOURS):min(n, i + NEIGHBOURS + 1)]
        out.append(t * REFERENCE_BURST_S / statistics.median(near))
    return out

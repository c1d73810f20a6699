"""Fixed reference computations that calibrate every timing to the host's
speed of the moment.

The benchmark shares a small virtual machine with other tenants.  There
the same code runs up to twice as fast at one minute as at the next, in
CPU time as well as wall time, and runs of ten minutes never see the
same mix of fast and slow spells.  So every timed call is bracketed by
runs of a reference computation, and the call's time is reported in
*reference seconds*: its measured time over the slowdown measured with
it, which is the reference's time over its nominal time REF_S[kind].
A change to the program moves its calls and not the reference, so it
shows in full; a change of host speed moves both and cancels.

A slow spell does not slow all code alike: interpreted Python slows
more than numpy arithmetic on arrays of a megabyte and more.  So there are
two references, one of each kind, and each job is calibrated by the
kind of work it does (its ``ref`` in jobs.py).  ``REF_S`` holds round
figures near their times on a 2-core Xeon VM in a fast spell, so
reference seconds read close to seconds there.
"""

from __future__ import annotations

import resource
import time

import numpy as np

REF_S = {"python": 2.0e-3, "numpy": 1.0e-3}
_Z = np.exp(1j * np.linspace(0.0, 6.0, 65_536))


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _python() -> None:
    text = [f"{k * 0.5:.6g}" for k in range(4_000)]
    float(sum(map(float, text)))


def _numpy() -> None:
    for _ in range(3):
        float(np.abs(_Z * _Z + 1.0).sum())


_WORK = {"python": _python, "numpy": _numpy}


def slowdown(kind: str) -> tuple[float, float]:
    """Wall and CPU seconds of one run of the reference of ``kind``, each
    over that reference's nominal time ``REF_S[kind]``."""
    t0, c0 = time.perf_counter(), _cpu_s()
    _WORK[kind]()
    return ((time.perf_counter() - t0) / REF_S[kind],
            (_cpu_s() - c0) / REF_S[kind])

"""Machine speed, measured next to the timed work.

A shared virtual machine's speed drifts.  On the 2-vCPU machine the baseline
was measured on, 10-second medians of one fixed job varied by up to 1.9x
within two minutes, and every time of a run moves with it.  So the benchmark
times a fixed reference sample at the start and end of every timed stretch
and twice a second in between, and reports a time ``t``, measured while the
sample took a median of ``r`` seconds, as ``t * REF_S / r``: the time at
the speed at which the sample takes ``REF_S``.

The sample is three jobs, one of each kind of work the benchmark times:
interpreter-bound, LAPACK and elementwise numpy.  These kinds slowed by
different amounts in the same spell, and their sum tracked the timed figures
better than any one of them did.

The in-between samples come from a SIGALRM timer, so a long call such as one
50 s fit is sampled throughout without a second thread.  ``Speed.timed``
leaves the jobs' own time out of the time it measures.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

_FLOATS = np.random.default_rng(0).standard_normal(10_000).tolist()
_MATRIX = np.random.default_rng(1).standard_normal((120, 120))
_POINTS = np.random.default_rng(2).uniform(-1.0, 1.0, (10_000, 1))
_CENTERS = np.random.default_rng(3).uniform(-1.0, 1.0, (1, 50))
# preallocated: a job that allocated its arrays would time the allocator's state,
# which the work before it leaves behind, and not the machine
_BUFFER = np.empty((10_000, 50))


def _python_job():
    ",".join(f"{v!r}" for v in _FLOATS)  # float formatting, as the CLI's CSV writer


def _lapack_job():
    for _ in range(10):
        np.linalg.qr(_MATRIX)  # small dense factorizations, as the fit's GCV and QR


def _numpy_job():
    np.subtract(_POINTS, _CENTERS, out=_BUFFER)  # elementwise, as kernel_matrix
    np.square(_BUFFER, out=_BUFFER)
    np.negative(_BUFFER, out=_BUFFER)
    np.exp(_BUFFER, out=_BUFFER)
    _BUFFER.sum(axis=1)


JOBS = {"python": _python_job, "lapack": _lapack_job, "numpy": _numpy_job}
REF_S = 0.022  # the sum of the jobs' medians on the baseline machine
SAMPLE_EVERY_S = 0.5


class Speed:
    """Reference-job samples over one stretch of a run.

    ``active=False`` (the traced runs) samples only at the start and end, so
    no job runs inside a traced span.  ``Speed.log`` gets each finished
    stretch's summed median, so a run can report how fast the machine was.
    """

    log: list[float] = []

    def __init__(self, active: bool = True):
        self.active = active
        self.samples: dict[str, list[float]] = {kind: [] for kind in JOBS}
        self.spent = 0.0  # seconds the jobs have taken
        self._previous = None

    def sample(self, *_) -> None:
        start = time.perf_counter()
        for kind, job in JOBS.items():
            t0 = time.perf_counter()
            job()
            self.samples[kind].append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.sample()
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        Speed.log.append(sum(self.medians().values()))
        return False

    def timed(self, fn):
        """``(fn(), seconds)``, without the time the jobs took meanwhile."""
        spent, t0 = self.spent, time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0 - (self.spent - spent)

    def medians(self) -> dict[str, float]:
        return {kind: statistics.median(v) for kind, v in self.samples.items()}

    def scale(self, seconds: float) -> float:
        """``seconds`` measured over this stretch, at the reference speed."""
        return seconds * REF_S / sum(self.medians().values())

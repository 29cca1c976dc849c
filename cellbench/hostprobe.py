"""Host-speed probe and the normalization of pass timings.

Wall seconds of a pure-Python workload move with the host: clock scaling,
noisy neighbours and cache pressure change them by more than the effects a
benchmark is meant to resolve.  The benchmark therefore times a small fixed
pure-Python probe (integer, list and dict work, nothing imported from
``repro``) beside every pass and scales the pass's seconds by
``PROBE_REF / probe``: *reference-host seconds*, the time the pass would have
taken on a host where one probe repetition takes exactly ``PROBE_REF``.

On a shared host the probe's speed swings within seconds, so one probe timed
before a pass says little about the pass (on a 2-vCPU VM it made the spread
worse than no normalization).  :class:`ProbeSampler` instead interrupts the
pass with ``SIGALRM`` every :data:`PROBE_INTERVAL` seconds, runs one short
probe repetition inside the signal handler, and excludes that time from every
clock the pass reads.  Every timing of the pass is normalized by the mean of
the pass's samples.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Sequence, Tuple

#: Mean seconds of one probe repetition on the reference host (2-vCPU
#: x86-64 VM, CPython 3.11).  A constant, so reference-host seconds stay
#: comparable between commits and hosts.
PROBE_REF = 0.0025

#: Work items per probe repetition.
PROBE_ITEMS = 5_000

#: Seconds between two probe repetitions inside a pass.
PROBE_INTERVAL = 0.05


def probe_once() -> Tuple[float, int]:
    """Run one probe repetition; return ``(seconds, checksum)``.

    The checksum is returned so the work cannot be optimized away and so
    tests can pin it.
    """
    started = time.perf_counter()
    table = {}
    values: List[int] = []
    acc = 0
    for i in range(PROBE_ITEMS):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc ^= x >> 7
        values.append(x & 0xFFFF)
        bucket = x & 1023
        table[bucket] = table.get(bucket, 0) + (x & 7)
    values.sort()
    for bucket, count in table.items():
        acc = (acc + bucket * count) & 0xFFFFFFFF
    acc ^= sum(values[:: PROBE_ITEMS // 64])
    return time.perf_counter() - started, acc


class ProbeSampler:
    """Times the probe beside a pass; a context manager.

    While active, one probe repetition runs at entry, at exit and every
    :data:`PROBE_INTERVAL` seconds in between (from a ``SIGALRM`` handler, so inside
    long attack calls too).  :meth:`now` is ``perf_counter`` minus the probe
    time so far, so intervals read from it exclude the probe.  ``tracer``
    (optional) is told of every repetition, which keeps the probe out of
    every layer's self time.
    """

    def __init__(self, *, tracer=None) -> None:
        self.tracer = tracer
        self.samples: List[float] = []
        self.paused = 0.0
        self._previous_handler = None

    def now(self) -> float:
        return time.perf_counter() - self.paused

    @property
    def probe_s(self) -> float:
        """Mean seconds of one repetition during the pass."""
        return statistics.fmean(self.samples)

    def sample(self, *_signal_args) -> None:
        started = time.perf_counter()
        self.samples.append(probe_once()[0])
        seconds = time.perf_counter() - started
        self.paused += seconds
        if self.tracer is not None:
            self.tracer.note_probe(seconds)

    def __enter__(self) -> "ProbeSampler":
        if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
            raise RuntimeError("ITIMER_REAL is in use; the probe sampler needs it")
        self.sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.sample()


def normalize(raw_seconds: float, probe_seconds: float) -> float:
    """Scale measured seconds to reference-host seconds."""
    if probe_seconds <= 0:
        raise ValueError("probe time must be positive")
    return raw_seconds * PROBE_REF / probe_seconds


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3

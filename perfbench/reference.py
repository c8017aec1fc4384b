"""Host-speed reference: a fixed loop that rescales timings to one host speed.

The host the benchmark runs on is a share of a machine whose speed drifts:
the same op took more than twice as long in some periods as in others,
and a period can last from under a second to minutes (see ``NOTES.md``).
A timing taken at one moment therefore says as much about the host as
about the program.

:class:`HostReference` runs a fixed mix of integer arithmetic, short list
sorts, and random dict and attribute lookups, none of it the program's
code.  :class:`Sampler` runs it from a timer signal, every
:data:`PERIOD_S` seconds of wall time for :data:`SHARE` of that period,
also in the middle of an op, so its samples cover the host's states in
the same proportions as the ops do; the clock the harness times ops with
stops while a sample runs.  The reference's own time per repetition,
divided by :data:`NOMINAL_REP_S`, is the host's *slowness*, and the
harness divides every time metric by the slowness of the samples taken
while it was measured.

The reference is timed in the main thread's CPU time, not wall time.
Contention for the physical core slows both, so the rescaling still
follows the host.  Time the main thread spends descheduled does not count
(threads the program leaves running, stolen time), so work the program
does in the background can not inflate the slowness and hide a slowdown.
"""

from __future__ import annotations

import random
import signal
import time
from typing import Any

#: A sample is taken every PERIOD_S seconds of wall time and lasts SHARE
#: of it.
PERIOD_S = 1.0
SHARE = 0.25
#: Time of one repetition on a host that runs it in exactly this long; it
#: fixes only the scale of the rescaled times.  The 2-vCPU Xeon VM of
#: NOTES.md runs a repetition in 0.44-0.98 ms of main-thread CPU time.
NOMINAL_REP_S = 1.0e-3


class _Record:
    __slots__ = ("a", "b")

    def __init__(self, a: int) -> None:
        self.a = a
        self.b = 2 * a


class HostReference:
    """The reference loop and the data it walks."""

    def __init__(self) -> None:
        rng = random.Random(1)
        self._table = {i: _Record(i) for i in range(20_000)}
        keys = list(self._table)
        rng.shuffle(keys)
        self._keys = keys[:3_000]

    def _rep(self) -> int:
        # Three parts of about equal time: integer arithmetic, building and
        # sorting short lists, and random dict and attribute lookups.
        acc = 0
        for i in range(2_500):
            acc += i * i % 7
        for _ in range(14):
            items = list(range(500))
            items.reverse()
            items.sort()
            acc += items[-1]
        table = self._table
        for k in self._keys:
            acc += table[k].b
        return acc

    def sample(self, wall_s: float) -> tuple[float, int]:
        """Run one untimed repetition, which brings the reference's data
        back into the caches the op just used, then timed repetitions for
        at least ``wall_s`` seconds of wall time (at least one); return
        their main-thread CPU time and count."""
        self._rep()
        reps = 0
        c0 = time.thread_time()
        deadline = time.perf_counter() + wall_s
        while True:
            self._rep()
            reps += 1
            if time.perf_counter() >= deadline:
                break
        return time.thread_time() - c0, reps


def slowness(cpu_s: float, reps: int) -> float:
    """The host's slowness over samples totalling ``cpu_s`` and ``reps``:
    1.0 on a host that runs one repetition in :data:`NOMINAL_REP_S`."""
    return cpu_s / reps / NOMINAL_REP_S


class Sampler:
    """Samples a :class:`HostReference` every :data:`PERIOD_S` from a
    ``SIGALRM`` handler while it is entered.

    The handler runs in the main thread between two bytecodes of whatever
    runs there, and leaves the program's state alone.  :meth:`clock` is
    ``time.perf_counter`` minus the time spent in samples, so an op timed
    with it excludes any sample taken in its middle.
    """

    def __init__(self, ref: HostReference) -> None:
        self._ref = ref
        self._cpu_s = 0.0
        self._reps = 0
        self._paused_s = 0.0
        self._sampling = False
        self._previous: Any = None

    def _on_alarm(self, signum: int, frame: Any) -> None:
        if self._sampling:  # the timer fired inside a sample
            return
        self._sampling = True
        t0 = time.perf_counter()
        try:
            cpu_s, reps = self._ref.sample(SHARE * PERIOD_S)
        finally:
            self._paused_s += time.perf_counter() - t0
            self._sampling = False
        self._cpu_s += cpu_s
        self._reps += reps

    def clock(self) -> float:
        return time.perf_counter() - self._paused_s

    def take(self) -> float:
        """The slowness of the samples since the last call, sampling once
        now if the timer has not fired since."""
        if not self._reps:
            self._on_alarm(signal.SIGALRM, None)
        value = slowness(self._cpu_s, self._reps)
        self._cpu_s, self._reps = 0.0, 0
        return value

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

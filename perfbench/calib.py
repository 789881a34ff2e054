"""The host's speed, measured next to the ops, to put times on one scale.

On a shared host the same work takes up to 1.8 times as long from one
second to the next, in CPU time as much as in wall time, so raw times
of runs made minutes apart cannot be compared.  The benchmark times
units of fixed reference work as it goes: pure Python on strings,
tuples, sets and dicts, the objects the library works with, calling
nothing of the program.  In-process ops are interrupted by a timer every
``INTERVAL_S`` to time one unit, so a long op is sampled all along, and
the units' time is taken out of the op's.  Child processes are not
interrupted, so that nothing runs beside them: on ``cli`` the units run
between requests instead, ``SHARE`` of the request time.  A time is
reported as the time it would have taken on a host where one unit takes
``NOMINAL_S``: measured time x NOMINAL_S / the median of the units timed
during it, or nearest to it.  A program that does its work twice as fast
still halves every reported time, because the units' work does not
change with the program.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import time

NOMINAL_S = 0.0035  # one unit's median on the 2-core reference host (perfbench/README.md)
INTERVAL_S = 0.015  # timer period while in-process ops run; a unit takes about a fifth of it
SHARE = 0.2  # seconds of units per second of child-process requests
NEAREST = 9  # units behind the speed of an op that spans fewer

_NAMES = tuple(f"e{i}" for i in range(24))


def _closure() -> int:
    relation = {(_NAMES[i], _NAMES[j]) for i in range(24) for j in range(i, min(24, i + 3))}
    while True:
        above: dict[str, set[str]] = {}
        for a, b in relation:
            above.setdefault(a, set()).add(b)
        new = {(a, c) for a, b in relation for c in above[b]}
        if new <= relation:
            return len(relation)
        relation |= new


def _search() -> int:
    order = {(a, b) for a in range(9) for b in range(9) if a <= b and (b - a) % 3 != 1}
    found: list[str] = []

    def extend(chosen: list[int]) -> None:
        if len(chosen) == 5:
            found.append("-".join(map(str, chosen)))
            return
        for c in range(9):
            if c not in chosen and all((x, c) in order for x in chosen):
                chosen.append(c)
                extend(chosen)
                chosen.pop()

    extend([])
    return len(sorted(found))


def _table() -> int:
    table = {}
    for i in range(1500):
        table[(_NAMES[i % 24], i % 13)] = frozenset((i, i + 1))
    return len({key[0] for key in table})


def unit() -> float:
    """Seconds that one unit of the reference work takes now, with the
    collector off so that the program's heap does not slow it down."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _closure()
        _search()
        _table()
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


@contextlib.contextmanager
def no_units():
    """Hold the timer's units back, while a child process runs."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


class Calibrator:
    """Units timed as the ops run, and the factor that brings a time
    measured at a given moment to the nominal host."""

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []
        self.spent = 0.0  # wall seconds spent timing units, to take out of the ops' times
        self.debt = 0.0

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            start = time.perf_counter()
            self.seconds.append(unit())
            self.at.append(time.perf_counter())
            self.spent += self.at[-1] - start

    @contextlib.contextmanager
    def ticking(self):
        """Time one unit every INTERVAL_S, inside the ops too."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def after_op(self, busy: float) -> None:
        """Time units until they make up SHARE of the op time so far."""
        self.debt += SHARE * busy
        while self.debt > 0:
            before = len(self.seconds)
            self.sample()
            self.debt -= self.seconds[before]

    def factor_at(self, start: float, end: float) -> float:
        """NOMINAL_S over the median of the units timed between ``start``
        and ``end``, or of the NEAREST units around the middle if fewer."""
        low, high = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        if high - low < NEAREST:
            middle = bisect.bisect_left(self.at, (start + end) / 2)
            high = min(len(self.at), max(middle + NEAREST // 2 + 1, NEAREST))
            low = max(0, high - NEAREST)
        return NOMINAL_S / statistics.median(self.seconds[low:high])

    def factor(self) -> float:
        """NOMINAL_S over the median of every unit timed."""
        return NOMINAL_S / statistics.median(self.seconds)

    def unit_ms(self) -> float:
        return statistics.median(self.seconds) * 1000

"""Host speed reference: a fixed kernel timed beside each call of the program.

On a shared machine the speed one process gets switches between a fast and
a slow state, about 1.6x apart, as other tenants come and go; each state
lasts from a tenth of a second to minutes, and the share of time spent in
the slow one drifts over minutes.  The benchmark times this kernel, under a
millisecond long, before and after every call it times and every
`SAMPLE_S` during it, and scales the call by `NOMINAL_S` over the mean of
those kernel times: the call's time at a fixed reference speed.  The
kernel does not touch flowtopo and never changes, so a change to the
program moves the scaled times as it moves the raw ones, while a change of
host state moves kernel and program together and cancels out.

The kernel is pure Python in the style of the program's hot loops: a GF(2)
column reduction of a fixed sparse matrix, with set, dict and sort work.
"""

from __future__ import annotations

import gc
import random
import signal
from time import perf_counter

# While a timed call runs, a probe also runs every SAMPLE_S seconds, so a
# long call that spans both states is scaled by what it actually met.
SAMPLE_S = 0.05

# Kernel time in the fast state of the machine the bounds were set on (a
# shared 2-vCPU virtual machine, Python 3.11.7), so scaled times read as
# seconds on that machine at full speed.
NOMINAL_S = 0.0005


def _columns() -> list[list[int]]:
    rng = random.Random(20231201)
    return [sorted(rng.sample(range(60 + j), rng.randint(1, 3))) for j in range(250)]


_COLUMNS = _columns()


def kernel() -> list[tuple[int, tuple[int, ...]]]:
    """Reduce the fixed matrix; returns the reduced columns, sorted."""
    low: dict[int, int] = {}
    cols = [set(c) for c in _COLUMNS]
    for j, col in enumerate(cols):
        while col:
            pivot = max(col)
            if pivot not in low:
                low[pivot] = j
                break
            col ^= cols[low[pivot]]
    return sorted((len(c), tuple(sorted(c))) for c in cols)


def probe() -> float:
    """Seconds one kernel call takes now, with the garbage collector off.

    The call timed is the second of two, so what the program left in the
    caches does not change the reading.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def timed(fn, *args, **kwargs):
    """Call fn; return its result, its time and the probes taken during it.

    The probes run from a SIGALRM handler every SAMPLE_S seconds, between
    the call's bytecodes, and the time they take is not counted.
    """
    probes, spent = [], 0.0

    def sample(signum, frame):
        nonlocal spent
        t0 = perf_counter()
        probes.append(probe())
        spent += perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    try:
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        elapsed = perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    return out, elapsed - spent, probes


def scale(probes: list[float]) -> float:
    """Factor that takes a time measured among these probes to reference speed."""
    return NOMINAL_S * len(probes) / sum(probes)

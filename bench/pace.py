"""The machine's speed, measured next to every timed unit.

On a shared virtual machine the same Python code runs up to 1.6 times
slower while a neighbour loads the physical core, in stretches from a
fraction of a second to minutes, and how much of a run falls into slow
stretches differs from run to run. The timed units feel this as much as
any other code, so the benchmark runs a fixed, finstack-free kernel next to
each unit and reports unit times scaled to the speed at which a chunk of
CALLS kernel calls takes NOMINAL_S:

    scaled time = measured time * NOMINAL_S / chunk time next to the unit

Next to the unit means around it for a library case in a warm process
(tens of milliseconds): the mean of the chunks timed right after it and the
SMOOTH cases on either side. For a `desc` process (seconds, over which the
speed changes many times) it means during it: a Sampler runs one kernel
call every SAMPLE_EVERY seconds from a SIGALRM handler in the process
itself.

The kernel does what finstack spends its time on, in plain Python: maps as
dicts over tuple-labelled atoms, a pullback, a coequalizer by union-find,
hashing of small slotted objects, frozensets and sorting by repr.
"""

from __future__ import annotations

import signal
import time
from random import Random

NOMINAL_S = 0.0017    # one chunk at the reference speed: the median chunk
                      # time on a quiet 2-vCPU Xeon VM under Python 3.11.7
CALLS = 4             # kernel calls per chunk
SAMPLE_EVERY = 0.05   # seconds between a Sampler's kernel calls
SMOOTH = 5            # cases on either side whose chunks pace a library case


class _Map:
    __slots__ = ("src", "dst", "table", "_hash")

    def __init__(self, src, dst, table):
        self.src, self.dst, self.table = src, dst, table
        self._hash = None

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.src, self.dst, frozenset(self.table.items())))
        return self._hash

    def __eq__(self, other):
        return self.table == other.table and self.src == other.src


def _inputs(n=24, m=8, seed=11):
    rng = Random(seed)
    a = frozenset(("a", i, str(i % 5)) for i in range(n))
    b = frozenset(("b", i) for i in range(n))
    c = sorted(("c", i) for i in range(m))
    f = _Map(a, frozenset(c), {x: rng.choice(c) for x in sorted(a)})
    g = _Map(b, frozenset(c), {x: rng.choice(c) for x in sorted(b)})
    return f, g


_F, _G = _inputs()


def kernel() -> int:
    """Pullback of two fixed maps, its projections, and the coequalizer of
    the projections; the result only keeps the work from being skipped."""
    f, g = _F, _G
    over = {}
    for b, c in g.table.items():
        over.setdefault(c, []).append(b)
    pb = frozenset((a, b) for a, c in f.table.items() for b in over.get(c, ()))
    p1 = _Map(pb, f.src, {p: p[0] for p in pb})
    p2 = _Map(pb, g.src, {p: p[1] for p in pb})
    comp = _Map(pb, f.dst, {p: f.table[a] for p, a in p1.table.items()})
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for p in pb:
        ra, rb = find(p1.table[p]), find(p2.table[p])
        if ra != rb:
            parent[max(ra, rb, key=repr)] = min(ra, rb, key=repr)
    classes = {}
    for x in f.src | g.src:
        classes.setdefault(find(x), set()).add(x)
    return len(sorted(classes, key=repr)) + len({p1, p2, comp}) + hash(comp) % 2


def chunk() -> float:
    """Seconds taken by one chunk of CALLS kernel calls, now."""
    t0 = time.perf_counter()
    for _ in range(CALLS):
        kernel()
    return time.perf_counter() - t0


def smooth(chunks: list[float]) -> list[float]:
    """For each chunk, the mean of it and the SMOOTH chunks on either side
    (fewer at the ends)."""
    n = len(chunks)
    return [sum(chunks[max(0, i - SMOOTH):i + SMOOTH + 1])
            / (min(n, i + SMOOTH + 1) - max(0, i - SMOOTH)) for i in range(n)]


def sample(seconds: float) -> float:
    """Mean chunk time over chunks run for about `seconds`."""
    times = [chunk()]
    while sum(times) < seconds:
        times.append(chunk())
    return sum(times) / len(times)


class Sampler:
    """Times one kernel call every SAMPLE_EVERY seconds of wall time, from a
    SIGALRM handler, in the process that is being timed; the calls add
    about one percent to its run time."""

    def __init__(self):
        self.times = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.times.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)

    def stop(self) -> float | None:
        """Stop sampling; the mean chunk time over the samples, or None
        when the process ended before the first one."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not self.times:
            return None
        return CALLS * sum(self.times) / len(self.times)

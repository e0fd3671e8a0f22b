"""Reference-normalised CPU time: the machine's speed, sampled in-run.

On a shared VM a CPU's speed swings by up to 2x within seconds and
drifts over the hour (its neighbours contend for caches and cores), and
CPU time does not see it.  A pass therefore runs a fixed reference
kernel at checkpoints along it and divides each stretch of program time
between two checkpoints by the kernel's mean time at its ends: the
stretch slowed by the machine, the kernel beside it slowed alike, and
the quotient keeps how much work the program did.  A pass mixes fast
and slow stretches, so one factor for the whole pass (say the kernel's
median) mis-weights them; per stretch, the sum follows the mix.  The
kernel is the benchmark's own code, so a change to the program never
changes it.

The kernel is the simulator's inner loop in miniature: keyed lookups
along a shuffled ring of a few MB, and small slotted objects pushed
through an event heap while a dictionary counts them.  On the recording
VM (one fresh fork per sample, 150 s of small ``slo`` and ``replay``
passes) the program's time followed a cache-resident event heap alone
with a log-log slope of about 0.9 (it over-corrects) and a ring walk
with a larger heap with about 1.2 (it under-corrects); a tight
arithmetic loop did worst.  The two parts together sit between.  A
third part walking a 20 MB ring tracked no better in a five-seed check
and added its footprint to every pass's peak memory, so it was left
out.  On that machine the kernel runs in about 1.4 ms alone and in
3-5 ms inside a pass, where program code has just evicted its data.
Checkpoints sit at fixed points of the workload (every so many
admission calls, around each set-up phase, at both ends of the pass),
so every pass of a seed runs the kernel at the same points and
allocates the same memory in the same order.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from typing import List, Tuple

#: Normalised timings are program CPU seconds on a machine on which one
#: reference kernel takes this long.
NOMINAL_S = 1e-3


class _Event:
    __slots__ = ("time", "key", "seq")

    def __init__(self, time_: float, key: str, seq: int) -> None:
        self.time, self.key, self.seq = time_, key, seq


def _ring(size: int, seed: int):
    """A shuffled ring of *size* keyed cells (a few MB): (start, next
    index of each cell, key of each cell, weight by key).  Ints, strings
    and floats only, so the collector never walks it and a forked pass
    copies only the pages the kernel touches."""
    rng = random.Random(seed)
    order = list(range(size))
    rng.shuffle(order)
    following = [0] * size
    for position, index in enumerate(order):
        following[index] = order[(position + 1) % size]
    keys = tuple(f"cell-{seed}-{index:06d}" for index in range(size))
    weights = {key: rng.random() for key in keys}
    return order[0], following, keys, weights


def _walk(ring, steps: int) -> float:
    """Follow *steps* cells of *ring* from its start, looking each one's
    weight up by key."""
    index, following, keys, weights = ring
    total = 0.0
    for _ in range(steps):
        index = following[index]
        total += weights[keys[index]]
    return total


_RING = _ring(16384, 7)
_EVENT_KEYS = _RING[2][:2000]


def reference() -> float:
    """Run the reference kernel once; return its CPU time in seconds.

    Two parts: a walk along the ring that looks every cell up by key,
    and an event heap whose events count their keys in a dictionary.
    The collector is off while it runs, so the kernel's time does not
    depend on the program's heap, and it frees all it allocated before
    the collector is back on.
    """
    rng, keys = random.Random(1), _EVENT_KEYS
    enabled = gc.isenabled()
    gc.disable()
    start = time.process_time()
    _walk(_RING, 3000)
    heap: list = []
    counts: dict = {}
    for seq in range(400):
        event = _Event(rng.random(), keys[rng.randrange(2000)], seq)
        heapq.heappush(heap, (event.time, seq, event))
        counts[event.key] = counts.get(event.key, 0) + 1
        if len(heap) > 100:
            _, _, old = heapq.heappop(heap)
            counts[old.key] -= 1
    elapsed = time.process_time() - start
    del heap, counts, event, old
    if enabled:
        gc.enable()
    return elapsed


class Timeline:
    """One pass's program CPU time, with reference checkpoints along it.

    :meth:`clock` is the process's CPU time minus the time spent in the
    reference kernel, so the kernel never counts as program time.
    """

    def __init__(self) -> None:
        self.reference_s = 0.0
        #: (program time, kernel time) at each checkpoint.
        self.marks: List[Tuple[float, float]] = []

    def clock(self) -> float:
        return time.process_time() - self.reference_s

    def checkpoint(self) -> None:
        start = time.process_time()
        kernel = reference()
        self.marks.append((start - self.reference_s, kernel))
        self.reference_s += time.process_time() - start

    def factor(self, index: int) -> float:
        """How much slower than nominal the machine ran between
        checkpoint *index* and the next one: the mean of the two kernel
        times, over :data:`NOMINAL_S`."""
        after = self.marks[min(index + 1, len(self.marks) - 1)][1]
        return (self.marks[index][1] + after) / (2 * NOMINAL_S)

    def normalised(self, first: int, last: int) -> float:
        """Program time from checkpoint *first* to *last*, each stretch
        between two checkpoints divided by its own factor."""
        marks = self.marks
        return sum((marks[i + 1][0] - marks[i][0]) / self.factor(i)
                   for i in range(first, last))

"""List schedule of a rigid allotment, the solver's first construction.

Each job runs on a given number of machines, width[i] for grid row i (the
driver passes the knapsack's allotment: each big job its canonical count at
its class height, each small job one).  Jobs are placed by decreasing
duration, ties by job id, each on the contiguous window of machines whose
latest free time is smallest (lowest first machine on ties), starting at
that time.  When every width is 1, as it often is, the free times are a
heap of the ints free*h + machine over the h = min(m, n) machines a job can
reach, one heapreplace per job: these order as (free time, machine) pairs,
so the heap pops the window loop's machine.  Free times are kept in grid
numerators, so every start is an exact integer sum: int64 while the sum of
the placed durations, which bounds every free time, is below 2^62, exact
ints (numpy object dtype) otherwise.  The schedule is returned in that
integer form (``Schedule.of_ints`` over the grid's q): no Fraction is made
per job, only the makespan.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

import numpy as np

from .model import Instance, Schedule, int_array


def window_max(x: np.ndarray, k: int) -> np.ndarray:
    """max(x[i:i+k]) for i = 0..len(x)-k, by doubling in O(m log k): while
    x[i] holds the maximum over a span, one max with x shifted by s <= span
    widens it by s, until the span is k."""
    span = 1
    while span < k:
        s = min(span, k - span)
        x = np.maximum(x[:-s], x[s:])
        span += s
    return x


def list_schedule(inst: Instance, width: np.ndarray) -> Schedule:
    """Contiguous list schedule of every job, row i on width[i] machines
    (an int64 array, 1 <= width <= m), in integer form over the grid's q."""
    q, a = inst.grid
    dur = a[np.arange(inst.n), width - 1]
    ids = int_array(inst.ids)
    order = np.lexsort((ids, -dur))  # decreasing duration, ties by job id
    ids, width, dur = ids[order], width[order], dur[order]
    exact = a.dtype == object or sum(dur.tolist()) >= 1 << 62
    if width.max(initial=0) == 1:
        h = min(inst.m, inst.n)
        heap = list(range(h))  # every machine free at 0, in order: a heap
        keys = int_array([heapq.heapreplace(heap, heap[0] + t * h) for t in dur.tolist()])
        start, first = keys // h, keys % h
    else:
        free = np.zeros(inst.m, dtype=object if exact else np.int64)
        first, start = [], []
        for k, t in zip(width.tolist(), dur.tolist()):
            w = window_max(free, k)
            i = int(w.argmin())
            s = w.item(i)
            free[i : i + k] = s + t
            first.append(i)
            start.append(s)
    start = np.array(start, dtype=object if exact else np.int64)
    makespan = Fraction(int((start + dur).max()) if inst.n else 0, q)
    ints = (ids, np.array(first, dtype=np.int64), width, start, dur)
    return Schedule.of_ints(q, ints, makespan)

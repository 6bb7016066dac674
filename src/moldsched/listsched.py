"""List schedule of the knapsack's allotment, the solver's first construction.

At an accepted guess d each big job gets its canonical machine count at the
height of its knapsack class (d, (4/7)d or (3/7)d), each small job one
machine.  Jobs are placed by decreasing duration, ties by job id, each on the
contiguous window of machines whose latest free time is smallest (lowest
first machine on ties), starting at that time.  The skyline of free times is
kept in grid numerators, so every start is an exact integer sum: int64 while
the one-machine total sum(A[j,0]), which bounds every free time, is below
2^62, exact ints (numpy object dtype) otherwise.  The schedule is returned in
that integer form (``Schedule.of_ints`` over the grid's q): no Fraction is
made per job, only the makespan.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

import numpy as np

from .mckp import CLASS_HEIGHTS
from .model import Instance, Schedule, gammas, int_array


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


def list_schedule(
    inst: Instance, d: Fraction, assignment: dict[int, int], small: Iterable[int]
) -> Schedule:
    """Contiguous list schedule of the big jobs (job id -> class 1..3) at
    their class allotments and the small jobs on one machine each, in
    integer form over the grid's q."""
    q, a = inst.grid
    row_of = inst.row_of
    jobs = [*small, *assignment]
    classes = np.zeros(len(jobs), dtype=np.int64)  # 0: a small job
    classes[len(jobs) - len(assignment):] = list(assignment.values())
    rows = np.array([row_of[j] for j in jobs], dtype=np.intp)
    width = np.ones(len(jobs), dtype=np.int64)
    for c, f in enumerate(CLASS_HEIGHTS, start=1):
        if (sel := classes == c).any():
            width[sel] = gammas(a[rows[sel]], f * d, q)
    dur = a[rows, width - 1]
    ids = int_array(jobs)
    order = np.lexsort((ids, -dur))  # decreasing duration, ties by job id
    ids, width, dur = ids[order], width[order], dur[order]
    exact = a.dtype == object or sum(a[:, 0].tolist()) >= 1 << 62
    free = np.zeros(inst.m, dtype=object if exact else np.int64)
    first, start = [], []
    for k, t in zip(width.tolist(), dur.tolist()):
        w = window_max(free, k)
        i = int(w.argmin())
        s = w.item(i)
        free[i : i + k] = s + t
        first.append(i)
        start.append(s)
    start = np.array(start, dtype=free.dtype)
    makespan = Fraction(int((start + dur).max()) if len(jobs) else 0, q)
    ints = (ids, np.array(first, dtype=np.int64), width, start, dur)
    return Schedule.of_ints(q, ints, makespan)

"""List schedule of the knapsack's allotment, the solver's first construction.

At an accepted guess d each big job gets its canonical machine count at the
height of its knapsack class (d, (4/7)d or (3/7)d), each small job one
machine.  Jobs are placed by decreasing duration, ties by job id, each on the
contiguous window of machines whose latest free time is smallest (lowest
first machine on ties), starting at that time.  The skyline of free times is
kept in grid numerators, so every start is an exact integer sum: int64 while
the one-machine total sum(A[j,0]), which bounds every free time, is below
2^62, exact ints (numpy object dtype) otherwise.  Fractions are made once per
job at the end.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

import numpy as np

from .mckp import CLASS_HEIGHTS
from .model import Instance, PlacedJob, Schedule, gammas


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
    their class allotments and the small jobs on one machine each."""
    q, a = inst.grid
    row_of = inst.row_of
    width = dict.fromkeys(small, 1)
    for c, f in enumerate(CLASS_HEIGHTS, start=1):
        ids = [j for j, cls in assignment.items() if cls == c]
        if ids:
            width.update(zip(ids, gammas(a[[row_of[j] for j in ids]], f * d, q).tolist()))
    order = sorted((-a.item(row_of[j], k - 1), j, k) for j, k in width.items())
    exact = a.dtype == object or sum(a[:, 0].tolist()) >= 1 << 62
    free = np.zeros(inst.m, dtype=object if exact else np.int64)
    placed = []
    for neg, j, k in order:
        w = window_max(free, k)
        i = int(w.argmin())
        start = w.item(i)
        free[i : i + k] = start - neg
        placed.append((j, i, k, start, -neg))
    placements = tuple(
        PlacedJob(j, i, k, Fraction(s, q), Fraction(t, q)) for j, i, k, s, t in placed
    )
    return Schedule(placements, Fraction(max((s + t for *_, s, t in placed), default=0), q))

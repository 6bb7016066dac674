"""Shared fixture builders for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from moldsched import Instance, Job, rat
from moldsched.mckp import MckpItems
from moldsched.model import int_matrix


def job(job_id, *times) -> Job:
    return Job(job_id, tuple(rat(t) for t in times))


def const_work_job(job_id: int, w, m: int) -> Job:
    """t(j,k) = w/k: the extreme of both monotonies (work constant)."""
    w = rat(w)
    return Job(job_id, tuple(w / k for k in range(1, m + 1)))


def instance(m, *jobs) -> Instance:
    return Instance(m, tuple(jobs))


def random_monotone_job(rng: random.Random, job_id: int, m: int, hi: int = 400) -> Job:
    """Monotone time vector over denominator 100, independent of moldsched.gen."""
    v = rng.randint(1, hi)
    nums = [v]
    for k in range(2, m + 1):
        lo = -((-(k - 1) * v) // k)
        v = rng.randint(lo, v)
        nums.append(v)
    return Job(job_id, tuple(Fraction(x, 100) for x in nums))


def random_instance(rng: random.Random, n: int, m: int) -> Instance:
    return Instance(m, tuple(random_monotone_job(rng, i + 1, m) for i in range(n)))


def items_of(rows, ids=None) -> MckpItems:
    """Knapsack items from rows of three (integer cost, size) options, None
    for a class the job cannot meet; costs are int64 while 3*max fits 2^59,
    as a grid's are, else exact ints.  Job ids default to 1..n."""
    n = len(rows)
    opts = [[opt or (0, 0) for opt in row] for row in rows]
    return MckpItems(
        list(range(1, n + 1)) if ids is None else list(ids),
        int_matrix([[c for c, _ in row] for row in opts], 3),
        np.array([[s for _, s in row] for row in opts], dtype=np.int64).reshape(n, 3),
        np.array([[opt is not None for opt in row] for row in rows], dtype=bool).reshape(n, 3),
    )


def options(items: MckpItems) -> list[list]:
    """Each item's three options as (cost, size) pairs, None where unavailable."""
    return [
        [(c, s) if ok else None for c, s, ok in zip(*row)]
        for row in zip(items.cost.tolist(), items.size2.tolist(), items.avail.tolist())
    ]

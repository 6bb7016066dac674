"""Core domain types and exact arithmetic for monotone moldable job scheduling.

Every time, work and makespan guess in this package is exact.  An instance
holds its times as integers over a common denominator Q, the n x m matrix A
of ``Instance.grid`` (int64 while it fits, else Python ints): t(j,k) =
A[j,k-1]/Q.  The decision path runs on A as integer array compares, since
t <= h iff A <= floor(h*Q).  Fractions appear at the API boundary
(``Job.times``, guesses, shelves, schedules); floats only in timing and plots.

The stretch constant ``LAMBDA_STAR_UPPER`` is a Fraction literal, equal to
``lambda_star()`` at its default tolerance; only calling ``lambda_star``
needs mpmath.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Iterable, Optional, Union

import numpy as np

RatLike = Union[Fraction, int, str, float]


def rat(value: RatLike) -> Fraction:
    """Coerce a value to an exact rational.

    Strings accept both "p/q" and decimal forms ("6.01" -> 601/100).  Floats
    are converted through their decimal literal (``str``) so that ``rat(6.01)``
    means 601/100 rather than the nearest binary double.  A bool is not a
    number here and raises TypeError, so a JSON ``true`` is never read as 1.
    """
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


# Stretch factors used by the repair phase.  The branch taken depends on the
# number q of idle shelf-1 machines; each branch guarantees makespan <= lam*d.
LAMBDA_Q0 = Fraction(10, 7)        # q == 0
LAMBDA_SMALL_Q = Fraction(13, 9)   # 0 < q <= m/6

# Jobs with t(j,1) <= SMALL_THRESHOLD_FRAC * d are "small" and scheduled
# greedily at the end; everything else goes through the knapsack partition.
SMALL_THRESHOLD_FRAC = Fraction(3, 7)


def lambda_star(tolerance: Fraction = Fraction(1, 10**6)) -> Fraction:
    """Rational strict upper bracket of the root of ln(x) = 3x - 4 near 1.4593.

    The worst-case stretch factor of the q > m/6 repair is the unique root of
    ln(x) = 3x - 4 in (1.4, 1.5).  Bisection on f(x) = ln(x) - 3x + 4 with
    high-precision evaluation returns the upper bracket endpoint, so the
    result lam always satisfies ln(lam) < 3*lam - 4, i.e. lam is strictly
    above the root, at distance at most ``tolerance``.
    """
    tolerance = Fraction(tolerance)
    if not Fraction(0) < tolerance < Fraction(1, 1000):
        raise ValueError(f"tolerance must be in (0, 1e-3), got {tolerance}")
    lo = Fraction(14, 10)
    hi = Fraction(15, 10)
    if not (_log_gap_sign(lo) > 0 > _log_gap_sign(hi)):
        raise AssertionError("bisection bracket lost its sign change")
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if _log_gap_sign(mid) < 0:
            hi = mid
        else:
            lo = mid
    return hi


def _log_gap_sign(x: Fraction) -> int:
    """Sign of ln(x) - 3x + 4, evaluated with 60 significant digits."""
    import mpmath

    with mpmath.workdps(60):
        val = mpmath.log(mpmath.mpf(x.numerator) / x.denominator) - 3 * x + 4
        return int(mpmath.sign(val))


# lambda_star() at the default tolerance: strictly above the root, so the
# q > m/6 repair is guaranteed to succeed when run at this stretch.
LAMBDA_STAR_UPPER = Fraction(956383, 655360)


# Totals up to 2^59 keep every int64 sum of the knapsack DP below 2^61.
_INT64_SAFE_TOTAL = 1 << 59


class Times(Sequence):
    """Read-only view of a numerator row: item k-1 is Fraction(row[k-1], q).
    It compares and hashes like the tuple of those Fractions."""

    __slots__ = ("_row", "_q")

    def __init__(self, row: np.ndarray, q: int) -> None:
        self._row, self._q = row, q

    def __len__(self) -> int:
        return len(self._row)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(Fraction(a, self._q) for a in self._row[k].tolist())
        return Fraction(int(self._row[k]), self._q)

    def __iter__(self):
        return (Fraction(a, self._q) for a in self._row.tolist())

    def __eq__(self, other):
        return tuple(self) == tuple(other) if isinstance(other, (tuple, Times)) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def strings(self) -> list[str]:  # str() of each time, without building Fractions
        q = self._q
        return [f"{a // g}/{q // g}" if (g := math.gcd(a, q)) != q else str(a // g)
                for a in self._row.tolist()]


@dataclass(frozen=True)
class Job:
    """A moldable job: ``times[k-1]`` is its execution time on k machines."""

    id: int
    times: Sequence[Fraction]  # a tuple, or a Times view for generated jobs


@dataclass(frozen=True)
class Instance:
    """m identical machines and a set of moldable jobs.

    Jobs are expected to satisfy time monotony (t non-increasing in k) and
    work monotony (k*t(j,k) non-decreasing in k); use :func:`validate_instance`
    to check, construction does not enforce it.
    """

    m: int
    jobs: tuple[Job, ...]

    @cached_property
    def grid(self) -> tuple[int, np.ndarray]:
        """(Q, A) with t(j,k) = A[j,k-1]/Q exactly, rows in job order."""
        return numerators(self.jobs, self.m)

    @cached_property
    def by_id(self) -> dict[int, Job]:
        return {j.id: j for j in self.jobs}

    @cached_property
    def row_of(self) -> dict[int, int]:  # job id -> its row in the grid
        return {j.id: i for i, j in enumerate(self.jobs)}

    def job(self, job_id: int) -> Job:
        return self.by_id[job_id]

    @property
    def n(self) -> int:
        return len(self.jobs)


@dataclass(frozen=True)
class JobClassification:
    """Partition of jobs into small and big relative to a makespan guess d.

    ``ws`` is the total one-machine work of the small jobs; the knapsack
    budget for big jobs is m*d - ws.
    """

    small: frozenset[int]
    big: frozenset[int]
    ws: Fraction


@dataclass(frozen=True)
class InstanceViolation:
    job_id: int
    k: int
    kind: str  # "length" | "positive" | "time-monotony" | "work-monotony" | "duplicate-id"


@dataclass(frozen=True)
class PlacedJob:
    """Final placement: a contiguous machine interval and a start time."""

    job_id: int
    first_machine: int
    width: int
    start: Fraction
    duration: Fraction

    @property
    def end(self) -> Fraction:
        return self.start + self.duration

    @property
    def machines(self) -> range:
        return range(self.first_machine, self.first_machine + self.width)


@dataclass(frozen=True)
class Schedule:
    placements: tuple[PlacedJob, ...]
    makespan: Fraction


def numerators(jobs: Sequence[Job], m: int) -> tuple[int, np.ndarray]:
    """The grid of the jobs' times: the rows of their Times views when these
    share one q, else Q is the lcm of every denominator."""
    if len(qs := {getattr(j.times, "_q", None) for j in jobs}) == 1 and None not in qs:
        return qs.pop(), int_matrix([j.times._row for j in jobs], m)
    dens = {t.denominator for j in jobs for t in j.times}
    q = math.lcm(*dens)
    up = {den: q // den for den in dens}
    return q, int_matrix([[t.numerator * up[t.denominator] for t in j.times] for j in jobs], m)


def int_matrix(rows: list[list[int]], m: int) -> np.ndarray:
    """Read-only n x m matrix: int64 while m*max|a| <= 2^59, else exact ints."""
    try:
        a = np.array(rows, dtype=np.int64).reshape(len(rows), m)
        if a.size and max(int(a.max()), -int(a.min())) * m > _INT64_SAFE_TOTAL:
            raise OverflowError
    except OverflowError:
        a = np.array(rows, dtype=object).reshape(len(rows), m)
    a.setflags(write=False)
    return a


def make_schedule(placements: Iterable[PlacedJob]) -> Schedule:
    placements = tuple(placements)
    makespan = max((p.end for p in placements), default=Fraction(0))
    return Schedule(placements, makespan)


def work(job: Job, k: int) -> Fraction:
    """Work (area) of the job on k machines: k * t(j,k)."""
    if not 1 <= k <= len(job.times):
        raise ValueError(f"k={k} out of range 1..{len(job.times)} for job {job.id}")
    return job.times[k - 1] * k


def gamma(job: Job, h: Fraction, m: Optional[int] = None) -> Optional[int]:
    """Canonical number of machines: smallest k with t(j,k) <= h.

    Returns None when the job cannot finish within h even on all m machines.
    Binary search over k is valid because times are non-increasing in k.
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    times = job.times
    mm = len(times) if m is None else m
    if not 1 <= mm <= len(times):
        raise ValueError(f"m={mm} out of range for job {job.id}")
    if times[mm - 1] > h:
        return None
    lo, hi = 1, mm
    while lo < hi:
        mid = (lo + hi) // 2
        if times[mid - 1] <= h:
            hi = mid
        else:
            lo = mid + 1
    return lo


def validate_instance(inst: Instance) -> list[InstanceViolation]:
    """Collect every monotony / positivity / shape violation; empty means ok.
    Values are checked as array compares on the grid of the jobs of length m."""
    full = [job for job in inst.jobs if len(job.times) == inst.m]
    _, a = inst.grid if len(full) == inst.n else numerators(full, inst.m)
    bad = np.zeros(a.shape + (3,), dtype=bool)
    bad[..., 0] = a <= 0
    bad[:, 1:, 1] = a[:, 1:] > a[:, :-1]
    bad[:, 1:, 2] = np.arange(2, inst.m + 1) * a[:, 1:] < np.arange(1, inst.m) * a[:, :-1]
    kinds = ("positive", "time-monotony", "work-monotony")
    out: list[InstanceViolation] = []
    seen: set[int] = set()
    rows = iter(bad)  # an m x 3 violation mask per job of length m
    for job in inst.jobs:
        if job.id in seen:
            out.append(InstanceViolation(job.id, 0, "duplicate-id"))
        seen.add(job.id)
        if len(job.times) != inst.m:
            out.append(InstanceViolation(job.id, len(job.times), "length"))
            continue
        for c, kind in zip(*(ix.tolist() for ix in np.nonzero(next(rows)))):
            out.append(InstanceViolation(job.id, c + 1, kinds[kind]))
    return out


def classify_jobs(inst: Instance, d: Fraction) -> JobClassification:
    """Split jobs at the small-job threshold t(j,1) <= (3/7)*d (ties small)."""
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    q, a = inst.grid
    is_small = (a[:, 0] <= math.floor(SMALL_THRESHOLD_FRAC * d * q)).tolist()
    ids = [job.id for job in inst.jobs]
    ws = Fraction(sum(compress(a[:, 0].tolist(), is_small)), q)
    big = frozenset(compress(ids, [not s for s in is_small]))
    return JobClassification(frozenset(compress(ids, is_small)), big, ws)

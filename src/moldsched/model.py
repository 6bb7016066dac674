"""Core domain types and exact arithmetic for monotone moldable job scheduling.

Every time value, work value, and makespan guess in this package is an exact
rational (``fractions.Fraction``).  The solver branches on comparisons such as
``t(j,1) <= (3/7)*d`` and ``q <= m/6``; doing these in floating point would
make results depend on rounding, so all decision arithmetic is exact.  Floats
appear only in wall-clock timing and plotting.

The stretch constant ``LAMBDA_STAR_UPPER`` is a Fraction literal, equal to
``lambda_star()`` at its default tolerance; only calling ``lambda_star``
needs mpmath.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Union

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


@dataclass(frozen=True)
class Job:
    """A moldable job: ``times[k-1]`` is its execution time on k machines."""

    id: int
    times: tuple[Fraction, ...]


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
    def by_id(self) -> dict[int, Job]:
        return {j.id: j for j in self.jobs}

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
    """Collect every monotony / positivity / shape violation; empty means ok."""
    out: list[InstanceViolation] = []
    seen: set[int] = set()
    for job in inst.jobs:
        if job.id in seen:
            out.append(InstanceViolation(job.id, 0, "duplicate-id"))
        seen.add(job.id)
        if len(job.times) != inst.m:
            out.append(InstanceViolation(job.id, len(job.times), "length"))
            continue
        for k in range(1, inst.m + 1):
            t = job.times[k - 1]
            if t <= 0:
                out.append(InstanceViolation(job.id, k, "positive"))
            if k >= 2:
                prev = job.times[k - 2]
                if t > prev:
                    out.append(InstanceViolation(job.id, k, "time-monotony"))
                if k * t < (k - 1) * prev:
                    out.append(InstanceViolation(job.id, k, "work-monotony"))
    return out


def classify_jobs(inst: Instance, d: Fraction) -> JobClassification:
    """Split jobs at the small-job threshold t(j,1) <= (3/7)*d (ties small)."""
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    threshold = SMALL_THRESHOLD_FRAC * d
    small: set[int] = set()
    big: set[int] = set()
    ws = Fraction(0)
    for job in inst.jobs:
        if job.times[0] <= threshold:
            small.add(job.id)
            ws += job.times[0]
        else:
            big.add(job.id)
    return JobClassification(frozenset(small), frozenset(big), ws)

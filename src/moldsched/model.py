"""Core domain types and exact arithmetic for monotone moldable job scheduling.

Every time, work and makespan guess in this package is exact.  An instance
holds its times as integers over a common denominator Q, the n x m matrix A
of ``Instance.grid`` (int64 while it fits, else Python ints): t(j,k) =
A[j,k-1]/Q.  The solver reads times only from the grid, by integers, as t
<= h iff A <= floor(h*Q): each canonical machine count is one search over the
grid's row keys (``gammas``; ``gamma`` counts one job).  A ``Schedule`` is
given as PlacedJobs with Fraction times, or in integer form (one denominator
and integer columns, the form of every solver schedule), whose PlacedJobs are
made on first read; ``Schedule.columns`` reads both as integers over one
scale (``common_scale``), and ``ratio_strings`` writes such integers as "p/q".
Fractions appear at the API boundary (``Job.times``, guesses, placements);
floats only in timing and plots.

The stretch constant ``LAMBDA_STAR_UPPER`` is a Fraction literal: a strict
upper bracket of the root of ln(x) = 3x - 4 near 1.4593, within 10^-6.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count
from typing import NamedTuple, Optional, Union

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


# The worst-case stretch of the q > m/6 repair is the root of ln(x) = 3x - 4
# in (1.4, 1.5); this upper bracket of it (by bisection to within 10^-6) is
# strictly above the root, so that repair is guaranteed to succeed at it.
LAMBDA_STAR_UPPER = Fraction(956383, 655360)


# Totals up to 2^59 keep every int64 sum of the knapsack DP below 2^61.
_INT64_SAFE_TOTAL = 1 << 59
# A schedule's L may be this many bits wider than its widest denominator.
_LCM_MARGIN_BITS = 64


class Times(Sequence):
    """Read-only view of a grid row: item k-1 is Fraction(row[k-1], q).
    It compares and hashes like the tuple of those Fractions.  A view that
    ``Instance.of_grid`` made also knows its grid and row, so ``numerators``
    reads one time of each of many views by one fancy index."""

    __slots__ = ("_row", "_q", "_grid", "_at")

    def __init__(self, row: np.ndarray, q: int, grid: Optional[np.ndarray] = None, at=0) -> None:
        self._row, self._q, self._grid, self._at = row, q, grid, at

    def __len__(self) -> int:
        return len(self._row)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(Fraction(a, self._q) for a in self._row[k].tolist())
        return Fraction(self._row.item(k), self._q)

    def __iter__(self):
        return (Fraction(a, self._q) for a in self._row.tolist())

    def __eq__(self, other):
        return tuple(self) == tuple(other) if isinstance(other, (tuple, Times)) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def ratio(self, i: int) -> tuple[int, int]:
        """Item i as the integer pair (numerator, q), without a Fraction."""
        return self._row.item(i), self._q

    @staticmethod
    def numerators(views: Sequence, k: np.ndarray) -> Optional[tuple[np.ndarray, int]]:
        """(numerators of views[i][k[i] - 1], q) when every view is a row of one grid, else None."""
        try:  # AttributeError: a view that is not a Times
            grid = views[0]._grid if len(views) else None
            rows = np.array([v._at for v in views if v._grid is grid], dtype=np.intp)
        except AttributeError:
            return None
        return None if grid is None or len(rows) < len(views) else (grid[rows, k - 1], views[0]._q)

    def strings(self) -> list[str]:  # str() of each time
        return ratio_strings(self._row, self._q)


@dataclass(frozen=True)
class Job:
    """A moldable job: ``times[k-1]`` is its execution time on k machines."""

    id: int
    times: Sequence[Fraction]  # a tuple, or a Times view of a grid row


@dataclass(frozen=True)
class Instance:
    """m identical machines and a set of moldable jobs.

    Jobs are expected to satisfy time monotony (t non-increasing in k) and
    work monotony (k*t(j,k) non-decreasing in k); use :func:`validate_instance`
    to check; construction refuses only m < 1.  The grid is the one
    ``of_grid`` seeded, else ``ratio_grid`` of the jobs' times.
    """

    m: int
    jobs: tuple[Job, ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be at least 1, got {self.m}")

    @classmethod
    def of_grid(cls, m: int, ids: Sequence[int], q: int, a: np.ndarray) -> Instance:
        """The instance whose grid is (q, a): row i holds the numerators of
        job ids[i], whose times are a Times view of that row."""
        if a.shape != (len(ids), m):
            raise ValueError(f"grid shape {a.shape} is not (n, m) = {(len(ids), m)}")
        a = a.view()
        a.setflags(write=False)
        inst = cls(m, tuple(Job(i, Times(row, q, a, r)) for r, (i, row) in enumerate(zip(ids, a))))
        inst.__dict__["grid"] = (q, a)  # seeds the cached property
        return inst

    @cached_property
    def grid(self) -> tuple[int, np.ndarray]:
        """(Q, A) with t(j,k) = A[j,k-1]/Q, rows in job order: ``of_grid``'s or
        ``ratio_grid``'s of the times; ValueError names a job not m times long."""
        if bad := next((j for j in self.jobs if len(j.times) != self.m), None):
            raise ValueError(f"job {bad.id} has {len(bad.times)} times, not m = {self.m}")
        return ratio_grid([[t.as_integer_ratio() for t in j.times] for j in self.jobs], self.m)

    @cached_property
    def by_id(self) -> dict[int, Job]:
        return {j.id: j for j in self.jobs}

    @cached_property
    def ids(self) -> tuple[int, ...]:  # the job ids in row order
        return tuple(j.id for j in self.jobs)

    @cached_property
    def row_of(self) -> dict[int, int]:  # job id -> its row in the grid
        return {job_id: i for i, job_id in enumerate(self.ids)}

    @property
    def n(self) -> int:
        return len(self.jobs)


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


class Schedule:
    """Placements and a makespan, given as PlacedJobs or in integer form.

    The integer form (``Schedule.of_ints``) is one denominator ``scale`` and
    the columns ``ints`` = (job_id, first_machine, width, start, duration),
    one entry per placement, with start and duration in units of 1/scale;
    each column is int64 with every |x| < 2^62, so that the sum of two stays
    exact (as ``int_array`` builds them), or object dtype holding ints; its
    PlacedJobs are built on the first read of ``placements``.  ``columns``
    reads either form one way.  Equality, hash and repr are those of
    (placements, makespan) in either form.
    """

    __slots__ = ("_placements", "makespan", "scale", "ints")

    def __init__(self, placements: tuple[PlacedJob, ...], makespan: Fraction) -> None:
        self._fill(placements, makespan, None, None)

    @classmethod
    def of_ints(cls, scale: int, ints: tuple[np.ndarray, ...], makespan: Fraction) -> Schedule:
        if any(c.dtype not in (np.int64, object) for c in ints):  # the bound is the caller's
            raise TypeError(f"columns must be int64 or object, got {[c.dtype for c in ints]}")
        for column in ints:
            column.setflags(write=False)
        sched = cls.__new__(cls)
        sched._fill(None, makespan, scale, ints)
        return sched

    def _fill(self, placements, makespan, scale, ints) -> None:
        for name, value in zip(self.__slots__, (placements, makespan, scale, ints)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Schedule is read-only: cannot set {name!r}")

    def __reduce__(self):  # pickled as given by its placements
        return Schedule, (self.placements, self.makespan)

    def columns(self) -> tuple[Optional[int], tuple[np.ndarray, ...]]:
        """(L, (job_id, first_machine, width, start, duration)) as arrays,
        times in units of 1/L: the integer form's scale and ints, else L =
        ``common_scale`` of the times, and when it is None the times as given."""
        if self.ints is not None:
            return self.scale, self.ints
        ps = self.placements
        starts, durations = [p.start for p in ps], [p.duration for p in ps]
        scale = common_scale(starts + durations)
        times = (np.array(xs, dtype=object) if scale is None else
                 int_array([x.numerator * (scale // x.denominator) for x in xs])
                 for xs in (starts, durations))
        return scale, (int_array([p.job_id for p in ps]), int_array([p.first_machine for p in ps]),
                       int_array([p.width for p in ps]), *times)

    @property
    def placements(self) -> tuple[PlacedJob, ...]:
        if self._placements is None:
            q = self.scale
            object.__setattr__(self, "_placements", tuple(
                PlacedJob(j, i, k, Fraction(s, q), Fraction(t, q))
                for j, i, k, s, t in zip(*(c.tolist() for c in self.ints))
            ))
        return self._placements

    def __eq__(self, other):
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.makespan == other.makespan and self.placements == other.placements

    def __hash__(self) -> int:
        return hash((self.placements, self.makespan))

    def __repr__(self) -> str:
        return f"Schedule(placements={self.placements!r}, makespan={self.makespan!r})"


def ratio_grid(rows: list | np.ndarray, m: int) -> tuple[int, np.ndarray]:
    """The grid of n rows of m times p/q, q > 0, as rows of pairs (p, q) or an
    int64 array of rows p1, q1, p2, ...: Q is the lcm of the reduced
    denominators, so unreduced pairs give the same grid.  It is computed in
    int64 when Q and every p*(Q/q) are below 2^62, else in exact ints."""
    pairs = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
    p, q = np.moveaxis(pairs.reshape(len(rows), m, 2), 2, 0)
    dens = set(q.flat) if q.dtype == object else np.unique(q).tolist()  # np.unique sorts objects
    big = math.lcm(*dens)
    top = max(int(p.max(initial=0)), -int(p.min(initial=0))) * (big // min(dens, default=1))
    dtype = object if big >> 62 or top >> 62 else np.int64
    scaled = p.astype(dtype) * (big // q.astype(dtype))
    g = int(np.gcd.reduce(scaled, axis=None, initial=big))  # 1 when every pair is reduced
    if g > 1:
        big //= g
        scaled //= g
    return big, int_matrix(scaled, m)


def int_array(values) -> np.ndarray:
    """values as an int64 array while every |x| < 2^62, so that the sum of
    two stays exact, else as exact ints."""
    try:
        a = np.array(values, dtype=np.int64)
        if a.size and (int(a.max()) >= 1 << 62 or int(a.min()) <= -(1 << 62)):
            raise OverflowError
    except OverflowError:
        a = np.array(values, dtype=object)
    return a


def int_matrix(rows: list[list[int]] | np.ndarray, m: int) -> np.ndarray:
    """Read-only n x m matrix: int64 while m*max|a| <= 2^59, else exact ints."""
    try:
        a = np.array(rows, dtype=np.int64).reshape(len(rows), m)
        if a.size and max(int(a.max()), -int(a.min())) * m > _INT64_SAFE_TOTAL:
            raise OverflowError
    except OverflowError:
        a = np.array(rows, dtype=object).reshape(len(rows), m)
    a.setflags(write=False)
    return a


def ratio_strings(a: np.ndarray, q: int) -> list[str]:
    """str(Fraction(x, q)) of each x of the integer array a, q > 0, by one np.gcd."""
    if q >> 63:  # past int64: the gcd in exact ints
        a = a.astype(object)
    g = np.gcd(a, q)
    nums, dens = (a // g).tolist(), (q // g).tolist()
    return [f"{p}/{d}" if d != 1 else str(p) for p, d in zip(nums, dens)]


def common_scale(times: Sequence) -> Optional[int]:
    """L, the lcm of the times' denominators, or None when a time is not an
    int or a Fraction, or when L would be more than _LCM_MARGIN_BITS wider
    than the widest denominator.  L is built one denominator at a time,
    widest first, so a cap that is passed stops it early."""
    if not {type(x) for x in times} <= {int, Fraction}:
        return None
    dens = sorted({x.denominator for x in times}, reverse=True)
    scale = dens[0] if dens else 1
    cap = scale.bit_length() + _LCM_MARGIN_BITS
    for den in dens:
        if scale % den:
            scale = math.lcm(scale, den)
            if scale.bit_length() > cap:
                return None
    return scale


def gamma(inst: Instance, job_id: int, h: Fraction) -> Optional[int]:
    """Canonical number of machines: smallest k with t(j,k) <= h.

    Returns None when the job cannot finish within h even on all m machines.
    No solver path calls it (they count with ``gammas``); it stays for the
    tests and for the benchmark tracer's ``mckp.gamma``/``shelf.gamma``.
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    q, a = inst.grid
    row = inst.row_of[job_id]
    g = int(gammas(row_keys(a[row : row + 1]), np.zeros(1, dtype=np.intp), (h,), q)[0, 0])
    return g if g <= inst.m else None


class RowKeys(NamedTuple):  # a grid's search keys, see row_keys
    keys: np.ndarray  # int64 while n*span < 2^62, else exact ints
    span: int
    m: int


def row_keys(a: np.ndarray) -> RowKeys:
    """The search keys of the n x m grid a of positive numerators: with
    top = max(A) and span = top + 1, row r's keys r*span + top - A[r,k-1]
    for k = 1..m, row after row in one flat array.  Row r's keys lie in
    [r*span, r*span + top] and ascend in k on a time-monotone row."""
    n, m = a.shape
    top = int(a.max(initial=0))
    dtype = np.int64 if n * (top + 1) < 1 << 62 else object
    first = np.arange(n, dtype=dtype) * (top + 1) + top
    return RowKeys((first[:, None] - a).astype(dtype, copy=False).ravel(), top + 1, m)


def gammas(keys: RowKeys, rows: np.ndarray, heights: Sequence[Fraction], q: int) -> np.ndarray:
    """gamma(j, h) of each grid row in rows (intp) at each height over Q = q,
    a len(rows) x len(heights) array, m+1 where there is none.

    One searchsorted counts them all: the first key of row r at or above
    r*span + top - min(floor(h*Q), top) is at the smallest k with t(j,k) <=
    h when the times are non-increasing in k.  On other rows a k <= m still
    has t(j,k) <= h (binary search ends only on a key at or above its
    query), though not always the smallest.  Later rows' keys exceed every
    query of row r, so no search passes the next row's first key: k <= m+1.
    """
    top, dtype = keys.span - 1, keys.keys.dtype
    thr = np.array([top - min(h.numerator * q // h.denominator, top) for h in heights], dtype=dtype)
    at = np.searchsorted(keys.keys, (rows.astype(dtype) * keys.span)[:, None] + thr)
    return at - rows[:, None] * keys.m + 1


def validate_instance(inst: Instance) -> list[InstanceViolation]:
    """Collect every monotony / positivity / shape violation; empty means ok.
    Values are checked as array compares on the grid of the jobs of length m."""
    full = [job for job in inst.jobs if len(job.times) == inst.m]
    _, a = (inst if len(full) == inst.n else Instance(inst.m, tuple(full))).grid
    checks = [a <= 0, a[:, 1:] > a[:, :-1]]  # one per kind, over k = 1..m or 2..m
    if len(a):  # the m-1 weights only for rows to weigh: m may be huge with no jobs
        checks.append(np.arange(2, inst.m + 1) * a[:, 1:] < np.arange(1, inst.m) * a[:, :-1])
    kinds = ("positive", "time-monotony", "work-monotony")
    found: dict[int, list[InstanceViolation]] = {}  # grid row -> its violations
    if any(hit.any() for hit in checks):  # interleave them only when one has a hit
        bad = np.zeros(a.shape + (3,), dtype=bool)
        for kind, hit in enumerate(checks):
            bad[:, a.shape[1] - hit.shape[1]:, kind] = hit
        hits = np.unravel_index(np.flatnonzero(bad), bad.shape)  # (row, k-1, kind), C order
        for r, c, kind in zip(*(ix.tolist() for ix in hits)):
            found.setdefault(r, []).append(InstanceViolation(full[r].id, c + 1, kinds[kind]))
    out: list[InstanceViolation] = []
    seen: set[int] = set()
    rows = count()  # the grid row of each job of length m
    for job in inst.jobs:
        if job.id in seen:
            out.append(InstanceViolation(job.id, 0, "duplicate-id"))
        seen.add(job.id)
        if len(job.times) != inst.m:
            out.append(InstanceViolation(job.id, len(job.times), "length"))
            continue
        out += found.get(next(rows), ())
    return out


def classify_jobs(inst: Instance, d: Fraction) -> tuple[np.ndarray, Fraction]:
    """The small rows' mask, t(j,1) <= (3/7)*d (ties small), and their work ws."""
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    q, a = inst.grid
    is_small = a[:, 0] <= small_cap(d, q)
    return is_small, Fraction(sum(a[is_small, 0].tolist()), q)


def small_cap(d: Fraction, q: int) -> int:
    """floor((3/7)*d*Q): a job is small at d iff its A[j,0] is at most this."""
    return SMALL_THRESHOLD_FRAC.numerator * d.numerator * q // (
        SMALL_THRESHOLD_FRAC.denominator * d.denominator)

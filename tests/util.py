"""Shared fixture builders for the test suite."""

from __future__ import annotations

import functools
import math
import random
import sys
import tempfile
from fractions import Fraction
from itertools import compress

import numpy as np

from moldsched import Instance, Job, PlacedJob, Reject, Schedule, driver, model, rat
from moldsched.listsched import window_max
from moldsched.mckp import CLASS_HEIGHTS, MckpItems, build_items, solve_mckp
from moldsched.model import RowKeys, classify_jobs, gamma, int_array, int_matrix, row_keys


@functools.cache
def _hypothesis_home() -> tempfile.TemporaryDirectory:
    return tempfile.TemporaryDirectory(prefix="hypothesis-")


def property_settings(**overrides):
    """Settings of a deterministic Hypothesis test: derandomized, with no
    example database and no deadline.  Hypothesis caches what it reads
    (unicode tables, the code's constants) in its home directory,
    ./.hypothesis unless set: here one temporary directory, removed at exit,
    so a run leaves no .hypothesis/ behind."""
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir

    set_hypothesis_home_dir(_hypothesis_home().name)
    return settings(derandomize=True, database=None, deadline=None, **overrides)


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


def fraction_grid(obj: dict) -> tuple[int, np.ndarray]:
    """The reference grid of an instance file, read value by value: one rat
    per time, Q the lcm of their denominators, A[j,k-1] = t(j,k)*Q."""
    rows = [[rat(t).as_integer_ratio() for t in j["times"]] for j in obj["jobs"]]
    big = math.lcm(*(q for row in rows for _, q in row))
    return big, int_matrix([[p * (big // q) for p, q in row] for row in rows], obj["m"])


def int_schedule(scale: int, rows, makespan: int) -> Schedule:
    """A schedule in integer form: rows of (job, first machine, width, start,
    duration) with start, duration and makespan in units of 1/scale."""
    columns = [int_array(c) for c in zip(*rows)] if rows else [np.zeros(0, np.int64)] * 5
    return Schedule.of_ints(scale, tuple(columns), Fraction(makespan, scale))


def make_schedule(placements) -> Schedule:
    """A schedule given as PlacedJobs, its makespan their latest end."""
    placements = tuple(placements)
    return Schedule(placements, max((p.end for p in placements), default=Fraction(0)))


def fraction_schedule(scale: int, rows, makespan: int) -> Schedule:
    """The same schedule given as PlacedJobs with Fraction times."""
    placements = tuple(
        PlacedJob(j, i, k, Fraction(s, scale), Fraction(t, scale)) for j, i, k, s, t in rows
    )
    return Schedule(placements, Fraction(makespan, scale))


def grid_rows(sched: Schedule) -> tuple[int, list[tuple], int]:
    """(L, rows, makespan * L) of a schedule, L the lcm of its denominators."""
    ps = sched.placements
    scale = math.lcm(sched.makespan.denominator,
                     *(x.denominator for p in ps for x in (p.start, p.duration)))
    rows = [(p.job_id, p.first_machine, p.width, int(p.start * scale), int(p.duration * scale))
            for p in ps]
    return scale, rows, int(sched.makespan * scale)


def items_of(rows, ids=None) -> MckpItems:
    """Knapsack items from rows of three (integer cost, size) options, None
    for a class the job cannot meet; costs are int64 while 3*max fits 2^59,
    as a grid's are, else exact ints.  Job ids default to 1..n, on grid rows
    0..n-1; each available class has width 1, as no grid counts it."""
    n = len(rows)
    opts = [[opt or (0, 0) for opt in row] for row in rows]
    avail = np.array([[opt is not None for opt in row] for row in rows], dtype=bool).reshape(n, 3)
    return MckpItems(
        ids=list(range(1, n + 1)) if ids is None else list(ids),
        rows=np.arange(n, dtype=np.intp),
        width=avail.astype(np.int64),
        cost=int_matrix([[c for c, _ in row] for row in opts], 3),
        size2=np.array([[s for _, s in row] for row in opts], dtype=np.int64).reshape(n, 3),
    )


def options(items: MckpItems) -> list[list]:
    """Each item's three options as (cost, size) pairs, None where unavailable."""
    return [
        [(c, s) if ok else None for c, s, ok in zip(*row)]
        for row in zip(items.cost.tolist(), items.size2.tolist(), items.avail.tolist())
    ]


def brute_mckp(items: MckpItems, m: int) -> tuple[int, ...] | None:
    """Exhaustive oracle over all 3^n class vectors; n <= 14 enforced.

    Returns the pick, or None when none fits, with the same tie-breaking as
    solve_mckp: minimum (cost, size), first such vector in lexicographic
    class order.
    """
    if len(items) > 14:
        raise ValueError(f"brute_mckp is capped at 14 items, got {len(items)}")
    opts = [[(cls, *o) for cls, o in enumerate(row, start=1) if o] for row in options(items)]
    if not all(opts):
        return None
    cap, n = 2 * m, len(items)
    # Admissible per-item lower bounds on the remaining cost let the DFS prune
    # without ever cutting an equal-cost branch (ties matter for size/lex).
    suffix_min = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix_min[j] = suffix_min[j + 1] + min(c for _, c, _ in opts[j])

    best: tuple[int, int] | None = None
    best_choice: list[int] | None = None
    choice = [0] * n

    def dfs(j: int, cost: int, size: int) -> None:
        nonlocal best, best_choice
        if size > cap:
            return
        if best is not None and cost + suffix_min[j] > best[0]:
            return
        if j == n:
            cand = (cost, size)
            if best is None or cand < best:
                best = cand
                best_choice = choice.copy()
            return
        for cls, c, s in opts[j]:
            choice[j] = cls
            dfs(j + 1, cost + c, size + s)

    dfs(0, 0, 0)
    return None if best_choice is None else tuple(best_choice)


def record_callers(monkeypatch, *names: str) -> dict[str, list[str]]:
    """Spy on the ``model`` functions of the given names wherever a package
    module binds them: each name's list gets the name of the function that
    called it, per call (a comprehension's frame counts as its function's)."""
    callers: dict[str, list[str]] = {name: [] for name in names}

    def recording(name, real):
        def wrapped(*args):
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame
                frame = frame.f_back
            callers[name].append(frame.f_code.co_name)
            return real(*args)
        return wrapped

    for name in names:
        real = getattr(model, name)
        for module in [sys.modules[mod] for mod in list(sys.modules) if mod.startswith("moldsched.")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, recording(name, real))
    return callers


def grid_keys(inst: Instance) -> RowKeys:
    """The row keys of the instance's grid, as a solve builds them."""
    return row_keys(inst.grid[1])


def items_for(inst: Instance, big, d: Fraction) -> MckpItems | Reject:
    """build_items over the jobs whose ids are in big, at a guess d."""
    small = np.array([job_id not in big for job_id in inst.ids], dtype=bool)
    return build_items(inst, grid_keys(inst), small, d)


def items_at(inst: Instance, d: Fraction) -> MckpItems:
    """The knapsack items of the big jobs at a guess d every job can meet."""
    items = items_for(inst, big_ids(inst, d), d)
    assert not isinstance(items, Reject)
    return items


def dp_assignment(inst: Instance, d: Fraction) -> dict[int, int]:
    """The DP's minimum-cost partition at an accepted d, job id -> class."""
    items = items_at(inst, d)
    return dict(zip(items.ids, solve_mckp(items, inst.m)))


def dp_shelves(inst: Instance, d: Fraction) -> tuple[Schedule, Fraction]:
    """The verified shelf schedule and stretch of the DP's minimum-cost
    partition at an accepted d, built as try_guess builds the accepting one."""
    return driver._shelves(inst, grid_keys(inst), d, dp_assignment(inst, d), {"verify": 0.0})


def small_ids(inst: Instance, d: Fraction) -> frozenset[int]:
    """The ids of the small jobs at d, from classify_jobs' row mask."""
    return frozenset(compress(inst.ids, classify_jobs(inst, d)[0].tolist()))


def big_ids(inst: Instance, d: Fraction) -> frozenset[int]:
    """The ids of the big jobs at d, the knapsack's jobs."""
    return frozenset(inst.ids) - small_ids(inst, d)


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
    if not (log_gap_sign(lo) > 0 > log_gap_sign(hi)):
        raise AssertionError("bisection bracket lost its sign change")
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if log_gap_sign(mid) < 0:
            hi = mid
        else:
            lo = mid
    return hi


def log_gap_sign(x: Fraction) -> int:
    """Sign of ln(x) - 3x + 4, evaluated with 60 significant digits."""
    import mpmath

    with mpmath.workdps(60):
        val = mpmath.log(mpmath.mpf(x.numerator) / x.denominator) - 3 * x + 4
        return int(mpmath.sign(val))


def allotment(inst: Instance, d: Fraction, assignment: dict[int, int]) -> np.ndarray:
    """The per-row machine counts of a partition at d, by the scalar gamma:
    each big job its canonical count at its class height, every other job 1."""
    width = np.ones(inst.n, dtype=np.int64)
    for job_id, c in assignment.items():
        width[inst.row_of[job_id]] = gamma(inst, job_id, CLASS_HEIGHTS[c - 1] * d)
    return width


def bisection_solve(inst: Instance, eps: Fraction = Fraction(1, 20)) -> driver.SolveResult:
    """``solve`` by a plain bisection that decides the sequential upper bound
    and then every probe with the knapsack, each verdict by ``_attempt``:
    the reference a solve that infers verdicts must match.  ``decided``
    counts those decisions."""
    eps = rat(eps)
    if not inst.jobs:
        return driver.solve(inst, eps)
    bounds = driver.initial_bounds(inst)
    lower, upper = bounds.lower, bounds.upper
    keys = grid_keys(inst)
    accepted = driver._attempt(inst, upper, keys)
    assert not isinstance(accepted, Reject), accepted
    iterations = 0
    while upper > (1 + eps) * lower:
        d = driver._geometric_mid(lower, upper)
        iterations += 1
        outcome = driver._attempt(inst, d, keys)
        if isinstance(outcome, Reject):
            lower = d
        else:
            upper, accepted = d, outcome
    items, verdict = accepted
    timings = {"mckp": 0.0}
    schedule, lam, construction, assignment = driver._construct(
        inst, keys, upper, items, verdict.pick, timings)
    return driver.SolveResult(
        schedule=schedule,
        accepted_d=upper,
        lambda_used=lam,
        makespan=schedule.makespan,
        iterations=iterations,
        decided=iterations + 1,
        timings=timings,
        certified_lower=lower,
        mckp_assignment=assignment,
        construction=construction,
        partition_by=verdict.by,
    )


def window_list_schedule(inst: Instance, width: np.ndarray) -> Schedule:
    """``list_schedule`` by one ``window_max`` over the skyline per job, at
    every allotment: the reference its one-machine heap must match."""
    q, a = inst.grid
    dur = a[np.arange(inst.n), width - 1]
    ids = int_array(inst.ids)
    order = np.lexsort((ids, -dur))
    ids, width, dur = ids[order], width[order], dur[order]
    exact = a.dtype == object or sum(dur.tolist()) >= 1 << 62
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
    makespan = Fraction(int((start + dur).max()) if inst.n else 0, q)
    return Schedule.of_ints(q, (ids, np.array(first, dtype=np.int64), width, start, dur), makespan)

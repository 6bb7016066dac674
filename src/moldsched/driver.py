"""Dual-approximation driver: binary search over the makespan guess.

For each guess d the knapsack decision either accepts (some class partition
of the big jobs fits the work budget) or certifies d < OPT.  The search needs
only these verdicts, which exact knapsack bounds mostly settle without the
DP.  An accept carries the partition that certified it, the greedy's or,
for a guess the bounds left open, the DP's, recounted in exact integers.
At the last accepted d the jobs are list-scheduled at that pick's
allotment: each big job on the machine count its item counted at its class
height, each job outside the partition (a small one) on one machine.  When
that verified schedule ends by 10/7*d it is returned and no shelves are
built.  Otherwise ``shelf.shelf_layout`` builds the certified fallback from
the same partition, picking its stretch lam, and the shelf schedule provably
ends by lam*d; the shorter of the two is returned.  ``lambda_used`` is the
smallest of 10/7, 13/9 and ``LAMBDA_STAR_UPPER`` whose bound the returned
schedule meets, which gives makespan <= lambda_used * (1 + eps) * OPT.
``try_guess`` is one round on its own: the verified shelves of the pick that
accepts its d.

The search decides a guess (``_attempt``) only when three exact facts leave
its verdict open.  (a) A guess at which every job is small accepts: its
knapsack is empty, and its budget m*d - W is >= 0 because d > lower >= W/m.
(b) On time- and work-monotone instances the verdict is monotone in d, as in
dual approximation (Hochbaum and Shmoys, J. ACM 1987): at a larger d every
class count, cost and size is weakly smaller, and a job that turns small
moves at least t(j,1) from cost to budget.  So every guess at or below a
decided reject rejects, and every guess at or above a decided accept
accepts.  (c) The returned guess is decided once, at the end, when its
verdict was inferred; the sequential upper bound is decided only then.
When at least m jobs are big at the lower bound, the work bound W/m is
likely tight: the last probe of a search in which every guess accepts is
decided first.  Its accept settles every probe, and the solve makes one
decision; its reject is the decided reject of (b), and the plain bisection
goes on.  Correctness does not rest on (b): an inferred reject lies below a
decided one, so ``certified_lower`` stays certified.  Only on non-monotone
input (which ``validate_instance`` reports and ``moldsched solve`` refuses
with exit 2) may the probes differ from those of a plain bisection.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Union

import numpy as np

from . import listsched, mckp, shelf
from .model import (
    LAMBDA_Q0,
    LAMBDA_SMALL_Q,
    LAMBDA_STAR_UPPER,
    Instance,
    RatLike,
    Schedule,
    classify_jobs,
    rat,
    small_cap,
)
from .verify import validate_schedule

log = logging.getLogger(__name__)


class SearchBounds(NamedTuple):
    lower: Fraction  # certified lower bound on OPT
    upper: Fraction  # guess with a known-feasible schedule


@dataclass
class SolveResult:
    schedule: Schedule
    accepted_d: Fraction
    lambda_used: Fraction
    makespan: Fraction
    iterations: int
    # The guesses decided by the knapsack (``_attempt``); the other
    # iterations' verdicts were inferred.
    decided: int = 0
    # Wall seconds: "mckp" is the whole search, rejected guesses and the DP
    # of every guess the bounds left open included; "list" is the accepted
    # pick's allotment and partition dict and the list schedule of that
    # allotment, "shelf" and "small" the fallback shelf build (0.0 when it
    # is skipped), "verify" every verification of a built schedule.
    timings: dict[str, float] = field(default_factory=dict)
    certified_lower: Fraction = Fraction(0)
    mckp_assignment: dict[int, int] = field(default_factory=dict)
    construction: str = "list"  # the returned schedule's: "list" or "shelf"
    # The certificate whose partition was built: "bound" (greedy) or "dp".
    partition_by: str = "bound"


LAMBDAS = (LAMBDA_Q0, LAMBDA_SMALL_Q, LAMBDA_STAR_UPPER)


def initial_bounds(inst: Instance) -> SearchBounds:
    """Trivial certified bounds: work/m and the fastest full-width job from
    below, the length of the one-machine sequential schedule from above."""
    q, a = inst.grid
    total_seq = Fraction(sum(a[:, 0].tolist()), q)
    lower = max(total_seq / inst.m, Fraction(max(a[:, inst.m - 1].tolist(), default=0), q))
    return SearchBounds(lower, total_seq)


def try_guess(inst: Instance, d: RatLike) -> Union[Schedule, mckp.Reject]:
    """One dual-approximation round: Reject (d < OPT), or the shelf schedule
    of the partition that accepted d (read by ``rat``), verified within lam*d."""
    d = rat(d)
    outcome = _attempt(inst, d, mckp.search(inst))
    if isinstance(outcome, mckp.Reject):
        return outcome
    items, verdict = outcome
    return _shelves(inst, d, dict(zip(items.ids, verdict.pick)), {"verify": 0.0})[0]


def _attempt(
    inst: Instance, d: Fraction, search: mckp.Search
) -> Union[tuple[mckp.MckpItems, mckp.Verdict], mckp.Reject]:
    """The knapsack decision for d: (the items, the accepting verdict with
    its pick) or Reject (d < OPT).  Raise ShelfInvariantError unless the
    pick, recounted in exact integers, is one available class of each item,
    fits 2m half-machines and costs the verdict's cost <= budget.  The
    verdict reads d only through floor(d*Q), floor((4/7)d*Q),
    floor((3/7)d*Q) and floor(m*d*Q) (ws*Q is an integer), so it is one
    verdict on each cell [a/L, (a+1)/L), L = 12*m*Q; keep it so."""
    small, ws = classify_jobs(inst, d)
    items = mckp.build_items(inst, search, small, d)
    if isinstance(items, mckp.Reject):
        log.debug("d=%s rejected: %s (job %s)", d, items.reason, items.job_id)
        return items
    budget = math.floor((inst.m * d - ws) * inst.grid[0])  # costs: work * Q
    verdict = mckp.decide(items, inst.m, budget)
    log.debug(
        "d=%s, unit 1/%d: %s by %s: cost %s, budget %s",
        d, inst.grid[0], verdict.reason or "accepted", verdict.by, verdict.cost, budget,
    )
    if verdict.reason is not None:
        return mckp.Reject(d, verdict.reason)
    totals = mckp.pick_totals(items, verdict.pick)
    if totals is None or totals[1] > 2 * inst.m or not totals[0] == verdict.cost <= budget:
        raise shelf.ShelfInvariantError(
            f"partition by {verdict.by} at d={d} fails its recount: "
            f"(cost, size2) {totals}, verdict cost {verdict.cost}, budget {budget}"
        )
    return items, verdict


def _shelves(
    inst: Instance, d: Fraction, assignment: dict[int, int], timings: dict[str, float]
) -> tuple[Schedule, Fraction]:
    """The shelf schedule of a partition and its stretch lam, verified within
    lam*d; the small jobs are the jobs outside the partition.  Adds its
    phase times to timings."""
    t0 = time.perf_counter()
    layout, lam = shelf.shelf_layout(inst, assignment, d)
    t1 = time.perf_counter()
    small = [j for j in inst.ids if j not in assignment]
    sched = shelf.add_small_jobs(layout, inst, small)
    t2 = time.perf_counter()
    _verify(inst, sched, d, "pipeline", lam)
    timings.update(shelf=t1 - t0, small=t2 - t1)
    timings["verify"] += time.perf_counter() - t2
    return sched, lam


def _verify(
    inst: Instance, sched: Schedule, d: Fraction, what: str, lam: Optional[Fraction] = None
) -> None:
    """Raise ShelfInvariantError unless sched is feasible, contiguous and,
    when lam is given, within lam*d."""
    report = validate_schedule(inst, sched, require_contiguous=True)
    if not report.ok() or (lam is not None and sched.makespan > lam * d):
        raise shelf.ShelfInvariantError(
            f"{what} output failed verification at d={d}: "
            + "; ".join(v.kind for v in report.violations)
        )


def _construct(
    inst: Instance,
    d: Fraction,
    items: mckp.MckpItems,
    pick: tuple[int, ...],
    timings: dict[str, float],
) -> tuple[Schedule, Fraction, str, dict[int, int]]:
    """The returned schedule at the accepted d, its stretch (the first of
    ``LAMBDAS`` it meets), construction and partition (job id -> class).

    The list schedule of the pick's allotment (item i on width[i, pick[i]-1]
    machines, every other row on one) is returned when it ends by 10/7*d;
    otherwise the shelves are built and the shorter of the two verified
    schedules wins, the list one on a tie.
    """
    t0 = time.perf_counter()
    assignment = dict(zip(items.ids, pick))
    width = np.ones(inst.n, dtype=np.int64)
    width[items.rows] = items.width[np.arange(len(items)), np.array(pick, dtype=np.intp) - 1]
    sched = listsched.list_schedule(inst, width)
    t1 = time.perf_counter()
    _verify(inst, sched, d, "list schedule")
    timings.update(list=t1 - t0, shelf=0.0, small=0.0, verify=time.perf_counter() - t1)
    construction = "list"
    if sched.makespan > LAMBDA_Q0 * d:
        shelf_sched, _ = _shelves(inst, d, assignment, timings)
        log.debug("list schedule %s past 10/7*d, shelves %s", sched.makespan, shelf_sched.makespan)
        if shelf_sched.makespan < sched.makespan:
            sched, construction = shelf_sched, "shelf"
    lam = next(lam for lam in LAMBDAS if sched.makespan <= lam * d)
    return sched, lam, construction, assignment


def solve(inst: Instance, eps: RatLike = Fraction(1, 20)) -> SolveResult:
    """Binary search on d by knapsack verdicts; a schedule at the last accept:
    the list schedule of its allotment, or the shelves when that misses 10/7*d.

    A probe is decided only when its verdict is not already known (see the
    module docstring): it accepts when every job is small at it, and on
    monotone input it rejects at or below a decided reject and accepts at or
    above a decided accept.  The all-accept chain serves only the first
    decision and the accepts it infers; every probe of the loop is
    ``_geometric_mid(lower, upper)``, after an accept the chain's next one.
    So the probes and the result are those of a bisection that decides every
    guess, and the returned guess is always decided.

    Guarantee: makespan <= lambda_used * (1 + eps) * OPT, with lambda_used the
    smallest of 10/7, 13/9 and LAMBDA_STAR_UPPER whose bound the schedule meets.
    It needs positive times non-increasing in k (``validate_instance``); on
    others the canonical counts need not be the smallest (``model.gammas``),
    and it returns a verified schedule or raises ShelfInvariantError.  A
    repeated job id raises ValueError before any guess (``mckp.search``).
    """
    eps = rat(eps)
    if not Fraction(0) < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    if not inst.jobs:
        empty = Schedule.of_ints(1, (np.zeros(0, dtype=np.int64),) * 5, Fraction(0))
        return SolveResult(empty, Fraction(0), LAMBDA_Q0, Fraction(0), 0)
    lower, upper = initial_bounds(inst)
    q, a = inst.grid
    longest = int(a[:, 0].max())

    t0 = time.perf_counter()
    search = mckp.search(inst)  # the row keys and id order of every guess
    # With at least m big jobs at lower the work bound is likely tight; the
    # chain is then upper and the probes of a search in which every guess accepts.
    chain = [upper]
    if np.count_nonzero(a[:, 0] > small_cap(lower, q)) >= inst.m:
        while chain[-1] > (1 + eps) * lower:
            chain.append(_geometric_mid(lower, chain[-1]))
    accepted = None  # upper's outcome; None while its verdict is inferred
    decided_reject = None  # the chain's last probe, when it rejected
    decided = iterations = 0
    if len(chain) > 1 and longest > small_cap(chain[-1], q):  # else every probe has only small jobs
        decided += 1
        outcome = _attempt(inst, chain[-1], search)
        if isinstance(outcome, mckp.Reject):
            decided_reject = chain[-1]
        else:
            for d in chain[1:-1]:
                log.debug("d=%s accepted, inferred: at or above a decided accept", d)
            upper, accepted, iterations = chain[-1], outcome, len(chain) - 1
    while upper > (1 + eps) * lower:
        d = _geometric_mid(lower, upper)  # after an accept, the chain's next probe
        iterations += 1
        if longest <= small_cap(d, q):
            log.debug("d=%s accepted, inferred: every job small", d)
            upper, accepted = d, None
        elif decided_reject is not None and d <= decided_reject:
            log.debug("d=%s rejected, inferred: at or below a decided reject", d)
            lower = d
        else:
            decided += 1
            outcome = _attempt(inst, d, search)
            if isinstance(outcome, mckp.Reject):
                lower = d
            else:
                upper, accepted = d, outcome
    if accepted is None:
        decided += 1
        accepted = _attempt(inst, upper, search)
        if isinstance(accepted, mckp.Reject):
            raise shelf.ShelfInvariantError(
                f"guess {upper}, the sequential upper bound or one with every job "
                f"small, was rejected ({accepted.reason}); rejection soundness is broken"
            )
    items, verdict = accepted
    timings = {"mckp": time.perf_counter() - t0}

    schedule, lam, construction, assignment = _construct(inst, upper, items, verdict.pick, timings)
    return SolveResult(
        schedule=schedule,
        accepted_d=upper,
        lambda_used=lam,
        makespan=schedule.makespan,
        iterations=iterations,
        decided=decided,
        timings=timings,
        certified_lower=lower,
        mckp_assignment=assignment,
        construction=construction,
        partition_by=verdict.by,
    )


def _geometric_mid(lo: Fraction, hi: Fraction) -> Fraction:
    """A rational strictly inside (lo, hi), near sqrt(lo*hi).

    The probe location only steers the search; correctness comes from the
    exact accept/reject decisions, so a float approximation rounded to a
    bounded denominator is fine, with the arithmetic midpoint as fallback.
    The rounding is ``Fraction(g).limit_denominator(10**12)``, in plain ints.
    """
    try:
        n, den = (math.sqrt(float(lo)) * math.sqrt(float(hi))).as_integer_ratio()
    except (OverflowError, ValueError):
        return (lo + hi) / 2
    d, cap, p0, q0, p1, q1 = den, 10**12, 0, 1, 1, 0
    while d and q0 + (a := n // d) * q1 <= cap:  # d = 0: n/den itself, den <= cap
        p0, q0, p1, q1, n, d = p1, q1, p0 + a * p1, q0 + a * q1, d, n - a * d
    if d:  # the next convergent passes the cap: the closer of two bounds
        k = (cap - q0) // q1
        if 2 * d * (q0 + k * q1) > den:
            p1, q1 = p0 + k * p1, q0 + k * q1
    mid = Fraction(p1, q1)
    return mid if lo < mid < hi else (lo + hi) / 2

"""Dual-approximation driver: binary search over the makespan guess.

For each guess d the knapsack decision either accepts (some class partition
of the big jobs fits the work budget) or certifies d < OPT.  The search needs
only these verdicts, which exact knapsack bounds mostly settle without the
DP.  At the last accepted d the DP runs once for the partition, and one
verified contiguous schedule is built from it: makespan at most lam*d, lam
depending on the idle-machine regime of the shelf schedule, which gives
makespan <= lam * (1 + eps) * OPT.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from . import mckp, shelf
from .model import (
    LAMBDA_Q0,
    LAMBDA_SMALL_Q,
    LAMBDA_STAR_UPPER,
    Instance,
    JobClassification,
    Schedule,
    classify_jobs,
    make_schedule,
)
from .verify import validate_schedule

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SearchBounds:
    lower: Fraction  # certified lower bound on OPT
    upper: Fraction  # guess with a known-feasible schedule


@dataclass
class SolveResult:
    schedule: Schedule
    accepted_d: Fraction
    lambda_used: Fraction
    makespan: Fraction
    iterations: int
    # Wall seconds: "mckp" is the whole search, rejected guesses included,
    # plus the one DP for the partition at accepted_d; "shelf", "small" and
    # "verify" time the one build there.
    timings: dict[str, float] = field(default_factory=dict)
    certified_lower: Fraction = Fraction(0)
    mckp_assignment: dict[int, int] = field(default_factory=dict)


def initial_bounds(inst: Instance) -> SearchBounds:
    """Trivial certified bounds: work/m and the fastest full-width job from
    below, the length of the one-machine sequential schedule from above."""
    if not inst.jobs:
        return SearchBounds(Fraction(0), Fraction(0))
    q, a = inst.grid
    total_seq = Fraction(sum(a[:, 0].tolist()), q)
    lower = max(total_seq / inst.m, Fraction(max(a[:, inst.m - 1].tolist()), q))
    return SearchBounds(lower, total_seq)


def try_guess(inst: Instance, d: Fraction) -> Union[Schedule, mckp.Reject]:
    """One dual-approximation round: schedule within lam*d or Reject (d < OPT)."""
    outcome = _attempt(inst, d)
    if isinstance(outcome, mckp.Reject):
        return outcome
    return _build(inst, d, *outcome)[0]


def _attempt(
    inst: Instance, d: Fraction
) -> Union[tuple[JobClassification, list[mckp.MckpItem]], mckp.Reject]:
    """The knapsack decision for d: (classes, knapsack items) or Reject (d < OPT)."""
    cls = classify_jobs(inst, d)
    items = mckp.build_items(inst, cls.big, d)
    if isinstance(items, mckp.Reject):
        log.debug("d=%s rejected: %s (job %s)", d, items.reason, items.job_id)
        return items
    budget = math.floor((inst.m * d - cls.ws) * inst.grid[0])  # costs: work * Q
    verdict = mckp.decide(items, inst.m, budget)
    log.debug(
        "d=%s, unit 1/%d: %s by %s: cost %s, budget %s",
        d, inst.grid[0], verdict.reason or "accepted", verdict.by, verdict.cost, budget,
    )
    if verdict.reason is not None:
        return mckp.Reject(d, verdict.reason)
    return cls, items


def _build(
    inst: Instance,
    d: Fraction,
    cls: JobClassification,
    items: list[mckp.MckpItem],
    timings: Optional[dict[str, float]] = None,
) -> tuple[Schedule, Fraction, dict[int, int]]:
    """Schedule, stretch lam and class partition for an accepted d, verified
    within lam*d.  The one knapsack DP here picks the partition."""
    tm = time.perf_counter()
    assignment = mckp.solve_mckp(items, inst.m).assignment
    t0 = time.perf_counter()
    layout, lam = _shelf_pipeline(inst, assignment, d)
    t1 = time.perf_counter()
    sched = shelf.add_small_jobs(layout, inst, cls.small)
    t2 = time.perf_counter()
    report = validate_schedule(inst, sched, require_contiguous=True)
    if not report.ok() or sched.makespan > lam * d:
        raise shelf.ShelfInvariantError(
            f"pipeline output failed verification at d={d}: "
            + "; ".join(v.kind for v in report.violations)
        )
    if timings is not None:
        timings["mckp"] += t0 - tm
        timings.update(shelf=t1 - t0, small=t2 - t1, verify=time.perf_counter() - t2)
    return sched, lam, assignment


def _shelf_pipeline(
    inst: Instance, assignment: dict[int, int], d: Fraction
) -> tuple[shelf.Layout, Fraction]:
    """Build/transform at 10/7 and escalate the stretch by idle-machine regime.

    q == 0 keeps 10/7; 0 < q <= m'/6 rebuilds at 13/9; q > m'/6 rebuilds at
    the Lambert-W stretch.  If the regime shifts after the 13/9 rebuild, the
    final rebuild at the largest stretch covers both repairs.
    """

    def build(lam: Fraction) -> shelf.ShelfSchedule:
        ss = shelf.build_three_shelf(inst, assignment, d, lam)
        return shelf.apply_transformations(ss)

    def regime(ss: shelf.ShelfSchedule) -> int:
        m_eff = inst.m - ss.m0
        if ss.q == 0:
            return 0
        return 1 if 6 * ss.q <= m_eff else 2

    ss = build(LAMBDA_Q0)
    r = regime(ss)
    if r == 0:
        return shelf.repair_s2_small_q(ss), LAMBDA_Q0
    if r == 1:
        ss = build(LAMBDA_SMALL_Q)
        if regime(ss) <= 1:
            return shelf.repair_s2_small_q(ss), LAMBDA_SMALL_Q
    ss = build(LAMBDA_STAR_UPPER)
    if regime(ss) == 2:
        return shelf.repair_s2_large_q(ss), LAMBDA_STAR_UPPER
    return shelf.repair_s2_small_q(ss), LAMBDA_STAR_UPPER


def solve(inst: Instance, eps: Fraction = Fraction(1, 20)) -> SolveResult:
    """Binary search on d by knapsack verdicts; one schedule at the last accept.

    Guarantee: makespan <= lambda_used * (1 + eps) * OPT, with lambda_used in
    {10/7, 13/9, LAMBDA_STAR_UPPER}.
    """
    eps = Fraction(eps)
    if not Fraction(0) < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    if not inst.jobs:
        return SolveResult(
            make_schedule([]), Fraction(0), LAMBDA_Q0, Fraction(0), 0
        )
    bounds = initial_bounds(inst)
    lower, upper = bounds.lower, bounds.upper

    t0 = time.perf_counter()
    accepted = _attempt(inst, upper)
    if isinstance(accepted, mckp.Reject):
        raise shelf.ShelfInvariantError(
            f"guess {upper} >= OPT was rejected ({accepted.reason}); "
            "rejection soundness is broken"
        )
    iterations = 0
    while upper > (1 + eps) * lower:
        d = _geometric_mid(lower, upper)
        iterations += 1
        outcome = _attempt(inst, d)
        if isinstance(outcome, mckp.Reject):
            lower = d
        else:
            upper, accepted = d, outcome
    timings = {"mckp": time.perf_counter() - t0}

    schedule, lam, assignment = _build(inst, upper, *accepted, timings)
    return SolveResult(
        schedule=schedule,
        accepted_d=upper,
        lambda_used=lam,
        makespan=schedule.makespan,
        iterations=iterations,
        timings=timings,
        certified_lower=lower,
        mckp_assignment=assignment,
    )


def _geometric_mid(lo: Fraction, hi: Fraction) -> Fraction:
    """A rational strictly inside (lo, hi), near sqrt(lo*hi).

    The probe location only steers the search; correctness comes from the
    exact accept/reject decisions, so a float approximation rounded to a
    bounded denominator is fine, with the arithmetic midpoint as fallback.
    """
    try:
        g = math.sqrt(float(lo)) * math.sqrt(float(hi))
        mid = Fraction(g).limit_denominator(10**12)
    except (OverflowError, ValueError):
        mid = (lo + hi) / 2
    if not lo < mid < hi:
        mid = (lo + hi) / 2
    return mid

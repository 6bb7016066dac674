"""Three-class minimization knapsack over the big jobs of a makespan guess.

For a guess d, each big job offers up to three (cost, size) options:

  class 1: cost w(j, gamma(j, d)),        size 2*gamma(j, d) half-machines
  class 2: cost w(j, gamma(j, (4/7)d)),   size gamma(j, (4/7)d) half-machines
  class 3: cost w(j, gamma(j, (3/7)d)),   size 0

Sizes are counted in half-machines so the class-2 "half a machine per unit"
stays integral; the capacity is 2m.  The guess is workable iff the minimum
total cost within total size 2m is at most the budget m*d - W_S.

``decide`` settles that verdict first by two exact certificates on integer
costs: an integral greedy assignment within capacity and budget accepts, a
Lagrangian lower bound above the budget rejects.  Only a guess both leave
open runs the DP, which also runs once at the accepted guess to produce the
partition the shelves are built from.

Costs are exact rationals.  The DP rescales them to integers by the lcm of
their denominators and runs one suffix table over (job, capacity): two
rolling rows of (cost, size) and an int8 table of the class chosen per cell,
walked forward once to read off the assignment.  The cost row is int64 while
the scaled totals fit comfortably, and exact Python ints (numpy object
dtype) otherwise, so the arithmetic never wraps.  Ties resolve to minimum
cost, then minimum total size, then the lowest class index per job in input
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .model import Instance, gamma, work

# With totals up to 2^59 every int64 sum the DP forms, sentinel included,
# stays below 2^61.
_INT64_SAFE_TOTAL = 1 << 59


@dataclass(frozen=True)
class MckpOption:
    cost: Optional[Fraction]  # None = unavailable (job cannot meet the class deadline)
    size2: int                # size in half-machines

    @property
    def available(self) -> bool:
        return self.cost is not None


@dataclass(frozen=True)
class MckpItem:
    job_id: int
    options: tuple[MckpOption, MckpOption, MckpOption]


@dataclass(frozen=True)
class MckpSolution:
    assignment: dict[int, int]  # job id -> class in {1, 2, 3}
    total_cost: Fraction
    total_size2: int


@dataclass(frozen=True)
class Reject:
    """The guess d is certified too small (some job cannot finish within d)."""

    d: Fraction
    reason: str
    job_id: Optional[int] = None


@dataclass(frozen=True)
class Infeasible:
    """No class assignment fits the half-machine capacity."""

    reason: str = "capacity"


@dataclass(frozen=True)
class Verdict:
    """The knapsack decision for one guess."""

    reason: Optional[str]  # None = accept, else the Reject reason
    by: str                # the certificate that settled it: "bound" or "dp"
    # The cost held against the budget: a lower bound on the minimum for a
    # bound reject, an assignment's cost otherwise; None when nothing fits.
    cost: Optional[Fraction] = None


def build_items(
    inst: Instance, big: Sequence[int] | frozenset[int], d: Fraction
) -> Union[list[MckpItem], Reject]:
    """Construct the per-job options, or Reject when some gamma(j, d) is infinite."""
    items: list[MckpItem] = []
    h2 = Fraction(4, 7) * d
    h3 = Fraction(3, 7) * d
    for job_id in sorted(big):
        job = inst.job(job_id)
        g1 = gamma(job, d, inst.m)
        if g1 is None:
            return Reject(d, "job-exceeds-guess", job_id)
        g2 = gamma(job, h2, inst.m)
        g3 = gamma(job, h3, inst.m)
        opts = (
            MckpOption(work(job, g1), 2 * g1),
            MckpOption(work(job, g2), g2) if g2 is not None else MckpOption(None, 0),
            MckpOption(work(job, g3), 0) if g3 is not None else MckpOption(None, 0),
        )
        items.append(MckpItem(job_id, opts))
    return items


def _scale(items: Sequence[MckpItem]) -> int:
    """The lcm of all option cost denominators."""
    return math.lcm(
        *(opt.cost.denominator for item in items for opt in item.options if opt.available)
    )


def _scaled_costs(items: Sequence[MckpItem]) -> list[list[Optional[int]]]:
    """Rescale all option costs to integers by the lcm of their denominators."""
    scale = _scale(items)
    return [
        [
            opt.cost.numerator * (scale // opt.cost.denominator)
            if opt.cost is not None
            else None
            for opt in item.options
        ]
        for item in items
    ]


def _solution(items: Sequence[MckpItem], choice: Sequence[int]) -> MckpSolution:
    picked = [item.options[cls - 1] for item, cls in zip(items, choice)]
    return MckpSolution(
        {item.job_id: cls for item, cls in zip(items, choice)},
        sum((opt.cost for opt in picked), Fraction(0)),
        sum(opt.size2 for opt in picked),
    )


def solve_mckp(items: Sequence[MckpItem], m: int) -> Union[MckpSolution, Infeasible]:
    """Minimize total cost subject to total size <= 2m.

    One DP in O(n*m) time, holding two rows and an n x (2m+1) int8 table.

    Among minimum-cost assignments the one with the smallest total size is
    returned; remaining ties resolve to the lowest class index per job,
    scanning jobs in input order.
    """
    scaled = _scaled_costs(items)
    max_total = 0
    for row in scaled:
        avail = [c for c in row if c is not None]
        if not avail:
            return Infeasible("item-has-no-option")
        max_total += max(avail)
    choice = _dp(items, scaled, 2 * m, max_total)
    if choice is None:
        return Infeasible()
    return _solution(items, choice)


def _dp(
    items: Sequence[MckpItem],
    scaled: list[list[Optional[int]]],
    cap: int,
    max_total: int,
) -> Optional[list[int]]:
    """Suffix DP over items n-1..0 with two rolling rows and a choice table.

    After item j, (cost[c], size[c]) is the lexicographic minimum of (total
    cost, total size) over assignments of items j..n-1 with total size <= c,
    and choice[j, c] is the lowest class reaching it: a class replaces the
    current best only when strictly better.  Costs are int64 while every
    total fits (max_total <= 2^59), otherwise exact Python ints; the sentinel
    max_total + 1 marks capacities no assignment fits.  The suffix
    orientation lets the selection walk jobs forward in input order.
    """
    dtype = np.int64 if max_total <= _INT64_SAFE_TOTAL else object
    inf = max_total + 1
    choice = np.zeros((len(items), cap + 1), dtype=np.int8)
    cost = np.zeros(cap + 1, dtype=dtype)
    size = np.zeros(cap + 1, dtype=np.int64)
    for j in range(len(items) - 1, -1, -1):
        best_c = np.full(cap + 1, inf, dtype=dtype)
        best_s = np.zeros(cap + 1, dtype=np.int64)
        for cls, (c, opt) in enumerate(zip(scaled[j], items[j].options), start=1):
            s = opt.size2
            if c is None or s > cap:
                continue
            cand_c = cost[: cap + 1 - s] + c
            cand_s = size[: cap + 1 - s] + s
            bc, bs = best_c[s:], best_s[s:]  # views: writes land in the rows
            better = (cand_c < bc) | ((cand_c == bc) & (cand_s < bs))
            bc[better] = cand_c[better]
            bs[better] = cand_s[better]
            choice[j, s:][better] = cls
        cost, size = best_c, best_s
    if cost[cap] >= inf:
        return None
    picks: list[int] = []
    c = cap
    for j, item in enumerate(items):
        cls = int(choice[j, c])
        picks.append(cls)
        c -= item.options[cls - 1].size2
    return picks


def decide(items: Sequence[MckpItem], m: int, budget: Fraction) -> Verdict:
    """Is the minimum cost within size 2m at most budget?  solve_mckp's verdict.

    Works on the integer costs of _scaled_costs against floor(budget*scale).
    Each item's lower convex hull in (size, cost) leads from its cheapest
    option to its smallest; the greedy takes hull steps by ascending
    cost per half-machine saved until the total fits.  An integral result
    within budget accepts.  Otherwise the last step's slope lam = p/r gives
    the Lagrangian bound sum_j min_k (c + lam*s) - lam*2m <= min cost, which
    rejects when it exceeds the budget.  Floats only order the steps; every
    verdict is checked in exact integers.  Guesses left open run the DP.
    """
    cap, scale = 2 * m, _scale(items)
    limit = math.floor(budget * scale)  # an int cost K is within budget iff K <= limit
    opts = [
        [(c, opt.size2) for c, opt in zip(row, item.options) if c is not None]
        for row, item in zip(_scaled_costs(items), items)
    ]
    if sum(min((s for _, s in o), default=cap + 1) for o in opts) > cap:
        return Verdict("mckp-infeasible", "bound")
    steps = []
    cost = size = 0
    for j, o in enumerate(opts):
        hull = [min(o)]
        for c, s in sorted(o, key=lambda cs: (-cs[1], cs[0])):
            if s >= hull[-1][1]:
                continue
            while len(hull) > 1:
                (ca, sa), (cb, sb) = hull[-2:]
                if (cb - ca) * (sb - s) < (c - cb) * (sa - sb):
                    break  # (cb, sb) lies strictly below the chord to (c, s)
                hull.pop()
            hull.append((c, s))
        cost, size = cost + hull[0][0], size + hull[0][1]
        # Slopes rise along a hull and int/int division rounds monotonically,
        # so sorting by (slope, j, k) keeps each item's steps in hull order.
        for k, ((ca, sa), (cb, sb)) in enumerate(zip(hull, hull[1:])):
            steps.append(((cb - ca) / ((sa - sb) * scale), j, k, cb - ca, sa - sb))
    p, r = 0, 1  # lam = 0 when the cheapest options fit: then cost is the minimum
    ordered = iter(sorted(steps))
    while size > cap:
        _, _, _, p, r = next(ordered)
        cost, size = cost + p, size - r
    if cost <= limit:
        return Verdict(None, "bound", Fraction(cost, scale))
    lower = sum(min(r * c + p * s for c, s in o) for o in opts) - p * cap
    if lower > r * limit:
        return Verdict("work-budget", "bound", Fraction(lower, r * scale))
    solution = solve_mckp(items, m)
    reason = "work-budget" if solution.total_cost > budget else None
    return Verdict(reason, "dp", solution.total_cost)


def brute_mckp(
    items: Sequence[MckpItem], m: int
) -> Union[MckpSolution, Infeasible]:
    """Exhaustive oracle over all 3^n class vectors; n <= 14 enforced.

    Applies the same tie-breaking as solve_mckp: minimum (cost, size), first
    such vector in lexicographic class order.
    """
    if len(items) > 14:
        raise ValueError(f"brute_mckp is capped at 14 items, got {len(items)}")
    cap = 2 * m
    scaled = _scaled_costs(items)
    n = len(items)
    # Admissible per-item lower bounds on the remaining cost let the DFS prune
    # without ever cutting an equal-cost branch (ties matter for size/lex).
    suffix_min = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        avail = [c for c in scaled[j] if c is not None]
        if not avail:
            return Infeasible("item-has-no-option")
        suffix_min[j] = suffix_min[j + 1] + min(avail)

    best: Optional[tuple[int, int]] = None
    best_choice: Optional[list[int]] = None
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
        for cls in (1, 2, 3):
            c = scaled[j][cls - 1]
            if c is None:
                continue
            choice[j] = cls
            dfs(j + 1, cost + c, size + items[j].options[cls - 1].size2)

    dfs(0, 0, 0)
    if best_choice is None:
        return Infeasible()
    return _solution(items, best_choice)

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

Costs are the exact integers g*A[j,g-1] (work at the grid scale Q) against
the budget floor((m*d - W_S)*Q).  The DP divides them by their gcd and runs
one suffix table over (job, capacity): two rolling rows of (cost, size) and
an int8 table of the class chosen per cell, walked forward once to read off
the assignment.  The cost row is int64 while the totals fit comfortably, and
exact Python ints (numpy object dtype) otherwise, so the arithmetic never
wraps.  Ties resolve to minimum cost, then minimum total size, then the
lowest class index per job in input order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

# gamma stays bound here for the benchmark tracer, which wraps mckp.gamma.
from .model import _INT64_SAFE_TOTAL, Instance, gamma, gammas  # noqa: F401


# The deadline of class c as a multiple of d: a class-c job runs on
# gamma(j, CLASS_HEIGHTS[c-1] * d) machines.
CLASS_HEIGHTS = (Fraction(1), Fraction(4, 7), Fraction(3, 7))


@dataclass(frozen=True)
class MckpOption:
    cost: Optional[int]  # work at the grid scale; None = job cannot meet the class deadline
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
    total_cost: int
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
    # The cost held against the budget, in the items' unit: a lower bound on
    # the minimum for a bound reject, an assignment's cost otherwise.
    cost: Optional[Union[int, Fraction]] = None


def build_items(
    inst: Instance, big: Sequence[int] | frozenset[int], d: Fraction
) -> Union[list[MckpItem], Reject]:
    """Construct the per-job options, or Reject when some gamma(j, d) is infinite.
    The three gammas of every job are one ``gammas`` count each; m+1 is none."""
    ids = sorted(big)
    q, a = inst.grid
    rows, m = a[[inst.row_of[i] for i in ids]], inst.m
    per_class = []
    for f in CLASS_HEIGHTS:
        g = gammas(rows, f * d, q)
        t = np.take_along_axis(rows, np.minimum(g, m)[:, None] - 1, axis=1)[:, 0]
        per_class.append(zip(g.tolist(), (t * g).tolist()))
    none = MckpOption(None, 0)
    items: list[MckpItem] = []
    for job_id, (g1, c1), (g2, c2), (g3, c3) in zip(ids, *per_class):
        if g1 > m:
            return Reject(d, "job-exceeds-guess", job_id)
        opts = (
            MckpOption(c1, 2 * g1),
            MckpOption(c2, g2) if g2 <= m else none,
            MckpOption(c3, 0) if g3 <= m else none,
        )
        items.append(MckpItem(job_id, opts))
    return items


def _solution(items: Sequence[MckpItem], choice: Sequence[int]) -> MckpSolution:
    picked = [item.options[cls - 1] for item, cls in zip(items, choice)]
    return MckpSolution(
        {item.job_id: cls for item, cls in zip(items, choice)},
        sum(opt.cost for opt in picked),
        sum(opt.size2 for opt in picked),
    )


def solve_mckp(items: Sequence[MckpItem], m: int) -> Union[MckpSolution, Infeasible]:
    """Minimize total cost subject to total size <= 2m.

    One DP in O(n*m) time, holding two rows and an n x (2m+1) int8 table.

    Among minimum-cost assignments the one with the smallest total size is
    returned; remaining ties resolve to the lowest class index per job,
    scanning jobs in input order.
    """
    costs = [[opt.cost for opt in item.options] for item in items]
    max_total = 0
    for row in costs:
        avail = [c for c in row if c is not None]
        if not avail:
            return Infeasible("item-has-no-option")
        max_total += max(avail)
    unit = math.gcd(*(c for row in costs for c in row if c is not None)) or 1
    scaled = [[None if c is None else c // unit for c in row] for row in costs]
    choice = _dp(items, scaled, 2 * m, max_total // unit)
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


def decide(items: Sequence[MckpItem], m: int, budget: int) -> Verdict:
    """Is the minimum cost within size 2m at most budget?  solve_mckp's verdict.

    The budget is in the items' integer cost unit.  Each item's lower convex
    hull in (size, cost) leads from its cheapest option to its smallest; the
    greedy takes hull steps by ascending cost per half-machine saved until the
    total fits.  An integral result
    within budget accepts.  Otherwise the last step's slope lam = p/r gives
    the Lagrangian bound sum_j min_k (c + lam*s) - lam*2m <= min cost, which
    rejects when it exceeds the budget.  Floats only order the steps; every
    verdict is checked in exact integers.  Guesses left open run the DP.
    """
    cap = 2 * m
    opts = [[(opt.cost, opt.size2) for opt in item.options if opt.available] for item in items]
    if sum(min((s for _, s in o), default=cap + 1) for o in opts) > cap:
        return Verdict("mckp-infeasible", "bound")
    shift = max(0, max((c for o in opts for c, _ in o), default=0).bit_length() - 64)
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
        # so sorting by (slope, j, k) keeps each item's steps in hull order;
        # the 2^shift divisor keeps every slope within float range.
        for k, ((ca, sa), (cb, sb)) in enumerate(zip(hull, hull[1:])):
            steps.append(((cb - ca) / ((sa - sb) << shift), j, k, cb - ca, sa - sb))
    p, r = 0, 1  # lam = 0 when the cheapest options fit: then cost is the minimum
    ordered = iter(sorted(steps))
    while size > cap:
        _, _, _, p, r = next(ordered)
        cost, size = cost + p, size - r
    if cost <= budget:
        return Verdict(None, "bound", cost)
    lower = sum(min(r * c + p * s for c, s in o) for o in opts) - p * cap
    if lower > r * budget:
        return Verdict("work-budget", "bound", Fraction(lower, r))
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
    costs = [[opt.cost for opt in item.options] for item in items]
    n = len(items)
    # Admissible per-item lower bounds on the remaining cost let the DFS prune
    # without ever cutting an equal-cost branch (ties matter for size/lex).
    suffix_min = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        avail = [c for c in costs[j] if c is not None]
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
            c = costs[j][cls - 1]
            if c is None:
                continue
            choice[j] = cls
            dfs(j + 1, cost + c, size + items[j].options[cls - 1].size2)

    dfs(0, 0, 0)
    if best_choice is None:
        return Infeasible()
    return _solution(items, best_choice)

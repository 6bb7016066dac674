"""Three-class minimization knapsack over the big jobs of a makespan guess.

For a guess d, each big job offers up to three (cost, size) options:

  class 1: cost w(j, gamma(j, d)),        size 2*gamma(j, d) half-machines
  class 2: cost w(j, gamma(j, (4/7)d)),   size gamma(j, (4/7)d) half-machines
  class 3: cost w(j, gamma(j, (3/7)d)),   size 0

Sizes are counted in half-machines so the class-2 "half a machine per unit"
stays integral; the capacity is 2m.  The guess is workable iff the minimum
total cost within total size 2m is at most the budget m*d - W_S.

The knapsack is one ``MckpItems`` record of n x 3 arrays, row j the job
ids[j] (grid row rows[j]) and column c-1 its class c: ``width`` (the
canonical count g at the class height, which the driver's allotment reads
back), ``cost`` (the exact integers g*A[j,g-1], work at the grid scale Q, in
the grid's dtype) and ``size2``; a class a job cannot meet has width, cost
and size 0 (``avail`` is width > 0).  The budget is floor((m*d - W_S)*Q).
The items keep ascending job id, the order the DP's tie-break reads.  A
guess's canonical counts are one ``gammas`` searchsorted over the row keys of
the solve's ``Search``, O(n log(nm)), and only the big rows' costs are read.

``decide`` settles that verdict first by two exact certificates on integer
costs: an integral greedy assignment within capacity and budget accepts, a
Lagrangian lower bound above the budget rejects.  Both are array operations
over all items at once.  Only a guess both leave open runs the DP, and only
on the options whose reduced cost under the bound's multiplier could still
be in a minimum pick (Dyer, Kayal & Walker 1984): items left one option are
fixed, so the DP takes O(k*c) for the k items and capacity c left, not
O(n*m), and returns the pick it would over all items.  A partition is a
pick, one class per item in item order; an accepting verdict carries its
own, the greedy's or the DP's, and every schedule built at that guess reads
it.

``solve_mckp`` is that DP and returns its pick.  Its input is the open
items' live options, one list of (class, cost / gcd, size) per item, and it
runs one suffix table over (item, capacity): one rolling row of keys, each
cell's (total cost, total size) packed into one integer, and an int8 table
of the class chosen per cell, walked forward once to read off the pick.  The
key row is int64 while the packed totals fit comfortably, and exact Python
ints (numpy object dtype) otherwise, so the arithmetic never wraps.  Ties
resolve to minimum cost, then minimum total size, then the lowest class
index per job in input order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

# gamma stays bound here for the benchmark tracer, which wraps mckp.gamma.
from .model import _INT64_SAFE_TOTAL, Instance, RowKeys, gamma, gammas, row_keys  # noqa: F401


# The deadline of class c as a multiple of d: a class-c job runs on
# gamma(j, CLASS_HEIGHTS[c-1] * d) machines.
CLASS_HEIGHTS = (Fraction(1), Fraction(4, 7), Fraction(3, 7))

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class MckpItems:
    """The options of the big jobs at one guess: row j is job ids[j] and
    column c-1 its class c.  A class the job cannot meet has width, cost and
    size 0."""

    ids: list[int]
    rows: np.ndarray   # the jobs' grid rows, intp
    width: np.ndarray  # the canonical machine count g at the class height, int64
    cost: np.ndarray   # work at the grid scale g*A[j,g-1]; the grid's dtype
    size2: np.ndarray  # half-machines (2*g1, g2, 0), int64

    @property
    def avail(self) -> np.ndarray:  # the job meets the class deadline on some count
        return self.width > 0

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class Reject:
    """The guess d is certified too small (some job cannot finish within d)."""

    d: Fraction
    reason: str
    job_id: Optional[int] = None


@dataclass(frozen=True)
class Verdict:
    """The knapsack decision for one guess."""

    reason: Optional[str]  # None = accept, else the Reject reason
    by: str                # the certificate that settled it: "bound" or "dp"
    # The cost held against the budget, in the items' unit: a lower bound on
    # the minimum for a bound reject, an assignment's cost otherwise.
    cost: Optional[Union[int, Fraction]] = None
    # An accept's partition, the class of each item in order: the greedy's
    # by "bound", the DP's minimum by "dp"; its cost is ``cost``.
    pick: Optional[tuple[int, ...]] = None


class Search(NamedTuple):
    """What every guess of one solve reads (``search``): the grid's row keys,
    and the grid rows in ascending job id with their ids."""

    keys: RowKeys
    rows: np.ndarray  # intp
    ids: np.ndarray


def search(inst: Instance) -> Search:  # ValueError names a repeated job id
    rows = np.argsort(ids := np.array(inst.ids), kind="stable")
    if (twice := np.flatnonzero((ids := ids[rows])[1:] == ids[:-1])).size:
        raise ValueError(f"job id {ids[twice[0]]} appears more than once")
    return Search(row_keys(inst.grid[1]), rows, ids)


def build_items(
    inst: Instance, search: Search, small: np.ndarray, d: Fraction
) -> Union[MckpItems, Reject]:
    """The options of the jobs outside the small row mask, in ascending job
    id, or Reject when some gamma(j, d) is infinite.  Their three gammas are
    one ``gammas`` count; m+1 is none."""
    big = ~small[search.rows]
    rows, ids = search.rows[big], search.ids[big].tolist()
    q, a = inst.grid
    g = gammas(search.keys, rows, [f * d for f in CLASS_HEIGHTS], q)
    avail = g <= inst.m
    if not avail[:, 0].all():
        return Reject(d, "job-exceeds-guess", ids[int(avail[:, 0].argmin())])
    g = np.where(avail, g, 0)
    cost = a[rows[:, None], np.maximum(g, 1) - 1] * g
    return MckpItems(ids, rows, g, cost, g * np.array([2, 1, 0]))


def pick_totals(items: MckpItems, pick: Optional[Sequence[int]]) -> Optional[tuple[int, int]]:
    """Exact (total cost, total size2) of one class per item, or None when
    the pick is not one available class of each item."""
    cls = None if pick is None else np.asarray(pick, dtype=np.intp)
    if cls is None or cls.shape != (len(items),) or not ((cls >= 1) & (cls <= 3)).all():
        return None
    picked = np.arange(len(items)), cls - 1
    if not items.avail[picked].all():
        return None
    return sum(items.cost[picked].tolist()), int(items.size2[picked].sum())


def solve_mckp(
    items: MckpItems, m: int, live: Optional[np.ndarray] = None
) -> Optional[tuple[int, ...]]:
    """The pick of minimum total cost within total size 2m, or None when no
    pick fits (an item without options included).

    Only options in the n x 3 mask ``live`` (default ``items.avail``) are
    picked.  An item with one live option is fixed, its size taken off 2m.
    ``_dp`` runs on the k items left, as lists of their live (class, cost /
    gcd, size), at the capacity c left: O(k*c) time, one key row and a k x
    (c+1) int8 table.  Fixed items shift every cell by one constant, so ties
    still resolve to minimum cost, then size, then lowest class in order.
    """
    live = items.avail if live is None else live
    fixed, pick = live.sum(axis=1) == 1, live.argmax(axis=1) + 1
    if (cap := 2 * m - int(items.size2[fixed, pick[fixed] - 1].sum())) < 0:
        return None
    rest = np.flatnonzero(~fixed)
    cost = np.where(live, items.cost, 0)[rest]
    unit = int(np.gcd.reduce(cost.ravel())) or 1
    options = [[(cls, c // unit, s) for cls, (c, s, ok) in enumerate(zip(*row), start=1) if ok]
               for row in zip(cost.tolist(), items.size2[rest].tolist(), live[rest].tolist())]
    log.debug("DP over %d of %d items, capacity %d of %d", len(rest), len(items), cap, 2 * m)
    if (picked := _dp(options, cap)) is None:
        return None
    pick[rest] = picked
    return tuple(pick.tolist())


def _dp(options: list[list[tuple[int, int, int]]], cap: int) -> Optional[tuple[int, ...]]:
    """The pick of minimum (total cost, total size) within cap, one class per
    list of (class, cost, size) options, or None when none fits: a suffix DP
    over items n-1..0 with one rolling key row and a choice table.

    A key packs (total cost, total size) into cost*(cap+1) + size; sizes stay
    within cap, so integer order on keys is lexicographic (cost, size) order.
    After item j, key[c] is the minimum over picks of items j..n-1 with
    total size <= c, and choice[j, c] is the lowest class reaching it: classes
    are tried in order and one replaces the current best only when strictly
    smaller.  The sentinel (sum of each item's dearest cost + 1)*(cap+1)
    marks capacities no pick fits; keys are int64 while it is at most 2^59,
    otherwise exact Python ints.  The suffix orientation lets the selection
    walk items forward in input order.
    """
    width = cap + 1
    inf = (sum(max((c for _, c, _ in o), default=0) for o in options) + 1) * width
    dtype = np.int64 if inf <= _INT64_SAFE_TOTAL else object
    choice = np.zeros((len(options), width), dtype=np.int8)
    key = np.zeros(width, dtype=dtype)
    for j in range(len(options) - 1, -1, -1):
        best = np.full(width, inf, dtype=dtype)
        for cls, c, s in options[j]:
            if s <= cap:
                cand = key[: width - s] + (c * width + s)
                better = cand < best[s:]
                np.copyto(best[s:], cand, where=better)
                np.copyto(choice[j, s:], cls, where=better)
        key = best
    if key[cap] >= inf:
        return None
    picks, c = [], cap
    for o, row in zip(options, choice):
        picks.append(cls := int(row[c]))
        c -= next(s for k, _, s in o if k == cls)
    return tuple(picks)


def decide(items: MckpItems, m: int, budget: int) -> Verdict:
    """Is the minimum cost within size 2m at most budget?  solve_mckp's verdict.

    The budget is in the items' integer cost unit.  Each item's lower convex
    hull in (size, cost) leads from its cheapest option to its smallest; the
    greedy takes hull steps by ascending cost per half-machine saved until the
    total fits.  An integral result within budget accepts; its pick puts
    each item at the hull point its taken steps reach.  Otherwise the last
    step's slope lam = p/r gives the Lagrangian bound sum_j min_k (c +
    lam*s) - lam*2m <= min cost, which rejects when it exceeds the budget.
    Floats only order the steps; every verdict is checked in exact integers.
    Guesses left open run the DP on the options whose reduced cost keeps the
    bound within r*total; an accept picks, a reject reports, the minimum.
    """
    cap, n = 2 * m, len(items)
    avail, cost, size = items.avail, items.cost, items.size2
    if int(np.where(avail, size, cap + 1).min(axis=1, initial=cap + 1).sum()) > cap:
        return Verdict("mckp-infeasible", "bound")
    top = int(cost.max(initial=0))
    shift = max(0, top.bit_length() - 64)
    if cost.dtype == object or top >> 53 or (n + 1) * top * int(size.max(initial=1)) >> 61:
        # Exact Python ints wherever an int64 product, sum or float could be off.
        cost, size = cost.astype(object), size.astype(object)
    rows = np.arange(n)
    k0 = np.lexsort((size, cost, ~avail), axis=1)[:, 0]  # lexicographic min of (cost, size)
    c0, s0 = cost[rows, k0], size[rows, k0]
    total, over = int(c0.sum()), int(s0.sum()) - cap
    p, r = 0, 1  # lam = 0 when the cheapest options fit: then cost is the minimum
    pick = k0  # and the pick is the DP's, each item's tie-broken minimum
    if over > 0:
        # Each hull has at most 3 points: k0, then, of the options smaller
        # than it taken by (-size, cost), a and b, where a stays only when it
        # lies strictly below the chord from k0 to b.
        smaller = avail & (size < s0[:, None])
        a, b = np.lexsort((cost, -size, ~smaller), axis=1)[:, :2].T
        ca, sa, cb, sb = cost[rows, a], size[rows, a], cost[rows, b], size[rows, b]
        two = (smaller.sum(axis=1) == 2) & (sb < sa)
        keep = two & ((ca - c0) * (sa - sb) < (cb - ca) * (s0 - sa))
        hull = np.stack([k0, np.where(two & ~keep, b, a), b], axis=1)
        hull_c, hull_s = cost[rows[:, None], hull], size[rows[:, None], hull]
        j, k = np.nonzero(np.stack([smaller.any(axis=1), keep], axis=1))
        dc, ds = hull_c[j, k + 1] - hull_c[j, k], hull_s[j, k] - hull_s[j, k + 1]
        # Slopes rise along a hull and int/int division rounds monotonically,
        # so sorting by (slope, j, k) keeps each item's steps in hull order;
        # the 2^shift divisor keeps every slope within float range.
        order = np.lexsort((k, j, (dc / (ds << shift)).astype(float)))
        dc, ds = dc[order], ds[order]
        i = int(np.searchsorted(np.cumsum(ds), over))
        total += int(dc[: i + 1].sum())
        p, r = int(dc[i]), int(ds[i])
        pick = hull[rows, np.bincount(j[order[: i + 1]], minlength=n)]
    if total <= budget:
        return Verdict(None, "bound", total, tuple((pick + 1).tolist()))
    priced = r * cost + p * size
    least = np.where(avail, priced, priced[rows, k0, None]).min(axis=1)
    lower = int(least.sum()) - p * cap
    if lower > r * budget:
        return Verdict("work-budget", "bound", Fraction(lower, r))
    # r*cost(P) >= lower + (priced - least) of each option in a pick P that
    # fits, so an option past r*total lies in no minimum pick.
    live = avail & (priced - least[:, None] <= r * total - lower)
    pick = solve_mckp(items, m, live)  # the greedy's pick fits and stays live
    dp_cost = pick_totals(items, pick)[0]
    if dp_cost > budget:
        return Verdict("work-budget", "dp", dp_cost)
    return Verdict(None, "dp", dp_cost, pick)


"""The solver's certified fallback: turn an accepted class partition into a
contiguous schedule of height at most lam*d.

``shelf_layout`` owns the whole fallback, the choice of the stretch lam
included: it builds at 10/7 and rebuilds at 13/9 or the Lambert-W stretch
when the idle-machine regime (``ShelfSchedule.regime``) asks for it.  Its
pipeline for one accepted guess d is:

  build_three_shelf   class-1 jobs at gamma(j,d); class-2 jobs compressed to
                      half their canonical machines (pairing the 1- and
                      3-machine ones); class-3 jobs parked on shelf 2 with
                      height at most (lam-1)*d, possibly using more than the
                      available machines.
  apply_transformations
                      three local moves that shrink shelf-1 usage: wide short
                      jobs drop to fewer machines in shelf 0, two short
                      one-machine jobs stack onto a single machine, and a
                      shelf-2 job that fits on the idle machines leaves
                      shelf 2.
  repair_s2_small_q / repair_s2_large_q
                      make shelf 2 fit.  With few idle machines, repeatedly
                      take a machine away from the flattest shelf-2 job and
                      interleave shelf 1 (descending) with shelf 2
                      (ascending, hanging at lam*d).  With many idle
                      machines shelf 2 holds a single job, which is slid
                      over the least-loaded machine suffix.
  add_small_jobs      greedy least-loaded insertion of the small jobs into
                      the idle gap that the layout records on each machine.

No step ever increases a job's machine count, so total work never grows and
stays within the knapsack budget m*d - W_S; that budget is what makes the
repairs provably succeed.  Every structural fact the repairs rely on is
asserted and raises ShelfInvariantError instead of emitting a bad schedule.

Machine bookkeeping: shelf 0 owns machines [0, m0); shelves 1 and 2 share
the remaining m' = m - m0 machines, and all repair thresholds (q vs m'/6,
shelf-2 width vs m') are taken relative to m'.

Heights are integers over one scale per build, L = lcm(Q, den(d), den(lam*d)):
t(j,k)*L = A[j,k-1]*L/Q, so every stack, gap and shelf-2 start is an exact
integer sum.  A build counts its machine numbers with one ``gammas`` search
at d, (4/7)d, (lam-1)d and lam*d, the knapsack's own count, and
``add_small_jobs`` returns the schedule in integer form (``Schedule.of_ints``).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

# gamma stays bound here for the benchmark tracer, which wraps shelf.gamma.
from .model import (  # noqa: F401
    LAMBDA_Q0,
    LAMBDA_SMALL_Q,
    LAMBDA_STAR_UPPER,
    Instance,
    Schedule,
    gamma,
    gammas,
    int_array,
    row_keys,
)


class ShelfInvariantError(RuntimeError):
    """A structural guarantee of the repair phase failed.

    For an accepted partition this is unreachable; if it fires, either the
    input violates monotony or there is a bug, and the shelf state is
    attached for diagnosis.
    """

    def __init__(self, message: str, shelf: Optional["ShelfSchedule"] = None):
        super().__init__(message)
        self.shelf = shelf

    def diagnostic(self) -> str:
        if self.shelf is None:
            return str(self)
        return f"{self}\n{self.shelf.summary()}"


@dataclass(frozen=True)
class ColumnPart:
    job_id: int
    height: int  # over the shelves' scale L


@dataclass(frozen=True)
class ShelfColumn:
    """One column of shelf 0 or 1: stacked jobs sharing a machine interval.

    A value: a move that changes a column builds a new one, so ``height``,
    the sum of its parts' heights, is fixed at construction.  ``split_of``
    marks the two single-machine lanes of a two-machine class-2 job that
    carries a one-machine partner on top of one lane; the layout step
    recombines the lanes onto adjacent machines.
    """

    width: int
    parts: Sequence[ColumnPart]  # kept as a tuple
    split_of: Optional[int] = None
    height: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        object.__setattr__(self, "height", sum(p.height for p in self.parts))

    def min_job_id(self) -> int:
        return min(p.job_id for p in self.parts)


@dataclass(frozen=True)
class S2Job:
    job_id: int
    width: int
    height: int


@dataclass(frozen=True)
class Layout:
    """Laid-out shelves over their scale L: the placements as rows (job id,
    first machine, width, start, duration) in placement order, and each
    machine i's idle gap [bottom[i], top[i])."""

    scale: int
    placed: list[tuple[int, int, int, int, int]]
    bottom: list[int]
    top: list[int]


@dataclass
class ShelfSchedule:
    inst: Instance
    d: Fraction
    lam: Fraction
    s0: list[ShelfColumn] = field(default_factory=list)
    s1: list[ShelfColumn] = field(default_factory=list)
    s2: list[S2Job] = field(default_factory=list)
    split_job: Optional[int] = None

    @property
    def m0(self) -> int:
        return sum(c.width for c in self.s0)

    @property
    def m1_used(self) -> int:
        return sum(c.width for c in self.s1)

    @property
    def m2(self) -> int:
        return sum(j.width for j in self.s2)

    @property
    def q(self) -> int:
        return self.m_eff - self.m1_used

    @property
    def m_eff(self) -> int:
        """m', the machines that shelves 1 and 2 share."""
        return self.inst.m - self.m0

    @property
    def regime(self) -> int:
        """The idle-machine regime: 0 when q == 0, 1 when q <= m'/6, else 2."""
        if self.q == 0:
            return 0
        return 1 if 6 * self.q <= self.m_eff else 2

    @cached_property
    def scale(self) -> int:
        """L = lcm(Q, den(d), den(lam*d)), the denominator of every height."""
        return math.lcm(self.inst.grid[0], self.d.denominator, (self.lam * self.d).denominator)

    def units(self, x: Fraction) -> int:
        """x*L, for x a multiple of 1/L such as d or lam*d."""
        return x.numerator * (self.scale // x.denominator)

    def height(self, job_id: int, k: int) -> int:
        """t(j,k)*L, read off the grid."""
        q, a = self.inst.grid
        return a.item(self.inst.row_of[job_id], k - 1) * (self.scale // q)

    @cached_property
    def counts(self) -> dict[int, list[int]]:
        """Each job's canonical machine counts at d, (4/7)d, (lam-1)d and
        lam*d, m+1 where there is none: one search over the grid's rows."""
        q, a = self.inst.grid
        d, lam = self.d, self.lam
        heights = (d, Fraction(4, 7) * d, (lam - 1) * d, lam * d)
        g = gammas(row_keys(a), np.arange(self.inst.n), heights, q)
        return dict(zip(self.inst.ids, g.tolist()))

    def summary(self) -> str:
        def cols(cs: list[ShelfColumn]) -> str:
            return ", ".join(
                f"[w={c.width} h={Fraction(c.height, self.scale)} "
                f"jobs={[p.job_id for p in c.parts]}"
                + (f" split={c.split_of}" if c.split_of is not None else "")
                + "]"
                for c in cs
            )

        return (
            f"shelf schedule: m={self.inst.m} d={self.d} lam={self.lam} "
            f"m0={self.m0} m1_used={self.m1_used} q={self.q} m2={self.m2}\n"
            f"  s0: {cols(self.s0)}\n  s1: {cols(self.s1)}\n"
            f"  s2: {[(j.job_id, j.width, str(Fraction(j.height, self.scale))) for j in self.s2]}\n"
            f"  split_job={self.split_job}"
        )


def shelf_layout(
    inst: Instance, assignment: dict[int, int], d: Fraction
) -> tuple[Layout, Fraction]:
    """The shelf layout of a class partition at d and its stretch lam.

    Build and transform at 10/7, then escalate the stretch by the regime:
    q == 0 keeps 10/7; 0 < q <= m'/6 rebuilds at 13/9; q > m'/6 rebuilds at
    the Lambert-W stretch.  If the regime shifts after the 13/9 rebuild, the
    final rebuild at the largest stretch covers both repairs.
    """
    lam = LAMBDA_Q0
    ss = apply_transformations(build_three_shelf(inst, assignment, d, lam))
    if ss.regime == 1:
        lam = LAMBDA_SMALL_Q
        ss = apply_transformations(build_three_shelf(inst, assignment, d, lam))
    if ss.regime == 2:
        lam = LAMBDA_STAR_UPPER
        ss = apply_transformations(build_three_shelf(inst, assignment, d, lam))
    repair = repair_s2_large_q if ss.regime == 2 else repair_s2_small_q
    return repair(ss), lam


def build_three_shelf(
    inst: Instance,
    assignment: dict[int, int],
    d: Fraction,
    lam: Fraction,
) -> ShelfSchedule:
    """Place the big jobs, by class (job id -> 1..3), onto shelves 0/1/2.

    Class-2 jobs are compressed so that shelves 0 and 1 together need at most
    m machines: canonical count g >= 4 drops to floor(g/2) machines, g == 2
    drops to one machine, and the g == 3 / g == 1 jobs are stacked in pairs.
    A leftover 3-machine job lands on gamma(j, lam*d) <= 2 machines; if a
    leftover 1-machine job exists as well, it rides on top of one lane of the
    3-machine job, recorded as two split lanes.

    Precondition: the assignment's total half-machine size (each job's
    ``size2`` at its class in the ``build_items`` arrays) is at most 2m, as it
    is for every accepting ``decide`` pick and every ``solve_mckp`` pick. Past
    that capacity shelves 0 and 1 may need more than m machines, and the build
    then raises ShelfInvariantError.
    """
    if not LAMBDA_Q0 <= lam < Fraction(3, 2):
        raise ValueError(f"lam must be in [10/7, 3/2), got {lam}")
    ss = ShelfSchedule(inst, d, lam)
    d_units, lam_d = ss.units(d), ss.units(lam * d)

    def drop(col: ShelfColumn) -> None:
        if col.height > lam_d:
            raise ShelfInvariantError(
                f"column height {Fraction(col.height, ss.scale)} exceeds lam*d = {lam * d}", ss
            )
        (ss.s0 if col.height > d_units else ss.s1).append(col)

    threes: list[int] = []
    ones: list[int] = []
    for job_id in sorted(assignment):
        cls = assignment[job_id]
        if cls not in (1, 2, 3):
            raise ValueError(f"job {job_id}: class must be 1..3, got {cls}")
        g = ss.counts[job_id][cls - 1]
        if g > inst.m:
            height = ("d", "(4/7)d", "(lam-1)d")[cls - 1]
            raise ShelfInvariantError(f"class-{cls} job {job_id} cannot meet {height}", ss)
        if cls == 1:
            drop(ShelfColumn(g, [ColumnPart(job_id, ss.height(job_id, g))]))
        elif cls == 3:
            ss.s2.append(S2Job(job_id, g, ss.height(job_id, g)))
        elif g in (1, 3):
            (ones if g == 1 else threes).append(job_id)
        else:  # g == 2 or g >= 4: half the machines, rounded down
            drop(ShelfColumn(g // 2, [ColumnPart(job_id, ss.height(job_id, g // 2))]))

    leftover3 = _pair_up(ss, threes, width=3, drop=drop)
    leftover1 = _pair_up(ss, ones, width=1, drop=drop)

    if leftover3 is not None and leftover1 is not None:
        t3 = ss.height(leftover3, 2)
        t1 = ss.height(leftover1, 1)
        lane0 = ShelfColumn(1, [ColumnPart(leftover3, t3), ColumnPart(leftover1, t1)], leftover3)
        lane1 = ShelfColumn(1, [ColumnPart(leftover3, t3)], leftover3)
        if lane0.height > lam_d or not lane0.height > d_units:
            raise ShelfInvariantError("split column height out of range", ss)
        ss.s0.append(lane0)
        ss.s1.append(lane1)
        ss.split_job = leftover3
    elif leftover3 is not None:
        g = ss.counts[leftover3][3]
        if g > 2:
            raise ShelfInvariantError(
                f"leftover 3-machine job {leftover3} needs more than 2 machines", ss
            )
        drop(ShelfColumn(g, [ColumnPart(leftover3, ss.height(leftover3, g))]))
    elif leftover1 is not None:
        drop(ShelfColumn(1, [ColumnPart(leftover1, ss.height(leftover1, 1))]))

    if ss.m0 + ss.m1_used > inst.m:
        raise ShelfInvariantError(
            f"shelves 0+1 need {ss.m0 + ss.m1_used} > m = {inst.m} machines", ss
        )
    return ss


def _pair_up(ss: ShelfSchedule, job_ids: list[int], width: int, drop) -> Optional[int]:
    """Stack jobs in pairs on ``width`` machines (tallest with next-tallest);
    return the odd one out."""
    height = {j: ss.height(j, width) for j in job_ids}
    ordered = sorted(job_ids, key=lambda j: (-height[j], j))
    for a, b in zip(ordered[0::2], ordered[1::2]):
        drop(ShelfColumn(width, [ColumnPart(a, height[a]), ColumnPart(b, height[b])]))
    return ordered[-1] if len(ordered) % 2 else None


# ---------------------------------------------------------------------------
# transformations


def apply_transformations(ss: ShelfSchedule) -> ShelfSchedule:
    """Apply the three shelf-shrinking moves until none applies (in place).

    Each round makes the first move that applies, in this order:

      shrink  the first shelf-1 column, in shelf-1 order, wider than one
              machine and no taller than (lam/2)d drops to gamma(j, lam*d)
              machines and moves to shelf 0.
      stack   among one-machine shelf-1 columns strictly shorter than
              (lam/2)d, the two first by (not a split lane, taller, lower
              smallest job id, earlier in shelf 1) share one machine in
              shelf 0, the first at the bottom.  A split lane may only be
              the bottom one, so its two machines keep a common start.
      drain   the first shelf-2 job, in shelf-2 order, with t(j, q) <= lam*d
              for the q idle machines leaves shelf 2 on gamma(j, lam*d)
              machines, for shelf 1 if its height is at most d, else shelf 0.

    These rules fix the resulting schedule bit for bit.  Columns only ever
    leave shelf 1, except for drained ones, which join its end; so the shrink
    candidates form a FIFO in shelf-1 order and the stack candidates a heap,
    both built once, and a drained column joins whichever one it qualifies
    for.  Shelf 1 keeps its order, minus the columns that left.  Shrinks and
    drains read gamma(j, lam*d) from ``counts`` and a stack costs
    O(log n) in the heap, so the loop is O(n log n) plus one pass over
    shelf 2 per drain.  Each move pushes a job toward shelf 0 (or out of
    shelf 2), so the loop runs at most twice per job; a generous guard turns
    any unexpected cycling into a loud error.
    """
    inst, counts = ss.inst, ss.counts
    d, lam_d = ss.units(ss.d), ss.units(ss.lam * ss.d)
    n_jobs = sum(len(c.parts) for c in ss.s0 + ss.s1) + len(ss.s2)
    guard = 4 * n_jobs + 16
    m0, m1_used = ss.m0, ss.m1_used
    shrinks: deque[ShelfColumn] = deque()
    stacks: list[tuple[bool, int, int, int, ShelfColumn]] = []
    arrival = itertools.count()  # shelf-1 order, the last stack tie-break
    left_s1: set[int] = set()  # id() of the columns that left shelf 1

    def enqueue(col: ShelfColumn) -> None:  # (lam/2)d as 2*height vs lam*d
        if col.width > 1:
            if 2 * col.height <= lam_d:
                shrinks.append(col)
        elif 2 * col.height < lam_d:
            key = (col.split_of is None, -col.height, col.min_job_id(), next(arrival))
            heapq.heappush(stacks, (*key, col))

    for col in ss.s1:
        enqueue(col)
    try:
        while True:
            guard -= 1
            if guard < 0:
                raise ShelfInvariantError("transformation loop exceeded its bound", ss)
            if shrinks:
                col = shrinks.popleft()
                if len(col.parts) != 1 or col.split_of is not None:
                    raise ShelfInvariantError(
                        "composite column met the shrink rule", ss
                    )
                job_id = col.parts[0].job_id
                g = counts[job_id][3]
                if g > col.width:
                    raise ShelfInvariantError("shrink would widen a job", ss)
                m1_used -= col.width
                m0 += g
                left_s1.add(id(col))
                ss.s0.append(ShelfColumn(g, [ColumnPart(job_id, ss.height(job_id, g))]))
            elif len(stacks) >= 2:
                bottom = heapq.heappop(stacks)[-1]
                top = heapq.heappop(stacks)[-1]
                if top.split_of is not None:
                    raise ShelfInvariantError("two split lanes on shelf 1", ss)
                m1_used -= 2
                m0 += 1
                left_s1.update((id(bottom), id(top)))
                ss.s0.append(ShelfColumn(1, bottom.parts + top.parts, bottom.split_of))
            else:
                q = inst.m - m0 - m1_used
                if q < 1:
                    break
                i = next(
                    (i for i, j in enumerate(ss.s2) if ss.height(j.job_id, q) <= lam_d),
                    None,
                )
                if i is None:
                    break
                job_id = ss.s2[i].job_id
                g = counts[job_id][3]
                if g > q:
                    raise ShelfInvariantError(
                        "shelf-2 drain does not fit idle machines", ss
                    )
                del ss.s2[i]
                col = ShelfColumn(g, [ColumnPart(job_id, ss.height(job_id, g))])
                if col.height <= d:
                    m1_used += g
                    ss.s1.append(col)
                    enqueue(col)
                else:
                    m0 += g
                    ss.s0.append(col)
    finally:
        # Also on a raise, so the attached shelf shows the state of the failed move.
        ss.s1[:] = [c for c in ss.s1 if id(c) not in left_s1]
    _check_transformed(ss)
    return ss


def _check_transformed(ss: ShelfSchedule) -> None:
    """Structural facts the repairs rely on; violations are internal errors."""
    if ss.m0 + ss.m1_used > ss.inst.m:
        raise ShelfInvariantError("shelves 0+1 exceed the machine count", ss)
    lam_d = ss.units(ss.lam * ss.d)
    shorts = [c for c in ss.s1 if 2 * c.height < lam_d]
    if len(shorts) > 1:
        raise ShelfInvariantError(
            f"{len(shorts)} shelf-1 machines run jobs shorter than (lam/2)d", ss
        )
    q = ss.q
    if q >= 1:
        bound = lam_d * q
        for j in ss.s2:  # heights are still t(j, width): no repair has run
            if j.height * j.width <= bound:
                raise ShelfInvariantError(
                    f"shelf-2 job {j.job_id} has work <= lam*d*q", ss
                )


# ---------------------------------------------------------------------------
# repairs


def repair_s2_small_q(ss: ShelfSchedule) -> Layout:
    """Fit shelf 2 when q <= m'/6 by compressing its flattest jobs.

    While shelf 2 needs more than the m' shared machines, the job with the
    smallest height loses one machine (heights grow, staying under the proven
    caps).  Shelf 1 is then laid out descending from the left and shelf 2
    ascending from the right, each shelf-2 job finishing exactly at lam*d.
    """
    m_eff = ss.m_eff
    if ss.regime == 2:
        raise ShelfInvariantError("small-q repair called with q > m'/6", ss)
    if ss.s2 and ss.m2 >= 3 * m_eff:
        raise ShelfInvariantError(
            f"shelf 2 uses {ss.m2} >= 3*m' = {3 * m_eff} machines", ss
        )
    while ss.m2 > m_eff:
        i, j = min(enumerate(ss.s2), key=lambda e: (e[1].height, e[1].job_id))
        if j.width <= 1:
            raise ShelfInvariantError("flattest shelf-2 job is already one machine", ss)
        ss.s2[i] = S2Job(j.job_id, j.width - 1, ss.height(j.job_id, j.width - 1))
    return _place_right_aligned(ss)


def repair_s2_large_q(ss: ShelfSchedule) -> Layout:
    """Fit shelf 2 when q > m'/6: a single job slides over a machine suffix.

    Shelf 1 is sorted descending, so for each i the m' - i least loaded
    machines are the suffix starting at relative machine i.  The single
    shelf-2 job is placed on the first (widest) suffix whose tallest machine
    leaves room under lam*d; at the stretch LAMBDA_STAR_UPPER such an i
    always exists while the work budget holds.  It then hangs right-aligned
    like any shelf-2 job, unless the split lane lies under it: then it hangs
    from the first shared machine over the columns that reach past i.
    """
    if ss.regime != 2:
        raise ShelfInvariantError("large-q repair called with q <= m'/6", ss)
    if len(ss.s2) > 1:
        raise ShelfInvariantError(
            f"{len(ss.s2)} shelf-2 jobs with q > m'/6 (expected at most 1)", ss
        )
    m_eff = ss.m_eff
    if not ss.s2 or ss.m2 <= m_eff:
        return _place_right_aligned(ss)

    j0 = ss.s2[0]
    lam_d = ss.units(ss.lam * ss.d)
    cols = _descending(ss.s1)
    at = [k for k, col in enumerate(cols) for _ in range(col.width)]  # cols[at[i]] is on i
    chosen_i = next(
        (i for i, k in enumerate(at) if cols[k].height + ss.height(j0.job_id, m_eff - i) <= lam_d),
        None,
    )
    if chosen_i is None:
        raise ShelfInvariantError(
            "no machine suffix admits the shelf-2 job within lam*d", ss
        )
    width = m_eff - chosen_i
    ss.s2[0] = j0 = S2Job(j0.job_id, width, ss.height(j0.job_id, width))

    first = at[chosen_i]  # the first covered column, the one on machine chosen_i
    if any(col.split_of is not None for col in cols[first:]):
        # The split lane lies under the job but must stay on the first
        # shared machine, next to its shelf-0 twin, so mirror the runs: the
        # job hangs from that machine over the covered columns, then the
        # idle machines.  No covered column is taller than the first, over
        # which the job was chosen to fit, so it fits over each of them.
        runs = cols[first:] + [ShelfColumn(ss.q, [])] + cols[:first]  # idle machines
        return layout_contiguous(ss, runs, [(j0, ss.m0)])
    return _place_right_aligned(ss)


def _descending(cols: Iterable[ShelfColumn]) -> list[ShelfColumn]:
    return sorted(cols, key=lambda c: (-c.height, c.min_job_id()))


def _place_right_aligned(ss: ShelfSchedule) -> Layout:
    """Shelf 1 descending from the left, shelf 2 ascending hanging at lam*d."""
    if ss.m2 > ss.m_eff:
        raise ShelfInvariantError("shelf 2 still too wide for placement", ss)
    plan = []
    cursor = ss.inst.m - ss.m2
    for j in sorted(ss.s2, key=lambda s: (s.height, s.job_id)):
        plan.append((j, cursor))
        cursor += j.width
    return layout_contiguous(ss, _descending(ss.s1), plan)


def layout_contiguous(
    ss: ShelfSchedule,
    s1_runs: Sequence[ShelfColumn],
    s2_plan: Sequence[tuple[S2Job, int]],
) -> Layout:
    """Assign machine indices, emit the placements and record each gap.

    Shelf-0 columns take machines [0, m0) with any split lanes moved to the
    right edge; shelf-1 runs follow in the given order, except that a split
    lane among them takes the first shared machine, next to its shelf-0
    twin; shelf-2 jobs start at lam*d minus their height on the machines the
    caller planned.  The two lanes of a split job are recombined into one
    two-machine placement, which requires them to land on adjacent machines.

    Each machine's idle time is one gap [bottom, top): bottom is the height
    of its column stack (split lanes included), top the start of the shelf-2
    job hanging on it, else lam*d.  At most one shelf-2 job per machine and
    bottom <= top on every machine (so no shelf-2 job starts before 0) prove
    the placements disjoint and within [0, lam*d].
    """
    inst, scale = ss.inst, ss.scale
    lam_d = ss.units(ss.lam * ss.d)
    placed: list[tuple[int, int, int, int, int]] = []
    split_lanes: list[tuple[int, ColumnPart]] = []  # (machine, part)
    bottom = [0] * inst.m
    hung: list[Optional[int]] = [None] * inst.m  # shelf-2 start per machine

    def emit(col: ShelfColumn, first: int) -> None:
        y = 0
        for idx, part in enumerate(col.parts):
            if col.split_of is not None and idx == 0:
                split_lanes.append((first, part))
            else:
                placed.append((part.job_id, first, col.width, y, part.height))
            y += part.height
        bottom[first:first + col.width] = [y] * col.width

    cursor = 0
    # Stable: lane 0, built into shelf 0, stays ahead of a lane 1 stacked there later.
    for col in sorted(ss.s0, key=lambda c: c.split_of is not None):
        emit(col, cursor)
        cursor += col.width
    if cursor != ss.m0:
        raise ShelfInvariantError("shelf-0 width accounting is off", ss)
    for run in sorted(s1_runs, key=lambda r: r.split_of is None):
        emit(run, cursor)
        cursor += run.width
    if cursor > inst.m:
        raise ShelfInvariantError("layout overruns the machine count", ss)

    if ss.split_job is not None:
        if len(split_lanes) != 2:
            raise ShelfInvariantError("expected exactly two split lanes", ss)
        (mach0, part0), (mach1, part1) = split_lanes  # emitted left to right
        if mach1 != mach0 + 1 or part0.height != part1.height:
            raise ShelfInvariantError("split lanes are not adjacent twins", ss)
        placed.append((ss.split_job, mach0, 2, 0, part0.height))
    elif split_lanes:
        raise ShelfInvariantError("stray split lane", ss)

    for j, first in s2_plan:
        if first < ss.m0 or first + j.width > inst.m:
            raise ShelfInvariantError("shelf-2 placement outside the shared region", ss)
        start = lam_d - j.height
        for mach in range(first, first + j.width):
            if hung[mach] is not None:
                raise ShelfInvariantError(f"two shelf-2 jobs on machine {mach}", ss)
            hung[mach] = start
        placed.append((j.job_id, first, j.width, start, j.height))

    top = [lam_d if start is None else start for start in hung]
    for mach in range(inst.m):
        if bottom[mach] > top[mach]:
            raise ShelfInvariantError(
                f"machine {mach}: columns end at {Fraction(bottom[mach], scale)} "
                f"past {Fraction(top[mach], scale)}", ss
            )
    return Layout(scale, placed, bottom, top)


def add_small_jobs(layout: Layout, inst: Instance, small: Iterable[int]) -> Schedule:
    """Greedy insertion of the one-machine small jobs into the layout's gaps.

    Each small job goes to the machine with the least busy time, that is the
    widest idle gap (lowest index on ties), and starts at the gap's bottom;
    the work budget guarantees it fits below the gap's top.  The schedule
    is returned in integer form over the layout's scale.
    """
    scale = layout.scale
    q, a = inst.grid
    bottom, top = list(layout.bottom), layout.top
    # Busy time is bottom + (lam*d - top); the constant lam*d drops out of the order.
    heap = [(bottom[i] - top[i], i) for i in range(inst.m)]
    heapq.heapify(heap)
    placed = list(layout.placed)
    for job_id in sorted(small):
        t1 = a.item(inst.row_of[job_id], 0) * (scale // q)
        key, i = heapq.heappop(heap)
        start = bottom[i]
        if start + t1 > top[i]:
            raise ShelfInvariantError(
                f"small job {job_id} would end at {Fraction(start + t1, scale)} past the gap"
            )
        placed.append((job_id, i, 1, start, t1))
        bottom[i] = start + t1
        heapq.heappush(heap, (key + t1, i))
    columns = [int_array(c) for c in zip(*placed)] or [int_array([])] * 5
    makespan = max((s + t for *_, s, t in placed), default=0)
    return Schedule.of_ints(scale, tuple(columns), Fraction(makespan, scale))

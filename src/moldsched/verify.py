"""Independent schedule validation and a tiny-instance exact optimum.

The validator re-derives everything from the instance and the raw placements;
it shares no code with the construction pipeline beyond the domain types, so
it can serve as the second route of the correctness argument.  It reads a
job's times only through ``Job.times`` (``Times.numerators`` reads the views
of one grid at once), never the instance's integer grid, and a schedule
only through ``Schedule.columns``, which no construction module calls.

A schedule's times are read as integers over a scale L that comes with it:
a start s is the integer s*L.  A schedule in integer form (every solver
schedule) brings its own L and numerators.  For one given as PlacedJobs (a
schedule file, an API caller), L is ``model.common_scale`` of every start
and duration: their lcm, or None past a cap, as a file can make L grow with
its length (one distinct prime denominator per placement), or for a time
not an int or a Fraction.

With an L, array passes decide (``_columns_pass``): one placement per job
id, by one sort of the placed ids against ``Instance.id_order``; starts >=
0 and parts within [0, m); every duration t(j, width) = p/q as t*q == p*L,
in int64 only where no product can wrap; and no overlap, by one sort of
the key machine*(latest end + 1) + start of every part (with a zero-length
part, or a key past int64, ``_overlaps`` decides).  When all pass, nothing
else runs.  Otherwise, or with no L, ``_job_checks`` writes the report from
exact values: each start, duration and end is read once, as
``Fraction(x, L)`` or as given, and the per-job loop and ``_overlaps`` (one
sort of every (machine, start, end, job) of the parts) run on them.  The
makespan is one array max over the ends before the paths split, 0 when no
part ends after 0.  The report does not depend on the form or the path: the
same violations in the same order.

A job may appear as several placement rows (parts on disjoint machine
intervals with a common start) -- that is the non-contiguous reading used by
schedule files.  Contiguity then additionally requires the union of the
intervals to be one run of machines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .model import Instance, Schedule, Times, int_array

_ORACLE_MAX_N = 4
_ORACLE_MAX_M = 4


@dataclass(frozen=True)
class Violation:
    kind: str  # overlap | width | start | duration | placement | bounds | missing | unknown-job | makespan | contiguity
    job_ids: tuple[int, ...]
    machine: Optional[int] = None
    window: Optional[tuple[Fraction, Fraction]] = None
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    feasible: bool
    contiguous: bool
    makespan: Fraction
    violations: tuple[Violation, ...]
    ratio_vs: Optional[tuple[str, Fraction]] = None  # (baseline kind, ratio)

    def ok(self, require_contiguous: bool = True) -> bool:
        return self.feasible and (self.contiguous or not require_contiguous)


def validate_schedule(
    inst: Instance, sched: Schedule, require_contiguous: bool = True
) -> VerificationReport:
    """Check placement completeness, durations, disjointness, and contiguity.

    Feasibility violations are always reported; contiguity breaks set the
    ``contiguous`` flag and are listed among the violations only when
    ``require_contiguous`` is set.  A repeated job id in the instance, of
    which ``by_id`` keeps one job, raises ValueError, and a placement's job
    id, first machine or width that is not an int raises TypeError.
    """
    inst.id_order  # ValueError names a repeated job id
    scale, columns = sched.columns()  # times over L, or as given when L is None
    end = (columns[3] + columns[4]).max(initial=0)  # 0 when no part ends after 0
    makespan = end if scale is None else Fraction(int(end), scale)
    if scale is not None and _columns_pass(inst, scale, columns):
        feas, contig = [], []
    else:
        feas, contig = _job_checks(inst, scale, columns)
    if makespan != sched.makespan:
        detail = f"recorded {sched.makespan}, recomputed {makespan}"
        feas.append(Violation("makespan", (), detail=detail))
    listed = feas + contig if require_contiguous else feas
    return VerificationReport(not feas, not contig, makespan, tuple(listed))


def _job_checks(inst: Instance, scale: Optional[int], columns: tuple) -> tuple:
    """(feasibility violations, contiguity breaks) of the placements
    given as the arrays of ``Schedule.columns``, job by job, with each start,
    duration and end read once as the time it stands for."""
    ids, first, width = (c.tolist() for c in columns[:3])
    times = (columns[3], columns[4], columns[3] + columns[4])
    start, dur, end = ([x if scale is None else Fraction(x, scale) for x in c.tolist()]
                       for c in times)
    m, known = inst.m, inst.by_id
    groups: dict[int, list[int]] = {}  # job id -> indices of its parts
    for i, j in enumerate(ids):
        groups.setdefault(j, []).append(i)
    feas = [Violation("missing", (job_id,)) for job_id in known if job_id not in groups]
    contig: list[Violation] = []
    for job_id, rows in groups.items():
        job = known.get(job_id)
        if job is None:
            feas.append(Violation("unknown-job", (job_id,)))
            continue
        i = rows[0]
        if len(rows) > 1 and len({(start[r], dur[r]) for r in rows}) > 1:
            feas.append(Violation("placement", (job_id,), detail="parts disagree on start/duration"))
            continue
        if start[i] < 0:
            feas.append(Violation("start", (job_id,), detail=f"start {start[i]} < 0"))
        k, one_run = width[i], True  # one in-bounds part: no machine set needed
        if len(rows) > 1 or not (1 <= k and 0 <= first[i] <= m - k):
            machines: set[int] = set()
            for r in rows:
                if width[r] < 1:
                    feas.append(Violation("width", (job_id,), detail="non-positive width"))
                if first[r] < 0 or first[r] + width[r] > m:
                    feas.append(Violation("bounds", (job_id,), machine=first[r]))
                part = range(max(first[r], 0), min(first[r] + width[r], m))
                if machines & set(part):
                    feas.append(Violation("placement", (job_id,), detail="parts share a machine"))
                machines.update(part)
            k = len(machines)
            one_run = not machines or max(machines) - min(machines) + 1 == k
        if not 1 <= k <= m:
            feas.append(Violation("width", (job_id,), detail=f"total width {k}"))
        elif dur[i] != job.times[k - 1]:
            detail = f"duration {dur[i]} != t(j,{k}) = {job.times[k - 1]}"
            feas.append(Violation("duration", (job_id,), detail=detail))
        if not one_run:
            contig.append(Violation("contiguity", (job_id,)))

    for a, b, mach in _overlaps(m, columns):
        window = (start[b], min(end[a], end[b]))
        feas.append(Violation("overlap", (ids[a], ids[b]), machine=mach, window=window))
    return feas, contig


def _columns_pass(inst: Instance, scale: int, columns: tuple) -> bool:
    """Whether the placements, times over scale, pass every check of the
    per-job loop and of ``_overlaps``, which then report nothing."""
    ids, first, width, start, dur = columns
    if len(ids) != inst.n or not len(ids):
        return len(ids) == inst.n
    if start.min() < 0 or width.min() < 1 or first.min() < 0 or (first + width).max() > inst.m:
        return False
    rows, own = inst.id_order  # the instance's rows and ids by job id
    placed = ids.argsort(kind="stable")
    if not (ids[placed] == own).all():
        return False
    at = np.empty(len(ids), dtype=np.intp)  # each job's placement, in job order
    at[rows] = placed
    views, k, t = [j.times for j in inst.jobs], width[at], dur[at]
    p, q = Times.numerators(views, k) or (  # else each time's own (p, q)
        int_array(c) for c in zip(*[v[i - 1].as_integer_ratio() for v, i in zip(views, k.tolist())])
    )
    q_top = q if isinstance(q, int) else int(q.max())
    if max(int(np.abs(t).max()) * q_top, int(np.abs(p).max()) * scale, q_top, scale) >> 63:
        t, p = t.astype(object), p.astype(object)  # an int64 product could wrap
    if not (t * q == p * scale).all():
        return False
    span = int((start + dur).max()) + 1  # machine*span + time packs the times of a machine
    if dur.min() <= 0 or inst.m * span > 1 << 63:  # else _overlaps decides, in its own order
        return not _overlaps(inst.m, columns)
    if width.max() > 1:
        part, first = _parts(first, width)
        start, dur = start[part], dur[part]
    key = first * span + start
    o = key.argsort()
    return not (key[o[1:]] < (key + dur)[o[:-1]]).any()


def _parts(first: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(placement row, machine) of each machine that each placement takes."""
    row = np.repeat(np.arange(len(width)), width)
    return row, first[row] + np.arange(len(row)) - np.repeat(np.cumsum(width) - width, width)


def _overlaps(m: int, columns: tuple) -> list[tuple[int, int, int]]:
    """(row a, row b, machine) for each overlap among the placements given as
    the arrays of ``Schedule.columns``: the machines in the order of their
    first placement (parts clipped to [0, m)), on each the parts sorted by
    (start, end, job id), and b overlapping a, the part before it."""
    ids, f, w, start, dur = columns
    lo = np.minimum(np.maximum(f, 0), m).astype(np.int64)
    row, mach = _parts(lo, np.maximum(np.minimum(f + w, m) - lo, 0).astype(np.int64))
    if len(row) < 2:
        return []
    _, at, inv = np.unique(mach, return_index=True, return_inverse=True)
    key = at[inv]  # the first index of the part's machine
    s, e = start[row], (start + dur)[row]
    o = np.lexsort((ids[row], e, s, key))
    key, s, e = key[o], s[o], e[o]
    hit = np.flatnonzero((key[1:] == key[:-1]) & (s[1:] < e[:-1]).astype(bool))
    return list(zip(row[o[hit]].tolist(), row[o[hit + 1]].tolist(), mach[o[hit]].tolist()))


def brute_force_opt(inst: Instance) -> Fraction:
    """Exact non-contiguous optimum for n <= 4, m <= 4 by full enumeration.

    Every allotment vector is combined with every job order, each left-shifted
    greedily: a job grabs the k machines that free up earliest and starts when
    the k-th of them is free.  Any rigid schedule normalizes to such a list
    schedule of its start-time order, so the minimum over both enumerations is
    the true optimum.
    """
    n = inst.n
    if n > _ORACLE_MAX_N or inst.m > _ORACLE_MAX_M:
        raise ValueError(
            f"brute_force_opt is capped at n<={_ORACLE_MAX_N}, m<={_ORACLE_MAX_M}"
        )
    if n == 0:
        return Fraction(0)
    jobs = inst.jobs
    best: Optional[Fraction] = None
    for allot in itertools.product(range(1, inst.m + 1), repeat=n):
        durations = [jobs[i].times[allot[i] - 1] for i in range(n)]
        for order in itertools.permutations(range(n)):
            free = [Fraction(0)] * inst.m
            for i in order:
                k = allot[i]
                free.sort()
                start = free[k - 1]
                end = start + durations[i]
                for slot in range(k):
                    free[slot] = end
            makespan = max(free)
            if best is None or makespan < best:
                best = makespan
    assert best is not None
    return best


def ratio_report(inst: Instance, result) -> VerificationReport:
    """Validate a solve result and attach a makespan ratio to a baseline.

    The baseline is the exact oracle when the instance is small enough,
    otherwise the certified lower bound from the search (initial bounds and
    the highest rejected guess); the latter makes the ratio an upper estimate.
    """
    report = validate_schedule(inst, result.schedule, require_contiguous=True)
    if inst.n <= _ORACLE_MAX_N and inst.m <= _ORACLE_MAX_M and inst.n > 0:
        baseline = ("oracle_opt", brute_force_opt(inst))
    else:
        baseline = ("lower_bound", result.certified_lower)
    kind, value = baseline
    ratio = None
    if value > 0:
        ratio = report.makespan / value
    elif report.makespan == 0:
        ratio = Fraction(1)
    return replace(report, ratio_vs=(kind, ratio) if ratio is not None else None)

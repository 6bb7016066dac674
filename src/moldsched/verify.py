"""Independent schedule validation and a tiny-instance exact optimum.

The validator re-derives everything from the instance and the raw placements;
it shares no code with the construction pipeline beyond the domain types, so
it can serve as the second route of the correctness argument.  It reads a
job's times only through ``Job.times`` (a view's ``Times.ratio`` gives one
as an integer pair), never the instance's integer grid.

Times are compared as exact integers over a scale L that comes with the
schedule: a start s is the integer s*L, an end (s + t)*L.  A schedule in
integer form (every solver schedule) brings its own L and numerators.  For
one given as PlacedJobs (a schedule file, an API caller), L is the lcm of
the denominators of every start and duration.  A schedule file can make L
grow with its length (one distinct prime denominator per placement); L is built
one denominator at a time, widest first, and once it outgrows the widest
single denominator by ``_LCM_MARGIN_BITS`` the same checks run on the
Fractions as given, whose cost does not grow with L.  Start and duration
types other than int and Fraction take that path too.

A duration is checked as t*q == p*L against t(j,k) = p/q.  Overlaps are
found by one sort of every (machine, start, end, job) of the parts.  The
report does not depend on the form or the path: the same violations in the
same order, with windows and a makespan equal to the Fractions
(``Fraction(x, L)`` on the integer path).

A job may appear as several placement rows (parts on disjoint machine
intervals with a common start) -- that is the non-contiguous reading used by
schedule files.  Contiguity then additionally requires the union of the
intervals to be one run of machines.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .model import Instance, PlacedJob, Schedule, Times, int_array

_ORACLE_MAX_N = 4
_ORACLE_MAX_M = 4

# L may be this many bits wider than the widest denominator before the
# integer pass gives way to Fractions.
_LCM_MARGIN_BITS = 64


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
    ``require_contiguous`` is set.
    """
    if sched.ints is not None:  # integer form: its own L and numerators
        scale, columns = sched.scale, sched.ints
        ids, first, width, start, dur = (c.tolist() for c in columns)
    else:
        placements = sched.placements
        scale = _common_denominator(placements)
        ids = [p.job_id for p in placements]
        first = [p.first_machine for p in placements]
        width = [p.width for p in placements]
        if scale is None:  # compare the times as given
            start = [p.start for p in placements]
            dur = [p.duration for p in placements]
        else:  # numerators over L
            start = [p.start.numerator * (scale // p.start.denominator) for p in placements]
            dur = [p.duration.numerator * (scale // p.duration.denominator) for p in placements]
        columns = (ids, first, width, start, dur)
    end = [s + t for s, t in zip(start, dur)]

    def exact(x):  # the time a start, duration or end stands for
        return x if scale is None else Fraction(x, scale)

    feas: list[Violation] = []
    contig: list[Violation] = []
    m = inst.m
    known = inst.by_id
    groups: dict[int, list[int]] = {}  # job id -> indices of its parts
    for i, j in enumerate(ids):
        groups.setdefault(j, []).append(i)

    for job_id in known:
        if job_id not in groups:
            feas.append(Violation("missing", (job_id,)))
    for job_id, rows in groups.items():
        job = known.get(job_id)
        if job is None:
            feas.append(Violation("unknown-job", (job_id,)))
            continue
        i = rows[0]
        if len(rows) > 1 and (
            len({start[r] for r in rows}) > 1 or len({dur[r] for r in rows}) > 1
        ):
            feas.append(
                Violation("placement", (job_id,), detail="parts disagree on start/duration")
            )
            continue
        if start[i] < 0:
            feas.append(Violation("start", (job_id,), detail=f"start {exact(start[i])} < 0"))
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
        elif _off(job.times, k, dur[i], scale):
            feas.append(
                Violation(
                    "duration",
                    (job_id,),
                    detail=f"duration {exact(dur[i])} != t(j,{k}) = {job.times[k - 1]}",
                )
            )
        if not one_run:
            contig.append(Violation("contiguity", (job_id,)))

    for a, b, mach in _overlaps(m, columns, scale is not None):
        window = (exact(start[b]), exact(min(end[a], end[b])))
        feas.append(Violation("overlap", (ids[a], ids[b]), machine=mach, window=window))

    makespan = exact(max(end, default=0))
    if makespan != sched.makespan:
        feas.append(
            Violation(
                "makespan",
                (),
                detail=f"recorded {sched.makespan}, recomputed {makespan}",
            )
        )

    listed = feas + contig if require_contiguous else feas
    return VerificationReport(
        feasible=not feas,
        contiguous=not contig,
        makespan=makespan,
        violations=tuple(listed),
    )


def _off(times, k: int, t, scale: Optional[int]) -> bool:
    """Whether duration t, over scale or as given when scale is None, differs
    from t(j,k) = times[k-1]; compared as integers unless scale is None."""
    if scale is None:
        return t != times[k - 1]
    p, q = times.ratio(k - 1) if isinstance(times, Times) else times[k - 1].as_integer_ratio()
    return t * q != p * scale


def _overlaps(m: int, columns: tuple, integer: bool) -> list[tuple[int, int, int]]:
    """(row a, row b, machine) for each overlap among the placements given as
    columns (job id, first machine, width, start, duration), lists or arrays
    of ints, of any time when not integer: the machines in the order of their
    first placement (parts clipped to [0, m)), on each the parts sorted by
    (start, end, job id), and b overlapping a, the part before it."""
    ids, first, width, start, dur = columns
    f, w = int_array(first), int_array(width)
    lo = np.minimum(np.maximum(f, 0), m)
    count = np.maximum(np.minimum(f + w, m) - lo, 0).astype(np.int64)
    row = np.repeat(np.arange(len(f)), count)
    if len(row) < 2:
        return []
    offset = np.repeat(np.cumsum(count) - count, count)
    mach = lo.astype(np.int64)[row] + np.arange(len(row)) - offset
    _, at, inv = np.unique(mach, return_index=True, return_inverse=True)
    key = at[inv]  # the first index of the part's machine
    times = int_array if integer else functools.partial(np.array, dtype=object)
    s, t = times(start), times(dur)
    s, e = s[row], (s + t)[row]
    o = np.lexsort((int_array(ids)[row], e, s, key))
    key, s, e = key[o], s[o], e[o]
    hit = np.flatnonzero((key[1:] == key[:-1]) & (s[1:] < e[:-1]).astype(bool))
    return list(zip(row[o[hit]].tolist(), row[o[hit + 1]].tolist(), mach[o[hit]].tolist()))


def _common_denominator(placements: tuple[PlacedJob, ...]) -> Optional[int]:
    """L, the lcm of every start and duration denominator, or None when
    there is a time that is not an int or a Fraction, or when L would be
    more than _LCM_MARGIN_BITS wider than the widest denominator."""
    times = [x for p in placements for x in (p.start, p.duration)]
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

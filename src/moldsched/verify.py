"""Independent schedule validation and a tiny-instance exact optimum.

The validator re-derives everything from the instance and the raw placements;
it shares no code with the construction pipeline beyond the domain types, so
it can serve as the second route of the correctness argument.  It reads a
job's times only through ``Job.times``, never the instance's integer grid,
and derives its own time scale from the schedule it is given.

Times are compared as exact integers over L, the lcm of the denominators of
every placement's start and duration: a start s becomes s*L, an end
(s + t)*L, and machine intervals sort as int tuples.  A solver schedule's
starts are sums of times and shelf heights, so L is mostly its widest
denominator.  A schedule file can instead make L grow with its length (one
distinct prime denominator per placement); L is built one denominator at a
time, widest first, and once it outgrows the widest single denominator by
``_LCM_MARGIN_BITS`` the same checks run on the Fractions as given, whose
cost does not grow with L.  Start and duration types other than int and
Fraction take that path too.  The report does not depend on the path: the
same violations in the same order, with windows and a makespan equal to the
Fractions (``Fraction(x, L)`` on the integer path).

A job may appear as several placement rows (parts on disjoint machine
intervals with a common start) -- that is the non-contiguous reading used by
schedule files.  Contiguity then additionally requires the union of the
intervals to be one run of machines.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .model import Instance, PlacedJob, Schedule

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
    feas: list[Violation] = []
    contig: list[Violation] = []
    m = inst.m
    known = inst.by_id
    placements = sched.placements
    scale = _common_denominator(placements)
    if scale is None:  # compare the times as given
        spans = [(p.start, p.start + p.duration) for p in placements]
    else:  # (start, end) * L
        spans = []
        for p in placements:
            s = p.start.numerator * (scale // p.start.denominator)
            spans.append((s, s + p.duration.numerator * (scale // p.duration.denominator)))

    def exact(x):  # the time a value of spans stands for
        return x if scale is None else Fraction(x, scale)

    groups: dict[int, list[int]] = {}  # job id -> indices of its parts
    for i, p in enumerate(placements):
        groups.setdefault(p.job_id, []).append(i)

    for job_id in known:
        if job_id not in groups:
            feas.append(Violation("missing", (job_id,)))
    for job_id, rows in groups.items():
        job = known.get(job_id)
        if job is None:
            feas.append(Violation("unknown-job", (job_id,)))
            continue
        parts = [placements[i] for i in rows]
        p = parts[0]
        if len(parts) > 1 and (
            len({q.start for q in parts}) > 1 or len({q.duration for q in parts}) > 1
        ):
            feas.append(
                Violation("placement", (job_id,), detail="parts disagree on start/duration")
            )
            continue
        if spans[rows[0]][0] < 0:
            feas.append(Violation("start", (job_id,), detail=f"start {p.start} < 0"))
        k, one_run = p.width, True  # one in-bounds part: no machine set needed
        if len(parts) > 1 or not (1 <= p.width and 0 <= p.first_machine <= m - p.width):
            machines: set[int] = set()
            for q in parts:
                if q.width < 1:
                    feas.append(Violation("width", (job_id,), detail="non-positive width"))
                part = q.machines
                if q.first_machine < 0 or q.first_machine + q.width > m:
                    feas.append(Violation("bounds", (job_id,), machine=q.first_machine))
                    part = _clipped(q, m)
                if machines & set(part):
                    feas.append(Violation("placement", (job_id,), detail="parts share a machine"))
                machines.update(part)
            k = len(machines)
            one_run = not machines or max(machines) - min(machines) + 1 == k
        if not 1 <= k <= m:
            feas.append(Violation("width", (job_id,), detail=f"total width {k}"))
        elif p.duration != job.times[k - 1]:
            feas.append(
                Violation(
                    "duration",
                    (job_id,),
                    detail=f"duration {p.duration} != t(j,{k}) = {job.times[k - 1]}",
                )
            )
        if not one_run:
            contig.append(Violation("contiguity", (job_id,)))

    per_machine: dict[int, list[tuple]] = {}
    for p, (s, e) in zip(placements, spans):
        part = p.machines
        if p.first_machine < 0 or p.first_machine + p.width > m:
            part = _clipped(p, m)
        iv = (s, e, p.job_id)
        for mach in part:
            per_machine.setdefault(mach, []).append(iv)
    for mach, ivs in per_machine.items():
        ivs.sort()
        for (s1, e1, j1), (s2, e2, j2) in zip(ivs, ivs[1:]):
            if s2 < e1:
                window = (exact(s2), exact(min(e1, e2)))
                feas.append(Violation("overlap", (j1, j2), machine=mach, window=window))

    makespan = exact(max((e for _, e in spans), default=0))
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


def _clipped(p: PlacedJob, m: int) -> range:
    """An out-of-bounds part's machines within [0, m): a huge width costs nothing."""
    return range(max(p.first_machine, 0), min(p.first_machine + p.width, m))


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

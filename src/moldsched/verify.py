"""Independent schedule validation and a tiny-instance exact optimum.

The validator re-derives everything from the instance and the raw placements
with exact rational arithmetic; it shares no code with the construction
pipeline beyond the domain types, so it can serve as the second route of the
correctness argument.

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

from .model import Instance, PlacedJob, Schedule

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
    ``require_contiguous`` is set.
    """
    feas: list[Violation] = []
    contig: list[Violation] = []
    known = inst.by_id
    groups: dict[int, list] = {}
    for p in sched.placements:
        groups.setdefault(p.job_id, []).append(p)

    for job_id in known:
        if job_id not in groups:
            feas.append(Violation("missing", (job_id,)))
    for job_id, rows in groups.items():
        job = known.get(job_id)
        if job is None:
            feas.append(Violation("unknown-job", (job_id,)))
            continue
        starts = {p.start for p in rows}
        durations = {p.duration for p in rows}
        if len(starts) > 1 or len(durations) > 1:
            feas.append(
                Violation("placement", (job_id,), detail="parts disagree on start/duration")
            )
            continue
        start = rows[0].start
        duration = rows[0].duration
        if start < 0:
            feas.append(Violation("start", (job_id,), detail=f"start {start} < 0"))
        machines: set[int] = set()
        for p in rows:
            if p.width < 1:
                feas.append(Violation("width", (job_id,), detail="non-positive width"))
            part = p.machines
            if p.first_machine < 0 or p.first_machine + p.width > inst.m:
                feas.append(Violation("bounds", (job_id,), machine=p.first_machine))
                part = _clipped(p, inst.m)
            if machines & set(part):
                feas.append(Violation("placement", (job_id,), detail="parts share a machine"))
            machines.update(part)
        k = len(machines)
        if not 1 <= k <= inst.m:
            feas.append(Violation("width", (job_id,), detail=f"total width {k}"))
        elif duration != job.times[k - 1]:
            feas.append(
                Violation(
                    "duration",
                    (job_id,),
                    detail=f"duration {duration} != t(j,{k}) = {job.times[k - 1]}",
                )
            )
        if machines and (max(machines) - min(machines) + 1 != k):
            contig.append(Violation("contiguity", (job_id,)))

    per_machine: dict[int, list[tuple[Fraction, Fraction, int]]] = {}
    for p in sched.placements:
        part = p.machines
        if p.first_machine < 0 or p.first_machine + p.width > inst.m:
            part = _clipped(p, inst.m)
        for mach in part:
            per_machine.setdefault(mach, []).append((p.start, p.end, p.job_id))
    for mach, ivs in per_machine.items():
        ivs.sort()
        for (s1, e1, j1), (s2, e2, j2) in zip(ivs, ivs[1:]):
            if s2 < e1:
                feas.append(
                    Violation("overlap", (j1, j2), machine=mach, window=(s2, min(e1, e2)))
                )

    makespan = max((p.end for p in sched.placements), default=Fraction(0))
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

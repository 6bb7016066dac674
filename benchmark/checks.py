"""Independent output checks and output digests for benchmark solves.

A solve's output is reduced to a canonical tuple (makespan, accepted_d,
lambda_used, sorted placements, certified lower bound); the same tuple is
built from an API ``SolveResult`` and from a CLI schedule file, so both paths
share one check and one digest.  The verifier is bound here at import, before
any tracing wrapper is installed, so a check never counts as a layer call.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from moldsched.driver import initial_bounds
from moldsched.model import (
    LAMBDA_STAR_UPPER,
    Instance,
    PlacedJob,
    Schedule,
)
from moldsched.verify import validate_schedule

LAMBDAS = (Fraction(10, 7), Fraction(13, 9), LAMBDA_STAR_UPPER)


@dataclass(frozen=True)
class Output:
    makespan: Fraction
    accepted_d: Fraction
    lambda_used: Fraction
    placements: tuple[tuple[int, int, int, Fraction, Fraction], ...]
    certified_lower: Optional[Fraction] = None  # absent from CLI schedule files

    def key(self) -> str:
        """sha256 over (makespan, accepted_d, lambda_used, sorted placements)."""
        text = "|".join(
            [str(self.makespan), str(self.accepted_d), str(self.lambda_used)]
            + [",".join(str(x) for x in p) for p in self.placements]
        )
        return hashlib.sha256(text.encode()).hexdigest()


def from_result(result) -> Output:
    return Output(
        result.makespan,
        result.accepted_d,
        result.lambda_used,
        tuple(
            sorted(
                (p.job_id, p.first_machine, p.width, p.start, p.duration)
                for p in result.schedule.placements
            )
        ),
        result.certified_lower,
    )


def from_schedule_file(path) -> Output:
    """Parse a ``moldsched solve --out`` file without the package's reader."""
    with open(path) as fh:
        obj = json.load(fh)
    return Output(
        Fraction(obj["makespan"]),
        Fraction(obj["accepted_d"]),
        Fraction(obj["lambda"]),
        tuple(
            sorted(
                (
                    int(p["job"]),
                    int(p["first_machine"]),
                    int(p["width"]),
                    Fraction(p["start"]),
                    Fraction(p["duration"]),
                )
                for p in obj["placements"]
            )
        ),
    )


def check(inst: Instance, eps: Fraction, out: Output) -> list[str]:
    """Problems with one output; empty means it passes.

    Feasible and contiguous by the verifier, makespan <= lambda_used *
    accepted_d, lambda_used one of the three stretch factors, accepted_d <=
    (1 + eps) * certified_lower, and initial lower bound <= certified_lower
    <= makespan, all in exact rationals.
    """
    problems = []
    sched = Schedule(tuple(PlacedJob(*p) for p in out.placements), out.makespan)
    report = validate_schedule(inst, sched, require_contiguous=True)
    if not report.feasible:
        problems.append(
            "infeasible: " + ", ".join(sorted({v.kind for v in report.violations}))
        )
    if not report.contiguous:
        problems.append("not contiguous")
    if not out.makespan <= out.lambda_used * out.accepted_d:
        problems.append(f"makespan {out.makespan} > lambda * accepted_d")
    if out.lambda_used not in LAMBDAS:
        problems.append(f"lambda_used {out.lambda_used} is not a stretch factor")
    if out.certified_lower is None:
        problems.append("no certified lower bound")
        return problems
    if not out.accepted_d <= (1 + eps) * out.certified_lower:
        problems.append(
            f"accepted_d {out.accepted_d} > (1 + eps) * certified_lower "
            f"{out.certified_lower}"
        )
    # initial lower <= certified_lower <= OPT <= makespan: an inflated
    # certificate would pass the line above and flatter makespan_ratio.
    if out.certified_lower > out.makespan:
        problems.append(f"certified_lower {out.certified_lower} > makespan {out.makespan}")
    if out.certified_lower < initial_bounds(inst).lower:
        problems.append(f"certified_lower {out.certified_lower} < the initial lower bound")
    return problems


def makespan_ratio(inst: Instance, out: Output) -> float:
    """makespan / max(certified_lower, initial_bounds(inst).lower)."""
    lower = max(out.certified_lower, initial_bounds(inst).lower)
    return float(out.makespan / lower)


def digest(keys: list[str]) -> str:
    """One short digest over the per-instance output keys, in instance order."""
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16]

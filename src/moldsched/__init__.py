"""Monotone moldable job scheduling with a worst-case stretch below 3/2.

A makespan guess d is either turned into a verified contiguous schedule of
length at most lam*d (lam in {10/7, 13/9, ~1.45933}) or certified as below
the optimum; a geometric binary search over d yields a
lambda*(1+eps)-approximation.  All decision arithmetic is exact rational.

This package exports the user API only; internals (shelf construction,
the knapsack, classification) are imported from their own modules, e.g.
``from moldsched.shelf import build_three_shelf``.
"""

from .driver import SolveResult, solve, try_guess
from .gen import GenConfig, adversarial_instance, generate
from .mckp import Reject
from .model import (
    LAMBDA_Q0,
    LAMBDA_SMALL_Q,
    LAMBDA_STAR_UPPER,
    Instance,
    Job,
    PlacedJob,
    Schedule,
    rat,
    validate_instance,
)
from .shelf import ShelfInvariantError
from .verify import (
    VerificationReport,
    Violation,
    brute_force_opt,
    ratio_report,
    validate_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "GenConfig",
    "Instance",
    "Job",
    "LAMBDA_Q0",
    "LAMBDA_SMALL_Q",
    "LAMBDA_STAR_UPPER",
    "PlacedJob",
    "Reject",
    "Schedule",
    "ShelfInvariantError",
    "SolveResult",
    "VerificationReport",
    "Violation",
    "adversarial_instance",
    "brute_force_opt",
    "generate",
    "rat",
    "ratio_report",
    "solve",
    "try_guess",
    "validate_instance",
    "validate_schedule",
]

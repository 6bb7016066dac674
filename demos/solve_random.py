#!/usr/bin/env python3
"""Walkthrough: generate a random monotone instance, solve it, inspect it.

Shows the full round trip: generation, the exact-rational solve, independent
verification, the makespan ratio against the certified lower bound, and an
SVG Gantt chart of the result.
"""

from fractions import Fraction
from pathlib import Path

from moldsched import GenConfig, generate, ratio_report, solve, validate_instance
from moldsched.cli import gantt_svg
from moldsched.driver import initial_bounds

inst = generate(GenConfig(n=60, m=24, seed=2024))
assert validate_instance(inst) == []
print(f"instance: n={inst.n} jobs on m={inst.m} machines")
print(f"  t(1, 1..4) = {[str(t) for t in inst.jobs[0].times[:4]]} ...")

bounds = initial_bounds(inst)
print(f"certified bounds on the optimum: [{float(bounds.lower):.3f}, {float(bounds.upper):.3f}]")

result = solve(inst, eps=Fraction(1, 20))
print(f"\naccepted guess d = {float(result.accepted_d):.4f} "
      f"after {result.iterations} bisection steps")
print(f"stretch met      = {result.lambda_used} (~{float(result.lambda_used):.4f}), "
      f"by the {result.construction} schedule")
print(f"makespan         = {result.makespan} (~{float(result.makespan):.4f})")

report = ratio_report(inst, result)
kind, ratio = report.ratio_vs
print(f"feasible={report.feasible} contiguous={report.contiguous}")
print(f"makespan / {kind} = {float(ratio):.4f}")

out = Path(__file__).with_name("solve_random.svg")
out.write_text(gantt_svg(inst, result.schedule))
print(f"\nGantt chart written to {out}")

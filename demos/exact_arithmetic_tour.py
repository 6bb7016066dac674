#!/usr/bin/env python3
"""Walkthrough: the exact-rational core, piece by piece.

Every quantity the solver branches on is exact, so runs are bit-for-bit
reproducible: canonical machine counts, the integer time grid, the three
knapsack options per job, and the stretch constant that caps the worst case.
"""

from fractions import Fraction

from moldsched import LAMBDA_STAR_UPPER, Instance, Job, rat
from moldsched.mckp import build_items, search, solve_mckp
from moldsched.model import classify_jobs, gamma

# A job that runs in 1 on one machine, 0.5 on two, 0.34 on three.
job = Job(1, (rat(1), rat("0.5"), rat("0.34")))
inst = Instance(3, (job,))

print("canonical machine counts (smallest k finishing within h):")
for h in (rat(1), Fraction(4, 7), Fraction(3, 7), rat("0.2")):
    print(f"  gamma(j, {str(h):>4}) = {gamma(inst, job.id, h)}")

print("\nwork is time * machines and never shrinks with more machines:")
print(" ", [str(k * job.times[k - 1]) for k in (1, 2, 3)])

d = rat(1)
small, _ = classify_jobs(inst, d)  # the small-job row mask, and their work
items = build_items(inst, search(inst), small, d)
q, a = inst.grid
print(f"\nthe instance's integer grid: t(j,k) = A[j,k-1]/Q with Q = {q}, A = {a.tolist()}")
print(f"knapsack options at guess d = {d} (integer cost = work * Q, half-machine size):")
labels = ("full height", "4/7 height", "3/7 height")
for label, cost, size2 in zip(labels, items.cost[0].tolist(), items.size2[0].tolist()):
    print(f"  {label:11s}: cost {cost} (work {Fraction(cost, q)}), size {size2}")
pick = solve_mckp(items, inst.m)  # one class per knapsack item, in item order
print("minimum-cost pick, job id -> class:", dict(zip(items.ids, pick)))

print("\nthe worst-case stretch is the root of ln(x) = 3x - 4 near 1.4593;")
print("the solver uses an exact upper bracket of it, within 1e-6:")
print(f"  LAMBDA_STAR_UPPER = {LAMBDA_STAR_UPPER} (~{float(LAMBDA_STAR_UPPER):.9f})")

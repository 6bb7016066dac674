#!/usr/bin/env python3
"""Walkthrough: the exact-rational core, piece by piece.

Every quantity the solver branches on is exact, so runs are bit-for-bit
reproducible: canonical machine counts, the integer time grid, the three
knapsack options per job, and the stretch constant that caps the worst case.
"""

from fractions import Fraction

from moldsched import LAMBDA_STAR_UPPER, Instance, Job, rat
from moldsched.mckp import build_items, solve_mckp
from moldsched.model import classify_jobs, gamma, lambda_star, work

# A job that runs in 1 on one machine, 0.5 on two, 0.34 on three.
job = Job(1, (rat(1), rat("0.5"), rat("0.34")))
inst = Instance(3, (job,))

print("canonical machine counts (smallest k finishing within h):")
for h in (rat(1), Fraction(4, 7), Fraction(3, 7), rat("0.2")):
    print(f"  gamma(j, {str(h):>4}) = {gamma(job, h)}")

print("\nwork is time * machines and never shrinks with more machines:")
print(" ", [str(work(job, k)) for k in (1, 2, 3)])

d = rat(1)
cls = classify_jobs(inst, d)
items = build_items(inst, cls.big, d)
q, a = inst.grid
print(f"\nthe instance's integer grid: t(j,k) = A[j,k-1]/Q with Q = {q}, A = {a.tolist()}")
print(f"knapsack options at guess d = {d} (integer cost = work * Q, half-machine size):")
for opt, label in zip(items[0].options, ("full height", "4/7 height", "3/7 height")):
    print(f"  {label:11s}: cost {opt.cost} (work {Fraction(opt.cost, q)}), size {opt.size2}")
print("chosen:", solve_mckp(items, inst.m).assignment)

print("\nthe worst-case stretch is the root of ln(x) = 3x - 4 near 1.4593,")
print("bracketed from above by exact bisection:")
for tol in (Fraction(1, 10**4), Fraction(1, 10**6), Fraction(1, 10**8)):
    lam = lambda_star(tol)
    print(f"  tolerance {float(tol):.0e}: {lam} (~{float(lam):.9f})")
print(f"packaged default: {LAMBDA_STAR_UPPER} (~{float(LAMBDA_STAR_UPPER):.9f})")

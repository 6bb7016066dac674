#!/usr/bin/env python3
"""Walkthrough: the constant-work family that stresses the guarantee.

Ten jobs with constant work functions (6.01, 0.99, and eight 0.75) on 13
machines have total work exactly 13, so the optimum packs them to makespan 1.
The knapsack step, which only sees work totals, is free to park the heavy job
on many machines, and the resulting schedule lands visibly above the optimum
while staying within the proven stretch.
"""

from fractions import Fraction

from moldsched import adversarial_instance, solve

inst = adversarial_instance()
works = [j.times[0] for j in inst.jobs]  # work is constant: t(j,1) = k*t(j,k)
print(f"m = {inst.m}, works = {[str(w) for w in works]}")
print(f"total work = {sum(works)}  =>  optimum makespan = 1 (pack everything)")

result = solve(inst, eps=Fraction(1, 20))
print(f"\nknapsack classes chosen: {dict(sorted(result.mckp_assignment.items()))}")
print(f"accepted d  = {result.accepted_d} (~{float(result.accepted_d):.4f})")
print(f"makespan    = {result.makespan} (~{float(result.makespan):.4f})")
print(f"ratio       = ~{float(result.makespan):.4f} vs OPT = 1")
print(f"stretch cap = {result.lambda_used} * (1 + 1/20) = "
      f"~{float(result.lambda_used) * 1.05:.4f}")

print("\nschedule (machine interval, time window, job):")
for p in sorted(result.schedule.placements, key=lambda p: (p.start, p.first_machine)):
    print(f"  machines [{p.first_machine:2d}, {p.first_machine + p.width:2d})  "
          f"time [{float(p.start):7.4f}, {float(p.end):7.4f})  job {p.job_id}")

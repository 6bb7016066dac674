import random

import pytest

from moldsched import (
    PlacedJob,
    Schedule,
    brute_force_opt,
    rat,
    ratio_report,
    solve,
    validate_schedule,
)
from moldsched.driver import initial_bounds
from moldsched.model import make_schedule
from util import instance, job, random_instance


class TestValidateSchedule:
    def test_empty(self):
        rep = validate_schedule(instance(2), make_schedule([]))
        assert rep.feasible and rep.contiguous and rep.makespan == 0

    def test_overlap_detected(self):
        inst = instance(4, job(1, *[2] * 4), job(2, *[2] * 4))
        sched = make_schedule(
            [PlacedJob(1, 3, 1, rat(0), rat(2)), PlacedJob(2, 3, 1, rat(1), rat(2))]
        )
        rep = validate_schedule(inst, sched)
        kinds = {(v.kind, v.machine) for v in rep.violations}
        assert ("overlap", 3) in kinds
        assert not rep.feasible

    def test_touching_intervals_are_fine(self):
        inst = instance(1, job(1, 2), job(2, 2))
        sched = make_schedule(
            [PlacedJob(1, 0, 1, rat(0), rat(2)), PlacedJob(2, 0, 1, rat(2), rat(2))]
        )
        rep = validate_schedule(inst, sched)
        assert rep.feasible and rep.makespan == 4

    def test_noncontiguous_parts(self):
        inst = instance(3, job(1, 6, 3, 2))
        sched = make_schedule(
            [PlacedJob(1, 0, 1, rat(0), rat(3)), PlacedJob(1, 2, 1, rat(0), rat(3))]
        )
        rep = validate_schedule(inst, sched, require_contiguous=True)
        assert rep.feasible           # duration t(1,2)=3 on 2 machines, same start
        assert not rep.contiguous
        assert any(v.kind == "contiguity" for v in rep.violations)
        rep2 = validate_schedule(inst, sched, require_contiguous=False)
        assert rep2.feasible and not rep2.contiguous
        assert not any(v.kind == "contiguity" for v in rep2.violations)

    def test_duration_mismatch(self):
        inst = instance(2, job(1, 6, 3))
        sched = make_schedule([PlacedJob(1, 0, 2, rat(0), rat(4))])
        rep = validate_schedule(inst, sched)
        assert any(v.kind == "duration" for v in rep.violations)

    def test_missing_and_unknown(self):
        inst = instance(2, job(1, 1, 1))
        sched = make_schedule([PlacedJob(9, 0, 1, rat(0), rat(1))])
        rep = validate_schedule(inst, sched)
        kinds = {v.kind for v in rep.violations}
        assert "missing" in kinds and "unknown-job" in kinds

    def test_huge_width_is_a_bounds_violation(self):
        # The part is clipped to the m machines before it is expanded.
        inst = instance(2, job(1, 2, 1))
        sched = make_schedule([PlacedJob(1, 0, 10**12, rat(0), rat(1))])
        rep = validate_schedule(inst, sched)
        assert ("bounds", 0) in {(v.kind, v.machine) for v in rep.violations}
        assert not rep.feasible

    def test_makespan_field_checked(self):
        inst = instance(1, job(1, 2))
        sched = Schedule((PlacedJob(1, 0, 1, rat(0), rat(2)),), rat(99))
        rep = validate_schedule(inst, sched)
        assert any(v.kind == "makespan" for v in rep.violations)


class TestBruteForceOpt:
    def test_examples(self):
        assert brute_force_opt(instance(2, job(1, 6, 3))) == 3
        assert brute_force_opt(instance(1, job(1, 2), job(2, 2))) == 4
        assert brute_force_opt(instance(2, job(1, 4, 2), job(2, 4, 2))) == 4

    def test_caps(self):
        with pytest.raises(ValueError):
            brute_force_opt(instance(2, *[job(i, 1, 1) for i in range(1, 6)]))
        with pytest.raises(ValueError):
            brute_force_opt(instance(5, job(1, *[1] * 5)))

    def test_lower_bound_consistency(self):
        rng = random.Random(71)
        for _ in range(60):
            inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 4))
            opt = brute_force_opt(inst)
            lb = max(
                sum(j.times[0] for j in inst.jobs) / inst.m,
                max(j.times[-1] for j in inst.jobs),
            )
            assert opt >= lb

    def test_invariance_under_relabeling(self):
        rng = random.Random(73)
        for _ in range(25):
            inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 4))
            opt = brute_force_opt(inst)
            shuffled = list(inst.jobs)
            rng.shuffle(shuffled)
            assert brute_force_opt(instance(inst.m, *shuffled)) == opt


class TestRatioReport:
    def test_tiny_uses_oracle(self):
        inst = instance(2, job(1, 4, 2), job(2, 4, 2))
        r = solve(inst, rat("0.05"))
        rep = ratio_report(inst, r)
        kind, ratio = rep.ratio_vs
        assert kind == "oracle_opt"
        assert ratio == r.makespan / 4

    def test_large_uses_lower_bound(self):
        rng = random.Random(79)
        inst = random_instance(rng, 8, 6)
        r = solve(inst, rat("0.05"))
        rep = ratio_report(inst, r)
        kind, ratio = rep.ratio_vs
        assert kind == "lower_bound"
        assert ratio >= 1 or r.makespan <= max(r.certified_lower, initial_bounds(inst).lower)

import collections
import dataclasses
import logging
import math
import operator
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from moldsched import (
    GenConfig,
    Instance,
    Job,
    LAMBDA_Q0,
    LAMBDA_SMALL_Q,
    LAMBDA_STAR_UPPER,
    Reject,
    ShelfInvariantError,
    adversarial_instance,
    brute_force_opt,
    driver,
    generate,
    listsched,
    mckp,
    rat,
    shelf,
    solve,
    try_guess,
    validate_instance,
    validate_schedule,
)
from moldsched.driver import SearchBounds, initial_bounds
from util import (
    allotment,
    bisection_solve,
    const_work_job,
    dp_assignment,
    grid_keys,
    instance,
    items_at,
    job,
    property_settings,
    random_instance,
    record_callers,
)

RATIO_CAP = rat("1.4594") * rat("1.05")


class TestInitialBounds:
    def test_single_job(self):
        b = initial_bounds(instance(1, job(1, 5)))
        assert (b.lower, b.upper) == (5, 5)

    def test_two_jobs(self):
        b = initial_bounds(instance(2, job(1, 4, 2), job(2, 4, 2)))
        assert b.lower == 4  # max(8/2, 2)
        assert b.upper == 8

    def test_adversarial_lower_bound_is_opt(self):
        inst = adversarial_instance()
        b = initial_bounds(inst)
        assert b.lower == 1  # total work 13 over 13 machines
        assert b.upper == 13

    def test_no_jobs(self):
        assert initial_bounds(Instance(3, ())) == SearchBounds(0, 0)


class TestTryGuess:
    def test_upper_bound_always_accepts(self):
        rng = random.Random(51)
        for _ in range(20):
            inst = random_instance(rng, rng.randint(1, 10), rng.randint(1, 8))
            d = initial_bounds(inst).upper
            out = try_guess(inst, d)
            assert not isinstance(out, Reject)
            assert validate_schedule(inst, out).feasible

    def test_below_lower_bound_rejects(self):
        rng = random.Random(53)
        for _ in range(20):
            inst = random_instance(rng, rng.randint(1, 8), rng.randint(1, 6))
            d = initial_bounds(inst).lower / 2
            out = try_guess(inst, d)
            assert isinstance(out, Reject)

    def test_never_rejects_at_or_above_opt(self):
        rng = random.Random(57)
        for _ in range(30):
            inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 4))
            opt = brute_force_opt(inst)
            for mult in (rat(1), rat("1.01"), rat("1.5"), rat(2)):
                out = try_guess(inst, opt * mult)
                assert not isinstance(out, Reject), (inst, mult)

    def test_reads_d_by_rat(self):
        # A float is read by its decimal literal: 0.35 is 7/20, not the double.
        inst = instance(4, job(1, 8, 4, 3, 3), job(2, 5, 3, 2, 2))
        accepted = try_guess(inst, Fraction(9, 2))
        assert not isinstance(accepted, Reject)
        assert try_guess(inst, 4.5) == try_guess(inst, "9/2") == accepted
        assert try_guess(inst, 0.35) == try_guess(inst, "0.35") == Reject(
            Fraction(7, 20), "job-exceeds-guess", 1)
        with pytest.raises(TypeError):
            try_guess(inst, True)

    def test_accept_is_monotone_in_d(self):
        # Not proven in general; monitored on a sample and flagged if it breaks.
        rng = random.Random(59)
        for _ in range(15):
            inst = random_instance(rng, rng.randint(1, 8), rng.randint(1, 6))
            b = initial_bounds(inst)
            grid = sorted(
                b.lower * (1 + Fraction(i, 7) * (b.upper / b.lower - 1)) for i in range(8)
            )
            verdicts = [not isinstance(try_guess(inst, d), Reject) for d in grid if d > 0]
            assert verdicts == sorted(verdicts), "acceptance was not monotone in d"


class TestSolve:
    def test_single_job(self):
        inst = instance(1, job(1, 5))
        r = solve(inst, rat("0.05"))
        assert r.makespan == 5
        assert r.accepted_d <= rat(5) * rat("1.05")

    def test_empty_instance(self):
        r = solve(instance(3), rat("0.05"))
        assert r.makespan == 0 and r.schedule.placements == ()

    def test_ideally_parallel_jobs(self):
        # Six constant-work jobs on three machines: the optimum packs two
        # per machine, OPT = 2.
        inst = instance(3, *[const_work_job(i, 1, 3) for i in range(1, 7)])
        r = solve(inst, rat("0.05"))
        assert validate_schedule(inst, r.schedule).feasible
        assert r.makespan <= RATIO_CAP * 2

    def test_adversarial_instance(self):
        inst = adversarial_instance()
        r = solve(inst, rat("0.05"))
        report = validate_schedule(inst, r.schedule)
        assert report.feasible and report.contiguous
        assert 1 <= r.makespan <= RATIO_CAP  # OPT = 1
        assert r.makespan <= r.lambda_used * r.accepted_d

    def test_makespan_within_lambda_of_accepted_guess(self):
        rng = random.Random(61)
        for _ in range(25):
            inst = random_instance(rng, rng.randint(1, 12), rng.randint(1, 10))
            r = solve(inst, rat("0.05"))
            assert r.lambda_used in (LAMBDA_Q0, LAMBDA_SMALL_Q, LAMBDA_STAR_UPPER)
            assert r.makespan <= r.lambda_used * r.accepted_d
            assert r.accepted_d <= (1 + rat("0.05")) * max(r.certified_lower, initial_bounds(inst).lower)

    def test_iteration_bound(self):
        rng = random.Random(67)
        for _ in range(15):
            inst = random_instance(rng, rng.randint(2, 12), rng.randint(1, 8))
            eps = rat("0.05")
            b = initial_bounds(inst)
            r = solve(inst, eps)
            if b.upper > (1 + eps) * b.lower:
                bound = math.ceil(
                    math.log2(math.log(b.upper / b.lower) / math.log(1 + float(eps)))
                ) + 1
                assert r.iterations <= bound
            else:
                assert r.iterations == 0

    def test_eps_domain(self):
        inst = instance(1, job(1, 5))
        with pytest.raises(ValueError):
            solve(inst, rat(0))
        with pytest.raises(ValueError):
            solve(inst, rat(2))

    def test_builds_one_schedule_after_the_search(self, monkeypatch):
        # The search decides guesses by the knapsack alone; the schedule is
        # built and verified once, at the last accepted guess.  At n=12, m=8
        # the last probe of an all-accept search accepts, which settles all
        # six; at n=80, m=800 each of the 13 probes is decided, and the upper
        # bound is not.
        verdicts = []
        verified = []
        attempt, validate = driver._attempt, driver.validate_schedule

        def counting_attempt(*args):
            out = attempt(*args)
            verdicts.append(not isinstance(out, Reject))
            return out

        def counting_validate(*args, **kwargs):
            verified.append(args)
            return validate(*args, **kwargs)

        monkeypatch.setattr(driver, "_attempt", counting_attempt)
        monkeypatch.setattr(driver, "validate_schedule", counting_validate)
        for n, m, seed, eps, iterations, decisions in [
            (12, 8, 0, Fraction(1, 20), 6, [True]),
            (80, 800, 1, Fraction(1, 1000), 13, [True, True, False, False, True, False, False,
                                                 False, True, False, False, True, True]),
        ]:
            verdicts.clear()
            verified.clear()
            inst = generate(GenConfig(n=n, m=m, seed=seed))
            r = solve(inst, eps)
            assert (r.iterations, r.decided, verdicts) == (iterations, len(decisions), decisions)
            assert len(verified) == 1
            assert verified[0][1] is r.schedule
            assert set(r.timings) == {"mckp", "list", "shelf", "small", "verify"}
            assert all(t >= 0 for t in r.timings.values())

    def test_every_returned_schedule_is_in_integer_form(self, monkeypatch):
        # The list schedule, the shelves forced at the accepted guess (n=6,
        # m=4: seed 2 ends in the many-idle-machines repair, seed 1 in the
        # few-idle-machines one), try_guess's shelves and the empty result.
        repairs = collections.Counter()

        def counted(name, repair):
            def wrapped(ss):
                repairs[name] += 1
                return repair(ss)
            return wrapped

        for name in ("repair_s2_small_q", "repair_s2_large_q"):
            monkeypatch.setattr(shelf, name, counted(name, getattr(shelf, name)))
        for seed in (2, 1):
            inst = generate(GenConfig(n=6, m=4, seed=seed))
            r = solve(inst)
            forced, _ = driver._shelves(inst, grid_keys(inst), r.accepted_d, r.mckp_assignment, {"verify": 0.0})
            for sched in (r.schedule, forced, try_guess(inst, r.accepted_d)):
                assert sched.ints is not None and validate_schedule(inst, sched).ok()
        assert repairs["repair_s2_small_q"] and repairs["repair_s2_large_q"]
        assert solve(instance(3)).schedule.ints is not None

    def test_one_knapsack_dp_per_solve(self, monkeypatch):
        # Exact bounds settle most guesses, and an accept carries the
        # partition that certified it: solve runs the DP once for each guess
        # the bounds leave open and never again.  The try_guess probe builds
        # from the accepting pick, so it runs the DP only when the bounds
        # leave the accepted guess open.
        calls, left_open = [], []
        dp, decide = mckp.solve_mckp, mckp.decide

        def recording_decide(items, m, budget):
            verdict = decide(items, m, budget)
            if verdict.by == "dp":
                left_open.append(items)
            return verdict

        monkeypatch.setattr(mckp, "solve_mckp", lambda *a: calls.append(a[0]) or dp(*a))
        monkeypatch.setattr(mckp, "decide", recording_decide)
        opened, probed = {}, {}
        for seed in (1, 5):
            calls.clear()
            left_open.clear()
            inst = generate(GenConfig(n=80, m=800, seed=seed))
            r = solve(inst, Fraction(1, 1000))
            assert r.iterations >= 8 and r.mckp_assignment
            assert len(calls) == len(left_open) and all(map(operator.is_, calls, left_open))
            opened[seed] = len(calls)
            calls.clear()
            assert not isinstance(try_guess(inst, r.accepted_d), Reject)
            assert len(calls) == (r.partition_by == "dp")
            probed[seed] = len(calls)
        assert opened == {1: 0, 5: 1}
        assert probed == {1: 0, 5: 0}  # both accepted guesses are bound accepts

    @pytest.mark.parametrize("n, m, seed", [(40, 100, 1), (20, 50, 5)])
    def test_open_accepted_guess_builds_from_the_dps_partition(self, n, m, seed):
        # The bounds leave the last accepted guess of these solves open.
        inst = generate(GenConfig(n=n, m=m, seed=seed))
        r = solve(inst, Fraction(1, 1000))
        items, verdict = driver._attempt(inst, r.accepted_d, grid_keys(inst))
        assignment = dict(zip(items.ids, verdict.pick))
        assert r.partition_by == verdict.by == "dp"
        assert r.mckp_assignment == assignment == dp_assignment(inst, r.accepted_d)
        assert r.construction == "list"
        assert r.schedule == listsched.list_schedule(
            inst, allotment(inst, r.accepted_d, r.mckp_assignment))

    def test_bound_accepted_guess_builds_from_the_greedy_pick(self):
        inst = generate(GenConfig(n=80, m=800, seed=1))
        r = solve(inst, Fraction(1, 1000))
        attempted, verdict = driver._attempt(inst, r.accepted_d, grid_keys(inst))
        assert r.partition_by == verdict.by == "bound"
        items = items_at(inst, r.accepted_d)
        assert r.mckp_assignment == dict(zip(attempted.ids, verdict.pick))
        assert r.mckp_assignment == dict(zip(items.ids, verdict.pick))
        best = mckp.pick_totals(items, mckp.solve_mckp(items, inst.m))[0]
        assert best <= mckp.pick_totals(items, verdict.pick)[0] == verdict.cost

    @pytest.mark.parametrize("n, m, seed, eps", [
        (40, 16, 3, Fraction(1, 20)), (80, 800, 1, Fraction(1, 1000)), (200, 8, 1, Fraction(1, 20)),
    ])
    def test_the_knapsack_counts_the_allotment_once(self, monkeypatch, n, m, seed, eps):
        # Every canonical machine count of a list-schedule solve comes from
        # one gammas search per guess, made by build_items over row keys
        # built once per solve: the allotment at the accepted guess reuses
        # the accepting items' widths and is not recounted.
        callers, guesses = record_callers(monkeypatch, "gammas", "row_keys"), []
        attempt = driver._attempt
        monkeypatch.setattr(driver, "_attempt", lambda *a: guesses.append(a) or attempt(*a))
        r = solve(generate(GenConfig(n=n, m=m, seed=seed)), eps)
        # One decision at n=40 and n=200, where every guess accepts; at
        # n=80, m=800 every probe but not the upper bound.
        assert r.construction == "list" and len(guesses) == r.decided == {40: 1, 80: 13, 200: 1}[n]
        assert callers["gammas"] == ["build_items"] * len(guesses)
        assert callers["row_keys"] == ["solve"]
        assert len({id(a[2]) for a in guesses}) == 1  # every guess reads the one key build

    @pytest.mark.parametrize("seed", [1, 2])
    def test_try_guess_builds_the_row_keys_once(self, monkeypatch, seed):
        # n=6, m=4 at the accepted guess: the knapsack and every shelf build
        # (seed 2's shelves rebuild at the Lambert-W stretch) count with the
        # keys try_guess built.
        inst = generate(GenConfig(n=6, m=4, seed=seed))
        d = solve(inst).accepted_d
        callers = record_callers(monkeypatch, "row_keys")
        builds = []
        build = shelf.build_three_shelf
        monkeypatch.setattr(shelf, "build_three_shelf", lambda *a: builds.append(a) or build(*a))
        assert not isinstance(try_guess(inst, d), Reject)
        assert len(builds) == {1: 1, 2: 2}[seed]
        assert callers["row_keys"] == ["try_guess"]

    def test_debug_log_names_the_certificate(self, caplog):
        inst = generate(GenConfig(n=80, m=800, seed=1))
        with caplog.at_level(logging.DEBUG, logger="moldsched.driver"):
            solve(inst, Fraction(1, 1000))
        lines = [rec.getMessage() for rec in caplog.records]
        assert any(" accepted by " in line for line in lines)
        rejects = [line for line in lines if " work-budget by bound: " in line]
        assert rejects
        for line in rejects:
            cost, budget = re.fullmatch(r"d=\S+ .*: cost (\S+), budget (\S+)", line).groups()
            assert Fraction(cost) > Fraction(budget)  # a lower bound above the budget
        assert not any("inferred" in line for line in lines)  # every probe is decided

    @pytest.mark.parametrize("n, m, seed, reasons", [
        # The last probe of an all-accept search is decided first and accepts.
        (300, 150, 1, ["accepted by bound"] + ["accepted, inferred: at or above a decided accept"] * 6),
        # No probe has a big job; the returned guess is decided at the end.
        (1000, 35, 1, ["accepted, inferred: every job small"] * 7 + ["accepted by bound"]),
        # That last probe rejects; the plain bisection reaches it again.
        (24, 16, 1, ["work-budget by bound", "accepted, inferred: every job small"]
         + ["accepted by bound"] * 4 + ["rejected, inferred: at or below a decided reject"]),
    ])
    def test_debug_log_names_each_inferred_verdict(self, caplog, n, m, seed, reasons):
        with caplog.at_level(logging.DEBUG, logger="moldsched.driver"):
            r = solve(generate(GenConfig(n=n, m=m, seed=seed)))
        lines = [rec.getMessage() for rec in caplog.records]
        pattern = r"d=[^\s,]+(?:, unit 1/\d+:)? (.*?)(?:: cost \S+, budget \S+)?"
        assert [re.fullmatch(pattern, line)[1] for line in lines] == reasons
        assert r.decided == sum("inferred" not in line for line in lines)


class TestInferredVerdicts:
    """solve decides a guess only when its verdict is not already known, and
    returns what a plain bisection that decides every guess returns."""

    FIELDS = ("schedule", "accepted_d", "certified_lower", "iterations", "lambda_used",
              "mckp_assignment", "partition_by", "construction")

    @staticmethod
    def _decided(monkeypatch):
        guesses, attempt = [], driver._attempt
        monkeypatch.setattr(driver, "_attempt", lambda *a: guesses.append(a[1]) or attempt(*a))
        return guesses

    def _assert_same(self, inst, eps):
        r, ref = solve(inst, eps), bisection_solve(inst, eps)
        for name in self.FIELDS:
            assert getattr(r, name) == getattr(ref, name), name
        assert r.decided <= ref.decided
        return r

    @pytest.mark.parametrize("n, m, seed, eps, decided", [
        (300, 150, 1, Fraction(1, 20), 1),     # at least m big jobs, every probe accepts
        (24, 16, 1, Fraction(1, 20), 5),       # at least m big jobs, the last probe rejects
        (20, 16, 1, Fraction(1, 20), 6),       # the same, with a decided reject on the way
        (80, 800, 1, Fraction(1, 1000), 13),   # fewer than m big jobs: every probe decided
        (1000, 35, 1, Fraction(1, 20), 1),     # every job small at every probe
    ])
    def test_matches_the_plain_bisection(self, monkeypatch, n, m, seed, eps, decided):
        inst = generate(GenConfig(n=n, m=m, seed=seed))
        guesses = self._decided(monkeypatch)
        r = self._assert_same(inst, eps)
        assert r.decided == decided
        # bisection_solve's own decisions are recorded after solve's.
        assert len(guesses) == decided + r.iterations + 1

    def test_matches_the_plain_bisection_on_tiny_instances(self):
        rng = random.Random(29)
        shapes = [(1, rng.randint(1, 8)) for _ in range(10)] + [(rng.randint(1, 8), 1) for _ in range(10)]
        shapes += [(rng.randint(2, 12), rng.randint(2, 8)) for _ in range(20)]
        for n, m in shapes:
            inst = random_instance(rng, n, m)
            for eps in (Fraction(1, 20), Fraction(1, 1000)):
                self._assert_same(inst, eps)

    def test_reads_eps_by_rat(self):
        # 0.05 is 1/20, not the binary double just above it; a bool is no eps.
        inst = generate(GenConfig(n=24, m=16, seed=1))
        r, ref = solve(inst, 0.05), solve(inst, Fraction(1, 20))
        for name in self.FIELDS:
            assert getattr(r, name) == getattr(ref, name), name
        with pytest.raises(TypeError):
            solve(inst, True)

    @pytest.mark.parametrize("inst", [
        instance(1, job(1, 5), job(2, 3)),   # m=1: lower == upper, no probe
        instance(4, job(1, 8, 4, 3, 2)),     # n=1: every probe accepts
        generate(GenConfig(n=300, m=150, seed=1)),
    ])
    def test_decides_the_upper_bound_only_when_it_is_returned(self, monkeypatch, inst):
        guesses = self._decided(monkeypatch)
        r = solve(inst)
        upper = initial_bounds(inst).upper
        assert (upper in guesses) == (r.accepted_d == upper)
        assert guesses[-1] == r.accepted_d and len(guesses) == r.decided


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_items_and_solve_follow_the_job_ids_not_the_rows(order):
    # The same jobs in another row order: the items still ascend by job id,
    # each id with the same options, so the DP's tie-break and the solve's
    # guesses and partition are those of the id-ordered instance.  The
    # accepted guess of this solve is left open, so the DP picks it.
    inst = generate(GenConfig(n=40, m=100, seed=1))
    jobs = list(inst.jobs)
    if order == "reversed":
        jobs.reverse()
    else:
        random.Random(5).shuffle(jobs)
    moved = Instance(inst.m, tuple(jobs))
    assert inst.ids == tuple(sorted(inst.ids)) != moved.ids
    r, got = solve(inst, Fraction(1, 1000)), solve(moved, Fraction(1, 1000))
    assert r.partition_by == got.partition_by == "dp"
    assert (got.accepted_d, got.mckp_assignment) == (r.accepted_d, r.mckp_assignment)
    assert got.certified_lower == r.certified_lower
    for d in (r.accepted_d, r.certified_lower, (r.accepted_d + r.certified_lower) / 2):
        want, items = items_at(inst, d), items_at(moved, d)
        assert items.ids == sorted(items.ids) == want.ids
        assert [moved.ids[row] for row in items.rows.tolist()] == items.ids
        for name in ("width", "cost", "size2"):
            assert getattr(items, name).tolist() == getattr(want, name).tolist(), name


@pytest.mark.parametrize("lo, hi", [
    (Fraction(1, 10**13), Fraction(2, 10**13)),  # the float mid rounds to 0
    (Fraction(1), Fraction(10**400)),            # hi overflows a float
])
def test_geometric_mid_falls_back_to_the_arithmetic_mid(lo, hi):
    mid = driver._geometric_mid(lo, hi)
    assert lo < mid < hi
    assert mid == (lo + hi) / 2


def test_non_monotone_input_gives_a_verified_schedule_or_an_invariant_error():
    # solve does not validate its input (moldsched solve exits 2 on it): on
    # times that break monotony it returns a verified schedule or raises
    # ShelfInvariantError, never another exception.
    rng = random.Random(3)
    outcomes = collections.Counter()
    for _ in range(300):
        inst = None
        while inst is None or not validate_instance(inst):
            m, n = rng.randint(2, 8), rng.randint(1, 8)
            inst = instance(m, *(job(j, *(Fraction(rng.randint(1, 400), 100) for _ in range(m)))
                                 for j in range(1, n + 1)))
        try:
            r = driver.solve(inst)
        except ShelfInvariantError:
            outcomes["invariant"] += 1
        else:
            assert validate_schedule(inst, r.schedule).ok()
            outcomes["verified"] += 1
    assert outcomes["verified"] and outcomes["invariant"]


class TestPickRecount:
    """_attempt recounts an accepting pick in exact integers and raises
    ShelfInvariantError unless it is one available class per job within 2m
    half-machines, at the verdict's cost, within budget."""

    # m = 2, budget 12 at d = 6.  Jobs 1 and 2 (t = 4, 2) cost 4 in every
    # class at sizes 2, 2, 0; job 3 (t = 4, 3) costs 4 at size 2 in class 1,
    # 6 at size 2 in class 2, and cannot meet the class-3 height 18/7.
    INST = instance(2, job(1, 4, 2), job(2, 4, 2), job(3, 4, 3))

    def _attempt(self, monkeypatch, pick, cost):
        monkeypatch.setattr(
            mckp, "decide", lambda items, m, budget: mckp.Verdict(None, "bound", cost, pick))
        return driver._attempt(self.INST, Fraction(6), grid_keys(self.INST))

    @pytest.mark.parametrize("pick", [(3, 3, 1), (3, 1, 1)])
    def test_a_sound_pick_passes(self, monkeypatch, pick):
        assert self._attempt(monkeypatch, pick, 12)[1].pick == pick

    @pytest.mark.parametrize("pick, cost", [
        ((3, 3, 3), 8),    # job 3 has no class 3
        ((3, 3, 1), 11),   # not the verdict's cost
        ((1, 1, 1), 12),   # 6 half-machines
        ((3, 3, 2), 14),   # over the budget
        ((3, 3), 8), ((3, 3, 0), 12), ((3, 3, 4), 12), (None, 12),
    ])
    def test_a_broken_pick_raises(self, monkeypatch, pick, cost):
        with pytest.raises(ShelfInvariantError, match="fails its recount"):
            self._attempt(monkeypatch, pick, cost)

    def test_pick_over_budget_raises(self, monkeypatch):
        # A decide that accepts against an inflated budget hands solve a
        # partition that costs more than the real one.
        decide = mckp.decide
        monkeypatch.setattr(mckp, "decide", lambda items, m, budget: decide(items, m, 10**30))
        with pytest.raises(ShelfInvariantError, match="fails its recount"):
            solve(generate(GenConfig(n=80, m=800, seed=1)), Fraction(1, 1000))


def _stdlib_mid(lo, hi):
    """_geometric_mid with the standard library's rounding, as it was written."""
    try:
        mid = Fraction(math.sqrt(float(lo)) * math.sqrt(float(hi))).limit_denominator(10**12)
    except (OverflowError, ValueError):
        mid = (lo + hi) / 2
    return mid if lo < mid < hi else (lo + hi) / 2


def test_geometric_mid_rounds_as_the_standard_library():
    rng = random.Random(61)
    cases = [
        (Fraction(1, 10**13), Fraction(2, 10**13)),  # the fallback cases above
        (Fraction(1), Fraction(10**400)),
        (Fraction(4), Fraction(9)),                  # sqrt(lo*hi) = 6 exactly
        (Fraction(1, 4), Fraction(1)),               # 1/2, a power-of-two denominator
        (Fraction(10**12 - 1, 10**12), Fraction(1)),
    ]
    for _ in range(4000):
        lo = Fraction(10 ** rng.uniform(-12, 13)).limit_denominator(rng.choice((1, 7, 10**6, 10**15)))
        lo = lo or Fraction(1, 10**12)
        cases.append((lo, lo * (1 + Fraction(rng.randint(1, 10**6), rng.choice((10**3, 10**9))))))
    for lo, hi in cases:
        mid = driver._geometric_mid(lo, hi)
        assert mid == _stdlib_mid(lo, hi), (lo, hi)
        assert lo < mid < hi


class TestVerdictLattice:
    """_attempt reads d only through floor(d*Q), floor((4/7)d*Q),
    floor((3/7)d*Q) and floor(m*d*Q): one verdict, pick included, on each
    cell [a/L, (a+1)/L) with L = 12*m*Q."""

    @staticmethod
    def _verdict(inst, d, keys):
        out = driver._attempt(inst, d, keys)
        if isinstance(out, Reject):
            return out.reason
        items, verdict = out
        return tuple(items.ids), verdict.by, verdict.cost, verdict.pick

    def test_one_verdict_per_cell(self):
        rng = random.Random(67)
        insts = [generate(GenConfig(n=40, m=16, seed=s)) for s in (1, 2)]
        insts.append(generate(GenConfig(n=30, m=60, seed=3)))
        insts += [random_instance(rng, rng.randint(2, 12), rng.randint(1, 8)) for _ in range(9)]
        kinds = collections.Counter()
        for inst in insts:
            keys, big = grid_keys(inst), 12 * inst.m * inst.grid[0]
            bounds = initial_bounds(inst)
            lo, hi = max(math.floor(bounds.lower * big), 1), math.ceil(bounds.upper * big)
            cells = {lo, hi}
            while hi - lo > 1:  # the cell where the verdicts turn, by bisection
                mid = (lo + hi) // 2
                cells.add(mid)
                if isinstance(self._verdict(inst, Fraction(mid, big), keys), str):
                    lo = mid
                else:
                    hi = mid
            cells |= {lo - 1, hi + 1} | {rng.randint(lo - 50, hi + 50) for _ in range(8)}
            for a in sorted(c for c in cells if c >= 1):
                points = [Fraction(a), a + Fraction(rng.randint(1, 999), 1000), a + 1 - Fraction(1, 10**9)]
                verdicts = {self._verdict(inst, x / big, keys) for x in points}
                assert len(verdicts) == 1, (inst.m, a, verdicts)
                kinds[isinstance(verdicts.pop(), str)] += 1
        assert kinds[True] > 20 and kinds[False] > 20


# Denominators of drawn times: small primes, a prime just past 10^6, and the
# primes 10^16 + 61 and 2^61 - 1, whose grids are exact ints (object dtype).
PRIMES = (2, 3, 7, 101, 1_000_003)
HUGE_PRIMES = (10**16 + 61, 2**61 - 1)


def _monotone_times(draw, m: int, den: int) -> tuple[Fraction, ...]:
    """m drawn numerators over den, each next one in [ceil((k-1)v/k), v]:
    the exact range that keeps both monotonies."""
    nums = [draw(st.integers(1, 400))]
    for k in range(2, m + 1):
        v = nums[-1]
        nums.append(draw(st.integers(-(-(k - 1) * v // k), v)))
    return tuple(Fraction(x, den) for x in nums)


@st.composite
def monotone_instances(draw, max_n: int, max_m: int) -> tuple[str, Instance]:
    """(kind, instance) of n <= max_n time- and work-monotone jobs on
    m <= max_m machines: generated (at Q = 10^6, 10^6 + 3 or 10^16 + 61),
    copies of one job, or jobs each of constant work, constant time or a
    drawn chain over a prime denominator."""
    n, m = draw(st.integers(1, max_n)), draw(st.integers(1, max_m))
    kind = draw(st.sampled_from(("gen", "copies", "mixed")))
    if kind == "gen":
        q = draw(st.sampled_from((10**6, 1_000_003, HUGE_PRIMES[0])))
        cfg = GenConfig(n=n, m=m, seed=draw(st.integers(0, 2**32 - 1)), quantization_denominator=q)
        return kind, generate(cfg)
    if kind == "copies":
        times = _monotone_times(draw, m, draw(st.sampled_from(PRIMES)))
        return kind, Instance(m, tuple(Job(i, times) for i in range(1, n + 1)))
    jobs = []
    for i in range(1, n + 1):
        shape = draw(st.sampled_from(("const-work", "const-time", "chain")))
        den = draw(st.sampled_from(PRIMES + HUGE_PRIMES))
        if shape == "chain":
            jobs.append(Job(i, _monotone_times(draw, m, den)))
        else:
            t = Fraction(draw(st.integers(1, 400)), den)
            jobs.append(const_work_job(i, t, m) if shape == "const-work" else Job(i, (t,) * m))
    return kind, Instance(m, tuple(jobs))


EPSILONS = (Fraction(1, 20), Fraction(1, 3), Fraction(1, 1000))


class TestSolveProperty:
    """On drawn monotone instances a solve returns a verified contiguous
    schedule within its stated bounds, the plain bisection's result, the
    same bits on a repeat, and a guess that try_guess accepts."""

    @staticmethod
    def _bits(r):
        ints = tuple((c.dtype.str, c.tolist()) for c in r.schedule.ints)
        return dataclasses.replace(r, timings={}), r.schedule.scale, ints

    def test_drawn_solves(self):
        seen = collections.Counter()

        @property_settings(max_examples=300)
        @given(monotone_instances(max_n=10, max_m=8), st.sampled_from(EPSILONS))
        def check(drawn, eps):
            kind, inst = drawn
            assert validate_instance(inst) == []
            r = solve(inst, eps)
            assert validate_schedule(inst, r.schedule, require_contiguous=True).ok()
            assert r.makespan == r.schedule.makespan <= r.lambda_used * r.accepted_d
            assert r.accepted_d <= (1 + eps) * r.certified_lower
            assert initial_bounds(inst).lower <= r.certified_lower <= r.makespan
            ref = bisection_solve(inst, eps)
            for name in TestInferredVerdicts.FIELDS:
                assert getattr(r, name) == getattr(ref, name), name
            assert self._bits(solve(inst, eps)) == self._bits(r)
            assert not isinstance(try_guess(inst, r.accepted_d), Reject)
            seen.update({kind, ("m", inst.m), ("n", inst.n), ("eps", eps), inst.grid[1].dtype})
            seen.update(("den", t.denominator) for j in inst.jobs for t in j.times[:1])

        check()
        assert {"gen", "copies", "mixed", ("m", 1), ("n", 1), np.dtype(object)} <= set(seen)
        assert all(("eps", eps) in seen for eps in EPSILONS)
        assert all(("den", p) in seen for p in PRIMES + HUGE_PRIMES)


class TestRejectionSoundness:
    """try_guess never rejects at or above the exhaustive optimum, and a
    solve's certified lower bound never passes it."""

    def test_drawn_tiny_instances(self):
        shapes = set()

        @property_settings(max_examples=200)
        @given(monotone_instances(max_n=4, max_m=3), st.integers(0, 1000))
        def check(drawn, k):
            _, inst = drawn
            opt = brute_force_opt(inst)
            for d in (opt, opt * (1 + Fraction(1, 1000)), opt * (1 + Fraction(k, 1000))):
                assert not isinstance(try_guess(inst, d), Reject), d
            assert solve(inst).certified_lower <= opt
            shapes.add((inst.n, inst.m))

        check()
        assert (4, 3) in shapes


def test_a_job_of_other_than_m_times_is_named():
    inst = instance(2, job(1, 4, 2), job(2, 3))
    for call in (lambda: solve(inst), lambda: try_guess(inst, 4)):
        with pytest.raises(ValueError, match=r"^job 2 has 1 times, not m = 2$"):
            call()
    assert [(v.job_id, v.k, v.kind) for v in validate_instance(inst)] == [(2, 1, "length")]


class TestRepeatedJobId:
    # validate_instance reports the repeated id; the API refuses it before any
    # guess, where by_id would keep only the last job 1.
    INST = Instance(2, (Job(1, (2, 1)), Job(1, (3, 2)), Job(2, (1, 1))))

    def test_try_guess_refuses_it(self):
        with pytest.raises(ValueError, match=r"^job id 1 appears more than once$"):
            try_guess(self.INST, 3)

    def test_solve_refuses_it(self):
        with pytest.raises(ValueError, match=r"^job id 1 appears more than once$"):
            solve(self.INST)
        assert [(v.job_id, v.kind) for v in validate_instance(self.INST)] == [(1, "duplicate-id")]

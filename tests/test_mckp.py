import math
import random
from fractions import Fraction

import pytest

from moldsched import Reject, driver, mckp, rat
from moldsched.mckp import (
    Infeasible,
    MckpItem,
    MckpOption,
    brute_mckp,
    build_items,
    decide,
    solve_mckp,
)
from moldsched.model import classify_jobs
from util import const_work_job, instance, job, random_instance


def random_items(rng: random.Random, n: int, m: int) -> list[MckpItem]:
    """Unstructured option grids: random costs/sizes, random unavailability.

    Costs are drawn as rationals and put on one integer unit, the lcm of
    their denominators, as the grid puts work on the scale Q."""
    drawn = []
    for i in range(n):
        opts = []
        for _ in range(3):
            if rng.random() < 0.15:
                opts.append((None, 0))
            else:
                cost = Fraction(rng.randint(0, 400), rng.randint(1, 40))
                size = rng.randint(0, 2 * m + 2)
                opts.append((cost, size))
        drawn.append(opts)
    return integer_items(drawn)


def integer_items(drawn) -> list[MckpItem]:
    """Items from rows of (rational cost or None, size), costs times the lcm."""
    scale = math.lcm(*(c.denominator for row in drawn for c, _ in row if c is not None))
    return [
        MckpItem(i + 1, tuple(MckpOption(None if c is None else int(c * scale), s) for c, s in row))
        for i, row in enumerate(drawn)
    ]


def dp_total(items) -> int:
    """The total the DP sizes its cost row by: each item's largest cost,
    over the gcd of all costs (solve_mckp's unit)."""
    costs = [[o.cost for o in it.options if o.available] for it in items]
    unit = math.gcd(*(c for row in costs for c in row)) or 1
    return sum(max(row, default=0) for row in costs) // unit


class TestBuildItems:
    def test_hand_example(self):
        inst = instance(3, job(1, 1, rat("0.5"), rat("0.34")))
        items = build_items(inst, {1}, rat(1))
        assert not isinstance(items, Reject)
        (item,) = items
        q = inst.grid[0]  # costs are work at the grid scale
        assert q == 50
        assert item.options[0] == MckpOption(rat(1) * q, 2)
        assert item.options[1] == MckpOption(rat(1) * q, 2)
        assert item.options[2] == MckpOption(rat("1.02") * q, 0)

    def test_reject_when_job_cannot_meet_d(self):
        inst = instance(2, job(1, 10, 6))
        out = build_items(inst, {1}, rat(5))
        assert isinstance(out, Reject)
        assert out.job_id == 1

    def test_adversarial_top_job_has_no_class3_at_d1(self):
        # At d = 1 the 6.01-work job cannot finish within (3/7)d even on all
        # 13 machines: 6.01/13 > 3/7.
        inst = instance(13, const_work_job(1, rat("6.01"), 13))
        assert rat("6.01") / 13 > Fraction(3, 7)
        items = build_items(inst, {1}, rat(1))
        assert not isinstance(items, Reject)
        (item,) = items
        assert not item.options[2].available
        q = inst.grid[0]
        assert item.options[0] == MckpOption(rat("6.01") * q, 14)  # gamma(1) = 7
        assert item.options[1] == MckpOption(rat("6.01") * q, 11)

    def test_unavailable_options_in_middle(self):
        # Meets d on all machines but never (4/7)d or (3/7)d.
        inst = instance(2, job(1, 10, 6))
        items = build_items(inst, {1}, rat(6))
        (item,) = items
        assert item.options[0].available
        assert not item.options[1].available
        assert not item.options[2].available


class TestSolveMckp:
    def test_empty(self):
        sol = solve_mckp([], 5)
        assert sol.assignment == {}
        assert sol.total_cost == 0
        assert sol.total_size2 == 0

    def test_single_item_over_capacity(self):
        items = [MckpItem(1, (MckpOption(1, 2 * 3 + 2), MckpOption(None, 0), MckpOption(None, 0)))]
        assert isinstance(solve_mckp(items, 3), Infeasible)

    def test_all_class3_available_feasible(self):
        rng = random.Random(5)
        items = random_items(rng, 8, 4)
        items = [
            MckpItem(it.job_id, (it.options[0], it.options[1], MckpOption(1, 0)))
            for it in items
        ]
        sol = solve_mckp(items, 4)
        assert not isinstance(sol, Infeasible)
        ref = brute_mckp(items, 4)
        assert sol.total_cost == ref.total_cost

    def test_full_ties_pick_lowest_class_in_input_order(self):
        same = MckpOption(2, 1)
        items = [
            MckpItem(1, (MckpOption(None, 0), same, same)),
            MckpItem(2, (same, same, same)),
            # (1, 2) and (2, 1) both total cost 3, size 2: the first job gets class 1.
            MckpItem(3, (MckpOption(1, 2), MckpOption(2, 0), MckpOption(None, 0))),
            MckpItem(4, (MckpOption(1, 2), MckpOption(2, 0), MckpOption(None, 0))),
        ]
        sol = solve_mckp(items, 2)
        assert sol.assignment == {1: 2, 2: 1, 3: 1, 4: 2}
        assert sol == brute_mckp(items, 2)

    def test_overflow_totals_match_oracle(self):
        # Distinct large-prime denominators push the integer cost totals past
        # 2^59, so the DP runs on exact Python ints instead of int64.
        rng = random.Random(17)
        feasible = 0
        primes = (
            p for p in range(1_000_003, 2_000_000, 2)
            if all(p % q for q in range(3, math.isqrt(p) + 1, 2))
        )
        for _ in range(40):
            m = rng.randint(1, 6)
            drawn = []
            for _ in range(rng.randint(4, 9)):
                q = next(primes)
                drawn.append([
                    (None, 0)
                    if rng.random() < 0.15
                    else (Fraction(rng.randint(q, 400 * q), q), rng.randint(0, m))
                    for _ in range(3)
                ])
            items = integer_items(drawn)
            assert dp_total(items) > 1 << 59
            got = solve_mckp(items, m)
            ref = brute_mckp(items, m)
            assert type(got) is type(ref)
            if not isinstance(got, Infeasible):
                assert got == ref
                feasible += 1
        assert feasible >= 20

    def test_monotone_in_d(self):
        rng = random.Random(23)
        for _ in range(40):
            inst = random_instance(rng, rng.randint(1, 10), rng.randint(1, 8))
            lo = min(j.times[-1] for j in inst.jobs)
            d1 = lo + Fraction(rng.randint(0, 200), 100)
            d2 = d1 + Fraction(rng.randint(1, 200), 100)
            costs = []
            for d in (d1, d2):
                big = classify_jobs(inst, d).big
                items = build_items(inst, big, d)
                if isinstance(items, Reject):
                    costs.append(None)
                    continue
                sol = solve_mckp(items, inst.m)
                costs.append(None if isinstance(sol, Infeasible) else sol.total_cost)
            if costs[0] is not None and costs[1] is not None:
                assert costs[0] >= costs[1]


class TestBruteMckp:
    def test_empty(self):
        sol = brute_mckp([], 3)
        assert sol.total_cost == 0 and sol.assignment == {}

    def test_single_item_picks_cheapest_fitting(self):
        items = [MckpItem(7, (MckpOption(rat(5), 1), MckpOption(rat(3), 2), MckpOption(rat(9), 0)))]
        sol = brute_mckp(items, 2)
        assert sol.assignment == {7: 2}

    def test_size_cap(self):
        rng = random.Random(3)
        with pytest.raises(ValueError):
            brute_mckp(random_items(rng, 15, 2), 2)

    def test_oracle_equality_bulk(self):
        rng = random.Random(31)
        for trial in range(120):
            n = rng.randint(0, 10)
            m = rng.randint(1, 10)
            items = random_items(rng, n, m)
            got = solve_mckp(items, m)
            ref = brute_mckp(items, m)
            if isinstance(ref, Infeasible):
                assert isinstance(got, Infeasible), trial
            else:
                assert not isinstance(got, Infeasible), trial
                assert got.total_cost == ref.total_cost, trial
                assert got.total_size2 == ref.total_size2, trial
                assert got.assignment == ref.assignment, trial

    def test_oracle_equality_on_instances(self):
        rng = random.Random(37)
        for _ in range(40):
            inst = random_instance(rng, rng.randint(1, 9), rng.randint(1, 8))
            d = max(j.times[-1] for j in inst.jobs) + Fraction(rng.randint(0, 300), 100)
            big = classify_jobs(inst, d).big
            items = build_items(inst, big, d)
            assert not isinstance(items, Reject)
            got = solve_mckp(items, inst.m)
            ref = brute_mckp(items, inst.m)
            assert type(got) is type(ref)
            if not isinstance(got, Infeasible):
                assert got == ref


def _verdict(solution, budget):
    """The Reject reason a knapsack solution implies, or None to accept."""
    if isinstance(solution, Infeasible):
        return "mckp-infeasible"
    return "work-budget" if solution.total_cost > budget else None


class TestDecide:
    """decide's verdict equals the DP's, whichever certificate settles it."""

    @staticmethod
    def _check_around_the_optimum(items, m0, by):
        # Capacities around the smallest total size, budgets around the
        # DP minimum: the two places where a bound could slip.
        min_size = sum(
            min((o.size2 for o in it.options if o.available), default=0) for it in items
        )
        half = min_size // 2
        for m in {m0, max(half - 1, 0), half, -(-min_size // 2), half + 2}:
            sol = solve_mckp(items, m)
            ref = None if len(items) > 14 else brute_mckp(items, m)
            assert type(ref) in (type(sol), type(None))
            base = 0 if isinstance(sol, Infeasible) else sol.total_cost
            step = abs(base) // 50 + 1
            for budget in (base - 1, base, base + 1, base - step, base + step):
                got = decide(items, m, budget)
                assert got.reason == _verdict(sol, budget), (items, m, budget, got)
                if ref is not None:
                    assert got.reason == _verdict(ref, budget)
                by[got.by, got.reason] = by.get((got.by, got.reason), 0) + 1

    @staticmethod
    def _assert_every_certificate_decided(by):
        assert set(by) == {
            ("bound", None), ("bound", "work-budget"), ("bound", "mckp-infeasible"),
            ("dp", None), ("dp", "work-budget"),
        }

    def test_agrees_with_the_dp_on_solver_guesses(self, monkeypatch):
        guesses = []
        build = mckp.build_items

        def recording_build(inst, big, d):
            items = build(inst, big, d)
            if not isinstance(items, Reject):
                guesses.append((items, inst.m))
            return items

        monkeypatch.setattr(mckp, "build_items", recording_build)
        rng = random.Random(41)
        for _ in range(40):
            driver.solve(random_instance(rng, rng.randint(1, 16), rng.randint(1, 10)))
        monkeypatch.undo()
        assert len(guesses) >= 200
        by = {}
        for items, m in guesses:
            self._check_around_the_optimum(items, m, by)
        self._assert_every_certificate_decided(by)

    def test_agrees_with_the_dp_on_hand_built_items(self):
        rng = random.Random(43)
        by = {}
        for _ in range(150):
            m = rng.randint(1, 8)
            self._check_around_the_optimum(random_items(rng, rng.randint(0, 9), m), m, by)
        self._assert_every_certificate_decided(by)

    def test_open_guess_runs_the_dp(self, monkeypatch):
        # Cap 4.  The greedy takes job 1's step (slope 10/4 < 9/3) and pays
        # 10; the Lagrangian bound at lam = 10/4 is 7.5; the optimum is 9
        # (job 1 full size, job 2 at size 0).  Budgets 8 and 9 sit in the gap.
        none = MckpOption(None, 0)
        items = [
            MckpItem(1, (MckpOption(0, 4), MckpOption(10, 0), none)),
            MckpItem(2, (MckpOption(0, 3), MckpOption(9, 0), none)),
        ]
        calls = []
        dp = mckp.solve_mckp
        monkeypatch.setattr(mckp, "solve_mckp", lambda *a: calls.append(a) or dp(*a))
        assert decide(items, 2, 9) == mckp.Verdict(None, "dp", 9)
        assert decide(items, 2, 8) == mckp.Verdict("work-budget", "dp", 9)
        assert len(calls) == 2
        assert decide(items, 2, 10) == mckp.Verdict(None, "bound", 10)
        assert decide(items, 2, 7) == mckp.Verdict("work-budget", "bound", rat("7.5"))
        assert len(calls) == 2

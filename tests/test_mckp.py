import logging
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from moldsched import GenConfig, Reject, driver, generate, mckp, rat
from moldsched.mckp import (
    MckpItems,
    decide,
    pick_totals,
    solve_mckp,
)
from util import (
    big_ids,
    brute_mckp,
    const_work_job,
    instance,
    items_for,
    items_of,
    job,
    options,
    random_instance,
)


def random_items(rng: random.Random, n: int, m: int) -> MckpItems:
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


def integer_items(drawn) -> MckpItems:
    """Items from rows of (rational cost or None, size), costs times the lcm."""
    scale = math.lcm(*(c.denominator for row in drawn for c, _ in row if c is not None))
    return items_of([[None if c is None else (int(c * scale), s) for c, s in row] for row in drawn])


def dp_total(items) -> int:
    """The total the DP sizes its cost row by: each item's largest cost,
    over the gcd of all costs (solve_mckp's unit)."""
    costs = [[o[0] for o in row if o] for row in options(items)]
    unit = math.gcd(*(c for row in costs for c in row)) or 1
    return sum(max(row, default=0) for row in costs) // unit


def cost_of(items, pick):
    """The exact total cost of a pick, None for no pick."""
    return None if pick is None else pick_totals(items, pick)[0]


def assert_same_pick(items, got, ref, *context):
    """The DP's pick is the oracle's, and so are its exact totals."""
    assert got == ref, context
    assert pick_totals(items, got) == pick_totals(items, ref), context


class TestBuildItems:
    def test_hand_example(self):
        inst = instance(3, job(1, 1, rat("0.5"), rat("0.34")))
        items = items_for(inst, {1}, rat(1))
        assert not isinstance(items, Reject)
        (item,) = options(items)
        q = inst.grid[0]  # costs are work at the grid scale
        assert q == 50
        assert item[0] == (rat(1) * q, 2)
        assert item[1] == (rat(1) * q, 2)
        assert item[2] == (rat("1.02") * q, 0)

    def test_reject_when_job_cannot_meet_d(self):
        inst = instance(2, job(1, 10, 6))
        out = items_for(inst, {1}, rat(5))
        assert isinstance(out, Reject)
        assert out.job_id == 1

    def test_adversarial_top_job_has_no_class3_at_d1(self):
        # At d = 1 the 6.01-work job cannot finish within (3/7)d even on all
        # 13 machines: 6.01/13 > 3/7.
        inst = instance(13, const_work_job(1, rat("6.01"), 13))
        assert rat("6.01") / 13 > Fraction(3, 7)
        items = items_for(inst, {1}, rat(1))
        assert not isinstance(items, Reject)
        (item,) = options(items)
        assert item[2] is None
        q = inst.grid[0]
        assert item[0] == (rat("6.01") * q, 14)  # gamma(1) = 7
        assert item[1] == (rat("6.01") * q, 11)

    def test_unavailable_options_in_middle(self):
        # Meets d on all machines but never (4/7)d or (3/7)d.
        inst = instance(2, job(1, 10, 6))
        items = items_for(inst, {1}, rat(6))
        (item,) = options(items)
        assert item[0] is not None
        assert item[1] is None
        assert item[2] is None


class TestSolveMckp:
    def test_empty(self):
        items = items_of([])
        pick = solve_mckp(items, 5)
        assert pick == ()
        assert pick_totals(items, pick) == (0, 0)

    def test_single_item_over_capacity(self):
        items = items_of([[(1, 2 * 3 + 2), None, None]])
        assert solve_mckp(items, 3) is None

    @pytest.mark.parametrize("big", [False, True])
    def test_item_without_options(self, big):
        # No pick exists when one item has no class at all, whichever dtype
        # the DP's keys take.
        c = 1 << 70 if big else 5
        items = items_of([[(c, 2), (c + 1, 1), None], [None, None, None]])
        assert (dp_total(items) > 1 << 59) == big
        assert solve_mckp(items, 3) is None
        assert brute_mckp(items, 3) is None

    def test_all_class3_available_feasible(self):
        rng = random.Random(5)
        items = random_items(rng, 8, 4)
        items = items_of([row[:2] + [(1, 0)] for row in options(items)])
        sol = solve_mckp(items, 4)
        assert sol is not None
        ref = brute_mckp(items, 4)
        assert cost_of(items, sol) == cost_of(items, ref)

    def test_full_ties_pick_lowest_class_in_input_order(self):
        same = (2, 1)
        items = items_of([
            [None, same, same],
            [same, same, same],
            # (1, 2) and (2, 1) both total cost 3, size 2: the first job gets class 1.
            [(1, 2), (2, 0), None],
            [(1, 2), (2, 0), None],
        ])
        sol = solve_mckp(items, 2)
        assert dict(zip(items.ids, sol)) == {1: 2, 2: 1, 3: 1, 4: 2}
        assert_same_pick(items, sol, brute_mckp(items, 2))

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
            assert_same_pick(items, got, ref)
            feasible += got is not None
        assert feasible >= 20

    @pytest.mark.parametrize("m, total, int64_keys", [
        (3, (1 << 59) // 7 - 1, True),   # sentinel (total+1)*(2m+1) just below 2^59
        (3, (1 << 59) // 7, False),      # total fits 2^59, the packed sentinel does not
        (5, 1 << 59, False),
    ])
    def test_packed_key_dtype_boundary_matches_oracle(self, m, total, int64_keys):
        # The DP packs (cost, size) into cost*(2m+1) + size and keeps int64
        # keys while its sentinel (total+1)*(2m+1) is at most 2^59.  Costs
        # differ by a few units at ~2^56, where any rounding would show.
        rng = random.Random(total)
        for _ in range(25):
            base = total // 7
            rows = [[(base + rng.randint(0, 3), rng.randint(0, 2 * m)),
                     (base + rng.randint(0, 3), rng.randint(0, 2 * m)),
                     (base + rng.randint(0, 3), 0)] for _ in range(6)]
            rest = total - sum(max(c for c, _ in row) for row in rows)
            top = max(range(3), key=lambda k: rows[-1][k][0])
            rows[-1][top] = (rows[-1][top][0] + rest, rows[-1][top][1])
            items = items_of(rows)
            assert dp_total(items) == total
            assert ((total + 1) * (2 * m + 1) <= 1 << 59) == int64_keys
            assert_same_pick(items, solve_mckp(items, m), brute_mckp(items, m))

    def test_monotone_in_d(self):
        rng = random.Random(23)
        for _ in range(40):
            inst = random_instance(rng, rng.randint(1, 10), rng.randint(1, 8))
            lo = min(j.times[-1] for j in inst.jobs)
            d1 = lo + Fraction(rng.randint(0, 200), 100)
            d2 = d1 + Fraction(rng.randint(1, 200), 100)
            costs = []
            for d in (d1, d2):
                items = items_for(inst, big_ids(inst, d), d)
                if isinstance(items, Reject):
                    costs.append(None)
                    continue
                costs.append(cost_of(items, solve_mckp(items, inst.m)))
            if costs[0] is not None and costs[1] is not None:
                assert costs[0] >= costs[1]


class TestBruteMckp:
    def test_empty(self):
        items = items_of([])
        sol = brute_mckp(items, 3)
        assert cost_of(items, sol) == 0 and sol == ()

    def test_single_item_picks_cheapest_fitting(self):
        items = items_of([[(5, 1), (3, 2), (9, 0)]], ids=[7])
        sol = brute_mckp(items, 2)
        assert dict(zip(items.ids, sol)) == {7: 2}

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
            assert_same_pick(items, got, ref, trial)

    def test_oracle_equality_on_instances(self):
        rng = random.Random(37)
        for _ in range(40):
            inst = random_instance(rng, rng.randint(1, 9), rng.randint(1, 8))
            d = max(j.times[-1] for j in inst.jobs) + Fraction(rng.randint(0, 300), 100)
            items = items_for(inst, big_ids(inst, d), d)
            assert not isinstance(items, Reject)
            got = solve_mckp(items, inst.m)
            ref = brute_mckp(items, inst.m)
            assert_same_pick(items, got, ref)


def _verdict(items, pick, budget):
    """The Reject reason a knapsack pick implies, or None to accept."""
    if pick is None:
        return "mckp-infeasible"
    return "work-budget" if cost_of(items, pick) > budget else None


class TestDecide:
    """decide's verdict equals the DP's, whichever certificate settles it."""

    @staticmethod
    def _check_around_the_optimum(items, m0, by):
        # Capacities around the smallest total size, budgets around the
        # DP minimum: the two places where a bound could slip.
        min_size = sum(min((o[1] for o in row if o), default=0) for row in options(items))
        half = min_size // 2
        for m in {m0, max(half - 1, 0), half, -(-min_size // 2), half + 2}:
            sol = solve_mckp(items, m)
            oracle = len(items) <= 14
            if oracle:
                ref = brute_mckp(items, m)
                assert_same_pick(items, sol, ref)
            base = cost_of(items, sol) or 0
            step = abs(base) // 50 + 1
            for budget in (base - 1, base, base + 1, base - step, base + step):
                got = decide(items, m, budget)
                assert got.reason == _verdict(items, sol, budget), (items, m, budget, got)
                if oracle:
                    assert got.reason == _verdict(items, ref, budget)
                by[got.by, got.reason] = by.get((got.by, got.reason), 0) + 1

    @staticmethod
    def _assert_every_certificate_decided(by):
        assert set(by) == {
            ("bound", None), ("bound", "work-budget"), ("bound", "mckp-infeasible"),
            ("dp", None), ("dp", "work-budget"),
        }

    def test_agrees_with_the_dp_on_solver_guesses(self, monkeypatch):
        guesses, built = [], []
        build = mckp.build_items

        def recording_build(inst, *args):
            items = build(inst, *args)
            built.append(items)
            if not isinstance(items, Reject):
                guesses.append((items, inst.m))
            return items

        attempt, decisions = driver._attempt, []
        monkeypatch.setattr(mckp, "build_items", recording_build)
        monkeypatch.setattr(driver, "_attempt", lambda *a: decisions.append(a) or attempt(*a))
        rng = random.Random(41)
        for _ in range(60):
            driver.solve(random_instance(rng, rng.randint(1, 16), rng.randint(1, 10)))
        monkeypatch.undo()
        assert len(built) == len(decisions)  # every decided guess of every solve
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
        items = items_of([[(0, 4), (10, 0), None], [(0, 3), (9, 0), None]])
        calls = []
        dp = mckp.solve_mckp
        monkeypatch.setattr(mckp, "solve_mckp", lambda *a: calls.append(a) or dp(*a))
        assert decide(items, 2, 9) == mckp.Verdict(None, "dp", 9, (1, 2))
        assert decide(items, 2, 9).pick == dp(items, 2)
        assert decide(items, 2, 8) == mckp.Verdict("work-budget", "dp", 9)
        assert len(calls) == 3
        # Budget 10 accepts the greedy's own pick, above the DP's minimum.
        assert decide(items, 2, 10) == mckp.Verdict(None, "bound", 10, (2, 1))
        assert mckp.pick_totals(items, (2, 1)) == (10, 3)
        assert decide(items, 2, 7) == mckp.Verdict("work-budget", "bound", rat("7.5"))
        assert len(calls) == 3


def ref_decide(items, m, budget):
    """decide as it was on per-item lists of the available (cost, size,
    class) options, kept as the reference for the array version.  The pick
    of a bound accept puts each item at the last hull point its taken steps
    reach."""
    cap = 2 * m
    opts = [[(*o, cls) for cls, o in enumerate(row, start=1) if o] for row in options(items)]
    if sum(min((s for _, s, _ in o), default=cap + 1) for o in opts) > cap:
        return mckp.Verdict("mckp-infeasible", "bound")
    shift = max(0, max((c for o in opts for c, _, _ in o), default=0).bit_length() - 64)
    steps, hulls = [], []
    cost = size = 0
    for j, o in enumerate(opts):
        hull = [min(o)]
        for c, s, cls in sorted(o, key=lambda cs: (-cs[1], cs[0])):
            if s >= hull[-1][1]:
                continue
            while len(hull) > 1:
                (ca, sa, _), (cb, sb, _) = hull[-2:]
                if (cb - ca) * (sb - s) < (c - cb) * (sa - sb):
                    break
                hull.pop()
            hull.append((c, s, cls))
        hulls.append(hull)
        cost, size = cost + hull[0][0], size + hull[0][1]
        for k, ((ca, sa, _), (cb, sb, _)) in enumerate(zip(hull, hull[1:])):
            steps.append(((cb - ca) / ((sa - sb) << shift), j, k, cb - ca, sa - sb))
    p, r = 0, 1
    reached = [0] * len(opts)
    ordered = iter(sorted(steps))
    while size > cap:
        _, j, k, p, r = next(ordered)
        cost, size, reached[j] = cost + p, size - r, k + 1
    if cost <= budget:
        return mckp.Verdict(None, "bound", cost, tuple(h[i][2] for h, i in zip(hulls, reached)))
    lower = sum(min(r * c + p * s for c, s, _ in o) for o in opts) - p * cap
    if lower > r * budget:
        return mckp.Verdict("work-budget", "bound", Fraction(lower, r))
    pick = solve_mckp(items, m)
    dp_cost = cost_of(items, pick)
    if dp_cost > budget:
        return mckp.Verdict("work-budget", "dp", dp_cost)
    return mckp.Verdict(None, "dp", dp_cost, pick)


class TestDecideMatchesReference:
    """The array decide returns the per-item reference's Verdict exactly:
    reason, certificate, cost and pick.  An accept's pick is one available
    class per item within capacity and budget at the verdict's cost, and
    the DP's own pick when the cheapest options already fit."""

    @staticmethod
    def _check(items, m0, by):
        opts = options(items)
        min_size = sum(min((o[1] for o in row if o), default=0) for row in opts)
        cheapest_size = sum(min((o for o in row if o), default=(0, 0))[1] for row in opts)
        half = min_size // 2
        for m in {m0, max(half - 1, 0), half, -(-min_size // 2), half + 2}:
            sol = solve_mckp(items, m)
            base = cost_of(items, sol) or 0
            step = abs(base) // 50 + 1
            for budget in (base - 1, base, base + 1, base - step, base + step, 2 * base + 1):
                got = decide(items, m, budget)
                assert got == ref_decide(items, m, budget), (opts, m, budget)
                by[got.by, got.reason] = by.get((got.by, got.reason), 0) + 1
                if got.reason is not None:
                    assert got.pick is None
                    continue
                cost, size = mckp.pick_totals(items, got.pick)
                assert size <= 2 * m and cost == got.cost <= budget, (opts, m, budget)
                if cheapest_size <= 2 * m:
                    assert got.pick == sol, (opts, m, budget)

    @staticmethod
    def _draw(rng, n, cost, size, none=0.15):
        return items_of([[None if rng.random() < none else (cost(), size()) for _ in range(3)]
                         for _ in range(n)])

    def test_random_items(self):
        rng = random.Random(47)
        by = {}
        for _ in range(150):
            m = rng.randint(1, 8)
            self._check(random_items(rng, rng.randint(0, 12), m), m, by)
        TestDecide._assert_every_certificate_decided(by)

    def test_degenerate_hulls(self):
        # Costs and sizes from tiny ranges: equal sizes, equal costs and
        # collinear middle options are common, and so are missing classes.
        hand = [
            [(1, 2), (3, 2), (5, 0)],  # equal sizes
            [(2, 4), (2, 2), (2, 0)],  # equal costs
            [(0, 4), (1, 2), (2, 0)],  # collinear middle option
            [(0, 4), (3, 1), (4, 0)],  # middle option above the chord
            [(0, 4), None, (3, 0)],    # class 2 unavailable
            [(0, 4), (2, 1), None],    # class 3 unavailable
            [(0, 4), None, None],      # both unavailable
            [(2, 0), (0, 4), (1, 2)],  # cheapest option not the widest
            [(1, 3), (1, 3), (1, 3)],  # one point three times
        ]
        by = {}
        for row in hand:
            for m in (0, 1, 2, 3):
                self._check(items_of([row, row]), m, by)
        rng = random.Random(53)
        for _ in range(300):
            self._check(self._draw(rng, rng.randint(1, 8), lambda: rng.randint(0, 3),
                                   lambda: rng.randint(0, 4), 0.25), rng.randint(0, 6), by)
        # capacity-infeasible: every item needs more than the whole capacity
        self._check(items_of([[(1, 5), (2, 5), None]] * 3), 2, by)
        TestDecide._assert_every_certificate_decided(by)

    def test_huge_costs(self):
        # Costs past 2^64 use object dtype and the 2^shift slope divisor;
        # int64 costs past 2^53 are not exact as floats.
        rng = random.Random(59)
        for low, high, dtype in ((1 << 70, 1 << 90, object), (1 << 53, 1 << 57, np.int64)):
            by = {}
            for _ in range(60):
                m = rng.randint(1, 6)
                items = self._draw(rng, rng.randint(1, 9), lambda: rng.randint(low, high),
                                   lambda: rng.randint(0, 2 * m + 1))
                assert items.cost.dtype == dtype
                self._check(items, m, by)
            assert {("bound", None), ("bound", "work-budget")} <= set(by)
        # Step order decided by a float tie (two slopes 2^60 and 2^60 + 1: k
        # breaks it) and by int/int rounding past 2^53, where dividing the
        # costs as floats would order these two items' steps the other way.
        x = 1 << 60
        self._check(items_of([[(0, 2), (x, 1), (2 * x + 1, 0)], [(0, 1), None, None]]), 1, {})
        self._check(items_of([[(0, 4), (37528900141440677, 0), None],
                              [(0, 7), (65675575247521182, 0), None]]), 5, {})


def dp_masks(items, m):
    """The live masks decide passes the DP at budgets around the minimum
    cost within 2m; decide's Verdict equals ref_decide's at each budget."""
    base = cost_of(items, solve_mckp(items, m)) or 0
    step = abs(base) // 50 + 1
    masks, dp = [], mckp.solve_mckp
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mckp, "solve_mckp", lambda *a: masks.append(a[2]) or dp(*a))
        for budget in (base - 1, base, base + 1, base - step, base + step):
            assert decide(items, m, budget) == ref_decide(items, m, budget)
    return masks


def minimum_picks(items, m):
    """Every pick of minimum cost within 2m, by enumeration."""
    rows = [[(cls, *o) for cls, o in enumerate(row, start=1) if o] for row in options(items)]
    fits = [(sum(c for _, c, _ in p), tuple(cls for cls, _, _ in p))
            for p in product(*rows) if sum(s for _, _, s in p) <= 2 * m]
    least = min((c for c, _ in fits), default=None)
    return [pick for c, pick in fits if c == least]


class TestLivePruning:
    """decide runs the DP only on the options its Lagrangian bound leaves
    live: the mask keeps every minimum pick, and the DP's pick over it is
    the pick over all available options."""

    # Item 3 has one option: it is fixed, and its size 1 leaves 3 of 4.
    ROWS = [[(0, 4), (10, 0), None], [(0, 3), (9, 0), None], [(5, 1), None, None]]

    @staticmethod
    def _check(items, m0, stats):
        min_size = sum(min((o[1] for o in row if o), default=0) for row in options(items))
        half = min_size // 2
        for m in {m0, max(half - 1, 0), half, -(-min_size // 2), half + 2}:
            for live in dp_masks(items, m):
                assert live.shape == (len(items), 3) and not (live & ~items.avail).any()
                assert solve_mckp(items, m, live) == solve_mckp(items, m)
                if len(items) <= 8:
                    picks = minimum_picks(items, m)
                    assert brute_mckp(items, m) in picks
                    rows = np.arange(len(items))
                    assert all(live[rows, np.array(p, dtype=np.intp) - 1].all() for p in picks)
                stats.append(live.sum() < items.avail.sum())

    def test_random_items(self):
        rng = random.Random(61)
        stats = []
        for _ in range(200):
            m = rng.randint(1, 8)
            self._check(random_items(rng, rng.randint(0, 8), m), m, stats)
        assert len(stats) >= 300 and any(stats)

    def test_object_dtype_costs(self):
        rng = random.Random(67)
        stats = []
        for _ in range(80):
            m = rng.randint(1, 6)
            items = TestDecideMatchesReference._draw(
                rng, rng.randint(1, 8), lambda: rng.randint(1 << 70, 1 << 90),
                lambda: rng.randint(0, 2 * m + 1))
            assert items.cost.dtype == object
            self._check(items, m, stats)
        assert len(stats) >= 100 and any(stats)

    def test_solver_guesses(self, monkeypatch):
        guesses, build = [], mckp.build_items

        def recording_build(inst, *args):
            items = build(inst, *args)
            if not isinstance(items, Reject):
                guesses.append((items, inst.m))
            return items

        monkeypatch.setattr(mckp, "build_items", recording_build)
        rng = random.Random(71)
        for _ in range(40):
            driver.solve(random_instance(rng, rng.randint(1, 12), rng.randint(1, 10)))
        driver.solve(generate(GenConfig(n=40, m=100, seed=1)), Fraction(1, 1000))
        monkeypatch.undo()
        stats = []
        for items, m in guesses:
            self._check(items, m, stats)
        assert len(stats) >= 150 and any(stats)

    def test_hand_masks(self):
        items = items_of(self.ROWS)
        every = items.avail
        assert solve_mckp(items, 2, every) == solve_mckp(items, 2) == brute_mckp(items, 2)
        # An item without a live option leaves no pick.
        assert solve_mckp(items, 2, every & np.array([[True], [True], [False]])) is None
        # Class 1 alone fixes every item, and the sizes 4 + 3 + 1 exceed 4.
        assert solve_mckp(items, 2, every & np.array([True, False, False])) is None
        only_wide = every & np.array([[True, False, True]] * 2 + [[True] * 3])
        assert solve_mckp(items, 4, only_wide) == (1, 1, 1)

    def test_open_guess_runs_a_smaller_dp(self, monkeypatch):
        # The one guess the bounds leave open in this solve (see
        # test_driver's test_one_knapsack_dp_per_solve): the DP runs over
        # fewer items than the guess has and below the full capacity.
        inst = generate(GenConfig(n=80, m=800, seed=5))
        solved, ran = [], []
        dp, inner = mckp.solve_mckp, mckp._dp
        monkeypatch.setattr(mckp, "solve_mckp",
                            lambda *a: solved.append((len(a[0]), 2 * a[1])) or dp(*a))
        monkeypatch.setattr(mckp, "_dp", lambda *a: ran.append((len(a[0]), a[2])) or inner(*a))
        driver.solve(inst, Fraction(1, 1000))
        assert len(solved) == len(ran) == 1
        (n, cap), (k, c) = solved[0], ran[0]
        assert k < n and c < cap

    def test_logs_the_dp_it_runs(self, caplog):
        items = items_of(self.ROWS)
        with caplog.at_level(logging.DEBUG, logger="moldsched.mckp"):
            assert solve_mckp(items, 2) == (2, 1, 1) == brute_mckp(items, 2)
        assert [r.getMessage() for r in caplog.records] == [
            "DP over 2 of 3 items, capacity 3 of 4"]

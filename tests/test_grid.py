"""The integer time grid: Instance.grid, the Times view, and the decision path
checked against the Fraction implementations it replaced."""

import collections
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from moldsched import GenConfig, Instance, Job, Reject, adversarial_instance, generate, solve
from moldsched import cli, driver, mckp, model, shelf
from moldsched.driver import SearchBounds, initial_bounds
from moldsched.mckp import CLASS_HEIGHTS
from moldsched.model import (
    _INT64_SAFE_TOTAL,
    Times,
    classify_jobs,
    gamma,
    validate_instance,
)
from moldsched.verify import validate_schedule
from util import (
    big_ids,
    const_work_job,
    dp_assignment,
    dp_shelves,
    instance,
    items_at,
    items_for,
    options,
    random_instance,
    small_ids,
)

# ---------------------------------------------------------------------------
# the Fraction implementations the grid replaced, kept as the reference


def ref_classify(inst, d):
    threshold = Fraction(3, 7) * d
    small, big, ws = set(), set(), Fraction(0)
    for job in inst.jobs:
        if job.times[0] <= threshold:
            small.add(job.id)
            ws += job.times[0]
        else:
            big.add(job.id)
    return frozenset(small), frozenset(big), ws


def ref_build_items(inst, big, d):
    """(job id, ((work, size), ...)) per big job, or ("reject", job id)."""

    def gamma(job, h):  # smallest k with t(j,k) <= h, by a linear scan
        return next((k for k, t in enumerate(job.times, start=1) if t <= h), None)

    def work(job, k):
        return k * job.times[k - 1]

    items = []
    for job_id in sorted(big):
        job = inst.by_id[job_id]
        g1 = gamma(job, d)
        if g1 is None:
            return ("reject", job_id)
        g2 = gamma(job, Fraction(4, 7) * d)
        g3 = gamma(job, Fraction(3, 7) * d)
        items.append((job_id, (
            (work(job, g1), 2 * g1),
            (work(job, g2), g2) if g2 is not None else (None, 0),
            (work(job, g3), 0) if g3 is not None else (None, 0),
        )))
    return items


def ref_initial_bounds(inst):
    total_seq = sum((j.times[0] for j in inst.jobs), Fraction(0))
    return max(total_seq / inst.m, max(j.times[inst.m - 1] for j in inst.jobs)), total_seq


def as_work(inst, items):
    """build_items' output in the reference's terms: costs back to work."""
    if isinstance(items, Reject):
        return ("reject", items.job_id)
    q = inst.grid[0]
    return [
        (job_id, tuple((Fraction(c, q) if ok else None, s) for c, s, ok in zip(*row)))
        for job_id, *row in zip(
            items.ids, items.cost.tolist(), items.size2.tolist(), items.avail.tolist())
    ]


# ---------------------------------------------------------------------------
# instances


def prime_instance(rng, n, m):
    """Constant-work jobs over distinct large primes: the grid needs object dtype."""
    primes = (p for p in range(1_000_003, 2_000_000, 2)
              if all(p % q for q in range(3, math.isqrt(p) + 1, 2)))
    jobs = []
    for j in range(n):
        p = next(primes)
        jobs.append(const_work_job(j + 1, Fraction(rng.randint(p, 3 * p - 1), p), m))
    return instance(m, *jobs)


def const_work_instance(rng, n, m):
    return instance(m, *(const_work_job(j + 1, Fraction(rng.randint(100, 10_000), 100), m)
                         for j in range(n)))


def corpus():
    rng = random.Random(71)
    out = [("adversarial", adversarial_instance())]
    out += [(f"random-{i}", random_instance(rng, rng.randint(1, 12), rng.randint(1, 10)))
            for i in range(12)]
    out += [(f"const-work-{i}", const_work_instance(rng, rng.randint(2, 8), rng.randint(5, 40)))
            for i in range(4)]
    out += [(f"prime-{i}", prime_instance(rng, rng.randint(4, 7), rng.randint(7, 12)))
            for i in range(3)]
    gen = generate(GenConfig(n=9, m=7, seed=5))
    out += [("generated", gen), ("generated-subset", Instance(7, gen.jobs[2:6]))]
    return out


def guesses(rng, inst):
    """d on a time value and on (7/3)x and (7/4)x one (ties at the 3/7 and
    4/7 thresholds), each also just below and just above."""
    times = sorted({t for j in inst.jobs for t in j.times})
    picks = {times[0], times[-1]} | set(rng.sample(times, min(4, len(times))))
    off = Fraction(1, 10**15)
    out = []
    for t in sorted(picks):
        for f in (Fraction(1), Fraction(7, 3), Fraction(7, 4)):
            d = f * t
            out += [d, d * (1 - off), d * (1 + off)]
    return out


class TestDecisionPathMatchesFractions:
    def test_corpus_covers_both_dtypes(self):
        dtypes = {name.split("-")[0]: inst.grid[1].dtype for name, inst in corpus()}
        assert dtypes["prime"] == object
        assert dtypes["random"] == np.int64 and dtypes["generated"] == np.int64

    def test_classify_build_items_initial_bounds(self):
        rng = random.Random(72)
        rejects = ties = 0
        for name, inst in corpus():
            assert initial_bounds(inst) == SearchBounds(*ref_initial_bounds(inst))
            for d in guesses(rng, inst):
                small, ws = classify_jobs(inst, d)
                big = big_ids(inst, d)
                assert (small_ids(inst, d), big, ws) == ref_classify(inst, d), (name, d)
                assert small.tolist() == [j.id not in big for j in inst.jobs]
                ref = ref_build_items(inst, big, d)
                assert as_work(inst, items_for(inst, big, d)) == ref, (name, d)
                # every job, small ones included, at every threshold
                everyone = {j.id for j in inst.jobs}
                ref_all = ref_build_items(inst, everyone, d)
                assert as_work(inst, items_for(inst, everyone, d)) == ref_all, (name, d)
                rejects += ref_all[0] == "reject"
                ties += any(t in (d, Fraction(4, 7) * d, Fraction(3, 7) * d)
                            for j in inst.jobs for t in j.times)
        assert rejects >= 20 and ties >= 100

    def test_items_keep_the_canonical_counts(self):
        # MckpItems.width is the scalar gamma at each class height, 0 where
        # the class is out of reach; sizes, availability and costs follow it.
        rng = random.Random(73)
        unavailable, on_objects = 0, 0
        for name, inst in corpus():
            q, a = inst.grid
            for d in guesses(rng, inst):
                for big in (big_ids(inst, d), {j.id for j in inst.jobs}):
                    items = items_for(inst, big, d)
                    if isinstance(items, Reject):
                        continue
                    g = items.width
                    assert g.dtype == np.int64 and g.shape == (len(items), 3), (name, d)
                    assert items.rows.tolist() == [inst.row_of[j] for j in items.ids]
                    for job_id, row in zip(items.ids, g.tolist()):
                        want = [gamma(inst, job_id, f * d) or 0 for f in CLASS_HEIGHTS]
                        assert row == want, (name, d, job_id)
                    assert (items.size2 == g * np.array([2, 1, 0])).all(), (name, d)
                    assert (items.avail == (g > 0)).all(), (name, d)
                    cost = g * a[items.rows[:, None], g - 1]
                    assert items.cost.dtype == a.dtype, (name, d)
                    assert items.cost.tolist() == cost.tolist(), (name, d)
                    unavailable += int((g == 0).sum())
                    on_objects += len(items) * (a.dtype == object)
        assert unavailable >= 100 and on_objects >= 100


class TestDpStaysOnInt64:
    def test_const_work_totals_are_reduced(self, monkeypatch):
        # Q is lcm(1..300) * 100 here, so costs at scale Q total far beyond
        # 2^59; the DP divides them by their gcd and stays on int64.
        inst = const_work_instance(random.Random(5), 150, 300)
        q, a = inst.grid
        assert q == math.lcm(*range(1, 301)) * 100 and a.dtype == object
        totals = []
        dp = mckp._dp

        def recording_dp(opts, cap):
            totals.append(sum(max(c for _, c, _ in o) for o in opts))
            return dp(opts, cap)

        # The solve's bounds settle every guess; the DP runs here on the
        # items of its accepted guess, the ones with more than one option.
        d = solve(inst).accepted_d
        items = items_at(inst, d)
        monkeypatch.setattr(mckp, "_dp", recording_dp)
        assert mckp.solve_mckp(items, inst.m) is not None
        raw = sum(max(o[0] for o in row if o) for row in options(items) if sum(map(bool, row)) > 1)
        assert len(totals) == 1 and raw > _INT64_SAFE_TOTAL >= totals[0]


class TestGridBeyondFloatRange:
    # t = 3/k on 800 machines puts lcm(1..800) > 2^1100 in Q, so the costs
    # and their hull-step slopes are far beyond float range.
    M = 800

    def jobs(self, copies):
        steep = Job(2, tuple(Fraction(x) for x in ("1", "0.6")) + (Fraction("0.45"),) * (self.M - 2))
        return (const_work_job(1, 3, self.M),) + tuple(
            Job(2 + i, steep.times) for i in range(copies))

    def test_decide_agrees_with_the_dp(self):
        inst = Instance(self.M, self.jobs(805))
        q, a = inst.grid
        assert q.bit_length() > 1100 and a.dtype == object
        d = Fraction(21, 20)  # job 2's options cost 1, 6/5 and 27/20 at sizes 2, 2, 0
        items = items_for(inst, big_ids(inst, d), d)
        best = mckp.pick_totals(items, mckp.solve_mckp(items, self.M))[0]
        for budget in (best - 1, best, best + q):
            verdict = mckp.decide(items, self.M, budget)
            assert (verdict.reason is None) == (best <= budget)

    def test_solves(self):
        inst = Instance(self.M, self.jobs(1))
        result = solve(inst)
        assert validate_schedule(inst, result.schedule).feasible
        opt = Fraction(9, 20)  # job 2 takes 9/20 on 3 or more machines, job 1 fits beside it
        assert result.makespan <= Fraction(3, 2) * (1 + Fraction(1, 20)) * opt


class TestTimesView:
    ROW = np.array([12, 6, 4, 3], dtype=np.int64)
    REF = (Fraction(3), Fraction(3, 2), Fraction(1), Fraction(3, 4))

    def view(self):
        row = self.ROW.copy()
        row.setflags(write=False)
        return Times(row, 4)

    def test_sequence_protocol(self):
        v = self.view()
        assert len(v) == 4
        assert v[0] == Fraction(3) and isinstance(v[0], Fraction)
        assert v[-1] == Fraction(3, 4) and v[-4] == v[0]
        with pytest.raises(IndexError):
            v[4]
        for s in (slice(None), slice(1, 3), slice(None, None, -1), slice(-2, None)):
            assert v[s] == self.REF[s] and type(v[s]) is tuple
        assert list(v) == list(self.REF)
        assert Fraction(1) in v and v.index(Fraction(1)) == 2
        assert max(v) == Fraction(3) and sum(v) == sum(self.REF)
        for seed in range(5):
            assert random.Random(seed).choice(v) == random.Random(seed).choice(self.REF)

    def test_equal_and_hashed_like_the_tuple(self):
        v = self.view()
        assert v == self.REF and self.REF == v and v == self.view()
        assert hash(v) == hash(self.REF)
        assert v != self.REF[:3] and v != list(self.REF)
        assert repr(v) == repr(self.REF)
        assert pickle.loads(pickle.dumps(v)) == self.REF

    def test_read_only(self):
        inst = generate(GenConfig(n=3, m=4, seed=2))
        with pytest.raises(ValueError):
            inst.grid[1][0, 0] = 1
        with pytest.raises(TypeError):
            inst.jobs[0].times[0] = Fraction(1)

    def test_generated_equals_hand_built(self):
        inst = generate(GenConfig(n=6, m=5, seed=3))
        assert all(isinstance(j.times, Times) for j in inst.jobs)
        hand = Instance(inst.m, tuple(Job(j.id, tuple(j.times)) for j in inst.jobs))
        assert hand.jobs[0] == inst.jobs[0] and hash(hand.jobs[0]) == hash(inst.jobs[0])
        assert hand == inst and inst == hand
        (q1, a1), (q2, a2) = inst.grid, hand.grid
        assert q1 == 10**6 and q1 % q2 == 0
        assert np.array_equal(a1, a2 * (q1 // q2))

    def test_numerators_read_the_rows_of_one_grid_at_once(self):
        gen, other = (generate(GenConfig(n=8, m=6, seed=s)) for s in (5, 6))
        q, a = gen.grid
        views, k = [j.times for j in gen.jobs[5:1:-1]], np.array([1, 6, 2, 3])  # rows 5, 4, 3, 2
        p, got = Times.numerators(views, k)
        assert got == q and p.tolist() == [a[r, i - 1] for r, i in zip((5, 4, 3, 2), k.tolist())]
        for mixed in (views + [other.jobs[0].times], views + [tuple(gen.jobs[0].times)],
                      [self.view()], []):
            assert Times.numerators(mixed, np.ones(len(mixed), dtype=np.int64)) is None

    def test_strings_match_fractions(self):
        assert self.view().strings() == [str(t) for t in self.REF] == ["3", "3/2", "1", "3/4"]

    def test_grid_of_views(self):
        gen = generate(GenConfig(n=8, m=6, seed=5))
        sub = Instance(6, gen.jobs[2:6])
        assert sub.grid[0] == gen.grid[0] and np.array_equal(sub.grid[1], gen.grid[1][2:6])
        mixed = Instance(6, gen.jobs[:2] + (Job(9, (Fraction(1, 3),) * 6),))
        q, a = mixed.grid  # the lcm of the denominators
        assert q == 3 * gen.grid[0] and np.array_equal(a[:2], 3 * gen.grid[1][:2])
        assert all(validate_instance(i) == [] for i in (sub, mixed))

    def test_grid_is_the_matrix_the_views_share(self):
        gen = generate(GenConfig(n=8, m=6, seed=5))
        loaded = cli.instance_from_obj(cli.instance_to_obj(gen))
        for inst in (gen, loaded):
            assert all(np.shares_memory(inst.grid[1], j.times._row) for j in inst.jobs)
        rewrapped = Instance(6, gen.jobs)  # derives a fresh grid of equal values
        for inst in (gen, loaded, rewrapped):
            q, a = inst.grid
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1
        assert np.array_equal(loaded.grid[1], gen.grid[1])
        assert rewrapped.grid[0] == gen.grid[0] and np.array_equal(rewrapped.grid[1], gen.grid[1])

    def test_of_grid_keeps_a_read_only_view_of_the_matrix(self):
        a = np.arange(1, 9, dtype=np.int64).reshape(2, 4)
        for m, ids in ((4, (1,)), (3, (1, 2)), (4, (1, 2, 3))):
            with pytest.raises(ValueError, match="grid shape"):
                Instance.of_grid(m, ids, 2, a)
        inst = Instance.of_grid(4, (7, 9), 2, a)
        assert inst.ids == (7, 9) and inst.grid[0] == 2 and np.shares_memory(inst.grid[1], a)
        assert a.flags.writeable and not inst.grid[1].flags.writeable
        assert inst.jobs[1].times == tuple(Fraction(x, 2) for x in range(5, 9))

    def test_other_jobs_get_a_fresh_grid(self):
        gen = generate(GenConfig(n=8, m=6, seed=5))
        other = generate(GenConfig(n=8, m=6, seed=6))
        for jobs in (gen.jobs[2:6], gen.jobs[::-1], gen.jobs[1:] + gen.jobs[:1],
                     gen.jobs[:1] * 8, gen.jobs[:4] + other.jobs[4:]):
            q, a = Instance(6, jobs).grid
            want = [[t * q for t in j.times] for j in jobs]
            assert q == 10**6 and a.tolist() == want
            assert not np.shares_memory(a, gen.grid[1]) and not a.flags.writeable

    def test_json_round_trip(self):
        inst = generate(GenConfig(n=6, m=5, seed=4))
        obj = cli.instance_to_obj(inst)
        back = cli.instance_from_obj(obj)
        assert back == inst and all(isinstance(j.times, Times) for j in back.jobs)
        # The grid read from the strings is the grid of their Fractions.
        (q, a), (q_ref, a_ref) = back.grid, Instance(
            back.m, tuple(Job(j.id, tuple(j.times)) for j in back.jobs)).grid
        assert q == q_ref and np.array_equal(a, a_ref) and a.dtype == a_ref.dtype
        assert cli.instance_to_obj(back) == obj
        assert solve(back).makespan == solve(inst).makespan

    def test_solve_makes_no_fraction_per_job(self, monkeypatch):
        # The list schedule is placed, verified and returned on grid integers:
        # a solve of 1000 small jobs makes Fractions per guess, none per job.
        inst = generate(GenConfig(n=1000, m=35, seed=1))
        made = collections.Counter()
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made["Fraction"] += 1
            return new(cls, *args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(Fraction, "__new__", counting)
            result = driver.solve(inst)
        assert result.construction == "list" and result.schedule.ints is not None
        assert 0 < made["Fraction"] <= 200

    def test_construction_reads_no_view(self, monkeypatch):
        # Shelves and small jobs read t(j,k) off the grid, so building the
        # schedule of a generated instance makes no Fraction from a view;
        # and each build counts its machine numbers with one gammas search,
        # never with the scalar gamma.  n=6, m=4: seed 2 ends in the
        # many-idle-machines repair, seed 1 in the few-idle-machines one.
        configs = [GenConfig(n=6, m=4, seed=2), GenConfig(n=6, m=4, seed=1)]
        configs += [GenConfig(n=40, m=16, seed=s) for s in range(3)]
        reads, repairs = collections.Counter(), collections.Counter()
        counts = collections.Counter()

        def counting(fn, counter, name):
            def wrapped(*args, **kwargs):
                counter[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for config in configs:
            inst = generate(config)
            d = solve(inst).accepted_d
            assignment = dp_assignment(inst, d)
            with monkeypatch.context() as mp:
                for name in ("__getitem__", "__iter__"):
                    mp.setattr(Times, name, counting(getattr(Times, name), reads, name))
                for name in ("repair_s2_small_q", "repair_s2_large_q"):
                    mp.setattr(shelf, name, counting(getattr(shelf, name), repairs, name))
                for module in (model, shelf):
                    for name in ("gamma", "gammas"):
                        mp.setattr(module, name, counting(getattr(module, name), counts, name))
                mp.setattr(shelf, "build_three_shelf",
                           counting(shelf.build_three_shelf, counts, "builds"))
                layout, lam = shelf.shelf_layout(inst, assignment, d)
                sched = shelf.add_small_jobs(layout, inst, small_ids(inst, d))
            assert (sched, lam) == dp_shelves(inst, d)
        assert reads == {}
        assert repairs["repair_s2_small_q"] and repairs["repair_s2_large_q"]
        assert counts["gamma"] == 0 and 0 < counts["gammas"] <= counts["builds"]

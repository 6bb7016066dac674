"""The integer time grid: Instance.grid, the Times view, and the decision path
checked against the Fraction implementations it replaced."""

import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from moldsched import GenConfig, Instance, Job, Reject, adversarial_instance, generate, solve
from moldsched import cli, mckp
from moldsched.driver import SearchBounds, initial_bounds
from moldsched.model import _INT64_SAFE_TOTAL, Times, classify_jobs, gamma, validate_instance, work
from moldsched.verify import validate_schedule
from util import const_work_job, instance, random_instance

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
    items = []
    for job_id in sorted(big):
        job = inst.job(job_id)
        g1 = gamma(job, d, inst.m)
        if g1 is None:
            return ("reject", job_id)
        g2 = gamma(job, Fraction(4, 7) * d, inst.m)
        g3 = gamma(job, Fraction(3, 7) * d, inst.m)
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
        (it.job_id, tuple((None if o.cost is None else Fraction(o.cost, q), o.size2)
                          for o in it.options))
        for it in items
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
                cls = classify_jobs(inst, d)
                assert (cls.small, cls.big, cls.ws) == ref_classify(inst, d), (name, d)
                ref = ref_build_items(inst, cls.big, d)
                assert as_work(inst, mckp.build_items(inst, cls.big, d)) == ref, (name, d)
                # every job, small ones included, at every threshold
                everyone = {j.id for j in inst.jobs}
                ref_all = ref_build_items(inst, everyone, d)
                assert as_work(inst, mckp.build_items(inst, everyone, d)) == ref_all, (name, d)
                rejects += ref_all[0] == "reject"
                ties += any(t in (d, Fraction(4, 7) * d, Fraction(3, 7) * d)
                            for j in inst.jobs for t in j.times)
        assert rejects >= 20 and ties >= 100


class TestDpStaysOnInt64:
    def test_const_work_totals_are_reduced(self, monkeypatch):
        # Q is lcm(1..300) * 100 here, so costs at scale Q total far beyond
        # 2^59; the DP divides them by their gcd and stays on int64.
        inst = const_work_instance(random.Random(5), 150, 300)
        q, a = inst.grid
        assert q == math.lcm(*range(1, 301)) * 100 and a.dtype == object
        totals = []
        dp = mckp._dp

        def recording_dp(items, scaled, cap, max_total):
            totals.append((sum(max(o.cost for o in it.options if o.available)
                               for it in items), max_total))
            return dp(items, scaled, cap, max_total)

        monkeypatch.setattr(mckp, "_dp", recording_dp)
        solve(inst)
        assert totals
        for raw, reduced in totals:
            assert raw > _INT64_SAFE_TOTAL >= reduced


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
        items = mckp.build_items(inst, classify_jobs(inst, d).big, d)
        best = mckp.solve_mckp(items, self.M).total_cost
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

    def test_json_round_trip(self):
        inst = generate(GenConfig(n=6, m=5, seed=4))
        obj = cli.instance_to_obj(inst)
        back = cli.instance_from_obj(obj)
        assert back == inst and all(type(j.times) is tuple for j in back.jobs)
        assert cli.instance_to_obj(back) == obj
        assert solve(back).makespan == solve(inst).makespan

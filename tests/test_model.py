import collections
import pickle
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from moldsched import (
    GenConfig,
    Instance,
    Job,
    LAMBDA_Q0,
    LAMBDA_SMALL_Q,
    LAMBDA_STAR_UPPER,
    PlacedJob,
    Schedule,
    generate,
    rat,
    solve,
    validate_instance,
    validate_schedule,
)
from moldsched.model import (
    SMALL_THRESHOLD_FRAC,
    InstanceViolation,
    classify_jobs,
    Times,
    gamma,
    gammas,
    int_matrix,
    row_keys,
)
from util import (
    const_work_job,
    fraction_schedule,
    grid_rows,
    instance,
    int_schedule,
    job,
    make_schedule,
    random_instance,
    lambda_star,
    random_monotone_job,
    small_ids,
)


def f_sign(x: Fraction) -> int:
    with mpmath.workdps(60):
        return int(mpmath.sign(mpmath.log(mpmath.mpf(x.numerator) / x.denominator) - 3 * x + 4))


class TestGamma:
    def test_examples(self):
        inst = instance(4, job(1, 10, 5, 4, 3))
        assert gamma(inst, 1, rat(4)) == 3
        assert gamma(inst, 1, rat(10)) == 1
        assert gamma(inst, 1, rat(2)) is None

    def test_nonpositive_h(self):
        with pytest.raises(ValueError):
            gamma(instance(1, job(1, 5)), 1, rat(0))

    def test_matches_linear_scan(self):
        rng = random.Random(7)
        cases = []
        for _ in range(200):
            m = rng.randint(1, 64)
            cases.append(instance(m, random_monotone_job(rng, 1, m)))
        # Constant work over distinct prime denominators: an object-dtype grid.
        primes = (1_000_003, 1_000_033, 1_000_037, 1_000_039)
        prime = instance(24, *(const_work_job(i + 1, Fraction(rng.randint(p, 3 * p), p), 24)
                               for i, p in enumerate(primes)))
        assert prime.grid[1].dtype == object
        gen = generate(GenConfig(n=6, m=20, seed=3))
        assert all(isinstance(j.times, Times) for j in gen.jobs)
        cases += [prime, gen]
        for inst in cases:
            for j in inst.jobs:
                m = inst.m
                for h in [j.times[0], j.times[-1], j.times[m // 2],
                          j.times[-1] - Fraction(1, 100), rat(1000),
                          *(t * (1 + s * Fraction(1, 10**12))
                            for t in j.times[1::5] for s in (-1, 0, 1))]:
                    if h <= 0:
                        continue
                    scan = next((k for k in range(1, m + 1) if j.times[k - 1] <= h), None)
                    assert gamma(inst, j.id, h) == scan

    def test_antimonotone_in_h(self):
        rng = random.Random(8)
        for _ in range(100):
            m = rng.randint(1, 32)
            j = random_monotone_job(rng, 1, m)
            inst = instance(m, j)
            hs = sorted(rng.choice(j.times) + Fraction(rng.randint(-50, 50), 100)
                        for _ in range(4))
            prev = None
            for h in hs:
                if h <= 0:
                    continue
                g = gamma(inst, 1, h)
                if prev is not None:
                    # larger h -> needs no more machines (None acts as +inf)
                    pg, g_ = (float("inf") if prev is None else prev,
                              float("inf") if g is None else g)
                    assert pg >= g_
                prev = g

    def test_work_minimal_at_gamma(self):
        rng = random.Random(9)
        for _ in range(100):
            m = rng.randint(1, 16)
            j = random_monotone_job(rng, 1, m)
            h = j.times[rng.randrange(m)]
            g = gamma(instance(m, j), 1, h)
            assert g is not None
            for k in range(g, m + 1):
                assert g * j.times[g - 1] <= k * j.times[k - 1]


def _monotone_rows(rng, n, m, top):
    """n rows of m positive integers, each non-increasing, at most top."""
    rows = []
    for _ in range(n):
        row = sorted((rng.randint(1, top) for _ in range(m)), reverse=True)
        if rng.random() < 0.3:  # runs of equal values
            row = [row[k - k % 3] for k in range(m)]
        rows.append(row)
    return rows


def _heights(rng, a, q):
    """Heights at, just below and just above grid values, under every
    row's t(j,m), at and over every row's t(j,1), and over max(A)."""
    values = sorted({v for row in a.tolist() for v in row})
    hs = set()
    for v in rng.sample(values, min(len(values), 12)):
        hs |= {Fraction(v, q), Fraction(10 * v - 1, 10 * q), Fraction(10 * v + 1, 10 * q)}
    low = min(row[-1] for row in a.tolist())
    hs |= {Fraction(2 * low - 1, 2 * q), Fraction(low, 3 * q)}
    hs |= {Fraction(row[0], q) for row in a.tolist()[:3]} | {Fraction(2 * values[-1] + 1, q)}
    return sorted(hs)


def _row_orders(rng, n):
    """Grid rows as build_items passes them, ascending, and in other orders."""
    subset = sorted(rng.sample(range(n), rng.randint(0, n)))
    shuffled = rng.sample(range(n), n)
    repeated = sorted(rng.choices(range(n), k=n))
    return [np.array(r, dtype=np.intp) for r in (range(n), subset, shuffled, repeated,
                                                  shuffled[::-1] + shuffled)]


def _smallest_k(row, h, q):
    return next((k for k, v in enumerate(row, start=1) if Fraction(v, q) <= h), len(row) + 1)


class TestGammas:
    """One searchsorted over a grid's row keys gives every row's gamma at
    every height: the smallest k on time-monotone rows, and a sound k on
    any row of positive times."""

    @pytest.mark.parametrize("top, keys_dtype", [
        (10**6, np.int64),        # an int64 grid
        (1 << 57, np.int64),      # an object grid whose keys still fit int64
        (1 << 80, object),        # huge numerators: exact keys
    ])
    def test_monotone_rows_give_the_smallest_k(self, top, keys_dtype):
        rng = random.Random(top % 1000 + 11)
        seen = collections.Counter()
        for _ in range(12):
            n, m, q = rng.randint(1, 9), rng.randint(1, 12), rng.choice([1, 7, 100, 10**9 + 7])
            a = int_matrix(_monotone_rows(rng, n, m, top), m)
            keys = row_keys(a)
            assert keys.keys.dtype == keys_dtype
            hs = _heights(rng, a, q)
            for rows in _row_orders(rng, n):
                g = gammas(keys, rows, hs, q)
                assert g.shape == (len(rows), len(hs))
                want = [[_smallest_k(a[r].tolist(), h, q) for h in hs] for r in rows.tolist()]
                assert g.tolist() == want, (n, m, q, rows)
                seen.update(("none" if k > m else "one" if k == 1 else "inner")
                            for row in want for k in row)
        assert min(seen.values()) >= 50, seen

    @pytest.mark.parametrize("top", [400, 1 << 80])
    def test_other_rows_give_a_sound_k(self, top):
        # On rows that break time monotony a k <= m is one the job meets h
        # on; m+1 may also come when the search leaves the row's keys.
        rng = random.Random(top % 1000 + 17)
        smaller = 0
        for _ in range(60):
            n, m, q = rng.randint(1, 8), rng.randint(2, 10), rng.choice([1, 100])
            a = int_matrix([[rng.randint(1, top) for _ in range(m)] for _ in range(n)], m)
            hs = _heights(rng, a, q)
            for rows in _row_orders(rng, n):
                for r, row_g in zip(rows.tolist(), gammas(row_keys(a), rows, hs, q).tolist()):
                    row = a[r].tolist()
                    for h, k in zip(hs, row_g):
                        assert 1 <= k <= m + 1
                        if k <= m:
                            assert Fraction(row[k - 1], q) <= h, (row, h, k)
                        smaller += k != _smallest_k(row, h, q)
        assert smaller  # not always the smallest: the search skips some

    def test_scalar_gamma_is_the_same_count(self):
        rng = random.Random(19)
        inst = random_instance(rng, 6, 9)
        q, a = inst.grid
        hs = _heights(rng, a, q)
        g = gammas(row_keys(a), np.arange(inst.n, dtype=np.intp), hs, q)
        for j, row in zip(inst.jobs, g.tolist()):
            assert [gamma(inst, j.id, h) or inst.m + 1 for h in hs] == row


class TestValidateInstance:
    def test_m_below_one_raises(self):
        for make in (lambda: Instance(0, ()), lambda: Instance(-1, ()),
                     lambda: Instance.of_grid(0, [], 1, np.zeros((0, 0), np.int64))):
            with pytest.raises(ValueError, match="m must be at least 1"):
                make()

    def test_ok(self):
        assert validate_instance(instance(2, job(1, 5, 3))) == []

    def test_time_monotony(self):
        bad = validate_instance(instance(2, job(1, 5, 6)))
        assert [(v.job_id, v.k, v.kind) for v in bad] == [(1, 2, "time-monotony")]

    def test_work_monotony(self):
        bad = validate_instance(instance(2, job(1, 6, 2)))
        assert [(v.job_id, v.k, v.kind) for v in bad] == [(1, 2, "work-monotony")]

    def test_length_positive_duplicate(self):
        bad = validate_instance(instance(3, job(1, 5, 3), job(1, 5, 3, 2), job(2, 5, 3, -1)))
        kinds = {(v.job_id, v.kind) for v in bad}
        assert (1, "length") in kinds
        assert (1, "duplicate-id") in kinds
        assert (2, "positive") in kinds

    def test_no_rows_to_check_builds_nothing_of_size_m(self):
        # The work-monotony weights are m-1 long: 80 MB at m = 10**7.
        for inst in (Instance(10**7, ()), Instance(10**7, (job(1, 1),))):
            tracemalloc.start()
            try:
                kinds = [v.kind for v in validate_instance(inst)]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert kinds == ["length"] * inst.n and peak < 1 << 20


def ref_validate_instance(inst):
    """The per-element Fraction loop validate_instance replaced, kept as the reference."""
    out = []
    seen = set()
    for j in inst.jobs:
        if j.id in seen:
            out.append(InstanceViolation(j.id, 0, "duplicate-id"))
        seen.add(j.id)
        if len(j.times) != inst.m:
            out.append(InstanceViolation(j.id, len(j.times), "length"))
            continue
        for k in range(1, inst.m + 1):
            t = j.times[k - 1]
            if t <= 0:
                out.append(InstanceViolation(j.id, k, "positive"))
            if k >= 2:
                prev = j.times[k - 2]
                if t > prev:
                    out.append(InstanceViolation(j.id, k, "time-monotony"))
                if k * t < (k - 1) * prev:
                    out.append(InstanceViolation(j.id, k, "work-monotony"))
    return out


def _break(rng, inst):
    """Mutate a random instance: zero or negative times, both monotony
    breaks, wrong lengths, duplicate ids, huge denominators."""
    jobs = []
    for jb in inst.jobs:
        times = list(jb.times)
        for _ in range(rng.randint(0, 3)):
            k = rng.randrange(len(times))
            kind = rng.randrange(6)
            if kind == 0:
                times[k] = Fraction(0)
            elif kind == 1:
                times[k] = -times[k]
            elif kind == 2:  # time monotony: grows with k
                times[k] = times[k] * 2
            elif kind == 3:  # work monotony: shrinks too fast
                times[k] = times[k] / 3
            elif kind == 4:
                times[k] = times[k] + Fraction(1, 10**30 + rng.randint(0, 10**6))
            else:
                times = times[:k] if rng.random() < 0.5 else times + [times[-1]]
                break
        job_id = jb.id if rng.random() < 0.8 else rng.randint(1, inst.n)
        jobs.append(Job(job_id, tuple(times)))
    return Instance(inst.m, tuple(jobs))


class TestValidateMatchesReference:
    def test_valid_instances(self):
        rng = random.Random(61)
        for _ in range(50):
            inst = random_instance(rng, rng.randint(0, 10), rng.randint(1, 12))
            assert validate_instance(inst) == ref_validate_instance(inst) == []
        gen = generate(GenConfig(n=20, m=9, seed=3))
        assert validate_instance(gen) == []

    def test_valid_input_builds_no_interleaved_mask(self, monkeypatch):
        # np.zeros builds only the n x m x 3 mask, which valid input skips.
        inst = generate(GenConfig(n=20, m=9, seed=3))
        monkeypatch.setattr(np, "zeros", None)
        assert validate_instance(inst) == []

    def test_broken_instances(self):
        rng = random.Random(62)
        kinds = set()
        for _ in range(300):
            inst = _break(rng, random_instance(rng, rng.randint(1, 8), rng.randint(1, 9)))
            got = validate_instance(inst)
            assert got == ref_validate_instance(inst)
            kinds |= {v.kind for v in got}
        assert kinds == {"positive", "time-monotony", "work-monotony", "length", "duplicate-id"}

    def test_exact_ints_past_int64(self):
        # Denominators near 10^30 put the grid on exact Python ints.
        inst = instance(3, job(1, Fraction(3, 10**30 + 7), Fraction(1, 10**30 + 7), 2),
                        job(2, 5, 3, 2))
        assert inst.grid[1].dtype == object
        got = validate_instance(inst)
        assert got == ref_validate_instance(inst)
        assert [(v.job_id, v.k, v.kind) for v in got] == [
            (1, 2, "work-monotony"), (1, 3, "time-monotony")]


class TestLambdaStar:
    def test_bracket_sign_change(self):
        assert f_sign(rat("1.459")) > 0
        assert f_sign(rat("1.460")) < 0

    def test_default_tolerance_window(self):
        assert rat("1.45932") < LAMBDA_STAR_UPPER < rat("1.45933")

    def test_literal_is_default_bracket(self):
        # The literal carries the q > m/6 stretch guarantee, so it must be
        # exactly the bisection's strict upper bracket.
        assert lambda_star() == LAMBDA_STAR_UPPER
        assert f_sign(LAMBDA_STAR_UPPER) < 0

    def test_coarse_tolerance(self):
        lam = lambda_star(Fraction(1, 10**4))
        assert rat("1.4592") <= lam <= rat("1.4594")
        assert f_sign(lam) < 0  # strictly above the root

    def test_result_is_strict_upper_bracket(self):
        tol = Fraction(1, 10**5)
        lam = lambda_star(tol)
        assert f_sign(lam) < 0
        assert f_sign(lam - 2 * tol) > 0

    def test_tolerance_domain(self):
        with pytest.raises(ValueError):
            lambda_star(Fraction(1, 100))
        with pytest.raises(ValueError):
            lambda_star(Fraction(0))

    def test_constant_ladder(self):
        assert LAMBDA_Q0 < LAMBDA_SMALL_Q < LAMBDA_STAR_UPPER < Fraction(3, 2)
        assert LAMBDA_Q0 - 1 == Fraction(3, 7)
        assert SMALL_THRESHOLD_FRAC == Fraction(3, 7)


class TestClassifyJobs:
    def test_threshold(self):
        # d = 7 puts the cut at exactly 3: at-threshold is small, above is big.
        inst = instance(
            1, job(1, 3), job(2, rat("3.5")), job(3, 10)
        )
        small, ws = classify_jobs(inst, rat(7))
        assert small.tolist() == [True, False, False]
        assert ws == rat(3)

    def test_tie_is_small_and_just_above_is_big(self):
        inst = instance(1, job(1, rat("3.0001")))
        assert small_ids(inst, rat(7)) == set()
        inst2 = instance(1, job(1, 3))
        assert small_ids(inst2, rat(7)) == {1}

    def test_small_fractions(self):
        inst = instance(1, job(1, rat("0.3")), job(2, rat("0.3")))
        assert small_ids(inst, rat("0.7")) == {1, 2}
        assert classify_jobs(inst, rat("0.7"))[1] == rat("0.6")

    def test_a_guess_is_a_row_mask_and_ws(self):
        # No id set per guess: the mask is in row order, whatever the ids.
        inst = instance(1, job(5, 3), job(2, 10), job(9, 1))
        small, ws = classify_jobs(inst, rat(7))
        assert small.dtype == bool and small.tolist() == [True, False, True]
        assert ws == 4

    @pytest.mark.parametrize("d", [0, rat("-1/2")])
    def test_guess_must_be_positive(self, d):
        with pytest.raises(ValueError, match="d must be positive"):
            classify_jobs(instance(1, job(1, 3)), d)


class TestScheduleForms:
    def _list_schedule(self):
        sched = solve(generate(GenConfig(n=40, m=16, seed=3))).schedule
        assert sched.ints is not None and sched.scale == 10**6
        return sched

    def test_integer_form_equals_its_fractions(self):
        sched = self._list_schedule()
        given = fraction_schedule(*grid_rows(sched))
        assert sched.ints is not None and given.ints is None
        assert sched == given and given == sched
        assert hash(sched) == hash(given) and repr(sched) == repr(given)
        assert {sched, given} == {given}
        assert Schedule(placements=given.placements, makespan=given.makespan) == sched
        scale, rows, makespan = grid_rows(sched)
        assert int_schedule(scale, rows, makespan) == sched
        moved = [rows[0][:3] + (rows[0][3] + 1, rows[0][4])] + rows[1:]
        assert int_schedule(scale, moved, makespan) != sched
        assert int_schedule(scale, rows, makespan + 1) != sched
        assert sched != (sched.placements, sched.makespan)

    def test_placements_are_built_once(self):
        sched = self._list_schedule()
        first = sched.placements
        assert sched.placements is first
        assert all(type(x) is Fraction for p in first for x in (p.start, p.duration))
        assert [p.job_id for p in first] == sched.ints[0].tolist()
        with pytest.raises(ValueError):
            sched.ints[3][0] = 0  # the columns are read-only
        with pytest.raises(AttributeError):
            sched.makespan = Fraction(0)
        assert pickle.loads(pickle.dumps(sched)) == sched

    def test_integer_columns_are_int64_or_object(self):
        for dtype in (np.int32, np.float64, np.uint64):
            with pytest.raises(TypeError, match="must be int64 or object"):
                Schedule.of_ints(1, (np.zeros(0, dtype=dtype),) * 5, Fraction(0))

    def test_empty_schedule_in_both_forms(self):
        ints = Schedule.of_ints(7, tuple(np.zeros(0, dtype=np.int64) for _ in range(5)), Fraction(0))
        for sched in (ints, Schedule((), Fraction(0)), make_schedule([])):
            assert sched == ints and hash(sched) == hash(ints)
            assert sched.placements == () and sched.makespan == 0
            rep = validate_schedule(instance(2), sched)
            assert rep.ok() and rep.makespan == 0 and type(rep.makespan) is Fraction


def test_exact_arithmetic_roundtrip():
    rng = random.Random(11)
    for _ in range(500):
        a = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        b = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        assert (a + b) - b == a
        if b:
            assert (a / b) * b == a

import random
from fractions import Fraction

import mpmath
import pytest

from moldsched import (
    LAMBDA_Q0,
    LAMBDA_SMALL_Q,
    LAMBDA_STAR_UPPER,
    rat,
    validate_instance,
)
from moldsched.model import (
    SMALL_THRESHOLD_FRAC,
    classify_jobs,
    gamma,
    lambda_star,
    work,
)
from util import instance, job, random_monotone_job


def f_sign(x: Fraction) -> int:
    with mpmath.workdps(60):
        return int(mpmath.sign(mpmath.log(mpmath.mpf(x.numerator) / x.denominator) - 3 * x + 4))


class TestWork:
    def test_examples(self):
        j = job(1, 10, 5, 4)
        assert work(j, 1) == 10
        assert work(j, 2) == 10
        assert work(j, 3) == 12

    def test_out_of_range(self):
        j = job(1, 10, 5)
        with pytest.raises(ValueError):
            work(j, 0)
        with pytest.raises(ValueError):
            work(j, 3)


class TestGamma:
    def test_examples(self):
        j = job(1, 10, 5, 4, 3)
        assert gamma(j, rat(4)) == 3
        assert gamma(j, rat(10)) == 1
        assert gamma(j, rat(2)) is None

    def test_nonpositive_h(self):
        with pytest.raises(ValueError):
            gamma(job(1, 5), rat(0))

    def test_matches_linear_scan(self):
        rng = random.Random(7)
        for _ in range(200):
            m = rng.randint(1, 64)
            j = random_monotone_job(rng, 1, m)
            for h in [j.times[0], j.times[-1], j.times[m // 2],
                      j.times[-1] - Fraction(1, 100), rat(1000)]:
                if h <= 0:
                    continue
                scan = next((k for k in range(1, m + 1) if j.times[k - 1] <= h), None)
                assert gamma(j, h) == scan

    def test_antimonotone_in_h(self):
        rng = random.Random(8)
        for _ in range(100):
            m = rng.randint(1, 32)
            j = random_monotone_job(rng, 1, m)
            hs = sorted(rng.choice(j.times) + Fraction(rng.randint(-50, 50), 100)
                        for _ in range(4))
            prev = None
            for h in hs:
                if h <= 0:
                    continue
                g = gamma(j, h)
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
            g = gamma(j, h)
            assert g is not None
            for k in range(g, m + 1):
                assert work(j, g) <= work(j, k)


class TestValidateInstance:
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
        c = classify_jobs(inst, rat(7))
        assert c.small == {1}
        assert c.big == {2, 3}
        assert c.ws == rat(3)

    def test_tie_is_small_and_just_above_is_big(self):
        inst = instance(1, job(1, rat("3.0001")))
        c = classify_jobs(inst, rat(7))
        assert c.big == {1}
        inst2 = instance(1, job(1, 3))
        assert classify_jobs(inst2, rat(7)).small == {1}

    def test_small_fractions(self):
        inst = instance(1, job(1, rat("0.3")), job(2, rat("0.3")))
        c = classify_jobs(inst, rat("0.7"))
        assert c.small == {1, 2}
        assert c.ws == rat("0.6")


def test_exact_arithmetic_roundtrip():
    rng = random.Random(11)
    for _ in range(500):
        a = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        b = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        assert (a + b) - b == a
        if b:
            assert (a / b) * b == a

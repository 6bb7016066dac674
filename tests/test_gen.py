from fractions import Fraction

import numpy as np
import pytest

from moldsched import (
    GenConfig,
    adversarial_instance,
    generate,
    rat,
    validate_instance,
)
from moldsched.gen import _bounded_draw

# Chi-square critical value, 9 degrees of freedom, p = 0.001.
_CHI2_9_P001 = 27.877


class TestGenerate:
    def test_deterministic(self):
        a = generate(GenConfig(n=12, m=9, seed=123))
        b = generate(GenConfig(n=12, m=9, seed=123))
        assert a == b
        c = generate(GenConfig(n=12, m=9, seed=124))
        assert a != c

    def test_stream_per_job(self):
        # Adding jobs never changes earlier jobs: one PRNG stream per index.
        a = generate(GenConfig(n=3, m=6, seed=9))
        b = generate(GenConfig(n=7, m=6, seed=9))
        assert a.jobs == b.jobs[:3]

    def test_always_valid_bulk(self):
        # 10^4 seeds on small shapes: construction enforces both monotonies.
        for seed in range(10_000):
            inst = generate(GenConfig(n=2, m=3, seed=seed))
            assert validate_instance(inst) == []

    def test_always_valid_varied_shapes(self):
        for seed in range(300):
            inst = generate(GenConfig(n=6, m=5, seed=seed))
            assert validate_instance(inst) == []

    def test_degenerate_interval(self):
        inst = generate(GenConfig(n=40, m=2, t1_low=rat(8), t1_high=rat(8), seed=5))
        for j in inst.jobs:
            assert j.times[0] == 8
            assert 4 <= j.times[1] <= 8

    def test_quantization(self):
        inst = generate(GenConfig(n=5, m=4, seed=2, quantization_denominator=1000))
        for j in inst.jobs:
            for t in j.times:
                assert 1000 % t.denominator == 0

    def test_marginal_is_uniform(self):
        # t(j,1) over [1, 100]: chi-square against 10 equal bins.
        n = 10_000
        inst = generate(GenConfig(n=n, m=1, seed=77))
        counts = [0] * 10
        lo, hi = 10**6, 100 * 10**6
        span = hi - lo + 1
        for j in inst.jobs:
            num = j.times[0].numerator * (10**6 // j.times[0].denominator)
            b = min((num - lo) * 10 // span, 9)
            counts[b] += 1
        expected = n / 10
        stat = sum((c - expected) ** 2 / expected for c in counts)
        assert stat < _CHI2_9_P001, counts

    def test_bad_config(self):
        with pytest.raises(ValueError):
            generate(GenConfig(n=1, m=0))
        with pytest.raises(ValueError):
            generate(GenConfig(n=1, m=1, t1_low=rat(5), t1_high=rat(4)))


class TestBoundedDraw:
    # span = 2^63 + 1 leaves limit = 2^63 + 1: every word at or above it is
    # rejected.  The first word of Philox(7) is 8648156199155761070.
    LO, HI, LIMIT, PHILOX7 = 0, 2**63, 2**63 + 1, 8648156199155761070

    def test_word_at_the_limit_is_redrawn_from_the_words(self):
        rng = np.random.Generator(np.random.Philox(7))
        assert _bounded_draw(iter([self.LIMIT, 5]), rng, self.LO, self.HI) == 5
        assert _bounded_draw(iter([self.LIMIT - 1]), rng, self.LO, self.HI) == self.HI
        # While words are left the rng is not read: its first word is next.
        assert _bounded_draw(iter([]), rng, self.LO, self.HI) == self.PHILOX7

    def test_exhausted_words_redraw_from_the_rng(self):
        for words in ([], [self.LIMIT]):
            rng = np.random.Generator(np.random.Philox(7))
            assert _bounded_draw(iter(words), rng, self.LO, self.HI) == self.PHILOX7


class TestAdversarialInstance:
    def test_shape_and_works(self):
        inst = adversarial_instance()
        assert inst.m == 13 and inst.n == 10
        works = [j.times[0] for j in inst.jobs]
        assert works[0] == rat("6.01")
        assert works[1] == rat("0.99")
        assert works[2:] == [Fraction(3, 4)] * 8
        assert sum(works) == 13

    def test_constant_work(self):
        inst = adversarial_instance()
        for j in inst.jobs:
            for k in range(1, 14):
                assert k * j.times[k - 1] == j.times[0]
        assert inst.jobs[0].times[12] == rat("6.01") / 13

    def test_validates(self):
        assert validate_instance(adversarial_instance()) == []

import hashlib
import math
import random
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
from moldsched import gen
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

    @pytest.mark.parametrize("cfg, k", [
        (GenConfig(n=1, m=1, quantization_denominator=2**61 - 1), 1),  # t(j,1) ~ 100 * 2^61
        (GenConfig(n=1, m=2, t1_low=1, t1_high=1, quantization_denominator=2**70), 2),  # 2^69 + 1
    ])
    def test_range_past_one_word_is_refused(self, cfg, k):
        # A draw reads one 64-bit word: a wider range would reject every word.
        with pytest.raises(ValueError, match=rf"^range of t\(j,{k}\) .* more than 2\^64 values$"):
            generate(cfg)

    def test_ranges_of_one_word_generate(self):
        inst = generate(GenConfig(n=3, m=4, quantization_denominator=2**57))
        assert inst.grid[0] == 2**57 and not validate_instance(inst)
        widest = generate(GenConfig(n=2, m=1, t1_high=2**64, quantization_denominator=1))
        assert 1 <= widest.grid[1].min() and widest.grid[1].max() <= 2**64  # 2^64 values


def ref_rows(cfg: GenConfig, patch=None) -> list[list[int]]:
    """The scalar chain, step by step in Python ints: each job's words from its
    own Philox stream, t(j,k)*Q uniform on [ceil((k-1)v/k), v] given v =
    t(j,k-1)*Q.  patch(idx, words) may replace a job's words before use."""
    q = cfg.quantization_denominator
    lo, hi = math.ceil(cfg.t1_low * q), math.floor(cfg.t1_high * q)
    rows = []
    for idx in range(cfg.n):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(cfg.seed & (2**64 - 1), spawn_key=(idx,)))
        )
        words = rng.integers(0, 2**64 - 1, size=cfg.m, dtype=np.uint64).tolist()
        words = iter(patch(idx, words) if patch else words)
        v = _bounded_draw(words, rng, lo, hi)
        nums = [v]
        for k in range(2, cfg.m + 1):
            v = _bounded_draw(words, rng, -((-(k - 1) * v) // k), v)
            nums.append(v)
        rows.append(nums)
    return rows


@pytest.fixture
def scalar_rows(monkeypatch):
    """The job indices that generate hands to the scalar chain, in order."""
    calls = []
    scalar_row = gen._scalar_row

    def spy(seed, idx, *args):
        calls.append(idx)
        return scalar_row(seed, idx, *args)

    monkeypatch.setattr(gen, "_scalar_row", spy)
    return calls


class TestVectorChain:
    def _configs(self):
        rng = random.Random(26)
        yield GenConfig(n=0, m=5, seed=1)
        yield GenConfig(n=3, m=1, seed=2)
        yield GenConfig(n=9, m=7, t1_low=rat(8), t1_high=rat(8), seed=3)
        yield GenConfig(n=4, m=6, seed=2**64 + 7)
        yield GenConfig(n=5, m=4, seed=2**64 - 1)
        yield GenConfig(n=6, m=40, t1_low=Fraction(1, 3), t1_high=Fraction(7, 2), seed=4,
                        quantization_denominator=999)
        for _ in range(12):
            yield GenConfig(n=rng.randint(0, 60), m=rng.randint(1, 90),
                            seed=rng.choice([rng.randrange(10**6), rng.randrange(2**66)]))

    def test_equals_the_scalar_chain(self, scalar_rows):
        for cfg in self._configs():
            q, a = generate(cfg).grid
            assert q == cfg.quantization_denominator
            assert a.dtype == np.int64 and a.shape == (cfg.n, cfg.m) and a.flags.c_contiguous
            assert a.tolist() == ref_rows(cfg), cfg
        assert scalar_rows == []

    def test_overflowing_range_takes_the_scalar_chain_to_exact_ints(self, scalar_rows):
        cfg = GenConfig(n=5, m=3, t1_high=rat(10**12), seed=6)
        _, a = generate(cfg).grid
        assert a.dtype == object
        assert a.tolist() == ref_rows(cfg)
        assert scalar_rows == list(range(5))

    def test_over_limit_word_redoes_only_its_job(self, monkeypatch, scalar_rows):
        cfg, job, at = GenConfig(n=6, m=9, seed=11), 3, 4
        plain = generate(cfg).grid[1]
        span = int(plain[job, at - 1]) // (at + 1) + 1  # of the draw of word at, k = at + 1
        limit = 2**64 - 2**64 % span  # the least word that draw rejects
        stream = gen._stream

        def patched(seed, idx, m):
            rng, words = stream(seed, idx, m)
            if idx == job:
                words = words.copy()
                words[at] = limit
            return rng, words

        def patch(idx, words):
            return words[:at] + [limit] + words[at + 1 :] if idx == job else words

        monkeypatch.setattr(gen, "_stream", patched)
        a = generate(cfg).grid[1]
        assert scalar_rows == [job]
        assert a.tolist() == ref_rows(cfg, patch)
        assert np.array_equal(np.delete(a, job, axis=0), np.delete(plain, job, axis=0))
        assert a[job, :at].tolist() == plain[job, :at].tolist()
        assert a[job, at:].tolist() != plain[job, at:].tolist()  # the word was redrawn

    @pytest.mark.parametrize(
        ("n", "m", "seed", "digest"),
        [
            (1, 1, 0, "e8a771350fbc7da7cdab00d3ea5a2cc64307346200f118cf61bf2da78ec95d17"),
            (7, 5, 42, "54451b391bf2e8a56379d2cbb6247e90a1f7052d449487ccdc48e874bcb8826f"),
            (80, 800, 1, "77391b37b619235e496959521b472c6d56bfcd179db6d4ce01e32abfb3d36307"),
        ],
    )
    def test_pinned_grid_bytes(self, n, m, seed, digest):
        # Any drift of the streams or the chain changes these.
        grid = generate(GenConfig(n=n, m=m, seed=seed)).grid[1]
        assert hashlib.sha256(grid.tobytes()).hexdigest() == digest


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

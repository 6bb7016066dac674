"""Random monotone instance generation and the hard worst-case instance.

Sampling works on integer numerators over a fixed quantization denominator
Q, so every emitted time is an exact rational and both monotony constraints
hold by construction: given t(j,k-1) = a/Q, the next value is uniform on the
integer range [ceil((k-1)a/k), a], the exact set of quantized values with
t(j,k) <= t(j,k-1) and k*t(j,k) >= (k-1)*t(j,k-1).

Each job draws from its own numpy Philox stream (SeedSequence spawn key =
job index), so generation is deterministic per (seed, config) and could be
parallelized per job without changing the output.  The numerators are the
instance's grid (``Instance.of_grid``); each job's ``times`` views its row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import Instance, Job, int_matrix, rat


@dataclass(frozen=True)
class GenConfig:
    n: int
    m: int
    t1_low: Fraction = Fraction(1)
    t1_high: Fraction = Fraction(100)
    seed: int = 0
    quantization_denominator: int = 10**6


def generate(cfg: GenConfig) -> Instance:
    """Sample an instance: t(j,1) uniform on [t1_low, t1_high], then a
    conditional-uniform chain for k = 2..m respecting both monotonies."""
    if cfg.n < 0 or cfg.m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    q = cfg.quantization_denominator
    lo = math.ceil(cfg.t1_low * q)
    hi = math.floor(cfg.t1_high * q)
    if lo < 1 or lo > hi:
        raise ValueError(f"empty quantized range for t(j,1): [{lo}, {hi}] / {q}")
    rows = []
    for idx in range(cfg.n):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(cfg.seed & (2**64 - 1), spawn_key=(idx,)))
        )
        # One bulk draw of raw 64-bit words per job, reduced to each bounded
        # range without modulo bias (the rare over-limit word is redrawn).
        words = iter(rng.integers(0, 2**64 - 1, size=cfg.m, dtype=np.uint64).tolist())
        v = _bounded_draw(words, rng, lo, hi)
        nums = [v]
        for k in range(2, cfg.m + 1):
            vlo = -((-(k - 1) * v) // k)  # ceil((k-1)*v / k)
            v = _bounded_draw(words, rng, vlo, v)
            nums.append(v)
        rows.append(nums)
    return Instance.of_grid(cfg.m, range(1, cfg.n + 1), q, int_matrix(rows, cfg.m))


def _bounded_draw(words, rng, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi] from 64-bit words, rejection-sampled."""
    span = hi - lo + 1
    limit = (1 << 64) - ((1 << 64) % span)
    while True:
        w = next(words, None)
        if w is None:
            w = int(rng.integers(0, 2**64 - 1, dtype=np.uint64, endpoint=True))
        if w < limit:
            return lo + (w % span)


def adversarial_instance() -> Instance:
    """13 machines, 10 constant-work jobs with works 6.01, 0.99, and eight
    0.75: total work 13, so the optimum packs everything to makespan 1, while
    the knapsack partition is steered into a visibly worse (still within-
    guarantee) schedule.  Constant work means t(j,k) = w/k, which satisfies
    both monotonies with equality on the work side."""
    m = 13
    works = [rat("6.01"), rat("0.99")] + [Fraction(3, 4)] * 8
    jobs = tuple(
        Job(i + 1, tuple(w / k for k in range(1, m + 1))) for i, w in enumerate(works)
    )
    return Instance(m, jobs)

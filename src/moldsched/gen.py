"""Random monotone instance generation and the hard worst-case instance.

Sampling works on integer numerators over a fixed quantization denominator
Q, so every emitted time is an exact rational and both monotony constraints
hold by construction: given t(j,k-1) = a/Q, the next value is uniform on the
integer range [ceil((k-1)a/k), a], the exact set of quantized values with
t(j,k) <= t(j,k-1) and k*t(j,k) >= (k-1)*t(j,k-1).

Each job draws m 64-bit words from its own numpy Philox stream (SeedSequence
spawn key = job index), so generation is deterministic per (seed, config).
The chain runs as uint64 vector ops over all jobs, one step per k.  A job with
a word that a bounded draw could reject (within hi = floor(t1_high*Q) of 2^64,
about once per 10^11 words) takes the scalar chain, which redraws it; so does
every job when m*hi could overflow int64.  The numerators are the instance's
grid (``Instance.of_grid``); each job's ``times`` views its row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import _INT64_SAFE_TOTAL, Instance, Job, int_matrix, rat


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
    n, m, q = cfg.n, cfg.m, cfg.quantization_denominator
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    lo = math.ceil(cfg.t1_low * q)
    hi = math.floor(cfg.t1_high * q)
    if lo < 1 or lo > hi:
        raise ValueError(f"empty quantized range for t(j,1): [{lo}, {hi}] / {q}")
    # A draw reads one 64-bit word, so no range may hold more than 2^64 values:
    # t(j,1)'s, and k=2's from hi, the widest of the chain after it.
    for k, low in ((1, lo), (2, hi - hi // 2)):
        if k <= m and hi - low >= 2**64:
            raise ValueError(f"range of t(j,{k}) [{low}, {hi}] / {q} has more than 2^64 values")
    if m * hi > _INT64_SAFE_TOTAL:  # the grid may need exact ints
        rows = [_scalar_row(cfg.seed, idx, m, lo, hi) for idx in range(n)]
        return Instance.of_grid(m, range(1, n + 1), q, int_matrix(rows, m))
    w = np.empty((m, n), dtype=np.uint64)  # w[k-1]: word k of each job, then t(j,k)*Q
    for idx in range(n):
        w[:, idx] = _stream(cfg.seed, idx, m)[1]
    # Every span is at most hi, so no word below 2^64 - hi is rejected.
    redo = np.flatnonzero(w.max(axis=0) >= 2**64 - hi).tolist()
    w[0] = lo + w[0] % (hi - lo + 1)
    for k in range(2, m + 1):  # uniform on [v - v//k, v] = [ceil((k-1)v/k), v]
        v, word = w[k - 2], w[k - 1]
        drop = v // k
        word %= drop + 1
        word += v - drop
    a = np.ascontiguousarray(w.T, dtype=np.int64)
    for idx in redo:
        a[idx] = _scalar_row(cfg.seed, idx, m, lo, hi)
    return Instance.of_grid(m, range(1, n + 1), q, int_matrix(a, m))


def _stream(seed: int, idx: int, m: int) -> tuple[np.random.Generator, np.ndarray]:
    """Job idx's own Philox stream and the first m 64-bit words `integers` draws."""
    ss = np.random.SeedSequence(seed & (2**64 - 1), spawn_key=(idx,))
    rng = np.random.Generator(np.random.Philox(ss))
    return rng, rng.integers(0, 2**64 - 1, size=m, dtype=np.uint64)


def _scalar_row(seed: int, idx: int, m: int, lo: int, hi: int) -> list[int]:
    """Job idx's numerators, one bounded draw per k in Python ints."""
    rng, words = _stream(seed, idx, m)
    words = iter(words.tolist())
    nums = [_bounded_draw(words, rng, lo, hi)]
    for k in range(2, m + 1):
        v = nums[-1]
        nums.append(_bounded_draw(words, rng, v - v // k, v))
    return nums


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

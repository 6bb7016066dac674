"""Golden corpus: every solve output hashed against hashes recorded once.

Each instance's (makespan, accepted_d, lambda_used, placements) is hashed
with sha256; a refactor must keep every hash unless the change explains why
the schedules moved.  The corpus covers a seeded random grid, tiny instances,
the adversarial instance, and constant-work instances whose works have
distinct large-prime denominators, so that the knapsack's integer cost
totals pass 2^59 and the exact (object-dtype) DP runs inside full
solves.

Re-record the hashes with ``PYTHONPATH=src:tests python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from moldsched import Instance, Reject, adversarial_instance, rat, solve
from moldsched.mckp import build_items
from moldsched.model import classify_jobs
from util import const_work_job, instance, job, random_instance

GOLDEN = Path(__file__).with_name("golden_hashes.json")
INT64_SAFE_TOTAL = 1 << 59


def _primes_from(start: int):
    n = start
    while True:
        if all(n % p for p in range(2, math.isqrt(n) + 1)):
            yield n
        n += 1


def _prime_instances() -> list[tuple[str, Instance]]:
    primes = _primes_from(1_000_003)
    rng = random.Random(59)
    out = []
    for i in range(20):
        n = rng.randint(4, 7)
        m = rng.randint(n, 2 * n)
        jobs = []
        for j in range(n):
            p = next(primes)
            jobs.append(const_work_job(j + 1, Fraction(rng.randint(p, 3 * p - 1), p), m))
        out.append((f"prime-{i}", instance(m, *jobs)))
    return out


def corpus() -> list[tuple[str, Instance, Fraction]]:
    cases = []
    for n in (1, 3, 6, 10, 16, 24):
        for m in (1, 2, 4, 7, 12, 20):
            for s in range(4):
                rng = random.Random(f"grid/{n}/{m}/{s}")
                cases.append((f"grid-{n}-{m}-{s}", random_instance(rng, n, m), rat("1/20")))
    tiny_eps = (rat("1/20"), rat("1/4"), rat(1))
    for i in range(27):
        rng = random.Random(f"tiny/{i}")
        inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 3))
        cases.append((f"tiny-{i}", inst, tiny_eps[i % 3]))
    cases.append(("tiny-empty", instance(3), rat("1/20")))
    cases.append(("tiny-one-machine", instance(1, job(1, 2), job(2, "1/3")), rat("1/20")))
    cases.append(("tiny-full-width", instance(2, job(1, 4, 2), job(2, 3, 2)), rat("1/20")))
    for eps in ("1/20", "1/100", "1/2"):
        cases.append((f"adversarial-{eps}", adversarial_instance(), rat(eps)))
    cases.extend((name, inst, rat("1/20")) for name, inst in _prime_instances())
    return cases


def digest(result) -> str:
    payload = json.dumps(
        [
            str(result.makespan),
            str(result.accepted_d),
            str(result.lambda_used),
            [
                [p.job_id, p.first_machine, p.width, str(p.start), str(p.duration)]
                for p in result.schedule.placements
            ],
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def scaled_total(inst: Instance, d: Fraction) -> int:
    """Sum over the knapsack items at d of their largest cost, in the DP's own
    integer unit: the items' costs (work at the grid scale) over their gcd."""
    items = build_items(inst, classify_jobs(inst, d).big, d)
    assert not isinstance(items, Reject)
    costs = [[o.cost for o in it.options if o.cost is not None] for it in items]
    unit = math.gcd(*(c for row in costs for c in row))
    return sum(max(row) for row in costs) // unit


def test_golden_hashes():
    expected = json.loads(GOLDEN.read_text())
    got = {}
    for name, inst, eps in corpus():
        result = solve(inst, eps)
        got[name] = digest(result)
        if name.startswith("prime-"):
            assert scaled_total(inst, result.accepted_d) > INT64_SAFE_TOTAL, name
    changed = sorted(k for k in got if got[k] != expected.get(k))
    assert set(got) == set(expected)
    assert not changed, f"{len(changed)} golden hashes changed: {changed[:10]}"


if __name__ == "__main__":
    hashes = {name: digest(solve(inst, eps)) for name, inst, eps in corpus()}
    GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}")

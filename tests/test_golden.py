"""Golden corpus: two schedules per instance hashed against recorded hashes.

Each schedule's (makespan, accepted_d, lambda, placements) is hashed with
sha256; a refactor must keep every hash unless the change explains why the
schedules moved.  Two sets are recorded:

  golden_hashes.json        the shelf schedule, with its stretch, that
                            ``driver._shelves`` builds from the knapsack DP's
                            minimum-cost pick at each solve's accepted d;
                            recorded when solve returned it, never re-recorded
  golden_solve_hashes.json  what ``solve`` returns

``try_guess`` builds its shelves from the pick that accepted d, the greedy's
where the knapsack bounds settle d; on five instances that pick is not the
DP's minimum and its shelves differ from the recorded ones.

The corpus covers a seeded random grid, tiny instances, the adversarial
instance, and constant-work instances whose works have distinct large-prime
denominators, so that the knapsack's integer cost totals pass 2^59 and the
exact (object-dtype) DP runs inside full solves.

Re-record the solve hashes with ``PYTHONPATH=src:tests python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from functools import cache
from pathlib import Path

from moldsched import Instance, Reject, adversarial_instance, driver, rat, solve, try_guess
from util import (
    big_ids, const_work_job, dp_shelves, instance, items_for, job, options, random_instance,
)

GOLDEN = Path(__file__).with_name("golden_hashes.json")
GOLDEN_SOLVE = Path(__file__).with_name("golden_solve_hashes.json")
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


def digest(sched, accepted_d: Fraction, lam: Fraction) -> str:
    payload = json.dumps(
        [
            str(sched.makespan),
            str(accepted_d),
            str(lam),
            [
                [p.job_id, p.first_machine, p.width, str(p.start), str(p.duration)]
                for p in sched.placements
            ],
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def solve_digest(result) -> str:
    return digest(result.schedule, result.accepted_d, result.lambda_used)


def shelf_digest(inst: Instance, result) -> str:
    """The shelf schedule at the solve's accepted d; an empty instance has
    none, and its solve output stands in as it always did."""
    if not inst.jobs:
        return solve_digest(result)
    d = result.accepted_d
    sched, lam = dp_shelves(inst, d)
    return digest(sched, d, lam)


@cache
def solved() -> tuple:
    return tuple((name, inst, solve(inst, eps)) for name, inst, eps in corpus())


def scaled_total(inst: Instance, d: Fraction) -> int:
    """Sum over the knapsack items at d of their largest cost, in the DP's own
    integer unit: the items' costs (work at the grid scale) over their gcd."""
    items = items_for(inst, big_ids(inst, d), d)
    assert not isinstance(items, Reject)
    costs = [[o[0] for o in row if o] for row in options(items)]
    unit = math.gcd(*(c for row in costs for c in row))
    return sum(max(row) for row in costs) // unit


def _check(path: Path, got: dict[str, str]) -> None:
    expected = json.loads(path.read_text())
    changed = sorted(k for k in got if got[k] != expected.get(k))
    assert set(got) == set(expected)
    assert not changed, f"{len(changed)} golden hashes changed: {changed[:10]}"


def test_golden_hashes():
    got = {}
    for name, inst, result in solved():
        got[name] = shelf_digest(inst, result)
        if name.startswith("prime-"):
            assert scaled_total(inst, result.accepted_d) > INT64_SAFE_TOTAL, name
    _check(GOLDEN, got)


def test_golden_solve_hashes():
    _check(GOLDEN_SOLVE, {name: solve_digest(result) for name, _, result in solved()})


def test_try_guess_builds_from_the_solves_partition():
    # At a solve's accepted d, try_guess builds the shelves of the partition
    # the solve reports, and it differs from the DP minimum's exactly where
    # a greedy pick above the minimum accepted d.
    moved = []
    for name, inst, result in solved():
        if not inst.jobs:
            continue
        d = result.accepted_d
        own, _ = driver._shelves(inst, d, result.mckp_assignment, {"verify": 0.0})
        sched = try_guess(inst, d)
        assert sched == own, name
        if sched != dp_shelves(inst, d)[0]:
            assert result.partition_by == "bound", name
            moved.append(name)
    assert moved == ["grid-6-7-1", "grid-10-4-3", "grid-16-20-1", "grid-24-20-0", "grid-24-20-2"]


if __name__ == "__main__":
    hashes = {name: solve_digest(result) for name, _, result in solved()}
    GOLDEN_SOLVE.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {GOLDEN_SOLVE}")

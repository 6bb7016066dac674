"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the reported (not asserted) observations.
"""

import csv
import json
import random
import statistics
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from moldsched import (
    LAMBDA_Q0,
    LAMBDA_SMALL_Q,
    LAMBDA_STAR_UPPER,
    GenConfig,
    PlacedJob,
    Reject,
    ShelfInvariantError,
    adversarial_instance,
    brute_force_opt,
    generate,
    rat,
    solve,
    try_guess,
    validate_schedule,
)
from moldsched.mckp import pick_totals, solve_mckp
from moldsched.driver import _attempt
from moldsched.cli import main as cli_main
from test_mckp import random_items
from util import brute_mckp, dp_shelves, grid_keys, lambda_star, make_schedule

ARTIFACTS = Path(__file__).parent / "artifacts"
RATIO_CAP = rat("1.4594") * rat("1.05")
LAMBDAS = (LAMBDA_Q0, LAMBDA_SMALL_Q, LAMBDA_STAR_UPPER)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"\n{name}: {'PASS' if ok else 'FAIL'}{' — ' + detail if detail else ''}")
    assert ok, f"{name} failed: {detail}"


def _corpus(count: int, seed0: int, n_hi: int = 50, m_hi: int = 50):
    rng = random.Random(seed0)
    for i in range(count):
        n = rng.randint(1, n_hi)
        m = rng.randint(1, m_hi)
        yield generate(GenConfig(n=n, m=m, seed=seed0 * 1_000_000 + i))


def _tiny_corpus(count: int, seed0: int):
    rng = random.Random(seed0)
    for i in range(count):
        yield generate(
            GenConfig(n=rng.randint(1, 4), m=rng.randint(1, 4), seed=seed0 * 10_000 + i)
        )


def test_criterion_1_dual_approximation_guarantee():
    """Every accepted guess yields a verified contiguous schedule within
    lambda_branch * d, as an exact rational comparison."""
    t0 = time.perf_counter()
    eps = rat("0.05")
    branch_counts = {lam: 0 for lam in LAMBDAS}
    checked = 0
    for inst in _corpus(1000, seed0=1):
        r = solve(inst, eps)
        assert r.lambda_used in LAMBDAS
        report = validate_schedule(inst, r.schedule, require_contiguous=True)
        assert report.feasible and report.contiguous, report.violations
        assert r.makespan <= r.lambda_used * r.accepted_d  # exact Fractions
        branch_counts[r.lambda_used] += 1
        # Re-probe two accepted guesses explicitly, checking the per-guess
        # contract (the solver verifies its returned schedule inline, built
        # once at the last accepted guess).
        for d in (r.accepted_d, 2 * r.accepted_d):
            assert not isinstance(_attempt(inst, d, grid_keys(inst)), Reject)
            sched, lam = dp_shelves(inst, d)
            rep = validate_schedule(inst, sched, require_contiguous=True)
            assert rep.feasible and rep.contiguous
            assert sched.makespan <= lam * d
            checked += 1
    elapsed = time.perf_counter() - t0
    counts = {f"{lam}": c for lam, c in branch_counts.items()}
    _report(
        "criterion 1 (dual approximation, 1000 instances)",
        elapsed < 120,
        f"{checked} extra guess probes, branches {counts}, {elapsed:.1f}s",
    )


def test_criterion_2_rejection_soundness():
    """try_guess never rejects any d >= OPT on the tiny-instance corpus."""
    t0 = time.perf_counter()
    n_checked = 0
    for inst in _tiny_corpus(200, seed0=2):
        opt = brute_force_opt(inst)
        for mult in (rat(1), rat("1.01"), rat("1.5"), rat(2)):
            out = try_guess(inst, opt * mult)
            assert not isinstance(out, Reject), (inst, mult)
            n_checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2 (rejection soundness, 200 tiny instances)",
        elapsed < 60,
        f"{n_checked} guesses at or above OPT, all accepted, {elapsed:.1f}s",
    )


def test_criterion_3_end_to_end_ratio_tiny():
    """makespan/OPT <= 1.4594*1.05 on every tiny instance; the empirical
    maximum and the share under 10/7 + eps are reported, not asserted."""
    eps = rat("0.05")
    worst = Fraction(0)
    under_107 = 0
    total = 0
    for inst in _tiny_corpus(200, seed0=3):
        opt = brute_force_opt(inst)
        r = solve(inst, eps)
        ratio = r.makespan / opt
        assert ratio <= RATIO_CAP, (inst, float(ratio))
        worst = max(worst, ratio)
        total += 1
        if ratio <= LAMBDA_Q0 + eps:
            under_107 += 1
    _report(
        "criterion 3 (tiny-instance ratio)",
        True,
        f"max ratio {float(worst):.5f} (cap {float(RATIO_CAP):.5f}); "
        f"{under_107}/{total} within 10/7 + eps (reported, not asserted)",
    )


def test_criterion_4_adversarial_instance():
    """The constant-work worst-case family: OPT = 1 analytically; the solver
    stays inside [1, 1.4594*1.05]; observed value and partition are logged."""
    inst = adversarial_instance()
    r = solve(inst, rat("0.05"))
    report = validate_schedule(inst, r.schedule, require_contiguous=True)
    assert report.feasible and report.contiguous
    assert 1 <= r.makespan <= RATIO_CAP
    classes = sorted(r.mckp_assignment.items())
    _report(
        "criterion 4 (adversarial instance)",
        True,
        f"observed makespan {r.makespan} (~{float(r.makespan):.4f}), "
        f"lambda {r.lambda_used}, accepted_d ~{float(r.accepted_d):.4f}, "
        f"partition {classes}",
    )


def test_criterion_5_mckp_correctness():
    """500 random item sets: DP cost equals exhaustive cost exactly and
    feasibility verdicts agree."""
    t0 = time.perf_counter()
    rng = random.Random(5)
    agreements = 0
    for _ in range(500):
        n = rng.randint(0, 12)
        m = rng.randint(1, 10)
        items = random_items(rng, n, m)
        got = solve_mckp(items, m)
        ref = brute_mckp(items, m)
        if ref is None:
            assert got is None
        else:
            assert got is not None
            assert got == ref
            assert pick_totals(items, got) == pick_totals(items, ref)
        agreements += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 5 (knapsack vs exhaustive oracle)",
        elapsed < 30,
        f"{agreements} item sets agree, {elapsed:.1f}s",
    )


def test_criterion_6_lambda_star_constant():
    lam = lambda_star(Fraction(1, 10**4))
    assert rat("1.4592") <= lam <= rat("1.4594")
    with mpmath.workdps(60):
        val = mpmath.log(mpmath.mpf(lam.numerator) / lam.denominator) - 3 * lam + 4
        strict_upper = val < 0
    assert strict_upper
    _report(
        "criterion 6 (stretch constant)",
        True,
        f"lambda_star(1e-4) = {lam} (~{float(lam):.6f}), ln(lam) < 3*lam - 4 holds",
    )


def test_criterion_7_runtime_at_scale():
    """n = m = 1000, eps = 0.05: a single solve stays under 60 s."""
    inst = generate(GenConfig(n=1000, m=1000, seed=7))
    t0 = time.perf_counter()
    r = solve(inst, rat("0.05"))
    elapsed = time.perf_counter() - t0
    report = validate_schedule(inst, r.schedule, require_contiguous=True)
    assert report.feasible and report.contiguous
    _report(
        "criterion 7 (runtime at n=m=1000)",
        elapsed < 60,
        f"solve took {elapsed:.1f}s, {r.iterations} bisection steps, "
        f"lambda {r.lambda_used}",
    )


def test_criterion_8_runtime_trend(tmp_path):
    """Wall-time trend over a scaled-down fixed-m grid; reported (with a CSV
    and an SVG trend plot), not hard-asserted: absolute timings are
    hardware-bound."""
    ARTIFACTS.mkdir(exist_ok=True)
    m_fixed = 200
    grid_n = (100, 200, 400, 800, 1600)
    cfg = {"runs": [
        {"n": n, "m": m_fixed, "seeds": [1, 2, 3], "epsilon": "0.05"} for n in grid_n
    ]}
    cfg_path = tmp_path / "trend.json"
    cfg_path.write_text(json.dumps(cfg))
    out_csv = ARTIFACTS / "bench_trend.csv"
    assert cli_main(["bench", str(cfg_path), "--out", str(out_csv)]) == 0
    medians: dict[int, float] = {}
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert all(not r["error"] for r in rows)
    for n in grid_n:
        medians[n] = statistics.median(
            float(r["wall_ms"]) for r in rows if r["n"] == str(n)
        )
    _write_trend_svg(medians, ARTIFACTS / "bench_trend.svg")
    # Far past n >> m nearly all jobs fall under the small-job threshold, the
    # knapsack empties out, and per-guess work drops; that is where the
    # decrease shows up.
    at_2m, at_4m = medians[2 * m_fixed], medians[4 * m_fixed]
    direction = (
        "holds (n=4m faster than n=2m)" if at_4m <= at_2m
        else "does not hold at this scale"
    )
    _report(
        f"criterion 8 (runtime trend, scaled grid m={m_fixed})",
        True,
        f"median wall ms {medians}; 'time shrinks for n >> m' {direction} "
        f"(reported, not asserted); artifacts in {ARTIFACTS}",
    )


def _write_trend_svg(medians: dict[int, float], path: Path) -> None:
    xs = sorted(medians)
    w, h, pad = 480, 300, 40
    top = max(medians.values()) or 1.0
    pts = []
    for i, x in enumerate(xs):
        px = pad + i * (w - 2 * pad) / max(len(xs) - 1, 1)
        py = h - pad - (medians[x] / top) * (h - 2 * pad)
        pts.append((px, py, x))
    poly = " ".join(f"{px:.1f},{py:.1f}" for px, py, _ in pts)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<polyline points="{poly}" fill="none" stroke="steelblue" stroke-width="2"/>',
    ]
    for px, py, x in pts:
        parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="3" fill="steelblue"/>')
        parts.append(
            f'<text x="{px:.1f}" y="{h - pad + 16}" font-size="11" '
            f'text-anchor="middle">n={x}</text>'
        )
    parts.append(
        f'<text x="{pad}" y="{pad - 12}" font-size="11">median wall ms, m fixed</text>'
    )
    parts.append("</svg>")
    path.write_text("\n".join(parts))


def test_criterion_9_structural_assertions_never_fire():
    """The shelf-2 width bound, the single-job and short-job structure
    checks, and all other repair invariants stay quiet across a fresh
    corpus (they raise ShelfInvariantError if violated)."""
    errors = 0
    runs = 0
    for inst in _corpus(250, seed0=9, n_hi=40, m_hi=40):
        try:
            solve(inst, rat("0.05"))
        except ShelfInvariantError:
            errors += 1
        runs += 1
    for inst in _tiny_corpus(50, seed0=19):
        try:
            opt = brute_force_opt(inst)
            try_guess(inst, opt)
            solve(inst, rat("0.05"))
        except ShelfInvariantError:
            errors += 1
        runs += 1
    try:
        solve(adversarial_instance(), rat("0.05"))
    except ShelfInvariantError:
        errors += 1
    runs += 1
    _report(
        "criterion 9 (structural assertions quiet)",
        errors == 0,
        f"{runs} solves, {errors} invariant violations",
    )


def _mutate(inst, sched, kind: str):
    rows = list(sched.placements)
    if kind == "overlap" and len(rows) >= 2:
        p0, p1 = rows[0], rows[1]
        rows[0] = PlacedJob(
            p0.job_id, p1.first_machine, 1, p1.start, inst.by_id[p0.job_id].times[0]
        )
        return make_schedule(rows)
    if kind == "contiguity":
        for i, p in enumerate(rows):
            if p.width >= 2 and p.first_machine + p.width + 1 <= inst.m:
                rows[i] = PlacedJob(p.job_id, p.first_machine, 1, p.start, p.duration)
                rows.append(
                    PlacedJob(
                        p.job_id,
                        p.first_machine + 2,
                        p.width - 1,
                        p.start,
                        p.duration,
                    )
                )
                return make_schedule(rows)
        return None
    if kind == "duration":
        p = rows[-1]
        rows[-1] = PlacedJob(
            p.job_id, p.first_machine, p.width, p.start, p.duration + Fraction(1, 7)
        )
        return make_schedule(rows)
    if kind == "widen":
        for i, p in enumerate(rows):
            if p.first_machine + p.width + 1 <= inst.m:
                j = inst.by_id[p.job_id]
                # only a strict time drop makes the widened row provably bad
                if j.times[p.width] != j.times[p.width - 1]:
                    rows[i] = PlacedJob(
                        p.job_id, p.first_machine, p.width + 1, p.start, p.duration
                    )
                    return make_schedule(rows)
        return None
    p = rows[-1]
    if kind == "start":
        rows[-1] = PlacedJob(p.job_id, p.first_machine, p.width, Fraction(-1, 7), p.duration)
    elif kind == "width":
        rows[-1] = PlacedJob(p.job_id, p.first_machine, 0, p.start, p.duration)
    elif kind == "bounds":
        rows[-1] = PlacedJob(p.job_id, inst.m - p.width + 1, p.width, p.start, p.duration)
    elif kind == "split-start":  # a second part of the job, starting later
        rows.append(PlacedJob(p.job_id, p.first_machine, p.width, p.start + 1, p.duration))
    elif kind == "shared-machine":  # a second, identical part of the job
        rows.append(p)
    else:
        return None
    return make_schedule(rows)


# mutation -> (violation kind it must raise, text of the violation's detail)
_REPORTED = {
    "overlap": ("overlap", ""),
    "duration": ("duration", ""),
    "contiguity": ("contiguity", ""),
    "widen": ("duration", ""),  # the duration no longer matches the width
    "start": ("start", ""),
    "width": ("width", "non-positive width"),
    "bounds": ("bounds", ""),
    "split-start": ("placement", "parts disagree on start/duration"),
    "shared-machine": ("placement", "parts share a machine"),
}


def test_criterion_10_verifier_mutation_testing():
    """100 pipeline outputs all accepted; 100 mutated schedules all rejected."""
    kinds_used: dict[str, int] = {}
    accepted = rejected = 0
    produced = []
    rng = random.Random(10)
    while len(produced) < 100:
        n = rng.randint(3, 20)
        m = rng.randint(2, 12)
        inst = generate(GenConfig(n=n, m=m, seed=100_000 + len(produced)))
        r = solve(inst, rat("0.05"))
        produced.append((inst, r.schedule))
    for inst, sched in produced:
        report = validate_schedule(inst, sched, require_contiguous=True)
        assert report.ok(), report.violations
        accepted += 1
    cycle = tuple(_REPORTED)
    i = 0
    while rejected < 100:
        inst, sched = produced[rejected % len(produced)]
        mutated = None
        for attempt in range(len(cycle)):
            kind = cycle[(i + attempt) % len(cycle)]
            mutated = _mutate(inst, sched, kind)
            if mutated is not None:
                kinds_used[kind] = kinds_used.get(kind, 0) + 1
                break
        i += 1
        assert mutated is not None
        report = validate_schedule(inst, mutated, require_contiguous=True)
        assert not report.ok(), (kind, mutated.placements)
        want, detail = _REPORTED[kind]
        assert any(v.kind == want and detail in v.detail for v in report.violations), (
            kind, report.violations)
        rejected += 1
    assert set(kinds_used) >= {"overlap", "duration", "contiguity"}
    assert set(kinds_used) == set(_REPORTED), kinds_used
    _report(
        "criterion 10 (verifier mutation testing)",
        accepted == 100 and rejected == 100,
        f"{accepted} originals accepted, {rejected} mutants rejected, kinds {kinds_used}",
    )

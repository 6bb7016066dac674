"""Solver benchmark for moldsched: one workload per run, every output checked.

Run from the repository root:

    python3 benchmark/run.py --workload shelf-heavy --seed 1 --seconds 20 --trace 0

A run builds its inputs from --seed: SETUPS set-ups, each generating
``instances_per_setup`` instances with ``moldsched.gen`` (the cli-batch
workload also writes them as instance files).  It then solves them
round-robin in a closed loop, one solve at a time in this single process, for
--seconds, and checks every output independently (benchmark/checks.py).
Each solve is followed by a fixed reference task (reference_task), and the
compared solve metrics are in units of it; plain seconds are printed too.

--trace 0 installs no wrapper and prints the end-to-end metrics.  --trace 1
alternates traced and untraced passes over the same inputs, at least two
traced ones, and prints the per-layer split; per-layer counts must repeat
exactly across the traced passes.  Metric lines go to stdout, followed by one
JSON line {"correct", "attempted", "failed", "metrics"}; the same result, the
provenance and (traced) the spans are written under .bench_out/.

The program is imported from src/ next to this directory, never from an
installed copy; without it the script exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = {
    "solve_ref_p50": "ref",
    "solve_ref_p90": "ref",
    "jobs_per_ref": "1/ref",
    "setup_s": "s",
    "makespan_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "gen.generate_s": "s",
    "cli.self_s": "s",
    "cli.instance_from_obj_s": "s",
    "cli.schedule_to_obj_s": "s",
    "model.validate_instance_s": "s",
    "driver.self_s": "s",
    "driver.guesses": "count",
    "driver.rejected": "count",
    "model.classify_jobs_s": "s",
    "model.gamma_calls": "count",
    "mckp.build_items_s": "s",
    "mckp.solve_mckp_s": "s",
    "mckp.items": "count",
    "mckp.dp_cells": "count",
    "shelf.build_three_shelf_s": "s",
    "shelf.builds": "count",
    "shelf.useful_build_ratio": "ratio",
    "shelf.apply_transformations_s": "s",
    "shelf.repair_s2_small_q_calls": "count",
    "shelf.repair_s2_large_q_calls": "count",
    "shelf.repair_s": "s",
    "shelf.add_small_jobs_s": "s",
    "verify.validate_schedule_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}

# Span name -> per-layer metric of its self time (per traced solve).
SELF_METRIC = {
    "cli.main": "cli.self_s",
    "driver.solve": "driver.self_s",
    "shelf.repair_s2_small_q": "shelf.repair_s",
    "shelf.repair_s2_large_q": "shelf.repair_s",
}

WARMUP_SHAPE = (12, 8)
SETUPS = 6  # set-ups per run; setup_s is their median


def pin_threads() -> None:
    """One numpy/BLAS thread: the run is a single process on a small box."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_program() -> bool:
    """Import moldsched from this checkout's src/; False if it is not there."""
    if not (SRC / "moldsched" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import moldsched

    return Path(moldsched.__file__).resolve().is_relative_to(SRC)


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import moldsched; print(time.perf_counter() - t0)"
)


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import moldsched, as every CLI
    call pays; a child process, because a module imports once per process."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout)


def load_config() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


@dataclass
class Case:
    index: int
    inst: object
    path: Optional[Path] = None  # instance file, cli path only
    out_path: Optional[Path] = None
    first: object = None  # first output seen (checks.Output)
    key: Optional[str] = None
    problems: list = field(default_factory=list)


@dataclass
class Sample:
    case: int
    wall: Optional[float]  # None: the solve raised or the CLI exited non-zero
    traced: bool
    key: Optional[str] = None
    counts: Optional[dict] = None
    ref: Optional[float] = None  # seconds of the reference task run right after


def reference_task() -> int:
    """A fixed amount of pure-Python work that does not touch moldsched.

    Exact rationals, sorting and dict churn, like the solver's own inner
    loops.  It is timed right after every solve, and solve times are read in
    units of it: other tenants of a shared host slow the core by up to ~1.8x
    for minutes at a time, and slow both alike, so the ratio stays put where
    the seconds do not.  Its size is fixed here and must not change between
    two commits that are compared.
    """
    rng = random.Random(0)
    xs = sorted(Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**6)) for _ in range(400))
    acc = sum(a * b / (a + b) for a, b in zip(xs, xs[1:]))
    table = {rng.getrandbits(40): (i, str(i)) for i in range(6000)}
    return len(sorted(table)) + acc.denominator % 7


def timed_reference() -> float:
    t0 = time.perf_counter()
    reference_task()
    return time.perf_counter() - t0


def _spread(bounds: list[int], i: int, k: int) -> int:
    lo, hi = bounds
    return lo + (hi - lo) * i // max(k - 1, 1)


def build_inputs(name: str, spec: dict, seed: int, workdir: Path):
    """Generate the run's instances; per set-up wall times and time windows.

    The run's SETUPS * instances_per_setup shapes are spread evenly over the
    n and m ranges and paired by a fixed shuffle; set-up s takes every
    SETUPS-th of them from the s-th on, so every set-up gets the same mix of
    sizes.  Runs differ only in instance content, which follows the seed.
    """
    from moldsched import cli, gen

    k = SETUPS * spec["instances_per_setup"]
    pairing = random.Random(0).sample(range(k), k)
    shapes = [(_spread(spec["n"], i, k), _spread(spec["m"], pairing[i], k)) for i in range(k)]
    cases: list[Case] = []
    times, windows = [], []
    for s in range(SETUPS):
        rng = random.Random(f"{name}/{seed}/{s}")
        t0 = time.perf_counter()
        for n, m in shapes[s::SETUPS]:
            inst = gen.generate(gen.GenConfig(n=n, m=m, seed=rng.getrandbits(63)))
            case = Case(len(cases), inst)
            if spec["path"] == "cli":
                case.path = workdir / f"inst-{case.index}.json"
                case.path.write_text(json.dumps(cli.instance_to_obj(inst)))
                case.out_path = workdir / f"sched-{case.index}.json"
            cases.append(case)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        windows.append((t0, t1))
    return cases, times, windows


def solve_once(case: Case, eps: Fraction, eps_text: str):
    """One timed solve; (wall seconds, checks.Output).  Raises on failure."""
    import checks
    from moldsched import cli, driver

    if case.path is None:
        t0 = time.perf_counter()
        result = driver.solve(case.inst, eps)
        wall = time.perf_counter() - t0
        return wall, checks.from_result(result)
    argv = ["solve", str(case.path), "--epsilon", eps_text, "--out", str(case.out_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"moldsched solve exited {code} on {case.path.name}")
    return wall, checks.from_schedule_file(case.out_path)


class Runner:
    """Solves cases and keeps every sample; traced solves record counts."""

    def __init__(self, cases: list[Case], eps: Fraction, eps_text: str, tracer=None):
        self.cases = cases
        self.eps = eps
        self.eps_text = eps_text
        self.tracer = tracer
        self.samples: list[Sample] = []

    def solve(self, case: Case, traced: bool) -> None:
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.request = len(self.samples)
            before = dict(tracer.counts)
        try:
            wall, out = solve_once(case, self.eps, self.eps_text)
        except Exception:  # a failed solve is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            self.samples.append(Sample(case.index, None, traced))
            return
        finally:
            if tracer is not None:
                tracer.request = None
        counts = None
        if tracer is not None:
            counts = {
                k: v - before.get(k, 0)
                for k, v in tracer.counts.items()
                if v != before.get(k, 0)
            }
        key = out.key()
        if case.first is None:
            case.first, case.key = out, key
        self.samples.append(Sample(case.index, wall, traced, key, counts, timed_reference()))

    def untraced_loop(self, seconds: float) -> None:
        """Round-robin until --seconds have passed, after one full pass."""
        start = time.perf_counter()
        first_pass = True
        while first_pass or time.perf_counter() - start < seconds:
            for case in self.cases:
                if not first_pass and time.perf_counter() - start >= seconds:
                    break
                self.solve(case, traced=False)
            first_pass = False

    def alternating_passes(self, seconds: float) -> None:
        """Traced and untraced full passes, traced first, at least T, U, T."""
        start = time.perf_counter()
        passes = 0
        while passes < 3 or time.perf_counter() - start < seconds:
            traced = passes % 2 == 0
            ctx = self.tracer.patched() if traced else contextlib.nullcontext()
            with ctx:
                for case in self.cases:
                    self.solve(case, traced)
            passes += 1


def check_cases(runner: Runner, spec: dict) -> list[float]:
    """Check each case's output once; makespan ratios, in case order.

    Every later solve of a case must give the same output bit for bit, so
    one full check per case covers all of its solves.  A CLI output is also
    compared with an untraced API solve of the same instance, which supplies
    the certified lower bound the schedule file does not carry.
    """
    import checks
    from moldsched import driver

    ratios = []
    for case in runner.cases:
        out = case.first
        if out is None:
            continue
        if spec["path"] == "cli":
            try:
                ref = checks.from_result(driver.solve(case.inst, runner.eps))
            except Exception as exc:  # recorded as a problem of this case
                case.problems.append(f"API reference solve raised {exc!r}")
                continue
            if ref.key() != case.key:
                case.problems.append("CLI output differs from the API solve")
            out = replace(out, certified_lower=ref.certified_lower)
        case.problems.extend(checks.check(case.inst, runner.eps, out))
        if out.certified_lower is not None:
            ratios.append(checks.makespan_ratio(case.inst, out))
    for s in runner.samples:
        if s.wall is not None and s.key != runner.cases[s.case].key:
            runner.cases[s.case].problems.append("output changed between solves")
    return ratios


def count_problems(runner: Runner) -> int:
    bad = {c.index for c in runner.cases if c.problems}
    return sum(1 for s in runner.samples if s.wall is None or s.case in bad)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def per_instance(samples: list[Sample], value) -> dict[int, float]:
    """Median of value(sample) over each case's solves, so that every
    instance weighs the same however far the last round-robin pass got."""
    values: dict[int, list[float]] = {}
    for s in samples:
        if s.wall is not None:
            values.setdefault(s.case, []).append(value(s))
    return {i: statistics.median(v) for i, v in values.items()}


def in_ref(s: Sample) -> float:
    return s.wall / s.ref


def in_seconds(s: Sample) -> float:
    return s.wall


def end_to_end(runner: Runner, setup_times: list[float], ratios) -> dict:
    cost = per_instance(runner.samples, in_ref)
    jobs = sum(runner.cases[i].inst.n for i in cost)
    return {
        "solve_ref_p50": statistics.median(cost.values()),
        "solve_ref_p90": p90(list(cost.values())),
        "jobs_per_ref": jobs / sum(cost.values()),
        "setup_s": statistics.median(setup_times),
        "makespan_ratio": statistics.median(ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def seconds_line(runner: Runner) -> str:
    secs = per_instance(runner.samples, in_seconds)
    refs = [s.ref for s in runner.samples if s.wall is not None]
    jobs = sum(runner.cases[i].inst.n for i in secs)
    return (
        f"in seconds, not compared (they follow the host's load): solve p50 "
        f"{statistics.median(secs.values()):.6f} s, p90 {p90(list(secs.values())):.6f} s, "
        f"{jobs / sum(secs.values()):.1f} jobs/s; reference task median "
        f"{statistics.median(refs):.6f} s over {len(refs)} runs"
    )


def per_layer(runner: Runner, windows) -> tuple[dict, list[str]]:
    """Per-layer metrics per traced solve, plus report lines."""
    tracer = runner.tracer
    traced = [s for s in runner.samples if s.traced and s.wall is not None]
    untraced = [s for s in runner.samples if not s.traced]
    n = len(traced)
    values = {name: 0.0 for name, unit in PER_LAYER.items() if unit == "s"}
    gen_per_setup = [0.0] * len(windows)
    span_total = 0.0
    by_span: dict[str, float] = {}
    for name, start, self_s, request in tracer.self_times():
        if request is None:
            if name == "gen.generate":
                for i, (t0, t1) in enumerate(windows):
                    if t0 <= start <= t1:
                        gen_per_setup[i] += self_s
            continue
        span_total += self_s
        by_span[name] = by_span.get(name, 0.0) + self_s
        values[SELF_METRIC.get(name, name + "_s")] += self_s / n
    values["gen.generate_s"] = statistics.median(gen_per_setup)

    counts: dict[str, int] = {}
    for s in traced:
        for k, v in s.counts.items():
            counts[k] = counts.get(k, 0) + v
    builds = counts.get("shelf.build_three_shelf", 0)
    guesses = counts.get("driver.guesses", 0)
    values.update(
        {
            "driver.guesses": guesses / n,
            "driver.rejected": (guesses - counts.get("verify.validate_schedule", 0)) / n,
            "model.gamma_calls": counts.get("model.gamma_calls", 0) / n,
            "mckp.items": counts.get("mckp.items", 0) / n,
            "mckp.dp_cells": counts.get("mckp.dp_cells", 0) / n,
            "shelf.builds": builds / n,
            "shelf.useful_build_ratio": n / builds if builds else 0.0,
            "shelf.repair_s2_small_q_calls": counts.get("shelf.repair_s2_small_q", 0) / n,
            "shelf.repair_s2_large_q_calls": counts.get("shelf.repair_s2_large_q", 0) / n,
        }
    )
    traced_wall = sum(s.wall for s in traced)
    values["trace.coverage"] = span_total / traced_wall
    values["trace.overhead_s"] = statistics.median(
        per_instance(traced, in_seconds).values()
    ) - statistics.median(per_instance(untraced, in_seconds).values())

    lines = [
        f"coverage: self times of all spans sum to {span_total:.4f} s of "
        f"{traced_wall:.4f} s traced solve wall time ({100 * span_total / traced_wall:.2f}%), "
        f"{n} traced solves, rejected guesses included"
    ]
    for name, total in sorted(by_span.items(), key=lambda kv: -kv[1]):
        lines.append(f"  self {name:<30} {total / n:10.6f} s/solve {100 * total / traced_wall:6.2f}%")
    return values, lines


def counts_repeat(runner: Runner) -> bool:
    """Every traced solve of one case must have the same per-layer counts."""
    seen: dict[int, dict] = {}
    for s in runner.samples:
        if s.traced and s.wall is not None:
            if seen.setdefault(s.case, s.counts) != s.counts:
                return False
    return True


def git_sha() -> str:
    """HEAD of this checkout; git is kept from searching above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_workload(
    name: str,
    spec: dict,
    seed: int,
    seconds: float,
    trace: bool,
    recorded: Optional[str] = None,
) -> dict:
    """Run one workload; the result dict printed and saved by main()."""
    import checks
    import spans
    from moldsched import cli, gen

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{name}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        tracer = spans.Tracer() if trace else None
        ctx = tracer.patched() if trace else contextlib.nullcontext()
        with ctx:
            cases, setup_times, windows = build_inputs(name, spec, seed, workdir)
        eps = Fraction(spec["eps"])
        runner = Runner(cases, eps, spec["eps"], tracer)

        warm_inst = gen.generate(gen.GenConfig(*WARMUP_SHAPE, seed=seed))
        warm = Case(-1, warm_inst)
        if spec["path"] == "cli":
            warm.path, warm.out_path = workdir / "warm.json", workdir / "warm-sched.json"
            warm.path.write_text(json.dumps(cli.instance_to_obj(warm_inst)))
        solve_once(warm, eps, spec["eps"])

        if trace:
            runner.alternating_passes(seconds)
        else:
            runner.untraced_loop(seconds)
        ratios = check_cases(runner, spec)
        failed = count_problems(runner)
        modes = {s.traced for s in runner.samples if s.wall is not None}
        if not ratios or modes != ({True, False} if trace else {False}):
            raise SystemExit(f"error: {name}: every solve failed, no metrics to report")
        repeat_ok = counts_repeat(runner) if trace else True

        if trace:
            metrics, lines = per_layer(runner, windows)
            units = PER_LAYER
            tracer.dump(OUT / f"spans-{name}-seed{seed}.jsonl")
        else:
            # Set-up i: a fresh import plus generating set-up i's inputs.
            setups = [import_seconds() + t for t in setup_times]
            metrics = end_to_end(runner, setups, ratios)
            lines = [seconds_line(runner)]
            units = END_TO_END
        keys = [c.key or "none" for c in cases]
        run_digest = checks.digest(keys)
        problems = sorted({p for c in cases for p in c.problems})
        if not repeat_ok:
            problems.append("per-layer counts differ between traced passes")
        return {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "shape": {k: spec[k] for k in ("n", "m", "eps", "instances_per_setup", "path")},
            "setups": SETUPS,
            "instances": len(cases),
            "provenance": provenance(),
            "digest": run_digest,
            "recorded_digest": recorded,
            "problems": problems,
            "report_lines": lines,
            "samples": sum(1 for s in runner.samples if s.wall is not None),
            "walls": [[s.case, s.traced, s.wall] for s in runner.samples],
            "result": {
                "correct": failed == 0 and not problems,
                "attempted": len(runner.samples),
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_report(rep: dict) -> None:
    res = rep["result"]
    shape = rep["shape"]
    print(
        f"workload {rep['workload']}  seed {rep['seed']}  seconds {rep['seconds']}  "
        f"trace {rep['trace']}  n {shape['n']} m {shape['m']} eps {shape['eps']}  "
        f"{rep['setups']} set-ups x {shape['instances_per_setup']} instances ({shape['path']})"
    )
    print("provenance " + json.dumps(rep["provenance"], sort_keys=True))
    print(
        f"solves {res['attempted']}  failed {res['failed']}  "
        f"error_rate {res['failed'] / res['attempted']:.6g}"
    )
    rec = rep["recorded_digest"]
    note = (
        "no recorded digest for this seed" if rec is None
        else "matches the recorded digest" if rec == rep["digest"]
        else f"DIFFERS from the recorded digest {rec}"
    )
    print(f"digest {rep['digest']}  ({note})")
    for p in rep["problems"][:5]:
        print(f"problem: {p}")
    if len(rep["problems"]) > 5:
        print(f"problem: ... and {len(rep['problems']) - 5} more, see the result file")
    for line in rep["report_lines"]:
        print(line)
    for k, v in res["metrics"].items():
        print(f"metric {k:<32} {v['value']!r} {v['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    cfg = load_config()
    spec = cfg["workloads"].get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not load_program():
        print(f"error: no moldsched sources under {SRC}", file=sys.stderr)
        return 2
    recorded = cfg["digests"].get(args.workload, {}).get(str(args.seed))
    rep = run_workload(
        args.workload, spec, args.seed, args.seconds, bool(args.trace), recorded
    )
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(rep, indent=2, sort_keys=True) + "\n"
    )
    print_report(rep)
    print(json.dumps(rep["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

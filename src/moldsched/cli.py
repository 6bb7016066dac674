"""Command-line interface, JSON file formats, bench harness, and SVG Gantt.

Formats (rationals serialize as "p/q" strings; decimal strings are accepted
on input and converted exactly):

  instance file   {"m": int, "jobs": [{"id": int, "times": ["p/q", ...]}]}
  schedule file   {"makespan": "p/q", "lambda": "p/q", "accepted_d": "p/q",
                   "placements": [{"job": int, "first_machine": int,
                                   "width": int, "start": "p/q",
                                   "duration": "p/q"}]}

Exit codes: 0 success / feasible, 1 infeasible schedule, 2 invalid input or
an unwritable output path, 3 internal invariant violation (diagnostic dumped
to stderr; for bench, any row that failed on a valid config).

The bench harness runs solves in a process pool (worker count from the
MOLDSCHED_WORKERS environment variable) and writes one CSV row per
(n, m, seed) in deterministic order, with the solve's wall time, its
per-phase times (``SolveResult.timings``) and the ``generate`` time
(``gen_ms``) in milliseconds.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .driver import solve
from .gen import GenConfig, generate
from .model import Instance, Job, PlacedJob, Schedule, Times, rat, validate_instance
from .shelf import ShelfInvariantError
from .verify import validate_schedule

WORKERS_ENV = "MOLDSCHED_WORKERS"


# ---------------------------------------------------------------------------
# serialization


def instance_to_obj(inst: Instance) -> dict:
    return {
        "m": inst.m,
        "jobs": [
            {"id": j.id, "times": j.times.strings() if isinstance(j.times, Times)
             else [str(t) for t in j.times]} for j in inst.jobs
        ],
    }


def _json(value, kind: type, what: str):
    """Return value if it is a JSON integer (kind=int) or list (kind=list)."""
    if type(value) is not kind:  # also rejects bool, a subclass of int
        raise TypeError(f"{what} must be a JSON {kind.__name__}, got {value!r:.40}")
    return value


def instance_from_obj(obj: dict) -> Instance:
    m = _json(obj["m"], int, "m")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    jobs = tuple(
        Job(
            _json(j["id"], int, "job id"),
            tuple(map(rat, _json(j["times"], list, "times"))),
        )
        for j in _json(obj["jobs"], list, "jobs")
    )
    return Instance(m, jobs)


def schedule_to_obj(sched: Schedule, lam: Fraction, accepted_d: Fraction) -> dict:
    return {
        "makespan": str(sched.makespan),
        "lambda": str(lam),
        "accepted_d": str(accepted_d),
        "placements": [
            {
                "job": p.job_id,
                "first_machine": p.first_machine,
                "width": p.width,
                "start": str(p.start),
                "duration": str(p.duration),
            }
            for p in sched.placements
        ],
    }


def schedule_from_obj(obj: dict) -> tuple[Schedule, Fraction, Fraction]:
    placements = tuple(
        PlacedJob(
            _json(p["job"], int, "job"),
            _json(p["first_machine"], int, "first_machine"),
            _json(p["width"], int, "width"),
            rat(p["start"]),
            rat(p["duration"]),
        )
        for p in _json(obj["placements"], list, "placements")
    )
    sched = Schedule(placements, rat(obj["makespan"]))
    return sched, rat(obj["lambda"]), rat(obj["accepted_d"])


def _dump_json(obj: dict, path: str) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_json(path: str) -> dict:
    return json.loads(Path(path).read_text())


def load_instance(path: str) -> Instance:
    return instance_from_obj(_load_json(path))


# Unreadable file, malformed JSON, missing key, bad value or zero denominator.
_INPUT_ERRORS = (OSError, KeyError, TypeError, ValueError, ZeroDivisionError)


def _input_error(what: str, exc: Exception) -> int:
    """Report a bad input file on one stderr line; returns exit code 2."""
    if isinstance(exc, json.JSONDecodeError):
        detail = f"malformed JSON at line {exc.lineno}, column {exc.colno}"
    elif isinstance(exc, OSError):
        detail = f"cannot read {exc.filename}: {exc.strerror}"
    else:
        detail = f"bad {what}: {exc}"
    print(f"error: {detail}", file=sys.stderr)
    return 2


def _output_error(exc: OSError) -> int:
    """Report an unwritable output file on one stderr line; returns exit code 2."""
    print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
    return 2


def _epsilon(text: str) -> Fraction:
    """Parse an accuracy; ValueError unless it is a rational in (0, 1]."""
    try:
        eps = rat(text)
    except (ValueError, ZeroDivisionError):
        eps = None
    if eps is None or not 0 < eps <= 1:
        raise ValueError(f"epsilon must be a rational in (0, 1], got {text!r}")
    return eps


# ---------------------------------------------------------------------------
# gantt


def gantt_svg(inst: Instance, sched: Schedule) -> str:
    """One rectangle per placement, machines on the y-axis, time on the x-axis."""
    m = inst.m
    width, row, margin = 900, 22, 60
    height = m * row + 2 * margin
    span = float(sched.makespan) or 1.0
    scale = (width - 2 * margin) / span
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width - margin}" y="{height - margin + 16}" '
        f'font-size="11" text-anchor="end">t = {sched.makespan}</text>',
    ]
    for p in sched.placements:
        x = margin + float(p.start) * scale
        w = max(float(p.duration) * scale, 1.0)
        y = margin + p.first_machine * row
        h = p.width * row - 2
        hue = (p.job_id * 61) % 360
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="hsl({hue},65%,70%)" stroke="black" stroke-width="0.5">'
            f"<title>job {p.job_id}</title></rect>"
        )
    for i in range(m):
        parts.append(
            f'<text x="{margin - 6}" y="{margin + i * row + row * 0.7:.2f}" '
            f'font-size="10" text-anchor="end">{i}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# commands


def cmd_solve(
    instance_path: str,
    epsilon: Fraction,
    out_path: Optional[str],
    gantt_path: Optional[str] = None,
) -> int:
    try:
        inst = load_instance(instance_path)
    except _INPUT_ERRORS as exc:
        return _input_error("instance file", exc)
    problems = validate_instance(inst)
    if problems:
        for v in problems:
            print(f"error: job {v.job_id}, k={v.k}: {v.kind}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        result = solve(inst, epsilon)
    except ShelfInvariantError as exc:
        print(f"internal invariant violation: {exc.diagnostic()}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - t0
    try:
        if out_path:
            _dump_json(
                schedule_to_obj(result.schedule, result.lambda_used, result.accepted_d),
                out_path,
            )
        if gantt_path:
            Path(gantt_path).write_text(gantt_svg(inst, result.schedule))
    except OSError as exc:
        return _output_error(exc)
    print(f"makespan    {result.makespan}  (~{float(result.makespan):.6g})")
    print(f"accepted_d  {result.accepted_d}  (~{float(result.accepted_d):.6g})")
    print(f"lambda      {result.lambda_used}  (~{float(result.lambda_used):.6g})")
    print(f"iterations  {result.iterations}")
    print(f"wall_s      {wall:.3f}")
    return 0


def cmd_gen(n: int, m: int, seed: int, out_path: str) -> int:
    try:
        inst = generate(GenConfig(n=n, m=m, seed=seed))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _dump_json(instance_to_obj(inst), out_path)
    except OSError as exc:
        return _output_error(exc)
    print(f"wrote {out_path}: n={n} m={m} seed={seed}")
    return 0


def cmd_verify(instance_path: str, schedule_path: str, contiguous: bool) -> int:
    try:
        inst = load_instance(instance_path)
        sched, _, _ = schedule_from_obj(_load_json(schedule_path))
    except _INPUT_ERRORS as exc:
        return _input_error("input file", exc)
    placed_ids = {p.job_id for p in sched.placements}
    unknown = placed_ids - set(inst.by_id)
    if unknown:
        print(f"error: schedule places unknown job ids {sorted(unknown)}", file=sys.stderr)
        return 2
    report = validate_schedule(inst, sched, require_contiguous=contiguous)
    print(f"makespan {report.makespan}")
    for v in report.violations:
        where = f" machine {v.machine}" if v.machine is not None else ""
        print(f"violation: {v.kind} jobs={list(v.job_ids)}{where} {v.detail}")
    if report.ok(require_contiguous=contiguous):
        print("ok")
        return 0
    return 1


def _bench_one(task: tuple[int, int, int, str]) -> dict:
    n, m, seed, eps_str = task
    row = {"n": n, "m": m, "seed": seed, "epsilon": eps_str, "error": ""}
    try:
        t0 = time.perf_counter()
        inst = generate(GenConfig(n=n, m=m, seed=seed))
        t1 = time.perf_counter()
        result = solve(inst, rat(eps_str))
        wall_ms = (time.perf_counter() - t1) * 1000.0
        lower = result.certified_lower
        ratio = result.makespan / lower if lower > 0 else Fraction(0)
        row.update(
            makespan=str(result.makespan),
            accepted_d=str(result.accepted_d),
            lambda_used=str(result.lambda_used),
            ratio_vs_lower_bound=f"{float(ratio):.6f}",
            wall_ms=f"{wall_ms:.3f}",
            iterations=result.iterations,
            gen_ms=f"{(t1 - t0) * 1000.0:.3f}",
        )
        row.update({f"{k}_ms": f"{v * 1000.0:.3f}" for k, v in result.timings.items()})
    except Exception as exc:  # recorded per-row, harness keeps going
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


_BENCH_FIELDS = [
    "n", "m", "seed", "epsilon", "makespan", "accepted_d", "lambda_used",
    "ratio_vs_lower_bound", "wall_ms", "iterations", "gen_ms",
    "mckp_ms", "shelf_ms", "small_ms", "verify_ms", "error",
]


def cmd_bench(config_path: str, out_csv: str) -> int:
    try:
        cfg = _load_json(config_path)
        tasks = []
        for run in _json(cfg["runs"], list, "runs"):
            n, m = _json(run["n"], int, "n"), _json(run["m"], int, "m")
            if n < 0 or m < 1:
                raise ValueError(f"need n >= 0 and m >= 1, got n={n}, m={m}")
            eps = str(run.get("epsilon", "1/20"))
            _epsilon(eps)
            for seed in _json(run["seeds"], list, "seeds"):
                tasks.append((n, m, _json(seed, int, "seed"), eps))
    except _INPUT_ERRORS as exc:
        return _input_error("bench config", exc)
    try:
        fh = open(out_csv, "w", newline="")
    except OSError as exc:
        return _output_error(exc)
    workers = int(os.environ.get(WORKERS_ENV, "0")) or None
    rows: list[dict] = []
    with fh:
        if len(tasks) <= 1:
            rows = [_bench_one(t) for t in tasks]
        else:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_bench_one, tasks))
        rows.sort(key=lambda r: (r["n"], r["m"], r["seed"]))
        writer = csv.DictWriter(fh, fieldnames=_BENCH_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in _BENCH_FIELDS})
    failures = sum(1 for r in rows if r["error"])
    print(f"wrote {out_csv}: {len(rows)} rows, {failures} failures")
    if failures:
        # The config was checked above, so a failed row is a solver fault.
        print(f"error: {failures} rows failed, see the error column", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moldsched",
        description="Monotone moldable job scheduling: below-3/2 approximation "
        "with contiguous machine assignment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance")
    p.add_argument("--epsilon", default="1/20", help="relative accuracy (default 1/20)")
    p.add_argument("--out", help="write the schedule JSON here")
    p.add_argument("--gantt", help="write an SVG Gantt chart here")

    p = sub.add_parser("gen", help="generate a random monotone instance")
    p.add_argument("--jobs", "-n", type=int, required=True)
    p.add_argument("--machines", "-m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="verify a schedule against an instance")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.add_argument("--contiguous", action="store_true", help="also require contiguity")

    p = sub.add_parser("bench", help="run a benchmark grid to CSV")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "solve":
        try:
            eps = _epsilon(args.epsilon)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return cmd_solve(args.instance, eps, args.out, args.gantt)
    if args.command == "gen":
        return cmd_gen(args.jobs, args.machines, args.seed, args.out)
    if args.command == "verify":
        return cmd_verify(args.instance, args.schedule, args.contiguous)
    if args.command == "bench":
        return cmd_bench(args.config, args.out)
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())

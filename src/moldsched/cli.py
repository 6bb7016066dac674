"""Command-line interface, JSON file formats, bench harness, and SVG Gantt.

Formats (rationals serialize as "p/q" strings; decimal strings are accepted
on input and converted exactly):

  instance file   {"m": int, "jobs": [{"id": int, "times": ["p/q", ...]}]}
  schedule file   {"makespan": "p/q", "lambda": "p/q", "accepted_d": "p/q",
                   "placements": [{"job": int, "first_machine": int,
                                   "width": int, "start": "p/q",
                                   "duration": "p/q"}]}

Exit codes: 0 success / feasible, 1 infeasible schedule, 2 invalid input or
an output that cannot be written (a path, or an exact value past int()'s
digit limit), 3 internal invariant violation (diagnostic dumped to stderr;
for bench, any row that failed on a valid config).

An instance file is read onto the integer grid of ``ratio_grid``: if each
job's times pass one check of plain form ("p" or "p/q", ASCII digits, at
most 18 to a number) and number m, one ``np.loadtxt`` parses the file.  Else
each job is read as a schedule file's column is: a plain list split by int(),
any other (a decimal, a sign, whitespace, a JSON number) exactly by ``rat``.
``gen`` and ``solve --out`` write from templates the bytes of json.dumps(obj,
indent=2, sort_keys=True), whose indent would take the pure-Python encoder.

The bench harness runs solves in a process pool of MOLDSCHED_WORKERS workers
(a non-negative integer; 0 or unset is one per CPU), never more than there
are runs, and writes one CSV row per (n, m, seed) in deterministic order,
with the wall time of the second of two solves (the first warms up), its
phase times (``SolveResult.timings``) and ``generate`` time (``gen_ms``) in
ms, and the construction of the returned schedule (``list`` or ``shelf``).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import json
import os
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .driver import solve
from .gen import GenConfig, generate
from .model import (
    Instance,
    Job,
    PlacedJob,
    Schedule,
    Times,
    rat,
    ratio_grid,
    ratio_strings,
    validate_instance,
)
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


# A rational in plain form: ASCII digits "p", or "p/q" with q > 0.
_PLAIN = "[0-9]+(?:/0*[1-9][0-9]*)?"
_PLAIN_LIST = re.compile(f"{_PLAIN}(?:,{_PLAIN})*")
# The same with at most 18 digits to p and to q, which every int64 parser reads
# exactly: numpy 1.x loadtxt may read a longer integer through a float.
_SHORT = "[0-9]{1,18}(?:/0*[1-9][0-9]{0,17})?"
_SHORT_LIST = re.compile(f"{_SHORT}(?:,{_SHORT})*")


def _plain(values: list, form: re.Pattern = _PLAIN_LIST) -> Optional[str]:
    """The values joined by commas if each is a string of this form, else None."""
    try:
        text = ",".join(values)
    except TypeError:  # a value that is not a string
        return None
    return text if form.fullmatch(text) and text.count(",") == len(values) - 1 else None


def _ratios(values: list, plain: bool = False) -> list[tuple[int, int]]:
    """Each value of a file as an exact (p, q) with q > 0.  A list of plain
    strings (plain: known to be one) is split and read by int(); any other
    goes value by value through rat, which raises for what it rejects.  Both
    read digit runs under int()'s digit limit; an exponent that reaches it is
    refused before rat builds 10**e, which alone takes seconds at e = 10**7."""
    if plain or _plain(values) is not None:
        parts = map(str.partition, values, repeat("/"))
        return [(int(p), int(q) if q else 1) for p, _, q in parts]
    limit = sys.get_int_max_str_digits() or float("inf")  # 0: no limit
    strings = ",".join(v for v in values if isinstance(v, str))
    if any(abs(int(e)) >= limit for e in re.findall(r"[eE]([-+]?\d+(?:_\d+)*)", strings)):
        raise ValueError(f"an exponent reaches the {limit}-digit limit")
    return [rat(v).as_integer_ratio() for v in values]


def instance_from_obj(obj: dict) -> Instance:
    """Read the times straight onto the grid (Q, A) and build the instance on
    it, as a generated one is.  If a job has other than m times, the jobs keep
    tuples of Fractions for validate_instance to report."""
    m = _json(obj["m"], int, "m")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    ids, rows, texts = [], [], []
    for j in _json(obj["jobs"], list, "jobs"):
        ids.append(_json(j["id"], int, "job id"))
        rows.append(_json(j["times"], list, "times"))
        texts.append(_plain(rows[-1], _SHORT_LIST))
    if texts and None not in texts and all(len(row) == m for row in rows):
        lines = [t.replace("/", ",") if t.count("/") == m else
                 ",".join(v.replace("/", ",") if "/" in v else v + ",1" for v in row)
                 for t, row in zip(texts, rows)]
        pairs = np.loadtxt(lines, delimiter=",", dtype=np.int64, ndmin=2)
        return Instance.of_grid(m, ids, *ratio_grid(pairs, m))
    pairs = [_ratios(row, text is not None) for row, text in zip(rows, texts)]
    if any(len(row) != m for row in pairs):
        return Instance(m, tuple(Job(i, tuple(Fraction(*t) for t in row))
                                 for i, row in zip(ids, pairs)))
    return Instance.of_grid(m, ids, *ratio_grid(pairs, m))


def schedule_to_obj(sched: Schedule, lam: Fraction, accepted_d: Fraction) -> dict:
    """The schedule file's object, written from ``Schedule.columns``: a
    schedule in integer form straight from its integers, with no PlacedJob."""
    scale, columns = sched.columns()
    texts = ([str(x) for x in c.tolist()] if scale is None else ratio_strings(c, scale)
             for c in columns[3:])
    rows = zip(*(c.tolist() for c in columns[:3]), *texts)
    return {
        "makespan": str(sched.makespan),
        "lambda": str(lam),
        "accepted_d": str(accepted_d),
        "placements": [
            {"job": j, "first_machine": i, "width": k, "start": s, "duration": t}
            for j, i, k, s, t in rows
        ],
    }


def schedule_from_obj(obj: dict) -> tuple[Schedule, Fraction, Fraction]:
    rows = _json(obj["placements"], list, "placements")
    ints = [[_json(p[key], int, key) for key in ("job", "first_machine", "width")] for p in rows]
    columns = ([p["start"] for p in rows], [p["duration"] for p in rows],
               [obj["makespan"], obj["lambda"], obj["accepted_d"]])
    starts, durations, (makespan, lam, d) = ([Fraction(*t) for t in _ratios(c)] for c in columns)
    placements = tuple(PlacedJob(*r, s, t) for r, s, t in zip(ints, starts, durations))
    return Schedule(placements, makespan), lam, d


def _layout(items: list, depth: int, quote: str = "") -> str:
    """The items, in JSON or as strings to quote, as a list that
    json.dumps(indent=2) writes at this depth."""
    pad = "\n" + "  " * depth
    sep = f"{quote},{pad}  {quote}"
    return f"[{pad}  {quote}{sep.join(items)}{quote}{pad}]" if items else "[]"


# The files as json.dumps(obj, indent=2, sort_keys=True) + "\n" lays them out,
# without its pure-Python indent encoder; a writer that walks the object took
# 0.42 ms a cli-batch schedule file, these 0.15.  No rational needs escaping.
_INSTANCE = '{{\n  "jobs": {jobs},\n  "m": {m}\n}}\n'
_JOB = '{{\n      "id": {id},\n      "times": {times}\n    }}'
_SCHEDULE = ('{{\n  "accepted_d": "{accepted_d}",\n  "lambda": "{lambda}",\n'
             '  "makespan": "{makespan}",\n  "placements": {placements}\n}}\n')
_PLACEMENT = ('{{\n      "duration": "{duration}",\n      "first_machine": {first_machine},\n'
              '      "job": {job},\n      "start": "{start}",\n      "width": {width}\n    }}')


def _instance_text(obj: dict) -> str:
    jobs = [_JOB.format(id=j["id"], times=_layout(j["times"], 3, '"')) for j in obj["jobs"]]
    return _INSTANCE.format(jobs=_layout(jobs, 1), m=obj["m"])


def _schedule_text(obj: dict) -> str:
    rows = [_PLACEMENT.format_map(p) for p in obj["placements"]]
    return _SCHEDULE.format_map({**obj, "placements": _layout(rows, 1)})


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


def _invalid_instance(inst: Instance) -> bool:
    """Report each instance violation on its own stderr line; True if any."""
    problems = validate_instance(inst)
    for v in problems:
        print(f"error: job {v.job_id}, k={v.k}: {v.kind}", file=sys.stderr)
    return bool(problems)


def _output_error(exc: Exception) -> int:
    """Report an unwritable file or an exact value past the int-string digit
    limit, which str() cannot write, on one stderr line; returns exit code 2."""
    detail = f"{exc.filename}: {exc.strerror}" if isinstance(exc, OSError) else f"the output: {exc}"
    print(f"error: cannot write {detail}", file=sys.stderr)
    return 2


def _approx(x: Fraction) -> str:  # 6 significant digits, also past the float range
    big = abs(x) >= 1e308  # float(x) overflows from about 1.8e308 on
    return f"{(Decimal(x.numerator) / x.denominator).normalize() if big else float(x):.6g}"


def _epsilon(text: str) -> Fraction:
    """Parse an accuracy; ValueError unless it is a rational in (0, 1].  It is
    read as a file's value is, so a huge exponent is refused before 10**e."""
    try:
        eps = Fraction(*_ratios([text])[0])
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
    span = sched.makespan or 1  # x and w as shares of it: no float of a time
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
    scale, columns = sched.columns()  # int / int rounds as float(Fraction): the same bytes
    num, den = (span, 1) if scale is None else (span.numerator * scale, span.denominator)
    for job_id, first, k, start, duration in zip(*(c.tolist() for c in columns)):
        x = margin + float(start * den / num) * (width - 2 * margin)
        w = max(float(duration * den / num) * (width - 2 * margin), 1.0)
        y = margin + first * row
        h = k * row - 2
        hue = (job_id * 61) % 360
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="hsl({hue},65%,70%)" stroke="black" stroke-width="0.5">'
            f"<title>job {job_id}</title></rect>"
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
    if _invalid_instance(inst):
        return 2
    t0 = time.perf_counter()
    try:
        result = solve(inst, epsilon)
    except ShelfInvariantError as exc:
        print(f"internal invariant violation: {exc.diagnostic()}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - t0
    try:
        values = [f"{name:<12}{x}  (~{_approx(x)})" for name, x in (
            ("makespan", result.makespan), ("accepted_d", result.accepted_d),
            ("lambda", result.lambda_used))]
        if out_path:
            obj = schedule_to_obj(result.schedule, result.lambda_used, result.accepted_d)
            Path(out_path).write_text(_schedule_text(obj))
        if gantt_path:
            Path(gantt_path).write_text(gantt_svg(inst, result.schedule))
    except (OSError, ValueError) as exc:  # ValueError: str() past the digit limit
        return _output_error(exc)
    print("\n".join(values))
    print(f"construction {result.construction}")
    print(f"partition_by {result.partition_by}")
    print(f"iterations  {result.iterations}")
    print(f"decided     {result.decided}")
    print(f"wall_s      {wall:.3f}")
    return 0


def cmd_gen(n: int, m: int, seed: int, out_path: str) -> int:
    try:
        inst = generate(GenConfig(n=n, m=m, seed=seed))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        Path(out_path).write_text(_instance_text(instance_to_obj(inst)))
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
    if _invalid_instance(inst):
        return 2
    placed_ids = {p.job_id for p in sched.placements}
    unknown = placed_ids - set(inst.by_id)
    if unknown:
        print(f"error: schedule places unknown job ids {sorted(unknown)}", file=sys.stderr)
        return 2
    try:  # the report's exact values are written by str(), up to the digit limit
        report = validate_schedule(inst, sched, require_contiguous=contiguous)
        print(f"makespan {report.makespan}")
    except ValueError as exc:
        return _output_error(exc)
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
        gen_s = time.perf_counter() - t0
        solve(inst, rat(eps_str))  # untimed warm-up, so the timed solve runs warm
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
            gen_ms=f"{gen_s * 1000.0:.3f}",
            construction=result.construction,
        )
        row.update({f"{k}_ms": f"{v * 1000.0:.3f}" for k, v in result.timings.items()})
    except Exception as exc:  # recorded per-row, harness keeps going
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


_BENCH_FIELDS = [
    "n", "m", "seed", "epsilon", "makespan", "accepted_d", "lambda_used",
    "ratio_vs_lower_bound", "wall_ms", "iterations", "gen_ms",
    "mckp_ms", "list_ms", "shelf_ms", "small_ms", "verify_ms", "construction", "error",
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
    text = os.environ.get(WORKERS_ENV) or "0"
    if not text.strip().isdecimal():
        return _input_error(WORKERS_ENV, ValueError(f"not a worker count: {text!r:.40}"))
    # Under fork the pool starts all its workers at once: no more than tasks.
    workers = min(int(text) or os.cpu_count() or 1, len(tasks))
    try:
        fh = open(out_csv, "w", newline="")
    except OSError as exc:
        return _output_error(exc)
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


@functools.cache  # built once per process; each parse_args fills a new Namespace
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

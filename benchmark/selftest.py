"""Self-test of the benchmark at reduced size.

    python3 benchmark/selftest.py

Runs every workload in workloads.json with its instances cut down, once
untraced and twice traced, and checks that every metric named in
BENCHMARK.json is printed with its unit, that no solve fails, and that the
per-layer counts of the two traced runs are identical.  Exits 0 when all
workloads pass, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run

SEED = 7
SECONDS = 0.2
REDUCED = {
    "shelf-heavy": {"n": [60, 60], "m": [30, 30]},
    "knapsack-heavy": {"n": [20, 20], "m": [200, 200]},
    "small-jobs": {"n": [200, 200], "m": [8, 8]},
    "cli-batch": {"n": [10, 30], "m": [8, 24], "instances_per_setup": 2},
}


def main() -> int:
    run.pin_threads()
    if not run.load_program():
        print(f"error: no moldsched sources under {run.SRC}", file=sys.stderr)
        return 2
    cfg = run.load_config()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if set(cfg["workloads"]) != {w["name"] for w in bench["workloads"]}:
        print("FAIL workloads.json and BENCHMARK.json name different workloads")
        return 1

    failed = 0
    for name, spec in cfg["workloads"].items():
        small = dict(spec, **REDUCED[name])
        reps = [
            run.run_workload(name, small, SEED, SECONDS, trace)
            for trace in (False, True, True)
        ]
        problems = []
        for rep, want in zip(reps, (want_e2e, want_layer, want_layer)):
            res = rep["result"]
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"trace {rep['trace']}: metrics/units {got} != {want}")
            if not res["correct"] or res["failed"]:
                first = rep["problems"][0][:160] if rep["problems"] else "-"
                problems.append(
                    f"trace {rep['trace']}: {res['failed']} of {res['attempted']} "
                    f"solves failed; first problem: {first}"
                )
        counts = [
            {k: rep["result"]["metrics"][k]["value"] for k, u in want_layer.items() if u == "count"}
            for rep in reps[1:]
        ]
        if counts[0] != counts[1]:
            problems.append(f"traced counts differ: {counts[0]} != {counts[1]}")
        failed += bool(problems)
        res = reps[0]["result"]
        print(
            f"{'FAIL' if problems else 'ok'} {name}: {res['attempted']} solves, "
            f"{res['failed']} failed, digest {reps[0]['digest']}"
        )
        for p in problems:
            print(f"     {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

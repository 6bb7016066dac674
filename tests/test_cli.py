import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from moldsched import GenConfig, Instance, Job, Schedule, cli, generate, mckp, model, rat, solve
from moldsched.cli import (
    gantt_svg,
    instance_from_obj,
    instance_to_obj,
    load_instance,
    main,
    schedule_from_obj,
    schedule_to_obj,
)
from moldsched.model import Times
from util import (
    const_work_job, fraction_grid, fraction_schedule, grid_rows, instance, int_schedule, job,
    random_instance,
)


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestFormats:
    def test_instance_roundtrip(self):
        rng = random.Random(83)
        for _ in range(20):
            inst = random_instance(rng, rng.randint(0, 8), rng.randint(1, 6))
            assert instance_from_obj(instance_to_obj(inst)) == inst

    def test_schedule_roundtrip(self):
        rng = random.Random(89)
        for _ in range(10):
            inst = random_instance(rng, rng.randint(1, 8), rng.randint(1, 6))
            r = solve(inst, rat("0.05"))
            obj = schedule_to_obj(r.schedule, r.lambda_used, r.accepted_d)
            sched, lam, d = schedule_from_obj(json.loads(json.dumps(obj)))
            assert sched == r.schedule
            assert (lam, d) == (r.lambda_used, r.accepted_d)

    def test_integer_form_writes_the_bytes_of_its_fractions(self):
        # cli-batch shapes, and times over a prime quantum (object grid)
        rng = random.Random(61)
        cases = [GenConfig(n=rng.randint(20, 120), m=rng.randint(16, 128), seed=s)
                 for s in range(8)]
        cases.append(GenConfig(n=30, m=20, seed=1, quantization_denominator=10**15 + 37))
        for config in cases:
            r = solve(generate(config))
            assert r.schedule.ints is not None
            given = fraction_schedule(*grid_rows(r.schedule))
            ints, given = (cli._schedule_text(schedule_to_obj(s, r.lambda_used, r.accepted_d))
                           for s in (r.schedule, given))
            assert ints == given

    def test_solve_out_builds_no_placed_job(self, tmp_path, monkeypatch):
        p, out = tmp_path / "i.json", tmp_path / "s.json"
        assert run("gen", "-n", 60, "-m", 32, "--seed", 2, "--out", p) == 0
        with monkeypatch.context() as mp:
            mp.setattr(model, "PlacedJob", None)  # calling it would raise
            assert run("solve", p, "--out", out) == 0
        sched, _, _ = schedule_from_obj(json.loads(out.read_text()))
        assert sched == solve(load_instance(p)).schedule

    def test_decimal_strings_parse_exactly(self):
        obj = {"m": 1, "jobs": [{"id": 1, "times": ["6.01"]}]}
        inst = instance_from_obj(obj)
        assert inst.jobs[0].times[0] == Fraction(601, 100)


# Time strings and JSON values, each of which the file reader must read as
# rat does: the same Fraction, or the same exception type.
READER_INPUTS = [
    "3", "3/2", "2/4", "007/010", " 1/2", "6.01", "1e3", "-1/2", "1_000/3",
    "\u0663/4",  # ARABIC-INDIC DIGIT THREE
    "0/5", "1/0", "", "1/", "/2", "abc", "1,2", "1/2/3",
    2, 1.5, True, None,
]


def _outcome(read, value):
    try:
        return read(value)
    except Exception as exc:
        return type(exc)


def _file(m, *rows):
    return {"m": m, "jobs": [{"id": i, "times": list(row)} for i, row in enumerate(rows)]}


def _generated(**config):
    return json.loads(json.dumps(instance_to_obj(generate(GenConfig(**config)))))


_SHAPES, _RANDOM = random.Random(7), random.Random(101)
_PRIMES = (1_000_003, 1_000_033, 1_000_037)
# name -> (instance file, whether the fast path, one np.fromstring, reads it;
# None: not asked)
READER_FILES = {
    **{f"random-{i}": (json.loads(json.dumps(instance_to_obj(random_instance(
        _RANDOM, _RANDOM.randint(0, 9), _RANDOM.randint(1, 7))))), None) for i in range(12)},
    **{f"generated-{s}": (_generated(n=15, m=11, seed=s), True) for s in range(3)},
    **{f"cli-batch-{s}": (_generated(n=_SHAPES.randint(20, 120), m=_SHAPES.randint(16, 128),
                                     seed=s), True) for s in range(4)},
    "a plain p in a row of p/q": (_file(3, ["12", "13/2", "4/1"], ["7/3", "2/1", "5/3"]), True),
    # plain but unreduced: the lcm of the written denominators is 12, Q is 4
    "unreduced": (_file(2, ["4/2", "6/6"], ["9/6", "3/4"]), True),
    "18 digits": (_file(2, ["999999999999999999", "1"], ["3", f"2/{10**17 + 3}"]), True),
    "19 digits in int64": (_file(2, ["9223372036854775807", "1"], ["3", "2"]), False),
    "19 digits past int64": (_file(2, ["9999999999999999999", "1"], ["3", "2"]), False),
    "20 digits over 20 digits": (_file(1, [f"{10**20 - 1}/{10**20 - 2}"]), False),
    "4300 digits": (_file(2, ["1" + "0" * 4299, "1"], ["3", "2"]), False),
    "q = 3^50": (_file(2, [f"4/{3**50}", f"2/{3**50}"], [f"9/{3**50}", f"5/{3**50}"]), False),
    "prime quantum": (_generated(n=30, m=20, seed=1, quantization_denominator=10**15 + 37), True),
    "prime denominators": (json.loads(json.dumps(instance_to_obj(instance(24, *(
        const_work_job(i + 1, Fraction(2 * p + 1, p), 24) for i, p in enumerate(_PRIMES)))))), True),
    # Q = (10^18 - 1)(10^18 - 3) is past int64, though every product is 0.
    "zero over a Q past int64": (_file(2, [f"0/{10**18 - 1}", f"0/{10**18 - 3}"]), True),
    "a decimal in one job": (_file(4, ["6", "3", "2", "3/2"], ["6.01", "3.005", "2.01", "1.6"]), False),
    "decimals and exponents": (_file(4, ["6.01", "3.005", "2.01", "1.6"], ["12", "6.5", "4.5", "3.5"],
                                     ["1e1", "5", "4/1", "2.5e0"], ["4/2", "002", "3/2", "0.5"]), False),
}


# Values the plain-form gate refuses, beside a plain job, each read by rat
# -> the stderr line of solve (exit 2), or None (exit 0)
GATE_REFUSES = {
    "1/0": "error: bad instance file: Fraction(1, 0)",
    **{v: f"error: bad instance file: Invalid literal for Fraction: {v!r}"
       for v in ("/1", "1/", "1//2", "1/2/3", "", "1,2")},
    " 1": None, "+1": None, "-1": "error: job 1, k=1: positive", "1e3": None,
    "\u0663": None, 7: None, 1.5: None,  # a JSON number
    "9999999999999999999": None, "1000000000000000000": None,  # 19 digits
    "1/" + "0" * 30 + "1": None, "0" * 19 + "1": None,  # leading zeros past 18 digits
}


class TestReader:
    @pytest.mark.parametrize("value", READER_INPUTS, ids=repr)
    def test_value_reads_as_rat(self, value):
        def alone(v):
            return instance_from_obj({"m": 1, "jobs": [{"id": 1, "times": [v]}]}).jobs[0].times[0]

        def among_plain(v):
            obj = {"m": 3, "jobs": [{"id": 1, "times": ["4", v, "1/2"]}]}
            return instance_from_obj(obj).jobs[0].times[1]

        def schedule_value(v):
            obj = {"makespan": v, "lambda": "10/7", "accepted_d": "1", "placements": []}
            return schedule_from_obj(obj)[0].makespan

        want = _outcome(rat, value)
        for read in (alone, among_plain, schedule_value):
            got = _outcome(read, value)
            assert got == want and type(got) is type(want), read.__name__

    def test_grid_equals_the_fraction_grid(self, monkeypatch):
        calls, real = [], cli._ratios  # _ratios reads a file off the fast path
        monkeypatch.setattr(cli, "_ratios", lambda v: calls.append(v) or real(v))
        grids = {}
        for name, (obj, fast) in READER_FILES.items():
            calls.clear()
            q, a = grids[name] = instance_from_obj(obj).grid
            q_ref, a_ref = fraction_grid(obj)
            assert q == q_ref and a.dtype == a_ref.dtype and np.array_equal(a, a_ref), name
            assert fast in (None, calls == []), name
        assert {a.dtype for _, a in grids.values()} == {np.dtype(np.int64), np.dtype(object)}
        assert grids["prime quantum"][1].dtype == object
        q, a = grids["q = 3^50"]
        assert q >= 2**63 and a.dtype == np.int64

    def test_grid_does_not_rest_on_the_numpy_version(self, monkeypatch):
        # numpy 1.x may read an integer past int64 wrong with at most a
        # DeprecationWarning; emulate the worst: "9999999999999999999" -> -2^63
        calls = []

        def fromstring(raw, dtype, sep):
            calls.append(raw)
            values = [int(v) for v in raw.split(sep.encode())]
            return np.array([v if v < 2**63 else -2**63 for v in values], dtype=dtype)

        monkeypatch.setattr(np, "fromstring", fromstring)
        for name, (obj, _) in READER_FILES.items():
            q, a = instance_from_obj(obj).grid
            q_ref, a_ref = fraction_grid(obj)
            assert q == q_ref and np.array_equal(a, a_ref), name
        assert calls

    def test_a_file_off_the_fast_path_checks_each_job_once(self, monkeypatch):
        calls, real = [], cli._plain
        monkeypatch.setattr(cli, "_plain", lambda rows: calls.append(rows) or real(rows))
        obj = _file(2, *[["6", "3/2"]] * 5, [f"{10**20}", "1"], ["6.01", "3"])
        assert instance_from_obj(obj).grid[0] == 100
        # one check of the whole file, then the plain-form check of each job
        rows = [j["times"] for j in obj["jobs"]]
        assert calls == [rows] + [[row] for row in rows]

    @pytest.mark.parametrize("value, err", GATE_REFUSES.items(), ids=repr)
    def test_a_value_the_gate_refuses_reads_exactly(self, tmp_path, capsys, monkeypatch,
                                                     value, err):
        obj = _file(1, ["3"], [value])
        calls, real = [], cli._ratios
        monkeypatch.setattr(cli, "_ratios", lambda v: calls.append(v) or real(v))
        def grid(read):
            q, a = read(obj)
            return q, a.dtype, a.tolist()

        got, want = (_outcome(grid, f) for f in (lambda o: instance_from_obj(o).grid, fraction_grid))
        assert got == want and calls == [["3"], [value]]
        path = tmp_path / "i.json"
        path.write_text(json.dumps(obj))
        assert run("solve", path) == (2 if err else 0)
        assert capsys.readouterr().err.splitlines() == ([err] if err else [])

    def test_18_digits_and_a_mixed_job_take_the_fast_path(self, monkeypatch):
        parsed, real = [], np.fromstring
        monkeypatch.setattr(np, "fromstring",
                            lambda *a, **k: parsed.append(real(*a, **k)) or parsed[-1])
        monkeypatch.setattr(cli, "_ratios", None)  # calling it would raise
        top = "9" * 18
        for rows, count in ([[f"{top}/{top}", f"{top}/{top[1:]}7"]], 4), ([["6", "3/2"]], 3):
            obj = _file(2, *rows)
            q, a = instance_from_obj(obj).grid
            q_ref, a_ref = fraction_grid(obj)
            assert q == q_ref and np.array_equal(a, a_ref)
            assert len(parsed[-1]) == count  # 4 = 2 * 2: every value p/q; else mixed

    def test_zero_times_over_a_q_past_int64_exit_2(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(READER_FILES["zero over a Q past int64"][0]))
        assert run("solve", path) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: job 0, k=1: positive", "error: job 0, k=2: positive"]

    def test_mixed_lengths_exit_2_with_one_line_each(self, tmp_path, capsys):
        obj = {"m": 3, "jobs": [
            {"id": 1, "times": ["6", "3", "2"]},
            {"id": 2, "times": ["2", "1"]},
            {"id": 3, "times": ["3", "3/2", "1", "1"]},
            {"id": 4, "times": ["6.01", "4", "3"]},
        ]}
        inst = instance_from_obj(obj)
        assert [j.times for j in inst.jobs] == [tuple(map(rat, j["times"])) for j in obj["jobs"]]
        assert inst.jobs[3].times == (Fraction(601, 100), Fraction(4), Fraction(3))
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(obj))
        assert run("solve", path) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: job 2, k=2: length", "error: job 3, k=4: length"]

    def test_generated_file_is_read_without_rat(self, tmp_path, monkeypatch):
        path = tmp_path / "i.json"
        assert run("gen", "-n", 30, "-m", 17, "--seed", 5, "--out", path) == 0
        calls = []
        monkeypatch.setattr(cli, "rat", lambda v: calls.append(v) or rat(v))
        inst = load_instance(str(path))
        assert calls == []
        assert all(isinstance(j.times, Times) for j in inst.jobs)
        assert inst == generate(GenConfig(n=30, m=17, seed=5))


class TestGenCommand:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("gen", "-n", 10, "-m", 13, "--seed", 42, "--out", a) == 0
        assert run("gen", "-n", 10, "-m", 13, "--seed", 42, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_file_bytes_equal_those_of_the_fractions(self):
        # The writer reduces each row with one np.gcd; str() of each Fraction
        # gives the same bytes, also on exact ints and on a q past int64.
        rng = random.Random(26)
        cases = [generate(GenConfig(n=rng.randint(0, 40), m=rng.randint(1, 40), seed=s))
                 for s in range(6)]
        cases.append(generate(GenConfig(n=4, m=3, t1_high=rat(10**12), seed=1)))
        cases.append(instance_from_obj({"m": 2, "jobs": [
            {"id": 1, "times": [f"4/{3**50}", f"2/{3**50}"]},
            {"id": 2, "times": [f"9/{3**50}", f"5/{3**50}"]}]}))
        assert cases[-2].grid[1].dtype == object
        assert cases[-1].grid[0] >= 2**63 and cases[-1].grid[1].dtype == np.int64
        for inst in cases:
            assert all(isinstance(j.times, Times) for j in inst.jobs)
            tuples = Instance(inst.m, tuple(Job(j.id, tuple(j.times)) for j in inst.jobs))
            grid, tuples = (cli._instance_text(instance_to_obj(i)) for i in (inst, tuples))
            assert grid == tuples

    @pytest.mark.parametrize("n, m", [(0, 3), (1, 1), (25, 40)])
    def test_files_have_the_bytes_of_json_dumps(self, tmp_path, n, m):
        # gen and solve --out lay their files out from templates
        ipath, spath = tmp_path / "i.json", tmp_path / "s.json"
        assert run("gen", "-n", n, "-m", m, "--seed", 7, "--out", ipath) == 0
        assert run("solve", ipath, "--out", spath) == 0
        inst = generate(GenConfig(n=n, m=m, seed=7))
        r = solve(inst)
        objs = {ipath: instance_to_obj(inst),
                spath: schedule_to_obj(r.schedule, r.lambda_used, r.accepted_d)}
        for path, obj in objs.items():
            assert path.read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"
        assert objs[spath]["placements"] or n == 0

    def test_gen_then_solve(self, tmp_path):
        p = tmp_path / "i.json"
        out = tmp_path / "s.json"
        assert run("gen", "-n", 8, "-m", 5, "--seed", 1, "--out", p) == 0
        assert run("solve", p, "--out", out) == 0
        assert out.exists()

    def test_zero_jobs(self, tmp_path):
        p = tmp_path / "i.json"
        out = tmp_path / "s.json"
        assert run("gen", "-n", 0, "-m", 3, "--seed", 1, "--out", p) == 0
        assert run("solve", p, "--out", out) == 0
        assert json.loads(out.read_text())["makespan"] == "0"


class TestSolveCommand:
    def test_invalid_instance_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"m": 2, "jobs": [{"id": 1, "times": ["1", "2"]}]}))
        assert run("solve", p, "--out", tmp_path / "s.json") == 2

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text('{"m": 2, "jobs": [')
        assert run("solve", p) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_gantt_has_one_rect_per_placement(self, tmp_path):
        p = tmp_path / "i.json"
        g = tmp_path / "g.svg"
        assert run("gen", "-n", 7, "-m", 4, "--seed", 3, "--out", p) == 0
        assert run("solve", p, "--out", tmp_path / "s.json", "--gantt", g) == 0
        svg = g.read_text()
        sched, _, _ = schedule_from_obj(json.loads((tmp_path / "s.json").read_text()))
        assert svg.count("<rect") == len(sched.placements)

    def test_solve_prints_the_construction(self, tmp_path, capsys):
        p = tmp_path / "i.json"
        assert run("gen", "-n", 7, "-m", 4, "--seed", 3, "--out", p) == 0
        capsys.readouterr()
        assert run("solve", p) == 0
        out = capsys.readouterr().out.splitlines()
        assert "construction list" in out and "partition_by bound" in out
        # Five probes, each decided by the knapsack; the upper bound is not.
        assert out.index("iterations  5") + 1 == out.index("decided     5")

    def test_solve_prints_a_partition_by_the_dp(self, tmp_path, capsys):
        # The knapsack bounds leave this solve's accepted guess open.
        p = tmp_path / "i.json"
        assert run("gen", "-n", 40, "-m", 100, "--seed", 1, "--out", p) == 0
        capsys.readouterr()
        assert run("solve", p, "--epsilon", "1/1000") == 0
        assert "partition_by dp" in capsys.readouterr().out.splitlines()

    def test_pick_failing_its_recount_exits_3(self, tmp_path, monkeypatch, capsys):
        # A decide that accepts against an inflated budget hands solve a
        # partition over the real budget.
        p = tmp_path / "i.json"
        assert run("gen", "-n", 80, "-m", 800, "--seed", 1, "--out", p) == 0
        decide = mckp.decide
        monkeypatch.setattr(mckp, "decide", lambda items, m, budget: decide(items, m, 10**30))
        capsys.readouterr()
        assert run("solve", p, "--epsilon", "1/1000", "--out", tmp_path / "s.json") == 3
        assert "fails its recount" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()

    def test_bad_epsilon_exits_2(self, tmp_path):
        p = tmp_path / "i.json"
        run("gen", "-n", 2, "-m", 2, "--seed", 0, "--out", p)
        assert run("solve", p, "--epsilon", "zero") == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "zero_den.json"],
        ["solve", "m0.json"],
        ["solve", "missing.json"],
        ["solve", "ok.json", "--epsilon", "2"],
        ["solve", "ok.json", "--epsilon", "0"],
        ["verify", "zero_den.json", "sched.json"],
        ["verify", "missing.json", "sched.json"],
        ["verify", "ok.json", "missing.json"],
        ["gen", "-n", "-1", "-m", "3", "--out", "g.json"],
        ["gen", "-n", "3", "-m", "0", "--out", "g.json"],
        ["bench", "missing.json", "--out", "rows.csv"],
        ["bench", "neg_n.json", "--out", "rows.csv"],
        ["bench", "eps2.json", "--out", "rows.csv"],
        ["solve", "ok.json", "--out", "nodir/x"],
        ["solve", "ok.json", "--gantt", "nodir/x"],
        ["gen", "-n", "3", "-m", "2", "--out", "nodir/x"],
        ["bench", "grid.json", "--out", "nodir/x"],
        ["solve", "str_times.json"],
        ["solve", "float_m.json"],
        ["solve", "bool_m.json"],
        ["solve", "float_id.json"],
        ["verify", "ok.json", "float_width.json"],
        ["bench", "str_seeds.json", "--out", "rows.csv"],
        ["bench", "float_seed.json", "--out", "rows.csv"],
        ["bench", "float_n.json", "--out", "rows.csv"],
        ["solve", "bool_times.json"],
        ["verify", "ok.json", "bool_start.json"],
        ["verify", "short_times.json", "wide.json"],
        ["verify", "dup_ids.json", "wide.json"],
    ],
    ids=" ".join,
)
def test_malformed_input_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    files = {
        "ok.json": instance_to_obj(instance(2, job(1, 2, 1))),
        "zero_den.json": {"m": 1, "jobs": [{"id": 1, "times": ["1/0"]}]},
        "m0.json": {"m": 0, "jobs": [{"id": 1, "times": []}]},
        "sched.json": {"makespan": "0", "lambda": "10/7", "accepted_d": "0", "placements": []},
        "grid.json": {"runs": [{"n": 2, "m": 2, "seeds": [1]}]},
        "neg_n.json": {"runs": [{"n": -1, "m": 2, "seeds": [1]}]},
        "eps2.json": {"runs": [{"n": 2, "m": 2, "seeds": [1], "epsilon": "2"}]},
        # Wrong JSON types that int() or iteration would otherwise coerce.
        "str_times.json": {"m": 3, "jobs": [{"id": 1, "times": "111"}]},
        "float_m.json": {"m": 2.7, "jobs": [{"id": 1, "times": ["2", "1"]}]},
        "bool_m.json": {"m": True, "jobs": [{"id": 1, "times": ["2"]}]},
        "float_id.json": {"m": 2, "jobs": [{"id": 1.9, "times": ["2", "1"]}]},
        "float_width.json": {
            "makespan": "2", "lambda": "10/7", "accepted_d": "2",
            "placements": [{"job": 1, "first_machine": 0, "width": 1.5,
                            "start": "0", "duration": "2"}],
        },
        "str_seeds.json": {"runs": [{"n": 2, "m": 2, "seeds": "12"}]},
        "float_seed.json": {"runs": [{"n": 2, "m": 2, "seeds": [1.5]}]},
        "float_n.json": {"runs": [{"n": 2.5, "m": 2, "seeds": [1]}]},
        # JSON true is not the number 1.
        "bool_times.json": {"m": 2, "jobs": [{"id": 1, "times": [True, True]}]},
        "bool_start.json": {
            "makespan": "3", "lambda": "10/7", "accepted_d": "3",
            "placements": [{"job": 1, "first_machine": 0, "width": 1,
                            "start": True, "duration": "2"}],
        },
        # verify checks the instance as solve does: one time short of m, and
        # a repeated id, each with a schedule that would otherwise pass.
        "short_times.json": {"m": 2, "jobs": [{"id": 1, "times": ["2"]}]},
        "dup_ids.json": {"m": 2, "jobs": [{"id": 1, "times": ["2", "1"]}] * 2},
        "wide.json": {
            "makespan": "1", "lambda": "10/7", "accepted_d": "1",
            "placements": [{"job": 1, "first_machine": 0, "width": 2,
                            "start": "0", "duration": "1"}],
        },
    }
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


class TestHugeValues:
    """Valid input whose exact values pass the float range or the int-string
    digit limit (4300) keeps the exit-code contract."""

    @staticmethod
    def _write(path, obj):
        path.write_text(json.dumps(obj))
        return path

    def test_time_past_the_float_range_solves(self, tmp_path, capsys):
        big = "1" + "0" * 400
        ipath = self._write(tmp_path / "i.json", {"m": 1, "jobs": [{"id": 1, "times": [big]}]})
        spath, gpath = tmp_path / "s.json", tmp_path / "g.svg"
        assert run("solve", ipath, "--out", spath, "--gantt", gpath) == 0
        assert f"makespan    {big}  (~1e+400)" in capsys.readouterr().out.splitlines()
        sched, _, _ = schedule_from_obj(json.loads(spath.read_text()))
        assert sched.makespan == int(big)
        assert '<rect x="60.00" y="60.00" width="780.00"' in gpath.read_text()

    @pytest.mark.parametrize("value", ["1e100000", "1e4300", "1e-4300", "2.5E+4300"])
    def test_exponent_at_the_digit_limit_exits_2(self, tmp_path, capsys, value):
        inst = {"m": 1, "jobs": [{"id": 1, "times": ["1"]}]}
        sched = {"makespan": "1", "lambda": "10/7", "accepted_d": "1", "placements": [
            {"job": 1, "first_machine": 0, "width": 1, "start": value, "duration": "1"}]}
        ok = self._write(tmp_path / "ok.json", inst)
        inst["jobs"][0]["times"] = [value]
        argvs = [("solve", self._write(tmp_path / "i.json", inst)),
                 ("verify", ok, self._write(tmp_path / "s.json", sched))]
        for argv in argvs:
            assert run(*argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: bad ") and "4300-digit" in err and err.count("\n") == 1

    def test_exponent_under_the_digit_limit_reads_as_rat(self):
        obj = {"m": 2, "jobs": [{"id": 1, "times": ["1e4299", "-1E-4299"]}]}
        assert instance_from_obj(obj).jobs[0].times == (10**4299, Fraction(-1, 10**4299))

    def test_long_exponent_is_refused_before_it_is_built(self, monkeypatch):
        # Building 10**e alone takes seconds from e = 10**7 on.
        monkeypatch.setattr(cli, "rat", None)  # calling it would raise TypeError
        with pytest.raises(ValueError, match="exponent"):
            instance_from_obj({"m": 1, "jobs": [{"id": 1, "times": ["1e999999999"]}]})

    def test_epsilon_exponent_is_refused_before_it_is_built(self, tmp_path, capsys):
        # Building 10**(10**7) alone takes seconds.
        p = self._write(tmp_path / "i.json", {"m": 1, "jobs": [{"id": 1, "times": ["1"]}]})
        start = time.perf_counter()
        assert run("solve", p, "--epsilon", "1e-10000000") == 2
        assert time.perf_counter() - start < 0.25
        err = capsys.readouterr().err
        assert err.startswith("error: epsilon") and err.count("\n") == 1, err
        for eps in ("1/20", "0.05", "1e-3"):
            assert run("solve", p, "--epsilon", eps) == 0

    def test_makespan_too_long_to_write_exits_2(self, tmp_path, capsys):
        # Each time is under the limit; the sum of the three has a reduced
        # denominator of about 6000 digits, the decimal one of 4301.
        fractions = [{"id": i, "times": [f"1/{10**2000 + k}"]} for i, k in enumerate((1, 3, 7))]
        decimal = [{"id": 1, "times": ["0." + "1" * 4300]}]
        spath = tmp_path / "s.json"
        for jobs in (fractions, decimal):
            ipath = self._write(tmp_path / "i.json", {"m": 1, "jobs": jobs})
            for argv in (("solve", ipath), ("solve", ipath, "--out", spath)):
                assert run(*argv) == 2
                out, err = capsys.readouterr()
                assert out == "" and err.startswith("error: cannot write the output")
                assert err.count("\n") == 1
        assert not spath.exists()

    def test_verify_report_too_long_to_write_exits_2(self, tmp_path, capsys):
        # Start and duration are each under the limit, their sum is not.
        ipath = self._write(tmp_path / "i.json", {"m": 1, "jobs": [{"id": 1, "times": ["1"]}]})
        sched = {"makespan": "1", "lambda": "10/7", "accepted_d": "1", "placements": [
            {"job": 1, "first_machine": 0, "width": 1,
             "start": f"1/{10**2200 + 1}", "duration": f"1/{10**2200 + 3}"}]}
        assert run("verify", ipath, self._write(tmp_path / "s.json", sched)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot write the output")
        assert err.count("\n") == 1


class TestVerifyCommand:
    def _solved(self, tmp_path, n=8, m=5, seed=2):
        ipath = tmp_path / "i.json"
        spath = tmp_path / "s.json"
        run("gen", "-n", n, "-m", m, "--seed", seed, "--out", ipath)
        assert run("solve", ipath, "--out", spath) == 0
        return ipath, spath

    def test_pipeline_output_verifies(self, tmp_path):
        ipath, spath = self._solved(tmp_path)
        assert run("verify", ipath, spath) == 0
        assert run("verify", ipath, spath, "--contiguous") == 0

    def test_corrupted_overlap_exits_1(self, tmp_path, capsys):
        ipath, spath = self._solved(tmp_path)
        obj = json.loads(spath.read_text())
        rows = obj["placements"]
        assert len(rows) >= 2
        rows[0]["first_machine"] = rows[1]["first_machine"]
        rows[0]["start"] = rows[1]["start"]
        rows[0]["width"] = 1
        spath.write_text(json.dumps(obj))
        assert run("verify", ipath, spath) == 1
        assert "overlap" in capsys.readouterr().out

    def test_noncontiguous_with_flag_exits_1(self, tmp_path):
        ipath = tmp_path / "i.json"
        spath = tmp_path / "s.json"
        inst = instance(3, job(1, 6, 3, 2))
        ipath.write_text(json.dumps(instance_to_obj(inst)))
        obj = {
            "makespan": "3",
            "lambda": "10/7",
            "accepted_d": "3",
            "placements": [
                {"job": 1, "first_machine": 0, "width": 1, "start": "0", "duration": "3"},
                {"job": 1, "first_machine": 2, "width": 1, "start": "0", "duration": "3"},
            ],
        }
        spath.write_text(json.dumps(obj))
        assert run("verify", ipath, spath) == 0
        assert run("verify", ipath, spath, "--contiguous") == 1

    def test_unknown_id_exits_2(self, tmp_path):
        ipath, spath = self._solved(tmp_path, n=2, m=2, seed=9)
        obj = json.loads(spath.read_text())
        obj["placements"][0]["job"] = 999
        spath.write_text(json.dumps(obj))
        assert run("verify", ipath, spath) == 2


class TestBenchCommand:
    def test_small_grid(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MOLDSCHED_WORKERS", "2")
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "rows.csv"
        cfg.write_text(
            json.dumps(
                {"runs": [
                    {"n": 6, "m": 4, "seeds": [1, 2], "epsilon": "0.05"},
                    {"n": 4, "m": 6, "seeds": [1], "epsilon": "0.05"},
                ]}
            )
        )
        assert run("bench", cfg, "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 rows
        assert lines[0] == (
            "n,m,seed,epsilon,makespan,accepted_d,lambda_used,ratio_vs_lower_bound,"
            "wall_ms,iterations,gen_ms,mckp_ms,list_ms,shelf_ms,small_ms,verify_ms,"
            "construction,error"
        )
        first = lines[1].split(",")
        assert all(float(ms) >= 0 for ms in first[10:16])  # gen and per-phase times filled
        assert all(row.split(",")[16] in ("list", "shelf") for row in lines[1:])
        assert (first[0], first[1], first[2]) == ("4", "6", "1")  # sorted rows
        assert all(row.endswith(",") or row.split(",")[-1] == "" for row in lines[1:])

    def test_each_row_times_a_solve_after_a_warm_up(self, tmp_path, monkeypatch):
        # One task runs in-process: its row solves the instance twice and
        # reports the second solve.
        solves, real = [], cli.solve
        monkeypatch.setattr(cli, "solve", lambda *a: solves.append(real(*a)) or solves[-1])
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "rows.csv"
        cfg.write_text(json.dumps({"runs": [{"n": 6, "m": 4, "seeds": [1]}]}))
        assert run("bench", cfg, "--out", out) == 0
        assert len(solves) == 2 and solves[0].makespan == solves[1].makespan
        row = out.read_text().strip().splitlines()[1].split(",")
        assert row[4] == str(solves[1].makespan)
        assert row[11:16] == [f"{t * 1000.0:.3f}" for t in solves[1].timings.values()]

    def test_empty_grid(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "rows.csv"
        cfg.write_text(json.dumps({"runs": []}))
        assert run("bench", cfg, "--out", out) == 0
        assert out.read_text().strip().splitlines()[0].startswith("n,m,seed")
        assert len(out.read_text().strip().splitlines()) == 1

    def test_bad_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}))
        assert run("bench", cfg, "--out", tmp_path / "o.csv") == 2

    def test_failed_row_exits_3_after_writing_csv(self, tmp_path, monkeypatch, capsys):
        def broken_solve(inst, eps):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "solve", broken_solve)
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "rows.csv"
        cfg.write_text(json.dumps({"runs": [{"n": 3, "m": 2, "seeds": [1]}]}))
        assert run("bench", cfg, "--out", out) == 3
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2 and lines[1].endswith("RuntimeError: boom")
        assert "1 rows, 1 failures" in capsys.readouterr().out

    @staticmethod
    def _recording_pool(monkeypatch) -> list:
        """Swap the process pool for an in-process stand-in that records
        each max_workers it is given; no real pool starts."""
        made = []

        class Pool:
            def __init__(self, max_workers=None):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", Pool)
        return made

    @pytest.mark.parametrize("value", ["abc", "1.5", "-1"])
    def test_bad_worker_count_exits_2_before_the_output(self, tmp_path, monkeypatch, capsys, value):
        made = self._recording_pool(monkeypatch)
        monkeypatch.setenv("MOLDSCHED_WORKERS", value)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"runs": [{"n": 3, "m": 2, "seeds": [1, 2]}]}))
        out = tmp_path / "rows.csv"
        assert run("bench", cfg, "--out", out) == 2
        assert not out.exists()
        out.write_text("kept")
        assert run("bench", cfg, "--out", out) == 2
        assert out.read_text() == "kept"
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(e.startswith("error: bad MOLDSCHED_WORKERS: ") for e in err)
        assert made == []

    @pytest.mark.parametrize("value, workers", [("100000", 2), ("1", 1)])
    def test_pool_has_no_more_workers_than_tasks(self, tmp_path, monkeypatch, value, workers):
        made = self._recording_pool(monkeypatch)
        monkeypatch.setenv("MOLDSCHED_WORKERS", value)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"runs": [{"n": 3, "m": 2, "seeds": [1, 2]}]}))
        out = tmp_path / "rows.csv"
        assert run("bench", cfg, "--out", out) == 0
        assert made == [workers]
        assert len(out.read_text().strip().splitlines()) == 3

    def test_default_pool_is_capped_by_tasks(self, tmp_path, monkeypatch):
        made = self._recording_pool(monkeypatch)
        monkeypatch.delenv("MOLDSCHED_WORKERS", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"runs": [{"n": 3, "m": 2, "seeds": [1, 2, 3]}]}))
        assert run("bench", cfg, "--out", tmp_path / "rows.csv") == 0
        assert made == [3]


def test_gantt_svg_counts_rects_directly():
    inst = generate(GenConfig(n=5, m=3, seed=11))
    r = solve(inst, rat("0.05"))
    svg = gantt_svg(inst, r.schedule)
    assert svg.count("<rect") == len(r.schedule.placements)
    assert svg.startswith("<svg")


def test_gantt_svg_reads_the_integer_columns_to_the_same_bytes():
    # Solver schedules (list, shelf, an object grid, no jobs) and random
    # integer columns over odd scales: the same SVG as from PlacedJobs, and
    # no PlacedJob is made.
    insts = [generate(GenConfig(n=40, m=12, seed=s)) for s in range(3)]
    insts += [generate(GenConfig(n=20, m=10, seed=5)), Instance(3, ())]
    insts.append(generate(GenConfig(n=25, m=9, seed=2, quantization_denominator=10**15 + 37)))
    cases = [(inst, solve(inst).schedule) for inst in insts]
    rng = random.Random(97)
    for _ in range(50):
        inst, scale = Instance(4, ()), rng.choice((1, 3, 10**6, 2**61 - 1, 10**30 + 7))
        rows = [(rng.randint(1, 9), rng.randint(0, 3), rng.randint(1, 4),
                 rng.randint(0, 10**40) % (5 * scale), rng.randint(1, 3 * scale)) for _ in range(6)]
        makespan = max(s + t for *_, s, t in rows) + rng.randint(0, scale)
        cases.append((inst, int_schedule(scale, rows, makespan)))
    for inst, sched in cases:
        svg = gantt_svg(inst, sched)
        assert sched._placements is None
        assert svg == gantt_svg(inst, Schedule(sched.placements, sched.makespan))


def test_load_instance_helper(tmp_path):
    p = tmp_path / "i.json"
    run("gen", "-n", 3, "-m", 2, "--seed", 4, "--out", p)
    inst = load_instance(str(p))
    assert inst.n == 3 and inst.m == 2


def test_calls_in_one_process_share_no_option_value(tmp_path, monkeypatch):
    # The parser is built once per process; every call still starts from the
    # defaults, whatever the call before it passed.
    assert cli._build_parser() is cli._build_parser()
    calls = []
    for name in ("cmd_solve", "cmd_verify", "cmd_gen"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, real=real, name=name:
                            calls.append((name, a)) or real(*a))
    ipath, spath, gpath = tmp_path / "i.json", tmp_path / "s.json", tmp_path / "g.svg"
    assert run("gen", "-n", 8, "-m", 5, "--seed", 4, "--out", ipath) == 0
    assert run("solve", ipath, "--epsilon", "1/10", "--out", spath, "--gantt", gpath) == 0
    spath.unlink()
    gpath.unlink()
    assert run("solve", ipath) == 0
    assert not spath.exists() and not gpath.exists()
    assert run("solve", ipath, "--out", spath) == 0 and spath.is_file() and not gpath.exists()
    assert run("verify", ipath, spath, "--contiguous") == 0
    assert run("verify", ipath, spath) == 0
    assert run("gen", "-n", 8, "-m", 5, "--out", gpath) == 0
    assert calls == [
        ("cmd_gen", (8, 5, 4, str(ipath))),
        ("cmd_solve", (str(ipath), Fraction(1, 10), str(spath), str(gpath))),
        ("cmd_solve", (str(ipath), Fraction(1, 20), None, None)),
        ("cmd_solve", (str(ipath), Fraction(1, 20), str(spath), None)),
        ("cmd_verify", (str(ipath), str(spath), True)),
        ("cmd_verify", (str(ipath), str(spath), False)),
        ("cmd_gen", (8, 5, 0, str(gpath))),
    ]

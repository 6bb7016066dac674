import json
import random
from fractions import Fraction

import pytest

from moldsched import GenConfig, cli, generate, rat, solve
from moldsched.cli import (
    gantt_svg,
    instance_from_obj,
    instance_to_obj,
    load_instance,
    main,
    schedule_from_obj,
    schedule_to_obj,
)
from util import instance, job, random_instance


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

    def test_decimal_strings_parse_exactly(self):
        obj = {"m": 1, "jobs": [{"id": 1, "times": ["6.01"]}]}
        inst = instance_from_obj(obj)
        assert inst.jobs[0].times[0] == Fraction(601, 100)


class TestGenCommand:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("gen", "-n", 10, "-m", 13, "--seed", 42, "--out", a) == 0
        assert run("gen", "-n", 10, "-m", 13, "--seed", 42, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

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
    }
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


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
            "wall_ms,iterations,gen_ms,mckp_ms,shelf_ms,small_ms,verify_ms,error"
        )
        first = lines[1].split(",")
        assert all(float(ms) >= 0 for ms in first[10:15])  # gen and per-phase times filled
        assert (first[0], first[1], first[2]) == ("4", "6", "1")  # sorted rows
        assert all(row.endswith(",") or row.split(",")[-1] == "" for row in lines[1:])

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


def test_gantt_svg_counts_rects_directly():
    inst = generate(GenConfig(n=5, m=3, seed=11))
    r = solve(inst, rat("0.05"))
    svg = gantt_svg(inst, r.schedule)
    assert svg.count("<rect") == len(r.schedule.placements)
    assert svg.startswith("<svg")


def test_load_instance_helper(tmp_path):
    p = tmp_path / "i.json"
    run("gen", "-n", 3, "-m", 2, "--seed", 4, "--out", p)
    inst = load_instance(str(p))
    assert inst.n == 3 and inst.m == 2

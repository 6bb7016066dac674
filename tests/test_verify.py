import ast
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from moldsched import (
    GenConfig,
    Instance,
    Job,
    PlacedJob,
    Schedule,
    Violation,
    brute_force_opt,
    generate,
    model,
    rat,
    ratio_report,
    solve,
    validate_schedule,
    verify,
)
from moldsched.driver import initial_bounds
from util import (
    fraction_schedule, grid_rows, instance, int_schedule, job, make_schedule, property_settings,
    random_instance,
)

# A prime quantum: generated times over it need the object-dtype grid.
PRIME_Q = 10**15 + 37


class TestValidateSchedule:
    def test_empty(self):
        rep = validate_schedule(instance(2), make_schedule([]))
        assert rep.feasible and rep.contiguous and rep.makespan == 0
        assert type(rep.makespan) is Fraction

    def test_overlap_detected(self):
        inst = instance(4, job(1, *[2] * 4), job(2, *[2] * 4))
        sched = make_schedule(
            [PlacedJob(1, 3, 1, rat(0), rat(2)), PlacedJob(2, 3, 1, rat(1), rat(2))]
        )
        rep = validate_schedule(inst, sched)
        kinds = {(v.kind, v.machine) for v in rep.violations}
        assert ("overlap", 3) in kinds
        assert not rep.feasible

    def test_overlaps_in_machine_then_start_end_id_order(self):
        # Machines in the order of their first placement (3 before 0); on each
        # the parts sorted by (start, end, job id); each pair with the part
        # before it.  Job 5 (machines 2-3) and job 4 tie on (start, end).
        inst = instance(4, *(job(j, *[2] * 4) for j in (1, 2, 4, 5)))
        sched = make_schedule([
            PlacedJob(5, 2, 2, rat(1), rat(2)),
            PlacedJob(4, 3, 1, rat(1), rat(2)),
            PlacedJob(2, 0, 1, rat(1), rat(2)),
            PlacedJob(1, 0, 1, rat(0), rat(2)),
        ])
        assert [v for v in validate_schedule(inst, sched).violations if v.kind == "overlap"] == [
            Violation("overlap", (4, 5), machine=3, window=(Fraction(1), Fraction(3))),
            Violation("overlap", (1, 2), machine=0, window=(Fraction(1), Fraction(2))),
        ]

    def test_touching_intervals_are_fine(self):
        inst = instance(1, job(1, 2), job(2, 2))
        sched = make_schedule(
            [PlacedJob(1, 0, 1, rat(0), rat(2)), PlacedJob(2, 0, 1, rat(2), rat(2))]
        )
        rep = validate_schedule(inst, sched)
        assert rep.feasible and rep.makespan == 4

    def test_noncontiguous_parts(self):
        inst = instance(3, job(1, 6, 3, 2))
        sched = make_schedule(
            [PlacedJob(1, 0, 1, rat(0), rat(3)), PlacedJob(1, 2, 1, rat(0), rat(3))]
        )
        rep = validate_schedule(inst, sched, require_contiguous=True)
        assert rep.feasible           # duration t(1,2)=3 on 2 machines, same start
        assert not rep.contiguous
        assert any(v.kind == "contiguity" for v in rep.violations)
        rep2 = validate_schedule(inst, sched, require_contiguous=False)
        assert rep2.feasible and not rep2.contiguous
        assert not any(v.kind == "contiguity" for v in rep2.violations)

    def test_duration_mismatch(self):
        inst = instance(2, job(1, 6, 3))
        sched = make_schedule([PlacedJob(1, 0, 2, rat(0), rat(4))])
        rep = validate_schedule(inst, sched)
        assert any(v.kind == "duration" for v in rep.violations)

    def test_missing_and_unknown(self):
        inst = instance(2, job(1, 1, 1))
        sched = make_schedule([PlacedJob(9, 0, 1, rat(0), rat(1))])
        rep = validate_schedule(inst, sched)
        kinds = {v.kind for v in rep.violations}
        assert "missing" in kinds and "unknown-job" in kinds

    def test_huge_width_is_a_bounds_violation(self):
        # The part is clipped to the m machines before it is expanded.
        inst = instance(2, job(1, 2, 1))
        sched = make_schedule([PlacedJob(1, 0, 10**12, rat(0), rat(1))])
        rep = validate_schedule(inst, sched)
        assert ("bounds", 0) in {(v.kind, v.machine) for v in rep.violations}
        assert not rep.feasible

    def test_zero_length_parts(self):
        # A zero-length part strictly inside another part overlaps it; one
        # at the other's start does not.
        inst = Instance(1, (Job(1, (Fraction(2),)), Job(2, (Fraction(0),))))
        for start, want in ((1, (Violation("overlap", (1, 2), machine=0,
                                           window=(Fraction(1), Fraction(1))),)), (0, ())):
            sched = make_schedule([PlacedJob(1, 0, 1, rat(0), rat(2)),
                                   PlacedJob(2, 0, 1, rat(start), rat(0))])
            rep = validate_schedule(inst, sched)
            assert rep.violations == want and rep.feasible == (not want)

    def test_a_repeated_job_id_raises(self):
        # by_id keeps one of the two jobs 1: the other one would go missing.
        inst = Instance(2, (Job(1, (2, 1)), Job(1, (2, 1))))
        sched = make_schedule([PlacedJob(1, 0, 1, rat(0), rat(2))])
        with pytest.raises(ValueError, match=r"^job id 1 appears more than once$"):
            validate_schedule(inst, sched)

    @pytest.mark.parametrize("bad, field", [
        (PlacedJob(1, 0.5, 1, 0, 2), "first_machine"),
        (PlacedJob(1, 0, 1.5, 0, 2), "width"),
        (PlacedJob(1, True, 1, 0, 2), "first_machine"),
        (PlacedJob(1.0, 0, 1, 0, 2), "job_id"),
        (PlacedJob(1, 0.5, 1, 0.0, 2.0), "first_machine"),  # float times: no L
    ])
    def test_a_machine_field_that_is_not_an_int_raises(self, bad, field):
        # An int64 column would truncate 0.5 to 0 and call the schedule feasible.
        inst = Instance(2, (Job(1, (2, 1)), Job(2, (1, 1))))
        sched = Schedule((bad, PlacedJob(2, 1, 1, 0, 1)), Fraction(2))
        with pytest.raises(TypeError, match=rf"job {bad.job_id}\b.*{field}"):
            validate_schedule(inst, sched)

    def test_numpy_int_machine_fields_are_ints(self):
        inst = Instance(2, (Job(1, (2, 1)), Job(2, (1, 1))))
        placed = PlacedJob(np.int64(1), np.int32(0), np.int64(1), 0, 2)
        assert validate_schedule(inst, Schedule((placed, PlacedJob(2, 1, 1, 0, 1)), Fraction(2))).ok()

    def test_makespan_field_checked(self):
        inst = instance(1, job(1, 2))
        sched = Schedule((PlacedJob(1, 0, 1, rat(0), rat(2)),), rat(99))
        rep = validate_schedule(inst, sched)
        assert any(v.kind == "makespan" for v in rep.violations)


    def test_overlap_windows_over_mixed_denominators(self):
        # Overlaps are listed by machine in order of first use, and by start
        # within one.
        inst, sched = _mixed_denominators()
        rep = validate_schedule(inst, sched)
        assert rep.violations == (
            Violation("overlap", (3, 4), machine=1, window=(Fraction(5, 7), Fraction(17, 21))),
            Violation("overlap", (2, 1), machine=0, window=(Fraction(1, 3), Fraction(3, 7))),
        )
        assert all(type(x) is Fraction for v in rep.violations for x in v.window)
        assert not rep.feasible and rep.contiguous and rep.makespan == 1

    def test_common_denominator_beyond_64_bits(self):
        tiny = Fraction(1, 3**41)
        inst, sched = _beyond_64_bits()
        rep = validate_schedule(inst, sched)
        assert rep.violations == (
            Violation("overlap", (1, 2), machine=0, window=(tiny, 2 * tiny)),
        )
        assert rep.makespan == tiny + Fraction(1, 2)

    def test_int_start_and_duration(self):
        inst = instance(2, job(1, 2, 1), job(2, 2, 1), job(3, 4, 2))
        sched = make_schedule(
            [PlacedJob(1, 0, 1, 0, 2), PlacedJob(2, 0, 1, 2, 2), PlacedJob(3, 0, 2, 4, 2)]
        )
        rep = validate_schedule(inst, sched)
        assert rep.ok() and rep.makespan == 6 and type(rep.makespan) is Fraction
        clash = make_schedule([PlacedJob(1, 0, 1, 0, 2), PlacedJob(2, 0, 1, 1, 2)])
        rep = validate_schedule(instance(1, job(1, 2), job(2, 2)), clash)
        assert rep.violations == (
            Violation("overlap", (1, 2), machine=0, window=(Fraction(1), Fraction(2))),
        )

    def test_float_times_compare_as_given(self):
        # A float has no denominator: its schedule takes the Fraction path.
        inst, sched = _float_times()
        rep = validate_schedule(inst, sched)
        assert rep.violations == (
            Violation("overlap", (1, 2), machine=0, window=(Fraction(1, 2), Fraction(3, 4))),
        )

    def test_prime_denominators_compare_as_fractions(self):
        inst, sched = _twenty_primes()
        rep = validate_schedule(inst, sched)
        assert rep.violations == (
            Violation("overlap", (20, 19), machine=0, window=(Fraction(18), Fraction(1279, 71))),
        )
        assert not rep.feasible and rep.contiguous and rep.makespan == Fraction(1207, 67)


def _mixed_denominators():
    """Starts 1/3 and 2/7 and durations over 3, 7 and 21: L = 21."""
    inst = instance(2, job(1, "2/3", 1), job(2, "1/7", 1), job(3, 1, 1), job(4, "2/21", 1))
    return inst, make_schedule([
        PlacedJob(3, 1, 1, rat(0), rat(1)),
        PlacedJob(1, 0, 1, rat("1/3"), rat("2/3")),
        PlacedJob(2, 0, 1, rat("2/7"), rat("1/7")),
        PlacedJob(4, 1, 1, rat("5/7"), rat("2/21")),
    ])


def _beyond_64_bits():
    """Times over 2 and 3**41 > 2**64: L = 2 * 3**41."""
    tiny = Fraction(1, 3**41)
    inst = instance(1, job(1, 2 * tiny), job(2, "1/2"))
    return inst, make_schedule(
        [PlacedJob(1, 0, 1, rat(0), 2 * tiny), PlacedJob(2, 0, 1, tiny, rat("1/2"))]
    )


def _float_times():
    """A float start, which has no denominator: no L."""
    inst = instance(1, job(1, "1/2"), job(2, "1/2"))
    return inst, make_schedule(
        [PlacedJob(1, 0, 1, 0.25, rat("1/2")), PlacedJob(2, 0, 1, rat("1/2"), rat("1/2"))]
    )


def _twenty_primes():
    """Job i takes 1/p_i on one machine from start i-1, and job 20 also
    starts at 18, under job 19.  The lcm of the first 20 primes is 89 bits
    against the widest denominator's 7: no L, the Fractions are compared."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]
    inst = Instance(1, tuple(Job(i, (Fraction(1, p),)) for i, p in enumerate(primes, 1)))
    starts = list(range(19)) + [18]
    return inst, make_schedule(
        PlacedJob(i, 0, 1, Fraction(s), Fraction(1, p))
        for i, (s, p) in enumerate(zip(starts, primes), 1)
    )


class TestColumns:
    """Schedule.columns, the one read of a schedule that the verifier and
    the writers share."""

    @pytest.mark.parametrize("case, scale", [
        (_mixed_denominators, 21), (_beyond_64_bits, 2 * 3**41),
        (_float_times, None), (_twenty_primes, None),
    ])
    def test_scale(self, case, scale):
        assert case()[1].columns()[0] == scale

    def test_columns_give_back_each_placement(self):
        sched = solve(generate(GenConfig(n=30, m=12, seed=1))).schedule
        twin = Schedule(sched.placements, sched.makespan)
        scale, columns = sched.columns()
        assert scale == sched.scale and columns is sched.ints  # passed through
        primes = _twenty_primes()[1]
        for given in (sched, twin, primes):
            scale, columns = given.columns()
            assert (scale is None) == (given is primes)
            assert all(c.dtype == (object if given is primes else np.int64) for c in columns[3:])
            rows = zip(*(c.tolist() for c in columns))
            for (j, i, k, s, t), p in zip(rows, given.placements, strict=True):
                assert (j, i, k) == (p.job_id, p.first_machine, p.width)
                exact = (s, t) if scale is None else (Fraction(s, scale), Fraction(t, scale))
                assert exact == (p.start, p.duration)


def _solver_results():
    rng = random.Random(131)
    insts = [random_instance(rng, rng.randint(1, 9), rng.randint(1, 7)) for _ in range(30)]
    insts += [generate(GenConfig(n=30, m=12, seed=s)) for s in range(3)]
    insts.append(generate(GenConfig(n=12, m=40, seed=3)))
    insts.append(generate(GenConfig(n=25, m=9, seed=2, quantization_denominator=PRIME_Q)))
    return [(inst, solve(inst)) for inst in insts]


def _solver_outputs():
    return [(inst, r.schedule) for inst, r in _solver_results()]


def _mutants(rng, rows, makespan):
    """(name, rows, makespan): the schedule as built and seeded mutants of it."""

    def edit(col, change):
        out = [list(r) for r in rows]
        r = out[rng.randrange(len(out))]
        r[col] = change(r[col])
        return [tuple(r) for r in out]

    i = rng.randrange(len(rows))
    yield "as-built", rows, makespan
    yield "start", edit(3, lambda s: s + rng.choice((-1, 1)) * rng.randint(1, 5)), makespan
    yield "first-machine", edit(1, lambda f: f + rng.choice((-1, 1))), makespan
    yield "width", edit(2, lambda k: k + 1), makespan
    yield "duration", edit(4, lambda t: t + 1), makespan
    yield "duplicate", rows[: i + 1] + rows[i:], makespan
    yield "drop", rows[:i] + rows[i + 1 :], makespan
    yield "unknown-id", edit(0, lambda j: 10**6), makespan
    yield "negative-start", edit(3, lambda s: -1), makespan
    yield "out-of-bounds", edit(1, lambda f: 10**3), makespan
    yield "makespan", rows, makespan + 1


def _mutate(data, inst, rows):
    """The placement rows (job, first, width, start, duration), times in
    units of 1/L, after one drawn mutation of a drawn row."""
    i = data.draw(st.integers(0, len(rows) - 1))
    j, f, k, s, t = rows[i]
    kind = data.draw(st.sampled_from(
        ("shift", "widen", "narrow", "move", "drop", "duplicate", "split", "unknown-id")))
    if kind == "shift":  # by 1/L
        new = [(j, f, k, s + data.draw(st.sampled_from((-1, 1))), t)]
    elif kind in ("widen", "narrow"):
        new = [(j, f, k + (1 if kind == "widen" else -1), s, t)]
    elif kind == "move":
        new = [(j, f + data.draw(st.integers(-2, 2).filter(bool)), k, s, t)]
    elif kind == "split":  # two parts with a common start, adjacent or not
        k1 = data.draw(st.integers(1, max(k - 1, 1)))
        new = [(j, f, k1, s, t), (j, f + k1 + data.draw(st.integers(0, 1)), max(k - k1, 1), s, t)]
    else:
        new = {"drop": [], "duplicate": [rows[i]] * 2,
               "unknown-id": [rows[i], (max(inst.ids) + 1, f, k, s, t)]}[kind]
    return rows[:i] + new + rows[i + 1 :]


class TestIntegerForm:
    """The verifier reports the same on a schedule in integer form as on the
    same schedule given as Fractions, field by field."""

    def test_corpus_covers_both_forms_and_the_object_grid(self):
        # Every solver schedule, list or shelf, is in integer form; the
        # mutants test gives each one as Fractions too.
        results = _solver_results()
        assert {r.construction for _, r in results} == {"list", "shelf"}
        assert all(r.schedule.ints is not None for _, r in results)
        assert results[-1][1].schedule.ints[3].dtype == object

    def test_solver_outputs_and_mutants(self):
        # Each case also on the instance's tuple-of-Fractions twin, whose
        # times the verifier reads one by one instead of from one grid.
        rng = random.Random(137)
        kinds = set()
        for inst, sched in _solver_outputs():
            twin = Instance(inst.m, tuple(Job(j.id, tuple(j.times)) for j in inst.jobs))
            given = Schedule(sched.placements, sched.makespan)
            for contiguous in (True, False):
                rep = validate_schedule(inst, sched, contiguous)
                assert rep.ok() and rep == validate_schedule(inst, given, contiguous)
                assert rep == validate_schedule(twin, sched, contiguous)
            scale, rows, makespan = grid_rows(sched)
            for name, mrows, mk in _mutants(rng, rows, makespan):
                ints = int_schedule(scale, mrows, mk)
                fractions = fraction_schedule(scale, mrows, mk)
                for contiguous in (True, False):
                    rep = validate_schedule(inst, ints, contiguous)
                    assert rep == validate_schedule(inst, fractions, contiguous), name
                    assert rep == validate_schedule(twin, ints, contiguous), name
                    assert rep == validate_schedule(twin, fractions, contiguous), name
                    kinds.update(v.kind for v in rep.violations)
                    if name == "as-built":
                        assert rep.ok()
                    elif name not in ("start", "first-machine", "width"):
                        assert not rep.feasible, name  # a shift may land on free room
        assert kinds >= {"overlap", "width", "start", "duration", "placement", "bounds",
                         "missing", "unknown-job", "makespan"}

    def test_array_checks_change_no_report(self, monkeypatch):
        # The array checks only decide whether the per-job loop runs: forced
        # off, every report of the mutant corpus is the same, in both forms
        # and both contiguity settings.
        rng = random.Random(139)
        cases = []
        for inst, sched in _solver_outputs():
            scale, rows, makespan = grid_rows(sched)
            for _, mrows, mk in _mutants(rng, rows, makespan):
                for given in (int_schedule(scale, mrows, mk), fraction_schedule(scale, mrows, mk)):
                    cases += [(inst, given, contiguous) for contiguous in (True, False)]
        passed = []
        real = verify._columns_pass
        monkeypatch.setattr(verify, "_columns_pass", lambda *a: passed.append(real(*a)) or passed[-1])
        on = [validate_schedule(*case) for case in cases]
        assert True in passed and False in passed
        monkeypatch.setattr(verify, "_columns_pass", lambda *a: False)
        assert [validate_schedule(*case) for case in cases] == on

    def test_a_negative_end_reads_makespan_zero_on_both_paths(self, monkeypatch):
        # A negative time makes the only end -1: the makespan is the latest
        # end or 0, whichever path writes the report.
        inst = Instance(1, (Job(1, (Fraction(-1),)),))
        sched = Schedule((PlacedJob(1, 0, 1, Fraction(0), Fraction(-1)),), Fraction(-1))
        on = validate_schedule(inst, sched)
        assert (on.feasible, on.makespan) == (False, 0)
        assert [(v.kind, v.detail) for v in on.violations] == [
            ("makespan", "recorded -1, recomputed 0")]
        monkeypatch.setattr(verify, "_columns_pass", lambda *a: False)
        assert validate_schedule(inst, sched) == on

    def test_a_valid_solver_schedule_skips_the_per_job_loop(self, monkeypatch):
        inst = generate(GenConfig(n=60, m=12, seed=1))
        sched = solve(inst).schedule
        calls = []
        real = model.Times.__getitem__
        monkeypatch.setattr(model.Times, "__getitem__", lambda *a: calls.append(a) or real(*a))
        assert validate_schedule(inst, sched).ok()
        assert validate_schedule(inst, Schedule(sched.placements, sched.makespan)).ok()
        assert not calls
        monkeypatch.setattr(verify, "_columns_pass", lambda *a: False)
        assert validate_schedule(inst, sched).ok() and len(calls) == inst.n

    def test_a_valid_solver_schedule_reads_no_time_one_by_one(self, monkeypatch):
        # The durations of a generated instance are read from its grid at once.
        inst = generate(GenConfig(n=1000, m=35, seed=1))
        sched = solve(inst).schedule
        calls = []
        for name in ("__getitem__",):
            real = getattr(model.Times, name)
            monkeypatch.setattr(model.Times, name,
                                lambda *a, name=name, real=real: calls.append(name) or real(*a))
        assert validate_schedule(inst, sched).ok()
        assert not calls

    def test_a_duration_off_by_a_wrapping_amount(self):
        # Over Q = 2^40 a duration times q passes 2^63: shortened by 2^24 it
        # differs by 2^64 in the product, which an int64 compare would miss.
        inst = generate(GenConfig(n=20, m=6, seed=1, quantization_denominator=2**40))
        scale, rows, makespan = grid_rows(solve(inst).schedule)
        j, f, k, s, t = rows[0]
        rows[0] = (j, f, k, s, t - 2**24)
        ints = int_schedule(scale, rows, makespan)
        assert ints.ints[4].dtype == np.int64 and inst.grid[1].dtype == np.int64
        rep = validate_schedule(inst, ints)
        assert [(v.kind, v.job_ids) for v in rep.violations] == [("duration", (j,))]
        assert rep == validate_schedule(inst, fraction_schedule(scale, rows, makespan))

    def test_drawn_mutants_report_the_same_on_every_path(self):
        # A drawn solver schedule with 1-3 drawn mutations: the same report
        # in integer form, as PlacedJobs over L and as PlacedJobs compared as
        # Fractions (no L), with the array checks on and forced off.
        feasible, kinds = [], set()

        @property_settings(max_examples=150)
        @given(st.data())
        def check(data):
            inst = generate(GenConfig(n=data.draw(st.integers(1, 12)),
                                      m=data.draw(st.integers(1, 8)),
                                      seed=data.draw(st.integers(0, 2**32 - 1))))
            scale, rows, makespan = grid_rows(solve(inst).schedule)
            for _ in range(data.draw(st.integers(1, 3))):
                if rows:
                    rows = _mutate(data, inst, rows)
            forms = (int_schedule(scale, rows, makespan), fraction_schedule(scale, rows, makespan))

            def reports():
                return [validate_schedule(inst, sched, contiguous)
                        for sched in forms for contiguous in (True, False)]

            want = reports()
            assert want[:2] == want[2:]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(verify, "_columns_pass", lambda *a: False)
                assert reports() == want
                mp.setattr(model, "common_scale", lambda times: None)
                assert reports() == want
            feasible.append(want[0].feasible)
            kinds.update(v.kind for v in want[0].violations)

        check()
        assert True in feasible and False in feasible
        assert kinds >= {"overlap", "width", "start", "duration", "placement", "bounds",
                         "missing", "unknown-job", "contiguity"}

    def test_integer_form_past_int64(self):
        # Starts and an id past 2^63 are compared as exact ints.
        big = 2**64
        inst = instance(1, job(big, 2), job(2, 2))
        rows = [(big, 0, 1, big, 2 * big), (2, 0, 1, 2 * big, 2 * big)]
        for mk in (4 * big, 3 * big):
            for r in (rows, rows[::-1], [rows[0], (2, 0, 1, 3 * big - 1, 2 * big)]):
                want = validate_schedule(inst, fraction_schedule(big, r, mk))
                assert validate_schedule(inst, int_schedule(big, r, mk)) == want


def test_construction_does_not_read_schedules_as_the_verifier_does():
    """No construction module calls Schedule.columns or common_scale, so the
    verifier's reading of a schedule stays a second route."""
    for name in ("driver", "mckp", "shelf", "listsched", "gen"):
        path = verify.__file__.replace("verify.py", f"{name}.py")
        for node in ast.walk(ast.parse(open(path).read())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                assert node.func.attr != "columns", (name, ast.unparse(node))
            if isinstance(node, ast.ImportFrom):
                assert "common_scale" not in {a.name for a in node.names}, (name, ast.unparse(node))
            assert getattr(node, "attr", getattr(node, "id", None)) != "common_scale", name


def test_verify_is_independent_of_the_construction():
    """verify.py imports no construction module and never reads the grid."""
    tree = ast.parse(open(verify.__file__).read())
    construction = {"driver", "mckp", "shelf", "listsched", "gen"}
    grid_readers = {"grid", "row_of", "t", "gamma", "gammas", "ratio_grid"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            assert module not in construction, ast.unparse(node)
            assert not {a.name for a in node.names} & construction, ast.unparse(node)
            if module == "model":
                assert not {a.name for a in node.names} & grid_readers, ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert not {a.name.rsplit(".", 1)[-1] for a in node.names} & construction
        elif isinstance(node, ast.Attribute):
            assert node.attr not in {"grid", "row_of"}, ast.unparse(node)
        elif isinstance(node, ast.Name):
            assert node.id not in {"grid", "row_of"}, node.id


class TestBruteForceOpt:
    def test_examples(self):
        assert brute_force_opt(instance(2, job(1, 6, 3))) == 3
        assert brute_force_opt(instance(1, job(1, 2), job(2, 2))) == 4
        assert brute_force_opt(instance(2, job(1, 4, 2), job(2, 4, 2))) == 4

    def test_no_jobs(self):
        assert brute_force_opt(instance(2)) == 0

    def test_caps(self):
        with pytest.raises(ValueError):
            brute_force_opt(instance(2, *[job(i, 1, 1) for i in range(1, 6)]))
        with pytest.raises(ValueError):
            brute_force_opt(instance(5, job(1, *[1] * 5)))

    def test_lower_bound_consistency(self):
        rng = random.Random(71)
        for _ in range(60):
            inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 4))
            opt = brute_force_opt(inst)
            lb = max(
                sum(j.times[0] for j in inst.jobs) / inst.m,
                max(j.times[-1] for j in inst.jobs),
            )
            assert opt >= lb

    def test_invariance_under_relabeling(self):
        rng = random.Random(73)
        for _ in range(25):
            inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 4))
            opt = brute_force_opt(inst)
            shuffled = list(inst.jobs)
            rng.shuffle(shuffled)
            assert brute_force_opt(instance(inst.m, *shuffled)) == opt


class TestRatioReport:
    def test_tiny_uses_oracle(self):
        inst = instance(2, job(1, 4, 2), job(2, 4, 2))
        r = solve(inst, rat("0.05"))
        rep = ratio_report(inst, r)
        kind, ratio = rep.ratio_vs
        assert kind == "oracle_opt"
        assert ratio == r.makespan / 4

    def test_large_uses_lower_bound(self):
        rng = random.Random(79)
        inst = random_instance(rng, 8, 6)
        r = solve(inst, rat("0.05"))
        rep = ratio_report(inst, r)
        kind, ratio = rep.ratio_vs
        assert kind == "lower_bound"
        assert ratio >= 1 or r.makespan <= max(r.certified_lower, initial_bounds(inst).lower)

    def test_empty_instance(self):
        # No oracle for no jobs, and a zero makespan over a zero lower bound
        # reads as ratio 1.
        inst = instance(3)
        rep = ratio_report(inst, solve(inst))
        assert rep.ratio_vs == ("lower_bound", 1)

"""The list schedule of the knapsack allotment and the shelves as its fallback."""

import ast
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from moldsched import (
    LAMBDA_Q0,
    LAMBDA_SMALL_Q,
    LAMBDA_STAR_UPPER,
    GenConfig,
    ShelfInvariantError,
    generate,
    solve,
    validate_schedule,
)
from moldsched import listsched, shelf
from moldsched.listsched import list_schedule, window_max
from moldsched.model import Schedule, gamma
from util import (
    allotment, big_ids, dp_shelves, instance, job, random_instance, record_callers, small_ids,
    window_list_schedule,
)


def _brute_window_max(x, k):
    return [max(x[i : i + k].tolist()) for i in range(len(x) - k + 1)]


class TestWindowMax:
    @pytest.mark.parametrize("dtype", [np.int64, object])
    @pytest.mark.parametrize("m", [1, 2, 7, 12, 13])
    def test_matches_brute_force(self, dtype, m):
        rng = random.Random(m)
        big = 10**30 if dtype is object else 10**12
        for _ in range(20):
            x = np.array([rng.randint(0, big) for _ in range(m)], dtype=dtype)
            # k = 1, k = m, and every k with m % k != 0 in between
            for k in range(1, m + 1):
                got = window_max(x, k)
                assert got.tolist() == _brute_window_max(x, k), (m, k)
                assert got.dtype == x.dtype

    def test_object_values_stay_exact(self):
        x = np.array([2**70 + 1, 2**70, 2**70 + 2, 0, 2**70], dtype=object)
        assert window_max(x, 2).tolist() == [2**70 + 1, 2**70 + 2, 2**70 + 2, 2**70]
        assert window_max(x, 5).tolist() == [2**70 + 2]


class TestPlacement:
    def test_equal_durations_go_by_job_id(self):
        inst = instance(1, job(3, 2), job(1, 2), job(2, 2), job(4, 5))
        sched = list_schedule(inst, np.ones(4, dtype=np.int64))
        order = [p.job_id for p in sorted(sched.placements, key=lambda p: p.start)]
        assert order == [4, 1, 2, 3]
        assert [p.job_id for p in sched.placements] == order  # placement order
        assert sched.makespan == 11

    def test_equal_window_maxima_go_to_the_lowest_first_machine(self):
        # Job 1 (duration 5) takes machine 0; job 2 on gamma(2, d=5) = 2
        # machines sees window maxima 5, 0, 0 and takes machines 1-2; job 3
        # takes machine 3.  Job 4 then ties on machines 1, 2 and 3 at time 4.
        inst = instance(
            4, job(1, 5, 5, 5, 5), job(2, 8, 4, 4, 4), job(3, 4, 4, 4, 4), job(4, 1, 1, 1, 1)
        )
        assert gamma(inst, 2, Fraction(5)) == 2
        sched = list_schedule(inst, np.array([1, 2, 1, 1]))
        placed = {p.job_id: (p.first_machine, p.width, p.start) for p in sched.placements}
        assert placed == {1: (0, 1, 0), 2: (1, 2, 0), 3: (3, 1, 0), 4: (1, 1, 4)}

    def test_skyline_past_int64_stays_exact(self):
        # m * max time fits the int64 grid, but 40 jobs on one machine end
        # at 40 * 2^58 > 2^63: the skyline is kept in exact ints.
        inst = instance(1, *(job(i, 2**58) for i in range(1, 41)))
        assert inst.grid[1].dtype == np.int64
        sched = list_schedule(inst, np.ones(40, dtype=np.int64))
        assert sched.makespan == 40 * 2**58
        assert [p.start for p in sched.placements] == [i * 2**58 for i in range(40)]

    def test_skyline_is_bounded_by_the_placed_durations(self):
        # Every one-machine time is 1, so sum(A[:,0]) = 33 is far below
        # 2^62, but on their two machines the 33 jobs take 2^58 each and
        # stack to 33 * 2^58 > 2^63: the bound is the placed durations' sum.
        inst = instance(2, *(job(i, 1, 2**58) for i in range(1, 34)))
        assert inst.grid[1].dtype == np.int64
        sched = list_schedule(inst, np.full(33, 2, dtype=np.int64))
        assert sched.makespan == 33 * 2**58
        assert [p.start for p in sched.placements] == [i * 2**58 for i in range(33)]
        assert all(p.first_machine == 0 and p.width == 2 for p in sched.placements)

    def test_class_heights_set_the_widths(self):
        inst = generate(GenConfig(n=40, m=16, seed=3))
        r = solve(inst)
        d = r.accepted_d
        widths = {p.job_id: p.width for p in r.schedule.placements}
        heights = {1: d, 2: Fraction(4, 7) * d, 3: Fraction(3, 7) * d}
        assert r.mckp_assignment and r.construction == "list"
        for job_id, cls in r.mckp_assignment.items():
            k = widths[job_id]
            times = inst.by_id[job_id].times
            assert times[k - 1] <= heights[cls] and (k == 1 or times[k - 2] > heights[cls])
        for job_id in small_ids(inst, d):
            assert widths[job_id] == 1
        assert r.schedule == list_schedule(inst, allotment(inst, d, r.mckp_assignment))


def _assert_same_ints(got, want):
    assert (got.scale, got.makespan) == (want.scale, want.makespan)
    for g, w in zip(got.ints, want.ints, strict=True):
        assert (g.dtype, g.tolist()) == (w.dtype, w.tolist())


class TestOneMachineHeap:
    """With every width 1 the heap places each job as the window loop does,
    bit for bit: the same columns in the same dtypes, the same makespan."""

    @pytest.mark.parametrize("inst", [
        instance(3, *(job(i, 2, 1, 1) for i in range(1, 8))),  # equal durations
        # 4 = 1 + 3 = 2 + 2: three machines free at 4 at once, then at 5
        instance(3, *(job(i, t, t, t) for i, t in enumerate((4, 3, 2, 2, 1, 1, 1), 1))),
        instance(1, job(3, 2), job(1, 2), job(2, 2), job(4, 5)),  # m = 1
        instance(4),  # n = 0
        instance(9, job(2, *[5] * 9), job(1, *[5] * 9)),  # m > n
        instance(1, *(job(i, 2**58) for i in range(1, 41))),  # past int64 on one machine
        instance(2, *(job(i, 2**58, 2**57) for i in range(1, 34))),  # and on two
    ])
    def test_matches_the_window_loop(self, inst):
        width = np.ones(inst.n, dtype=np.int64)
        _assert_same_ints(list_schedule(inst, width), window_list_schedule(inst, width))

    def test_skyline_past_int64_is_exact(self):
        inst = instance(2, *(job(i, 2**58, 2**57) for i in range(1, 34)))
        sched = list_schedule(inst, np.ones(inst.n, dtype=np.int64))
        assert sched.ints[3].dtype == object and sched.makespan == 17 * 2**58

    def test_matches_the_window_loop_on_random_allotments(self):
        rng = random.Random(41)
        insts = [random_instance(rng, rng.randint(0, 30), rng.randint(1, 8)) for _ in range(60)]
        insts += [generate(GenConfig(n=200, m=8, seed=s)) for s in range(3)]
        for inst in insts:
            one = np.ones(inst.n, dtype=np.int64)
            wide = np.array([rng.randint(1, inst.m) for _ in range(inst.n)], dtype=np.int64)
            for width in (one, wide):
                _assert_same_ints(list_schedule(inst, width), window_list_schedule(inst, width))


def test_listsched_is_independent_of_the_knapsack():
    """listsched places a given rigid allotment: it imports nothing from
    mckp and counts no machine number."""
    tree = ast.parse(Path(listsched.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            assert module != "mckp" and "mckp" not in {a.name for a in node.names}
            assert not {a.name for a in node.names} & {"gamma", "gammas", "CLASS_HEIGHTS"}
        elif isinstance(node, ast.Import):
            assert "mckp" not in {a.name.rsplit(".", 1)[-1] for a in node.names}
        elif isinstance(node, ast.Attribute):
            assert node.attr not in {"gamma", "gammas", "row_of"}, ast.unparse(node)
        elif isinstance(node, ast.Name):
            assert node.id not in {"gamma", "gammas", "row_of", "CLASS_HEIGHTS"}, node.id


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(a) or fn(*a, **kw))
    return calls


def _delayed_list(monkeypatch, end):
    """Shift the list schedule so it ends at end: still feasible."""
    real = listsched.list_schedule

    def delayed(inst, width):
        sched = real(inst, width)
        delta = end - sched.makespan
        moved = tuple(replace(p, start=p.start + delta) for p in sched.placements)
        return Schedule(moved, sched.makespan + delta)

    monkeypatch.setattr(listsched, "list_schedule", delayed)


class TestFallback:
    # The shelf schedule of n=20, m=10, seed 5 at its accepted guess ends in
    # the many-idle-machines repair at about 1.439*d: past 10/7*d, within 13/9*d.
    CONFIG = GenConfig(n=20, m=10, seed=5)

    def _shelf(self, inst, d):
        sched, lam = dp_shelves(inst, d)
        assert lam == LAMBDA_STAR_UPPER
        assert LAMBDA_Q0 * d < sched.makespan <= LAMBDA_SMALL_Q * d
        return sched

    def test_shorter_shelf_schedule_is_returned(self, monkeypatch):
        inst = generate(self.CONFIG)
        d0 = solve(inst).accepted_d
        _delayed_list(monkeypatch, 2 * d0)
        builds = _counting(monkeypatch, shelf, "build_three_shelf")
        callers = record_callers(monkeypatch, "row_keys")
        r = solve(inst)
        assert r.accepted_d == d0
        assert len(builds) == 2 and r.construction == "shelf"  # rebuilt at the Lambert-W stretch
        assert callers["row_keys"] == ["solve"]  # the search and both builds count with one
        assert r.schedule == self._shelf(inst, r.accepted_d)
        # the smallest bound the schedule meets, below the shelves' own stretch
        assert r.lambda_used == LAMBDA_SMALL_Q
        assert validate_schedule(inst, r.schedule).ok()
        assert all(r.timings[k] > 0 for k in ("list", "shelf", "small", "verify"))

    def test_shorter_list_schedule_past_ten_sevenths_is_returned(self, monkeypatch):
        inst = generate(self.CONFIG)
        d0 = solve(inst).accepted_d
        mid = (LAMBDA_Q0 * d0 + self._shelf(inst, d0).makespan) / 2
        _delayed_list(monkeypatch, mid)
        builds = _counting(monkeypatch, shelf, "build_three_shelf")
        r = solve(inst)
        assert r.accepted_d == d0
        assert builds and r.construction == "list" and r.makespan == mid
        assert r.lambda_used == LAMBDA_SMALL_Q

    def test_invalid_list_schedule_raises(self, monkeypatch):
        inst = generate(self.CONFIG)
        real = listsched.list_schedule

        def overlapping(*args):
            sched = real(*args)
            moved = tuple(replace(p, start=Fraction(0)) for p in sched.placements)
            return Schedule(moved, max(p.end for p in moved))

        monkeypatch.setattr(listsched, "list_schedule", overlapping)
        with pytest.raises(ShelfInvariantError, match="list schedule"):
            solve(inst)


def test_all_small_jobs_build_no_shelves(monkeypatch):
    # With no big jobs the width-1 list schedule ends by d + (3/7)d: W_S <= m*d
    # and every one-machine time is at most (3/7)d.
    inst = generate(GenConfig(n=200, m=8, seed=1))
    builds = _counting(monkeypatch, shelf, "build_three_shelf")
    r = solve(inst)
    assert big_ids(inst, r.accepted_d) == frozenset()
    assert len(builds) == 0
    assert r.lambda_used == LAMBDA_Q0 and r.construction == "list"
    assert r.timings["shelf"] == r.timings["small"] == 0.0
    assert validate_schedule(inst, r.schedule).ok()

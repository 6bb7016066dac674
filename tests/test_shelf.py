import collections
import copy
import dataclasses
import math
import random
from fractions import Fraction

import pytest

from moldsched import (
    LAMBDA_Q0,
    LAMBDA_SMALL_Q,
    LAMBDA_STAR_UPPER,
    GenConfig,
    Reject,
    ShelfInvariantError,
    generate,
    rat,
    solve,
    validate_schedule,
)
from moldsched.mckp import pick_totals, solve_mckp
from moldsched.model import classify_jobs, gamma
from moldsched.shelf import (
    ColumnPart,
    Layout,
    S2Job,
    ShelfColumn,
    ShelfSchedule,
    _check_transformed,
    _place_right_aligned,
    add_small_jobs,
    apply_transformations,
    build_three_shelf,
    layout_contiguous,
    repair_s2_large_q,
    repair_s2_small_q,
    shelf_layout,
)
from util import (
    big_ids, const_work_job, dp_assignment, instance, items_for, job, options, random_instance,
)

D1 = rat(1)
_STRETCHES = (LAMBDA_Q0, LAMBDA_SMALL_Q, LAMBDA_STAR_UPPER)


def units(ss, x) -> int:
    """x on the shelves' integer scale: x*L, which must be a whole number."""
    y = rat(x) * ss.scale
    assert y.denominator == 1, (x, ss.scale)
    return y.numerator


def exact(ss, h: int) -> Fraction:
    """A height on the shelves' integer scale back as the time it stands for."""
    return Fraction(h, ss.scale)


def placed(layout, inst):
    """The layout's schedule, with no small jobs added."""
    return add_small_jobs(layout, inst, [])


def total_work(ss) -> Fraction:
    """The work of every job on the shelves.  The split job's bottom part
    appears once per lane at width 1, which sums to its true two-machine
    work, so a plain sum is exact."""
    return exact(ss, sum(part.height * col.width for col in ss.s0 + ss.s1 for part in col.parts)
                 + sum(j.height * j.width for j in ss.s2))


class TestBuildThreeShelf:
    def test_class2_canonical4_compresses_to_half(self):
        # gamma(j, 4/7) = 4 with constant work 2: lands on 2 machines, t(j,2)=1.
        inst = instance(4, const_work_job(1, 2, 4))
        ss = build_three_shelf(inst, {1: 2}, D1, LAMBDA_Q0)
        (col,) = ss.s1
        assert col.width == 2
        assert exact(ss, col.height) == 1  # exactly d: shelf 1

    def test_class2_canonical4_tall_goes_to_shelf0(self):
        inst = instance(4, const_work_job(1, rat("2.2"), 4))
        ss = build_three_shelf(inst, {1: 2}, D1, LAMBDA_Q0)
        (col,) = ss.s0
        assert col.width == 2 and exact(ss, col.height) == rat("1.1")
        assert not ss.s1

    def test_class2_pair_of_singles_stacks(self):
        inst = instance(3, const_work_job(1, rat("0.5"), 3), const_work_job(2, rat("0.55"), 3))
        ss = build_three_shelf(inst, {1: 2, 2: 2}, D1, LAMBDA_Q0)
        (col,) = ss.s0
        assert col.width == 1
        assert [p.job_id for p in col.parts] == [2, 1]  # taller at the bottom
        assert exact(ss, col.height) == rat("1.05")

    def test_class2_canonical2_runs_on_one_machine(self):
        # gamma(j, 4/7) = 2: t(j,1) in (4/7, 8/7] by monotony; one machine.
        inst = instance(2, const_work_job(1, rat("1.1"), 2))
        ss = build_three_shelf(inst, {1: 2}, D1, LAMBDA_Q0)
        (col,) = ss.s0
        assert col.width == 1 and exact(ss, col.height) == rat("1.1")

    def test_class3_adversarial_job_on_all_machines(self):
        d = rat("1.08")
        inst = instance(13, const_work_job(1, rat("6.01"), 13))
        assert rat("6.01") / 13 <= Fraction(3, 7) * d
        ss = build_three_shelf(inst, {1: 3}, d, LAMBDA_Q0)
        (j,) = ss.s2
        assert j.width == 13
        assert exact(ss, j.height) == rat("6.01") / 13

    def test_split_pair_of_leftovers(self):
        # One 3-machine-class job (work 1.5) and one 1-machine-class job
        # (work 0.5) remain unpaired: the first takes two machines with the
        # second stacked on one of them.
        inst = instance(4, const_work_job(1, rat("1.5"), 4), const_work_job(2, rat("0.5"), 4))
        ss = build_three_shelf(inst, {1: 2, 2: 2}, D1, LAMBDA_Q0)
        assert ss.split_job == 1
        (lane0,) = ss.s0
        (lane1,) = ss.s1
        assert lane0.split_of == 1
        assert [p.job_id for p in lane0.parts] == [1, 2]
        assert exact(ss, lane0.height) == rat("1.25")
        assert lane1.split_of == 1 and exact(ss, lane1.parts[0].height) == rat("0.75")

    def test_leftover_three_alone(self):
        inst = instance(4, const_work_job(1, rat("1.5"), 4))
        ss = build_three_shelf(inst, {1: 2}, D1, LAMBDA_Q0)
        (col,) = ss.s1
        assert col.width == 2 and exact(ss, col.height) == rat("0.75")
        assert ss.split_job is None

    def test_machine_overflow_is_loud(self):
        inst = instance(2, job(1, rat("1.5"), 1), job(2, rat("1.5"), 1))
        with pytest.raises(ShelfInvariantError):
            build_three_shelf(inst, {1: 1, 2: 1}, D1, LAMBDA_Q0)

    def test_overflow_diagnostic_lists_the_attached_shelves(self):
        # Every big job of this solve's accepted guess forced into class 1
        # needs one more machine than there are; the error carries the
        # shelves built so far, and its diagnostic prints them.
        inst = generate(GenConfig(n=20, m=6, seed=4))
        d = solve(inst).accepted_d
        big = big_ids(inst, d)
        with pytest.raises(ShelfInvariantError) as info:
            build_three_shelf(inst, dict.fromkeys(big, 1), d, LAMBDA_Q0)
        assert info.value.shelf is not None
        message, *lines = info.value.diagnostic().splitlines()
        assert message == str(info.value) == "shelves 0+1 need 7 > m = 6 machines"
        assert lines[0].startswith("shelf schedule: m=6 ")
        (s1,) = [line for line in lines if line.lstrip().startswith("s1:")]
        assert s1.count("[w=1 ") == 7

    def test_work_never_grows_through_pipeline(self):
        rng = random.Random(41)
        for _ in range(30):
            inst = random_instance(rng, rng.randint(1, 12), rng.randint(1, 10))
            d = sum(j.times[0] for j in inst.jobs)  # >= OPT: always accepted
            items = items_for(inst, big_ids(inst, d), d)
            assert not isinstance(items, Reject)
            sol = solve_mckp(items, inst.m)
            assert sol is not None
            budget = inst.m * d - classify_jobs(inst, d)[1]
            total_cost = Fraction(pick_totals(items, sol)[0], inst.grid[0])  # costs are work * Q
            assert total_cost <= budget
            ss = build_three_shelf(inst, dict(zip(items.ids, sol)), d, LAMBDA_Q0)
            w_built = total_work(ss)
            assert w_built <= total_cost <= budget
            apply_transformations(ss)
            assert total_work(ss) <= w_built


class TestTransformations:
    def test_wide_short_job_drops_to_shelf0(self):
        inst = instance(3, job(1, rat("1.1"), rat("0.6"), rat("0.5")))
        ss = ShelfSchedule(inst, D1, LAMBDA_Q0)
        ss.s1.append(ShelfColumn(2, [ColumnPart(1, units(ss, "0.6"))]))
        apply_transformations(ss)
        assert not ss.s1
        (col,) = ss.s0
        assert col.width == 1 and exact(ss, col.height) == rat("1.1")

    def test_two_shorts_stack_and_free_a_machine(self):
        inst = instance(
            2, job(1, rat("0.6"), rat("0.35")), job(2, rat("0.55"), rat("0.3"))
        )
        ss = ShelfSchedule(inst, D1, LAMBDA_Q0)
        ss.s1.append(ShelfColumn(1, [ColumnPart(1, units(ss, "0.6"))]))
        ss.s1.append(ShelfColumn(1, [ColumnPart(2, units(ss, "0.55"))]))
        assert ss.q == 0
        apply_transformations(ss)
        assert ss.q == 1
        (col,) = ss.s0
        assert [p.job_id for p in col.parts] == [1, 2]  # taller at the bottom

    def test_shelf2_job_fitting_idle_machines_moves_out(self):
        inst = instance(
            4,
            job(1, rat("1.3"), rat("0.9"), rat("0.8"), rat("0.7")),
            job(2, rat("1.5"), rat("1.3"), rat("1.2"), rat("1.1")),
        )
        ss = ShelfSchedule(inst, D1, LAMBDA_Q0)
        ss.s1.append(ShelfColumn(1, [ColumnPart(1, units(ss, "0.8"))]))
        ss.s2.append(S2Job(2, 3, units(ss, "1.2")))
        # q = 3 and t(2, 3) = 1.2 <= (10/7)d, so the job leaves shelf 2 for
        # gamma(2, 10/7) = 2 machines at height 1.3 > d: shelf 0.
        apply_transformations(ss)
        assert not ss.s2
        assert any(c.width == 2 and exact(ss, c.height) == rat("1.3") for c in ss.s0)

    def test_drained_short_job_stacks_with_a_waiting_short(self):
        # Shelf 1 holds one short column, so nothing stacks at first.  The
        # class-3 job 2 leaves shelf 2 for one machine at 0.6 < (5/7)d, joins
        # shelf 1 and, being taller, goes under job 1 in the stacked column.
        inst = instance(
            3,
            job(1, rat("0.55"), rat("0.3"), rat("0.2")),
            job(2, rat("0.6"), rat("0.3"), rat("0.2")),
        )
        ss = ShelfSchedule(inst, D1, LAMBDA_Q0)
        ss.s1.append(ShelfColumn(1, [ColumnPart(1, units(ss, "0.55"))]))
        ss.s2.append(S2Job(2, 2, units(ss, "0.3")))
        assert ss.q == 2
        apply_transformations(ss)
        assert not ss.s1 and not ss.s2
        (col,) = ss.s0
        assert col.width == 1
        assert [(p.job_id, exact(ss, p.height)) for p in col.parts] == [
            (2, rat("0.6")),
            (1, rat("0.55")),
        ]

    def test_leftover_short_is_at_most_one(self):
        inst = instance(1, job(1, rat("0.6")))
        ss = ShelfSchedule(inst, D1, LAMBDA_Q0)
        ss.s1.append(ShelfColumn(1, [ColumnPart(1, units(ss, "0.6"))]))
        apply_transformations(ss)  # single short job: nothing to stack, no error
        assert len(ss.s1) == 1


def _reference_transformations(ss):
    """The restart-scan loop: after every move all three scans start again
    from the head of their shelf.  Slow, but its rules read off the code."""
    n_jobs = sum(len(c.parts) for c in ss.s0 + ss.s1) + len(ss.s2)
    guard = 4 * n_jobs + 16
    while True:
        guard -= 1
        if guard < 0:
            raise ShelfInvariantError("transformation loop exceeded its bound", ss)
        if _ref_shrink(ss) or _ref_stack(ss) or _ref_drain(ss):
            continue
        break
    _check_transformed(ss)
    return ss


def _ref_shrink(ss):
    half = ss.lam / 2 * ss.d
    for col in ss.s1:
        if col.width > 1 and exact(ss, col.height) <= half:
            if len(col.parts) != 1 or col.split_of is not None:
                raise ShelfInvariantError("composite column met the shrink rule", ss)
            job = ss.inst.by_id[col.parts[0].job_id]
            g = ss.counts[job.id][3]  # the shelves' count, m+1 where none
            if g > col.width:
                raise ShelfInvariantError("shrink would widen a job", ss)
            ss.s1.remove(col)
            ss.s0.append(ShelfColumn(g, [ColumnPart(job.id, units(ss, job.times[g - 1]))]))
            return True
    return False


def _ref_stack(ss):
    half = ss.lam / 2 * ss.d
    cands = [c for c in ss.s1 if c.width == 1 and exact(ss, c.height) < half]
    if len(cands) < 2:
        return False
    cands.sort(key=lambda c: (c.split_of is None, -c.height, c.min_job_id()))
    bottom, top = cands[0], cands[1]
    if top.split_of is not None:
        raise ShelfInvariantError("two split lanes on shelf 1", ss)
    merged = ShelfColumn(1, bottom.parts + top.parts, split_of=bottom.split_of)
    ss.s1.remove(bottom)
    ss.s1.remove(top)
    ss.s0.append(merged)
    return True


def _ref_drain(ss):
    q = ss.q
    if q < 1:
        return False
    lam_d = ss.lam * ss.d
    for j in ss.s2:
        job = ss.inst.by_id[j.job_id]
        if job.times[q - 1] <= lam_d:
            g = ss.counts[job.id][3]
            if g > q:
                raise ShelfInvariantError("shelf-2 drain does not fit idle machines", ss)
            col = ShelfColumn(g, [ColumnPart(j.job_id, units(ss, job.times[g - 1]))])
            ss.s2.remove(j)
            (ss.s1 if exact(ss, col.height) <= ss.d else ss.s0).append(col)
            return True
    return False


def _shelves(ss):
    def cols(cs):
        return [
            (c.width, [(p.job_id, p.height) for p in c.parts], c.split_of)
            for c in cs
        ]

    return cols(ss.s0), cols(ss.s1), [(j.job_id, j.width, j.height) for j in ss.s2]


def _outcome(transform, ss):
    ss = copy.deepcopy(ss, {id(ss.inst): ss.inst})
    try:
        transform(ss)
        error = None
    except Exception as exc:  # compared against the reference's
        error = (type(exc), str(exc))
    return error, _shelves(ss)


def _forced_partition(rng, inst, big, d):
    """A random class per big job among those it can meet, class 2 first."""
    assignment = {}
    for job_id in sorted(big):
        feasible = [
            c
            for c, h in ((1, d), (2, Fraction(4, 7) * d), (3, (LAMBDA_Q0 - 1) * d))
            if gamma(inst, job_id, h) is not None
        ]
        if not feasible:
            return None
        if 2 in feasible and rng.random() < 0.8:
            assignment[job_id] = 2
        else:
            assignment[job_id] = rng.choice(feasible)
    return assignment


def _hand_built_shelf(rng):
    """Arbitrary shelves, times not always monotone: reaches the raises."""
    m = rng.randint(2, 7)
    jobs = [
        job(i, *[Fraction(rng.randint(10, 160), 100) for _ in range(m)])
        for i in range(1, rng.randint(3, 9))
    ]
    inst = instance(m, *jobs)
    ss = ShelfSchedule(inst, D1, rng.choice(_STRETCHES))
    lanes = rng.choice((0, 0, 1, 2))
    free = m + rng.randint(0, 1)  # now and then one machine too many
    for k, j in enumerate(jobs):
        w = rng.randint(1, min(3, m)) if k >= lanes else 1
        where = rng.random()
        if where < 0.3 or w > free:
            ss.s2.append(S2Job(j.id, w, units(ss, j.times[w - 1])))
            continue
        free -= w
        parts = [ColumnPart(j.id, units(ss, j.times[w - 1]))]
        if rng.random() < 0.2:  # a height in (0.05, 0.4), rounded up onto the scale
            parts.append(ColumnPart(j.id + 100, -(-rng.randint(5, 40) * ss.scale // 100)))
        split = j.id if k < lanes else None  # a bare split lane
        col = ShelfColumn(w, parts, split)
        (ss.s0 if where > 0.8 and k >= lanes else ss.s1).append(col)
    return ss


class TestTransformationsMatchReference:
    def test_same_moves_as_the_restart_scan(self):
        # Solver and forced partitions built at all three stretches, then
        # hand-built shelves; each runs through both loops on its own copy.
        rng = random.Random(20261018)
        shelves = []
        while len(shelves) < 900:
            inst = random_instance(rng, rng.randint(2, 16), rng.randint(2, 12))
            d = sum(j.times[0] for j in inst.jobs) * Fraction(rng.randint(15, 60), 100)
            d = max(d, max(j.times[-1] for j in inst.jobs))
            big = big_ids(inst, d)
            if not big:
                continue
            items = items_for(inst, big, d)
            sol = None if isinstance(items, Reject) else solve_mckp(items, inst.m)
            solved = None if sol is None else dict(zip(items.ids, sol))
            forced = _forced_partition(rng, inst, big, d)
            for partition in (solved, forced):
                if partition is None:
                    continue
                for lam in _STRETCHES:
                    try:
                        shelves.append(build_three_shelf(inst, partition, d, lam))
                    except ShelfInvariantError:
                        pass  # over the build's 2m capacity
        shelves += [_hand_built_shelf(rng) for _ in range(600)]

        seen = collections.Counter()
        for ss in shelves:
            error, after = _outcome(_reference_transformations, ss)
            assert _outcome(apply_transformations, ss) == (error, after), ss.summary()
            before = _shelves(ss)
            # Shelf 0 only grows, and a new column of more than one part is a stack.
            stacks = [(parts, split) for _, parts, split in after[0][len(before[0]):]
                      if len(parts) > 1]
            stacked = {jid for parts, _ in stacks for jid, _ in parts}
            seen.update(
                raised=error is not None,
                moved=after != before,
                split=ss.split_job is not None,
                drained_then_stacked=bool(stacked & {j.job_id for j in ss.s2}),
                lane_stacked=any(split is not None for _, split in stacks),
            )
        assert seen["moved"] >= 450 and seen["raised"] >= 150
        assert seen["split"] >= 20 and seen["lane_stacked"] >= 25
        assert seen["drained_then_stacked"] >= 40


class TestMovesKeepTheirInputs:
    def test_columns_and_shelf2_jobs_are_never_changed(self):
        # The solver's partitions at the accepted guess (TestLayout's corpus)
        # built at all three stretches and hand-built shelves go through the
        # transformations and the repair; two fixtures whose large-q repair
        # narrows the shelf-2 job go through the repair alone.  Every column
        # and shelf-2 job that the moves are given keeps its fields: a move
        # that changes one builds a new one.
        rng = random.Random(98)
        shelves = []
        for _ in range(200):
            inst = random_instance(rng, rng.randint(2, 14), rng.randint(2, 12))
            d = solve(inst).accepted_d
            assignment = dp_assignment(inst, d)
            shelves += [build_three_shelf(inst, assignment, d, lam) for lam in _STRETCHES]
        shelves += [_hand_built_shelf(rng) for _ in range(300)]
        cases = [(ss, True) for ss in shelves]
        cases += [(_large_q_fixture(1)[1], False), (_split_large_q_fixture(4)[1], False)]

        seen = collections.Counter()
        for ss, transform in cases:
            given = {}  # id -> (object, its fields when it was handed over)

            def record():
                for obj in ss.s0 + ss.s1 + ss.s2:
                    given.setdefault(id(obj), (obj, dataclasses.astuple(obj)))

            record()
            wide = {c.parts[0].job_id: c.width for c in ss.s1 if c.width > 1}
            widths = {}  # shelf 2 as the repair is given it
            try:
                if transform:
                    apply_transformations(ss)
                    record()
                widths = {j.job_id: j.width for j in ss.s2}
                (repair_s2_large_q if ss.regime == 2 else repair_s2_small_q)(ss)
            except ShelfInvariantError:
                seen["raised"] += 1
            seen["shrunk"] += sum(c.width < wide.get(c.parts[0].job_id, 0) for c in ss.s0)
            seen["narrowed", ss.regime == 2] += sum(j.width < widths.get(j.job_id, 0) for j in ss.s2)
            for obj, fields in given.values():
                assert dataclasses.astuple(obj) == fields, ss.summary()
        assert seen["shrunk"] >= 20 and seen["raised"] >= 20
        assert seen["narrowed", False] >= 20 and seen["narrowed", True] == 2


def _compression_fixture():
    # 7 machines, d = 1, lam = 10/7.  Seven one-machine shelf-1 jobs of
    # height 0.73 and four two-machine shelf-2 jobs of height 0.22 give
    # m2 = 8 > 7 with q = 0 and total work 6.87 <= 7.
    jobs = [const_work_job(i, rat("0.73"), 7) for i in range(1, 8)]
    jobs += [const_work_job(i, rat("0.44"), 7) for i in range(8, 12)]
    inst = instance(7, *jobs)
    ss = ShelfSchedule(inst, D1, LAMBDA_Q0)
    for i in range(1, 8):
        ss.s1.append(ShelfColumn(1, [ColumnPart(i, units(ss, "0.73"))]))
    for i in range(8, 12):
        ss.s2.append(S2Job(i, 2, units(ss, "0.22")))
    return inst, ss


class TestRepairSmallQ:
    def test_no_shelf2_is_descending_shelf1(self):
        inst = instance(2, job(1, rat("0.9"), rat("0.5")), job(2, rat("0.8"), rat("0.45")))
        ss = ShelfSchedule(inst, D1, LAMBDA_Q0)
        ss.s1.append(ShelfColumn(1, [ColumnPart(1, units(ss, "0.9"))]))
        ss.s1.append(ShelfColumn(1, [ColumnPart(2, units(ss, "0.8"))]))
        sched = placed(repair_s2_small_q(ss), inst)
        assert sched.makespan == rat("0.9")
        by_job = {p.job_id: p for p in sched.placements}
        assert by_job[1].first_machine == 0 and by_job[2].first_machine == 1

    def test_one_compression_step_then_placement(self):
        inst, ss = _compression_fixture()
        sched = placed(repair_s2_small_q(ss), inst)
        widths = sorted(j.width for j in ss.s2)
        assert widths == [1, 2, 2, 2]          # exactly one job lost one machine
        assert ss.s2[0].job_id == 8            # smallest height, lowest id compressed
        assert exact(ss, ss.s2[0].height) == rat("0.44")  # height recomputed from its times
        by_job = {p.job_id: p for p in sched.placements}
        assert by_job[8].first_machine == 6    # ascending: tallest shelf-2 job rightmost
        assert by_job[8].end == LAMBDA_Q0      # hangs at lam*d
        report = validate_schedule(inst, sched)
        assert report.feasible and report.contiguous
        assert sched.makespan <= LAMBDA_Q0

    def test_rejects_wrong_regime(self):
        inst = instance(6, job(1, *([rat("0.9")] + [rat("0.9")] * 5)))
        ss = ShelfSchedule(inst, D1, LAMBDA_Q0)
        ss.s1.append(ShelfColumn(1, [ColumnPart(1, units(ss, "0.9"))]))
        assert ss.q == 5  # way above m'/6
        with pytest.raises(ShelfInvariantError):
            repair_s2_small_q(ss)


def _large_q_fixture(j0_work):
    jobs = [
        const_work_job(1, rat("1.2"), 5),
        const_work_job(2, rat("0.9"), 5),
        const_work_job(3, rat("0.8"), 5),
        const_work_job(4, j0_work, 5),
    ]
    inst = instance(5, *jobs)
    ss = ShelfSchedule(inst, D1, LAMBDA_STAR_UPPER)
    ss.s0.append(ShelfColumn(1, [ColumnPart(1, units(ss, "1.2"))]))
    ss.s1.append(ShelfColumn(1, [ColumnPart(2, units(ss, "0.9"))]))
    ss.s1.append(ShelfColumn(1, [ColumnPart(3, units(ss, "0.8"))]))
    ss.s2.append(S2Job(4, 5, units(ss, rat(j0_work) / 5)))
    return inst, ss


class TestRepairLargeQ:
    def test_no_shelf2_is_descending_shelf1(self):
        inst = instance(4, job(1, rat("0.9"), *[rat("0.5")] * 3))
        ss = ShelfSchedule(inst, D1, LAMBDA_STAR_UPPER)
        ss.s1.append(ShelfColumn(1, [ColumnPart(1, units(ss, "0.9"))]))
        assert ss.q == 3
        sched = placed(repair_s2_large_q(ss), inst)
        assert sched.makespan == rat("0.9")

    def test_widest_suffix_wins(self):
        # The first i whose boundary load leaves room is i = 0: work monotony
        # makes t(j0, 4) <= t(j0, 2) = 0.5 <= lam - 0.9, so the single
        # shelf-2 job ends up on all four shared machines.
        inst, ss = _large_q_fixture(1)
        assert ss.q == 2
        sched = placed(repair_s2_large_q(ss), inst)
        by_job = {p.job_id: p for p in sched.placements}
        p = by_job[4]
        assert (p.first_machine, p.width) == (1, 4)
        assert p.start == LAMBDA_STAR_UPPER - Fraction(1, 4)
        assert p.end == LAMBDA_STAR_UPPER
        report = validate_schedule(inst, sched)
        assert report.feasible and report.contiguous

    def test_work_violating_input_raises(self):
        # Shelf-1 loads of d plus a 2.25-work shelf-2 job overshoot the work
        # budget the repair relies on; no suffix admits the job: loud failure.
        jobs = [
            const_work_job(1, rat("1.2"), 5),
            const_work_job(2, rat(2), 5),
            const_work_job(3, rat(2), 5),
            const_work_job(4, rat("2.25"), 5),
        ]
        inst2 = instance(5, *jobs)
        ss2 = ShelfSchedule(inst2, D1, LAMBDA_STAR_UPPER)
        ss2.s0.append(ShelfColumn(1, [ColumnPart(1, units(ss2, "1.2"))]))
        ss2.s1.append(ShelfColumn(1, [ColumnPart(2, units(ss2, 1))]))
        ss2.s1.append(ShelfColumn(1, [ColumnPart(3, units(ss2, 1))]))
        ss2.s2.append(S2Job(4, 5, units(ss2, "0.45")))
        with pytest.raises(ShelfInvariantError):
            repair_s2_large_q(ss2)

    def test_two_shelf2_jobs_rejected(self):
        inst = instance(
            5,
            const_work_job(1, rat(2), 5),
            const_work_job(2, rat(2), 5),
            const_work_job(3, rat("0.9"), 5),
        )
        ss = ShelfSchedule(inst, D1, LAMBDA_STAR_UPPER)
        ss.s1.append(ShelfColumn(1, [ColumnPart(3, units(ss, "0.9"))]))
        ss.s2.append(S2Job(1, 5, units(ss, "0.4")))
        ss.s2.append(S2Job(2, 5, units(ss, "0.4")))
        with pytest.raises(ShelfInvariantError):
            repair_s2_large_q(ss)


def _split_large_q_fixture(j0_work):
    # Shelf 0 holds the split stack (two-machine job 1 with job 2 on top of
    # one lane); shelf 1 holds the bare lane plus a tall one-machine job;
    # six idle machines put the repair in the many-idle regime, and the
    # shelf-2 job is wider than the shared region so the suffix search runs.
    jobs = [
        const_work_job(1, rat("1.6"), 9),   # t(1,2) = 0.8: the split job
        const_work_job(2, rat("0.5"), 9),   # rides on top of one lane
        const_work_job(3, rat("0.95"), 9),  # tall shelf-1 column
        const_work_job(4, j0_work, 9),      # the single shelf-2 job
    ]
    inst = instance(9, *jobs)
    ss = ShelfSchedule(inst, D1, LAMBDA_STAR_UPPER, split_job=1)
    ss.s0.append(
        ShelfColumn(
            1,
            [ColumnPart(1, units(ss, "0.8")), ColumnPart(2, units(ss, "0.5"))],
            split_of=1,
        )
    )
    ss.s1.append(ShelfColumn(1, [ColumnPart(1, units(ss, "0.8"))], split_of=1))
    ss.s1.append(ShelfColumn(1, [ColumnPart(3, units(ss, "0.95"))]))
    ss.s2.append(S2Job(4, 9, units(ss, rat(j0_work) / 9)))
    return inst, ss


class TestSplitInLargeQRepair:
    def test_split_lane_under_the_wide_job(self):
        # Work 4: t(4,8) = 0.5 fits over the tallest column, so the widest
        # suffix wins and the bare lane sits under the shelf-2 job, still
        # adjacent to its shelf-0 twin.
        inst, ss = _split_large_q_fixture(4)
        sched = placed(repair_s2_large_q(ss), inst)
        by_job = {p.job_id: p for p in sched.placements}
        assert (by_job[4].first_machine, by_job[4].width) == (1, 8)
        assert by_job[1].width == 2 and by_job[1].first_machine == 0
        assert by_job[2].first_machine in by_job[1].machines
        report = validate_schedule(inst, sched)
        assert report.feasible and report.contiguous

    def test_split_lane_left_of_the_wide_job(self):
        # The suffix boundary lands between the bare lane (0.8) and the two
        # 0.75 columns: t(j0,10) = 0.67 does not clear 1.45932 - 0.8 but
        # t(j0,9) = 0.7 clears 1.45932 - 0.75, so the lane stays left of the
        # wide job and is pulled to the shelf-0 edge.
        j0_times = [rat(x) for x in
                    ("6.3", "3.15", "2.1", "1.575", "1.26", "1.05", "0.9",
                     "0.7875", "0.7", "0.67", "0.62", "0.58", "0.54")]
        jobs = [
            const_work_job(1, rat("1.6"), 13),
            const_work_job(2, rat("0.5"), 13),
            const_work_job(3, rat("0.95"), 13),
            const_work_job(4, rat("0.95"), 13),
            const_work_job(5, rat("0.75"), 13),
            const_work_job(6, rat("0.75"), 13),
            job(7, *j0_times),
        ]
        inst = instance(13, *jobs)
        ss = ShelfSchedule(inst, D1, LAMBDA_STAR_UPPER, split_job=1)
        ss.s0.append(
            ShelfColumn(
                1,
                [ColumnPart(1, units(ss, "0.8")), ColumnPart(2, units(ss, "0.5"))],
                split_of=1,
            )
        )
        ss.s1.append(ShelfColumn(1, [ColumnPart(1, units(ss, "0.8"))], split_of=1))
        for jid, h in ((3, "0.95"), (4, "0.95"), (5, "0.75"), (6, "0.75")):
            ss.s1.append(ShelfColumn(1, [ColumnPart(jid, units(ss, h))]))
        ss.s2.append(S2Job(7, 13, units(ss, "0.54")))
        assert ss.q == 7 and 6 * ss.q > 13 - ss.m0
        sched = placed(repair_s2_large_q(ss), inst)
        by_job = {p.job_id: p for p in sched.placements}
        assert (by_job[7].first_machine, by_job[7].width) == (4, 9)
        assert by_job[7].duration == rat("0.7")
        assert by_job[1].width == 2 and by_job[1].first_machine == 0
        assert by_job[2].first_machine in by_job[1].machines
        report = validate_schedule(inst, sched)
        assert report.feasible and report.contiguous

    def test_split_lane_under_the_job_with_a_straddling_column(self):
        # Shelf 1 descending: job 3 (0.95) on relative machine 0, the
        # two-machine job 4 (0.9) on 1-2, the bare lane (0.8) on 3, five idle.
        # Job 5 fails the suffixes at 0 and 1 (t = 0.6 on 9 and 8 machines)
        # and fits the one at 2 (t = 0.55 on 7), so job 4 straddles the
        # suffix start.  Its times rise from 7 to 8 machines: with times
        # non-increasing in k, equal loads on both sides of the start would
        # make the suffix at 1 fit first.  The lane lies under the job, so
        # the runs are mirrored: the job hangs from the first shared machine.
        j5_times = [Fraction(385, 100) / k for k in range(1, 8)] + [rat("0.6")] * 3
        jobs = [
            const_work_job(1, rat("1.6"), 10),
            const_work_job(2, rat("0.5"), 10),
            const_work_job(3, rat("0.95"), 10),
            const_work_job(4, rat("1.8"), 10),
            job(5, *j5_times),
        ]
        inst = instance(10, *jobs)
        ss = ShelfSchedule(inst, D1, LAMBDA_STAR_UPPER, split_job=1)
        ss.s0.append(
            ShelfColumn(
                1,
                [ColumnPart(1, units(ss, "0.8")), ColumnPart(2, units(ss, "0.5"))],
                split_of=1,
            )
        )
        ss.s1.append(ShelfColumn(1, [ColumnPart(1, units(ss, "0.8"))], split_of=1))
        ss.s1.append(ShelfColumn(2, [ColumnPart(4, units(ss, "0.9"))]))
        ss.s1.append(ShelfColumn(1, [ColumnPart(3, units(ss, "0.95"))]))
        ss.s2.append(S2Job(5, 10, units(ss, "0.6")))
        assert ss.q == 5 and ss.regime == 2
        layout = repair_s2_large_q(ss)
        sched = placed(layout, inst)
        by_job = {p.job_id: p for p in sched.placements}
        assert (by_job[5].first_machine, by_job[5].width) == (1, 7)
        assert by_job[5].duration == rat("0.55")
        assert (by_job[4].first_machine, by_job[4].width) == (2, 2)
        assert by_job[3].first_machine == 9
        assert (by_job[1].first_machine, by_job[1].width) == (0, 2)
        assert by_job[2].first_machine in by_job[1].machines
        _assert_gaps_are_exact(layout, inst.m, LAMBDA_STAR_UPPER * D1)
        report = validate_schedule(inst, sched)
        assert report.feasible and report.contiguous

        # A second covered column, job 6 (0.85) on relative machine 3,
        # between the straddler and the lane: job 5 fails the suffixes at 0
        # and 1 (t = 0.6 on 10 and 9 machines) and fits the one at 2 (t =
        # 0.55 on 8).  The covered columns keep their descending order, the
        # straddler first, and the lane moves next to its twin: lane, job 4,
        # job 6, then the five idle machines and job 3.
        j5_times = [Fraction(44, 10) / k for k in range(1, 9)] + [rat("0.6")] * 3
        jobs = [
            const_work_job(1, rat("1.6"), 11),
            const_work_job(2, rat("0.5"), 11),
            const_work_job(3, rat("0.95"), 11),
            const_work_job(4, rat("1.8"), 11),
            job(5, *j5_times),
            const_work_job(6, rat("0.85"), 11),
        ]
        inst = instance(11, *jobs)
        ss = ShelfSchedule(inst, D1, LAMBDA_STAR_UPPER, split_job=1)
        ss.s0.append(
            ShelfColumn(
                1,
                [ColumnPart(1, units(ss, "0.8")), ColumnPart(2, units(ss, "0.5"))],
                split_of=1,
            )
        )
        ss.s1.append(ShelfColumn(1, [ColumnPart(1, units(ss, "0.8"))], split_of=1))
        ss.s1.append(ShelfColumn(2, [ColumnPart(4, units(ss, "0.9"))]))
        ss.s1.append(ShelfColumn(1, [ColumnPart(6, units(ss, "0.85"))]))
        ss.s1.append(ShelfColumn(1, [ColumnPart(3, units(ss, "0.95"))]))
        ss.s2.append(S2Job(5, 11, units(ss, "0.6")))
        assert ss.q == 5 and ss.regime == 2
        layout = repair_s2_large_q(ss)
        sched = placed(layout, inst)
        by_job = {p.job_id: p for p in sched.placements}
        assert (by_job[5].first_machine, by_job[5].width) == (1, 8)
        assert by_job[5].duration == rat("0.55")
        assert (by_job[4].first_machine, by_job[4].width) == (2, 2)
        assert by_job[6].first_machine == 4 and by_job[3].first_machine == 10
        assert (by_job[1].first_machine, by_job[1].width) == (0, 2)
        assert by_job[2].first_machine in by_job[1].machines
        _assert_gaps_are_exact(layout, inst.m, LAMBDA_STAR_UPPER * D1)
        report = validate_schedule(inst, sched)
        assert report.feasible and report.contiguous


class TestSplitContiguity:
    def test_split_job_spans_adjacent_machines(self):
        inst = instance(
            4, const_work_job(1, rat("1.5"), 4), const_work_job(2, rat("0.5"), 4)
        )
        ss = build_three_shelf(inst, {1: 2, 2: 2}, D1, LAMBDA_Q0)
        apply_transformations(ss)
        repair = repair_s2_small_q if 6 * ss.q <= 4 - ss.m0 else repair_s2_large_q
        sched = placed(repair(ss), inst)
        by_job = {p.job_id: p for p in sched.placements}
        assert by_job[1].width == 2 and by_job[1].start == 0
        assert by_job[2].width == 1
        # the partner starts exactly when the two-machine job ends, on one of
        # its machines
        assert by_job[2].start == by_job[1].duration
        assert by_job[2].first_machine in by_job[1].machines
        report = validate_schedule(inst, sched)
        assert report.feasible and report.contiguous


def _assert_gaps_are_exact(layout, m, lam_d):
    """Each machine's recorded gap [bottom, top) is its whole idle time.

    Nothing runs inside the gap, bottom is 0 or where a placement ends, top
    is lam*d or where a placement starts, and the machine is busy for
    exactly the time outside the gap.  All of them over the layout's scale.
    """
    lam_d = lam_d * layout.scale
    assert lam_d.denominator == 1
    per_machine = [[] for _ in range(m)]
    for _, first, width, start, dur in layout.placed:
        for mach in range(first, first + width):
            per_machine[mach].append((start, start + dur))
    for mach, ivs in enumerate(per_machine):
        lo, hi = layout.bottom[mach], layout.top[mach]
        assert 0 <= lo <= hi <= lam_d, mach
        assert all(e <= lo or s >= hi for s, e in ivs), mach
        assert lo == max((e for _, e in ivs if e <= lo), default=0), mach
        assert hi == min((s for s, _ in ivs if s >= hi), default=lam_d), mach
        assert sum(e - s for s, e in ivs) == lo + (lam_d - hi), mach


class TestForcedPartitionFuzz:
    def test_class2_heavy_partitions_repair_cleanly(self):
        # Push every job that can meet the 4/7 deadline into class 2 so the
        # pairing, leftover, and split code runs constantly; repair whenever
        # the work budget the guarantees assume actually holds.
        rng = random.Random(97)
        splits = repaired = 0
        for trial in range(400):
            inst = random_instance(rng, rng.randint(2, 14), rng.randint(2, 12))
            cls_d = sorted(j.times[0] for j in inst.jobs)[len(inst.jobs) // 2]
            d = cls_d * Fraction(7, 3) + Fraction(rng.randint(0, 100), 100)
            big, (_, ws) = big_ids(inst, d), classify_jobs(inst, d)
            if not big:
                continue
            assignment = {}
            for job_id in sorted(big):
                if gamma(inst, job_id, Fraction(4, 7) * d) is not None:
                    assignment[job_id] = 2
                elif gamma(inst, job_id, d) is not None:
                    assignment[job_id] = 1
                else:
                    assignment[job_id] = None
            if any(v is None for v in assignment.values()):
                continue
            # The build's precondition: the partition fits the knapsack's 2m
            # half-machine capacity, as every solve_mckp pick does.
            # Past it shelves 0 and 1 may need more than m machines.
            items = items_for(inst, big, d)
            size2 = sum(row[assignment[job_id] - 1][1]
                        for job_id, row in zip(items.ids, options(items)))
            if size2 > 2 * inst.m:
                continue
            ss = build_three_shelf(inst, assignment, d, LAMBDA_Q0)
            if ss.split_job is not None:
                splits += 1
            apply_transformations(ss)
            if total_work(ss) > inst.m * d - ws:
                continue  # forced partition broke the budget: repairs not owed
            m_eff = inst.m - ss.m0
            if 6 * ss.q <= m_eff:
                layout = repair_s2_small_q(ss)
            else:
                ss = build_three_shelf(inst, assignment, d, LAMBDA_STAR_UPPER)
                apply_transformations(ss)
                m_eff = inst.m - ss.m0
                if total_work(ss) > inst.m * d - ws:
                    continue
                if 6 * ss.q <= m_eff:
                    layout = repair_s2_small_q(ss)
                else:
                    layout = repair_s2_large_q(ss)
            repaired += 1
            _assert_gaps_are_exact(layout, inst.m, ss.lam * d)
            sched = placed(layout, inst)
            ids = {p.job_id for p in sched.placements}
            assert ids == set(assignment), trial
            report = validate_schedule(
                instance(inst.m, *[inst.by_id[j] for j in sorted(ids)]), sched
            )
            assert report.feasible and report.contiguous, (trial, report.violations)
        assert repaired >= 100
        assert splits >= 20  # the split machinery really ran


class TestLayout:
    """layout_contiguous's record of each machine's gap, and its check."""

    def test_gaps_of_solver_layouts(self):
        # The forced partitions above hold no class-3 jobs; solver partitions
        # at the accepted guess leave some on shelf 2.
        rng = random.Random(98)
        hung = 0
        for _ in range(200):
            inst = random_instance(rng, rng.randint(2, 14), rng.randint(2, 12))
            d = solve(inst).accepted_d
            layout, lam = shelf_layout(inst, dp_assignment(inst, d), d)
            _assert_gaps_are_exact(layout, inst.m, lam * d)
            hung += any(t < lam * d * layout.scale for t in layout.top)
        assert hung >= 15

    @staticmethod
    def _raises(ss, runs, plan):
        with pytest.raises(ShelfInvariantError) as info:
            layout_contiguous(ss, runs, plan)
        assert info.value.shelf is ss

    def test_shelf2_job_hanging_into_a_column(self):
        inst = instance(2, job(1, rat("0.9"), rat("0.5")), job(2, rat("0.6"), rat("0.3")))
        ss = ShelfSchedule(inst, D1, LAMBDA_Q0)
        ss.s1.append(ShelfColumn(1, [ColumnPart(1, units(ss, "0.9"))]))
        ss.s2.append(S2Job(2, 1, units(ss, "0.6")))  # starts at 10/7 - 0.6 < 0.9
        self._raises(ss, ss.s1, [(ss.s2[0], 0)])

    def test_two_shelf2_jobs_on_one_machine(self):
        inst = instance(3, *(const_work_job(i, rat("0.6"), 3) for i in (1, 2)))
        ss = ShelfSchedule(inst, D1, LAMBDA_Q0)
        ss.s2 += [S2Job(1, 2, units(ss, "0.3")), S2Job(2, 2, units(ss, "0.3"))]
        self._raises(ss, [], [(ss.s2[0], 0), (ss.s2[1], 1)])

    def test_column_taller_than_lam_d(self):
        inst = instance(2, job(1, rat("1.5"), rat("0.75")))
        ss = ShelfSchedule(inst, D1, LAMBDA_Q0)
        ss.s0.append(ShelfColumn(1, [ColumnPart(1, units(ss, "1.5"))]))
        self._raises(ss, [], [])

    def test_shelf2_job_starting_before_zero(self):
        inst = instance(2, job(1, rat(3), rat("1.5")))
        ss = ShelfSchedule(inst, D1, LAMBDA_Q0)
        ss.s2.append(S2Job(1, 2, units(ss, "1.5")))
        self._raises(ss, [], [(ss.s2[0], 0)])


def _empty_layout(inst, cap):
    scale = math.lcm(inst.grid[0], cap.denominator)
    return Layout(scale, [], [0] * inst.m, [cap.numerator * (scale // cap.denominator)] * inst.m)


class TestAddSmallJobs:
    def test_no_smalls_is_identity(self):
        inst = instance(2, job(1, 3, rat("1.6")))
        layout = _empty_layout(inst, rat(5) * LAMBDA_Q0)
        sched = add_small_jobs(layout, inst, [])
        assert sched.ints is not None and sched.placements == () and sched.makespan == 0

    def test_greedy_on_empty_schedule(self):
        inst = instance(
            2, job(1, 3, rat("1.6")), job(2, 3, rat("1.6")), job(3, 3, rat("1.6"))
        )
        sched = add_small_jobs(_empty_layout(inst, rat("4.9") * LAMBDA_Q0), inst, [1, 2, 3])
        by_job = {p.job_id: p for p in sched.placements}
        assert by_job[1].first_machine == 0       # tie -> lowest index
        assert by_job[2].first_machine == 1
        assert by_job[3].first_machine == 0       # least loaded after the tie
        assert by_job[3].start == 3
        assert sched.makespan == 6

    def test_overflow_raises(self):
        inst = instance(2, job(1, 5, 3), job(2, 5, 3), job(3, 5, 3))
        with pytest.raises(ShelfInvariantError):
            add_small_jobs(_empty_layout(inst, rat("4.9") * LAMBDA_Q0), inst, [1, 2, 3])


def _shelves_on(m, *jobs, lam=LAMBDA_Q0):
    return ShelfSchedule(instance(m, *jobs), D1, lam)


def _split_state(lane1_height):
    """m = 2, split job 1 (height 0.6 per lane) with job 2 on lane 0 in
    shelf 0; the bare lane, of the given height, is returned as a run."""
    ss = _shelves_on(2, job(1, rat("1.2"), rat("0.6")), job(2, rat("0.5"), rat("0.5")))
    lane = units(ss, "0.6")
    ss.s0.append(ShelfColumn(1, [ColumnPart(1, lane), ColumnPart(2, units(ss, "0.5"))], 1))
    ss.split_job = 1
    return ss, ShelfColumn(1, [ColumnPart(1, units(ss, lane1_height))], 1)


def _lam_out_of_range():
    build_three_shelf(instance(2, job(1, 1, rat("0.5"))), {1: 1}, D1, Fraction(3, 2))


def _class_out_of_range():
    build_three_shelf(instance(2, job(1, 1, rat("0.5"))), {1: 4}, D1, LAMBDA_Q0)


def _class1_misses_d():
    build_three_shelf(instance(2, job(1, 3, 2)), {1: 1}, D1, LAMBDA_Q0)


def _small_q_shelf2_too_wide():
    ss = _shelves_on(1, job(1, rat("0.9")), job(2, rat("0.9")))
    ss.s1.append(ShelfColumn(1, [ColumnPart(1, units(ss, "0.9"))]))
    ss.s2.append(S2Job(2, 3, units(ss, "0.3")))
    repair_s2_small_q(ss)


def _small_q_flattest_on_one_machine():
    ss = _shelves_on(2, job(1, rat("0.9"), rat("0.9")), job(2, rat("0.2"), rat("0.2")),
                     job(3, rat("0.6"), rat("0.3")))
    ss.s1.append(ShelfColumn(2, [ColumnPart(1, units(ss, "0.9"))]))
    ss.s2 += [S2Job(2, 1, units(ss, "0.2")), S2Job(3, 2, units(ss, "0.3"))]
    repair_s2_small_q(ss)


def _large_q_at_small_q():
    ss = _shelves_on(1, job(1, rat("0.9")), lam=LAMBDA_STAR_UPPER)
    ss.s1.append(ShelfColumn(1, [ColumnPart(1, units(ss, "0.9"))]))
    repair_s2_large_q(ss)


def _right_aligned_too_wide():
    ss = _shelves_on(1, job(1, rat("0.3")))
    ss.s2.append(S2Job(1, 2, units(ss, "0.3")))
    _place_right_aligned(ss)


def _runs_past_m():
    ss = _shelves_on(1, job(1, rat("0.9")))
    layout_contiguous(ss, [ShelfColumn(2, [])], [])


def _one_split_lane():
    ss, _ = _split_state("0.6")
    layout_contiguous(ss, [], [])


def _split_lanes_not_twins():
    ss, lane1 = _split_state("0.5")
    layout_contiguous(ss, [lane1], [])


def _stray_split_lane():
    ss, lane1 = _split_state("0.6")
    ss.s0.clear()
    ss.split_job = None
    layout_contiguous(ss, [lane1], [])


def _shelf2_plan_over_shelf0():
    ss = _shelves_on(2, job(1, rat("1.2"), rat("0.6")), job(2, rat("0.3"), rat("0.3")))
    ss.s0.append(ShelfColumn(1, [ColumnPart(1, units(ss, "1.2"))]))
    ss.s2.append(S2Job(2, 1, units(ss, "0.3")))
    layout_contiguous(ss, [], [(ss.s2[0], 0)])


_GUARDS = [
    (_lam_out_of_range, ValueError, "lam must be in [10/7, 3/2), got 3/2"),
    (_class_out_of_range, ValueError, "job 1: class must be 1..3, got 4"),
    (_class1_misses_d, ShelfInvariantError, "class-1 job 1 cannot meet d"),
    (_small_q_shelf2_too_wide, ShelfInvariantError, "shelf 2 uses 3 >= 3*m' = 3 machines"),
    (_small_q_flattest_on_one_machine, ShelfInvariantError,
     "flattest shelf-2 job is already one machine"),
    (_large_q_at_small_q, ShelfInvariantError, "large-q repair called with q <= m'/6"),
    (_right_aligned_too_wide, ShelfInvariantError, "shelf 2 still too wide for placement"),
    (_runs_past_m, ShelfInvariantError, "layout overruns the machine count"),
    (_one_split_lane, ShelfInvariantError, "expected exactly two split lanes"),
    (_split_lanes_not_twins, ShelfInvariantError, "split lanes are not adjacent twins"),
    (_stray_split_lane, ShelfInvariantError, "stray split lane"),
    (_shelf2_plan_over_shelf0, ShelfInvariantError,
     "shelf-2 placement outside the shared region"),
]


@pytest.mark.parametrize("call, error, message", _GUARDS, ids=[g[0].__name__[1:] for g in _GUARDS])
def test_guard_raises(call, error, message):
    # Each guard fires on a hand-built state with its own type and message,
    # and an invariant error carries the shelves it found.
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
    if error is ShelfInvariantError:
        assert info.value.shelf is not None
        assert f"{message}\nshelf schedule: " in info.value.diagnostic()

"""The benchmark's tracer (benchmark/spans.py) still sees every traced call.

The tracer wraps names it looks up on the package's modules; a refactor that
renames one, or stops calling it through the module, would make its
``--trace 1`` columns read zero.  This test only reads benchmark/spans.py.
"""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

from moldsched import cli, driver, gen, mckp
from moldsched.gen import GenConfig

SPANS_PY = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_counted(tmp_path):
    spans = _load_spans()
    ipath, spath = tmp_path / "i.json", tmp_path / "s.json"
    tracer = spans.Tracer()
    with tracer.patched():
        # n=6, m=4: the shelf schedule at the accepted guess ends in the
        # many-idle-machines repair for seed 2, in the few-idle-machines one
        # for seed 1.  Solves return the list schedule, so the shelves are
        # driven through the per-guess contract.  Their guesses are all
        # settled by the knapsack bounds; the bounds leave guesses of the
        # n=20, m=50, seed 5 solve at eps 1/1000 open, so the DP runs there.
        driver.solve(gen.generate(GenConfig(n=20, m=50, seed=5)), Fraction(1, 1000))
        inst2 = gen.generate(GenConfig(n=6, m=4, seed=2))
        result = driver.solve(inst2)
        shelf_sched = driver.try_guess(inst2, result.accepted_d)
        inst = gen.generate(GenConfig(n=6, m=4, seed=1))
        ipath.write_text(json.dumps(cli.instance_to_obj(inst)))
        assert cli.main(["solve", str(ipath), "--out", str(spath)]) == 0
        _, _, accepted_d = cli.schedule_from_obj(json.loads(spath.read_text()))
        driver.try_guess(inst, accepted_d)
    assert result.schedule.placements and shelf_sched.placements and spath.is_file()
    names = {name for _, _, name in spans.SPANNED + spans.COUNTED}
    # Canonical counts are array searches (model.gammas); no solver path
    # calls the scalar model.gamma, so its counter alone reads zero.
    assert {name for name in names if tracer.counts[name] == 0} == {"model.gamma_calls"}
    assert tracer.counts["shelf.repair_s2_small_q"] == 1
    assert tracer.counts["shelf.repair_s2_large_q"] == 1


def test_knapsack_counters_count_each_dp(monkeypatch):
    # mckp.items and mckp.dp_cells read len() of the DP's items: per DP they
    # must be the number of big jobs at that guess, and that times 2m+1.
    # The knapsack bounds leave three guesses of this solve open.
    spans = _load_spans()
    tracer = spans.Tracer()
    inst = gen.generate(GenConfig(n=40, m=100, seed=1))
    big_of, per_dp = {}, []
    with tracer.patched(), monkeypatch.context() as mp:
        build, dp = mckp.build_items, mckp.solve_mckp

        def recording_build(inst, search, small, d):
            items = build(inst, search, small, d)
            big_of[id(items)] = (items, int((~small).sum()))
            return items

        def counting_dp(items, m):
            before = tracer.counts["mckp.items"], tracer.counts["mckp.dp_cells"]
            out = dp(items, m)
            after = tracer.counts["mckp.items"], tracer.counts["mckp.dp_cells"]
            big = big_of[id(items)][1]
            per_dp.append((after[0] - before[0], after[1] - before[1], big, big * (2 * m + 1)))
            return out

        mp.setattr(mckp, "build_items", recording_build)
        mp.setattr(mckp, "solve_mckp", counting_dp)
        driver.solve(inst, Fraction(1, 1000))
    assert per_dp and all(big > 0 for _, _, big, _ in per_dp)
    assert len(per_dp) == 3
    assert [(items, cells) for items, cells, _, _ in per_dp] == [
        (big, cells) for _, _, big, cells in per_dp]

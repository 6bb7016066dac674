"""The benchmark's tracer (benchmark/spans.py) still sees every traced call.

The tracer wraps names it looks up on the package's modules; a refactor that
renames one, or stops calling it through the module, would make its
``--trace 1`` columns read zero.  This test only reads benchmark/spans.py.
"""

import importlib.util
import json
from pathlib import Path

from moldsched import cli, driver, gen
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
        # driven through the per-guess contract.
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
    assert {name for name in names if tracer.counts[name] == 0} == set()
    assert tracer.counts["shelf.repair_s2_small_q"] == 1
    assert tracer.counts["shelf.repair_s2_large_q"] == 1

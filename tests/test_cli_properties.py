"""Properties of the CLI's exit-code contract: 0 ok, 1 infeasible schedule,
2 invalid input, 3 invariant violation, and never an exception.

Every file is drawn, written under tmp_path and run through ``cli.main`` in
process.  The runs are derandomized and keep no example database, so the
suite stays deterministic; with Hypothesis's home in a temporary directory,
it leaves no ``.hypothesis/`` directory behind.
"""

import json
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from moldsched.cli import main

# Hypothesis caches what it reads (unicode tables, the code's constants) in
# its home directory, ./.hypothesis unless set: here, one removed at exit.
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)

SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

# Digit strings: short ones, and ones around the int-string limit of 4300.
DIGITS = st.one_of(
    st.integers(0, 10**12).map(str),
    st.integers(4295, 4305).map(lambda k: "1" + "0" * (k - 1)),
)
EXPONENTS = st.one_of(st.integers(-6, 6), st.integers(-10**12, 10**12),
                      st.sampled_from([4299, 4300, 4301, -4300, -4301]))
NUMBER_TEXT = st.one_of(
    DIGITS,
    st.builds("{}/{}".format, DIGITS, DIGITS),
    st.builds("{}.{}e{}".format, DIGITS, DIGITS, EXPONENTS),
    st.builds("{}E{}".format, DIGITS, EXPONENTS),
    st.builds("{}{}{}".format, st.sampled_from(["-", "+", " ", ""]), DIGITS,
              st.sampled_from(["", " ", "/0", ".5", "_0", "e"])),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**20), 10**20), st.floats(),
    NUMBER_TEXT, st.text(max_size=6),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12,
)
# The shapes of the files, with any value in each field.
SMALL_M = st.integers(-1, 16)
TIMES = st.lists(st.one_of(NUMBER_TEXT, SCALARS), max_size=16)
SHAPED = st.fixed_dictionaries({
    "m": st.one_of(SMALL_M, SCALARS),
    "jobs": st.one_of(st.lists(st.fixed_dictionaries(
        {"id": st.one_of(st.integers(0, 9), SCALARS), "times": st.one_of(TIMES, VALUES)}
    ), max_size=8), VALUES),
})


@st.composite
def const_work_files(draw):
    """Instance files of constant-work jobs, t(j,k) = w/k, valid unless w
    passes the 4300-digit limit; plain, or after a sign or a space, read by rat."""
    m = draw(st.integers(1, 16))
    jobs = []
    for i in range(draw(st.integers(0, 8))):
        w, pad = draw(DIGITS), draw(st.sampled_from(["", "+", " "]))
        jobs.append({"id": i, "times": [f"{pad}1{w}/{k}" for k in range(1, m + 1)]})
    return {"m": m, "jobs": jobs}


INSTANCES = st.one_of(VALUES, SHAPED, const_work_files())
FIELD = st.one_of(NUMBER_TEXT, SCALARS)
PLACEMENT = st.fixed_dictionaries({
    "job": st.one_of(st.integers(0, 3), SCALARS),
    "first_machine": st.one_of(st.integers(-1, 4), SCALARS),
    "width": st.one_of(st.integers(-1, 4), SCALARS),
    "start": FIELD,
    "duration": FIELD,
})
SCHEDULES = st.one_of(
    VALUES,
    st.fixed_dictionaries({
        "makespan": FIELD, "lambda": FIELD, "accepted_d": FIELD,
        "placements": st.one_of(st.lists(PLACEMENT, max_size=8), VALUES),
    }),
)
# A valid instance for the schedules: m = 3, times monotone in both senses.
INSTANCE = {"m": 3, "jobs": [
    {"id": 1, "times": ["6", "3", "2"]},
    {"id": 2, "times": ["1/2", "1/2", "1/2"]},
    {"id": 3, "times": ["4", "5/2", "2"]},
]}


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@SETTINGS
@given(obj=INSTANCES)
def test_any_instance_file_solves_or_exits_2(tmp_path, obj):
    assert main(["solve", _write(tmp_path / "i.json", obj)]) in (0, 2)


@SETTINGS
@given(obj=SCHEDULES)
def test_any_schedule_file_verifies_or_exits_2(tmp_path, obj):
    ipath = _write(tmp_path / "i.json", INSTANCE)
    assert main(["verify", ipath, _write(tmp_path / "s.json", obj)]) in (0, 1, 2)


@settings(SETTINGS, max_examples=25)
@given(n=st.integers(0, 12), m=st.integers(1, 8), seed=st.integers(0, 2**31))
def test_generated_instances_solve_to_contiguous_schedules(tmp_path, n, m, seed):
    ipath, spath = str(tmp_path / "i.json"), str(tmp_path / "s.json")
    assert main(["gen", "-n", str(n), "-m", str(m), "--seed", str(seed), "--out", ipath]) == 0
    assert main(["solve", ipath, "--out", spath]) == 0
    assert main(["verify", ipath, spath, "--contiguous"]) == 0

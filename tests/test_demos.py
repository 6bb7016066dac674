"""The three demos run end to end from a copy, and solve_random.py redraws
the committed Gantt chart byte for byte."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import moldsched

DEMOS = Path(__file__).resolve().parents[1] / "demos"
PACKAGE_ROOT = Path(moldsched.__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script", ["exact_arithmetic_tour.py", "solve_random.py", "worst_case_walkthrough.py"]
)
def test_demo_runs(script, tmp_path):
    shutil.copy(DEMOS / script, tmp_path)
    path = os.pathsep.join(filter(None, [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, script], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if script == "solve_random.py":
        svg = "solve_random.svg"
        assert (tmp_path / svg).read_bytes() == (DEMOS / svg).read_bytes()

"""The package's public surface: exactly the user API, no mpmath at import."""

import os
import subprocess
import sys
from pathlib import Path

import moldsched

PUBLIC = [
    "GenConfig",
    "Instance",
    "Job",
    "LAMBDA_Q0",
    "LAMBDA_SMALL_Q",
    "LAMBDA_STAR_UPPER",
    "PlacedJob",
    "Reject",
    "Schedule",
    "ShelfInvariantError",
    "SolveResult",
    "VerificationReport",
    "Violation",
    "adversarial_instance",
    "brute_force_opt",
    "generate",
    "rat",
    "ratio_report",
    "solve",
    "try_guess",
    "validate_instance",
    "validate_schedule",
]


def test_all_is_the_user_api():
    assert sorted(moldsched.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert getattr(moldsched, name) is not None


def test_the_package_never_imports_mpmath():
    for path in Path(moldsched.__file__).parent.glob("*.py"):
        assert "mpmath" not in path.read_text(), path.name


def test_import_does_not_load_mpmath():
    code = "import sys, moldsched; print('mpmath' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(moldsched.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"

"""The package's public surface: exactly the user API, no mpmath at import,
and a grid that only model.py looks behind."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import moldsched
from moldsched import GenConfig, cli, generate, model, solve, validate_instance

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


def test_only_the_model_looks_behind_a_times_view():
    """Outside model.py no module makes a Times view or reads its row, its q
    or an array's base: instances are built on their grid by of_grid."""
    private = {"_row", "_q", "_i", "base"}
    for path in Path(moldsched.__file__).parent.glob("*.py"):
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                callee = ast.unparse(node.func).rsplit(".", 1)[-1]
                assert callee != "Times", f"{path.name}: {ast.unparse(node)}"
            elif isinstance(node, ast.Attribute):
                assert node.attr not in private, f"{path.name}: {ast.unparse(node)}"


def test_generated_and_loaded_instances_never_derive_their_grid(monkeypatch):
    gen = generate(GenConfig(n=12, m=8, seed=3))
    loaded = cli.instance_from_obj(cli.instance_to_obj(gen))

    def derive(*args):
        raise AssertionError("ratio_grid called")

    monkeypatch.setattr(model, "ratio_grid", derive)
    for inst in (gen, loaded):
        q, a = inst.grid
        assert q == 10**6 and a.shape == (12, 8)
        assert validate_instance(inst) == []
    assert solve(loaded).schedule == solve(gen).schedule

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tvdeblur
from tvdeblur import solver, transforms

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PUBLIC = {
    "BOUNDARY_MODELS", "DEFAULT_BETA_LADDER", "ConvergenceError", "DataError",
    "EnergyReport", "Experiment", "FieldOfView", "GradientField",
    "PreconditionError", "Psf", "ShapeError", "SingularPlanError", "SolveParams",
    "SolveTrace", "SweepResult", "SweepRow", "SymmetryError", "TraceRecord",
    "TvDeblurError", "UnsupportedError", "apply_blur", "apply_correlation",
    "as_image", "builtin_truth", "crop", "diagonal_motion_psf", "energy", "extend",
    "gaussian_psf", "gradient", "parse_mode", "restore", "shrink", "simulate",
    "snr", "solve", "solve_enlarged", "sweep", "sweep_csv_text", "write_sweep_csv",
}


def test_public_names_are_the_entry_points():
    assert len(tvdeblur.__all__) == len(PUBLIC) == 40
    assert set(tvdeblur.__all__) == PUBLIC
    for name in tvdeblur.__all__:
        assert getattr(tvdeblur, name) is not None


def test_importing_the_package_leaves_the_dense_oracle_unloaded():
    # the oracle checks the fast paths, so they must not import it
    code = "import sys, tvdeblur; print('tvdeblur.dense' in sys.modules)"
    src = str(Path(tvdeblur.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("module", [solver, transforms], ids=lambda m: m.__name__)
def test_imports_kept_for_the_benchmark_are_patched_and_unused(monkeypatch, module):
    # perfbench/layers.py wraps module-level names; an import kept only for it
    # (marked noqa: F401) must be one it patches on this module, and unused here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    patched = set()

    class Recorder:
        def patch(self, owner, attr, name, hook=None):
            getattr(owner, attr)
            patched.add((owner, attr))

    layers.instrument(Recorder())
    source = Path(module.__file__).read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    kept = [alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and "# noqa: F401" in lines[node.end_lineno - 1]
            for alias in node.names]
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert kept
    for name in kept:
        assert (module, name) in patched, f"{name} is not patched on {module.__name__}"
        assert name not in loaded, f"{module.__name__} uses {name}"

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
    "as_image", "builtin_truth", "crop", "diagonal_motion_psf", "extend",
    "gaussian_psf", "gradient", "parse_mode", "restore", "shrink", "simulate",
    "snr", "solve", "solve_enlarged", "sweep", "sweep_csv_text", "write_sweep_csv",
}


def test_public_names_are_the_entry_points():
    assert len(tvdeblur.__all__) == len(PUBLIC) == 39
    assert set(tvdeblur.__all__) == PUBLIC
    for name in tvdeblur.__all__:
        assert getattr(tvdeblur, name) is not None


def _loaded_after(statement, modules):
    """Which of ``modules`` a fresh interpreter holds after ``statement``."""
    code = f"import sys; {statement}; print(sorted(set({modules!r}) & set(sys.modules)))"
    src = str(Path(tvdeblur.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return out.stdout.strip()


def test_importing_the_package_leaves_the_dense_oracle_unloaded():
    # the oracle checks the fast paths, so they must not import it
    assert _loaded_after("import tvdeblur", ["tvdeblur.dense"]) == "[]"


def test_the_dense_oracle_imports_no_fast_path():
    # the oracle is the reference the fast paths are checked against, so it
    # must share no code with them
    tree = ast.parse((Path(tvdeblur.__file__).parent / "dense.py").read_text())
    parts = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            parts.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            parts.update((node.module or "").split("."))
            parts.update(alias.name for alias in node.names)
    assert "grid" in parts
    assert parts.isdisjoint({"operators", "transforms", "solver"})


@pytest.mark.parametrize("statement", ["import tvdeblur", "import tvdeblur.cli"])
def test_importing_the_package_leaves_scipy_signal_unloaded(statement):
    # scipy.signal (with scipy.stats) was most of the package's start-up time
    assert _loaded_after(statement, ["scipy.signal", "scipy.stats"]) == "[]"


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


@pytest.mark.parametrize("path", sorted(p for p in Path(tvdeblur.__file__).parent.glob("*.py")
                                        if p.name != "__init__.py"), ids=lambda p: p.stem)
def test_every_import_is_used(path):
    # no linter runs on the package; a deletion must not leave its imports behind
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or isinstance(node, ast.ImportFrom) and node.module == "__future__"
                or any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            assert name in loaded, f"{path.name}:{node.lineno} imports {name} and never uses it"


def test_every_module_level_name_is_referenced():
    # no linter runs on the package; a deletion must not leave a helper behind.
    # A reference is a loaded name, an attribute or an imported name anywhere
    # in the package.
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(tvdeblur.__file__).parent.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unreferenced = []
    for filename, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name)]
            else:
                continue
            unreferenced += [f"{filename}:{node.lineno} {name}" for name in names
                             if not name.startswith("__") and name not in referenced]
    assert not unreferenced, f"defined and never referenced: {unreferenced}"


@pytest.mark.parametrize("module", [transforms, solver, tvdeblur.operators],
                         ids=lambda m: m.__name__)
def test_no_matmul_operator(module):
    # every matrix product goes through np.matmul, whose BLAS calls the tests
    # patch and bound (transforms.BLAS_SERIAL_MADDS); the patch cannot see `@`
    tree = ast.parse(Path(module.__file__).read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)]
    assert not found, f"{module.__name__} uses @ on lines {found}"

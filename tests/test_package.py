import os
import subprocess
import sys
from pathlib import Path

import tvdeblur

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

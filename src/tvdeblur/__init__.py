"""Total-variation image deblurring without boundary artifacts.

Alternating minimization with a quadratic-penalty continuation ladder;
the image update is solved by the fast transform matching the boundary
model (FFT / DCT-II / the antireflective ramp-and-sine transform), or on an
enlarged periodic domain for nonsymmetric kernels.
"""

from .errors import (ConvergenceError, DataError, PreconditionError, ShapeError,
                     SingularPlanError, SymmetryError, TvDeblurError, UnsupportedError)
from .grid import (BOUNDARY_MODELS, DEFAULT_BETA_LADDER, EnergyReport,
                   GradientField, Psf, SolveParams, as_image)
from .harness import (Experiment, FieldOfView, SweepResult, SweepRow, builtin_truth,
                      diagonal_motion_psf, gaussian_psf, parse_mode, restore,
                      simulate, snr, sweep, sweep_csv_text, write_sweep_csv)
from .operators import apply_blur, apply_correlation, crop, extend, gradient
from .solver import SolveTrace, TraceRecord, shrink, solve, solve_enlarged

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY_MODELS", "DEFAULT_BETA_LADDER", "ConvergenceError", "DataError",
    "EnergyReport", "Experiment", "FieldOfView", "GradientField",
    "PreconditionError", "Psf", "ShapeError", "SingularPlanError", "SolveParams",
    "SolveTrace", "SweepResult", "SweepRow", "SymmetryError", "TraceRecord",
    "TvDeblurError", "UnsupportedError", "apply_blur", "apply_correlation",
    "as_image", "builtin_truth", "crop", "diagonal_motion_psf", "extend",
    "gaussian_psf", "gradient", "parse_mode", "restore", "shrink", "simulate",
    "snr", "solve", "solve_enlarged", "sweep", "sweep_csv_text", "write_sweep_csv",
]

"""Alternating minimization with penalty continuation.

Each outer rung fixes a penalty ``beta`` from the ladder and alternates a
closed-form shrinkage update of the gradient field with a transform-domain
solve for the image, warm-starting from the previous rung (the first rung
starts from the observed image). Within a rung the iteration stops when the
relative image change drops below ``inner_tol`` or ``inner_max`` steps are
spent.

The image update pairs the divergence-like term per boundary model: zero and
periodic use the (identical) flipped-stencil closure, the reflective model
uses the exact transpose of the gradient — this makes its update the exact
partial minimizer of the objective and makes the restoration agree with a
periodic solve on the mirror-doubled domain — and the antireflective model
uses the reblurred closure that its sine-transform solve diagonalizes. With
exact partial minimizers the objective is non-increasing within a rung; the
trace records any violation instead of silently accepting it. A non-finite
image update raises ``ConvergenceError`` at once. The antireflective model
can flag at large penalties (a known consequence of reblurring the boundary
rows), as can even-extent kernels under the reflective model, whose
half-sample center offset leaves the transform solve a boundary-row
approximation of the literal normal equations.

:func:`solve` validates the observed image; its planner checks the boundary
model and the kernel's symmetry before any work starts. Nonsymmetric
kernels go through :func:`solve_enlarged`, which pads the data by the same
margin on every side with :func:`extend`, solves with periodic boundaries
and crops the interior back out with :func:`crop`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .energy import energy
from .errors import ConvergenceError, DataError, PreconditionError
from .grid import EnergyReport, GradientField, Psf, SolveParams, as_image, check_boundary_model
from .operators import (adjoint_gradient, apply_correlation, crop, extend, gradient,
                        transpose_adjoint_gradient)
from .transforms import SpectralPlan, SystemPlanner, _l2, solve_system

#: Magnitudes below this count as exactly zero in the shrinkage.
ZERO_MAGNITUDE = 1e-300

#: Relative slack when checking the objective decrease.
MONOTONE_SLACK = 1e-12


def shrink(g: GradientField, beta: float) -> GradientField:
    """Isotropic soft-threshold: z = max(|g| - 1/beta, 0) * g / |g|.

    The output magnitude never exceeds the input magnitude pointwise, and
    pixels with |g| = 0 map to zero (subnormal magnitudes included).
    """
    if not (beta > 0 and np.isfinite(beta)):
        raise DataError(f"beta must be positive and finite, got {beta}")
    mag = g.magnitude()
    safe = np.where(mag > ZERO_MAGNITUDE, mag, 1.0)
    scale = np.where(mag > ZERO_MAGNITUDE,
                     np.maximum(mag - 1.0 / beta, 0.0) / safe, 0.0)
    return GradientField(g.z1 * scale, g.z2 * scale)


def _rhs_divergence(z: GradientField, bc: str) -> np.ndarray:
    # Reflective uses the exact transpose pairing (see module docstring).
    if bc == "reflective":
        return transpose_adjoint_gradient(z, bc)
    return adjoint_gradient(z, bc)


def u_step(plan: SpectralPlan, corr_f: np.ndarray, z: GradientField) -> np.ndarray:
    """Solve (H'H + ratio D'D) u = H'f + ratio D'z in the plan's basis.

    ``corr_f`` is the correlated data H'f under the plan's boundary model;
    ``ratio`` (beta / alpha) and the model are read from the plan.
    """
    return solve_system(plan, corr_f + plan.ratio * _rhs_divergence(z, plan.bc))


@dataclass(frozen=True)
class TraceRecord:
    """One inner iteration: the objective at (u^k, z^k), then the step taken.

    ``cg_iterations`` and ``cg_residual`` (the final ||b - Au|| / ||b||) are
    the zero model's CG numerics for the image update, ``None`` for the
    transform-solved models.
    """

    beta: float
    iteration: int
    energy: EnergyReport
    rel_change: float
    seconds: float
    cg_iterations: int | None
    cg_residual: float | None


@dataclass(frozen=True)
class SolveTrace:
    records: tuple
    violations: tuple
    status: str

    @property
    def total_inner_iterations(self) -> int:
        return len(self.records)

    def block(self, beta: float):
        """Records of one fixed-penalty rung, in iteration order."""
        return [r for r in self.records if r.beta == beta]

    def betas(self):
        seen = dict.fromkeys(r.beta for r in self.records)
        return list(seen)


def solve(f: np.ndarray, psf: Psf, bc: str, params: SolveParams):
    """Run the continuation ladder; returns the restoration and its trace."""
    f = as_image(f, "observed image")
    alpha = params.alpha
    planner = SystemPlanner(psf, f.shape, bc)
    corr_f = apply_correlation(f, psf, bc)
    u = f.copy()
    records = []
    violations = []
    start = time.perf_counter()
    for beta in params.beta_ladder:
        plan = planner.plan(beta / alpha)
        previous_total = None
        for it in range(params.inner_max):
            z = shrink(gradient(u, bc), beta)
            report = energy(u, z, f, psf, bc, alpha, beta)
            if previous_total is not None:
                rise = report.total - previous_total
                if rise > MONOTONE_SLACK * max(abs(previous_total), ZERO_MAGNITUDE):
                    violations.append(
                        (beta, it, rise / max(abs(previous_total), ZERO_MAGNITUDE)))
            previous_total = report.total
            u_new = u_step(plan, corr_f, z)
            if not np.isfinite(u_new).all():
                raise ConvergenceError(
                    f"non-finite iterate at beta={beta:g}, inner iteration {it}")
            norm_u = _l2(u)
            rel = _l2(u_new - u) / (norm_u if norm_u > 0 else 1.0)
            cg_iterations, cg_residual = plan.cg_log[-1] if plan.cg_log else (None, None)
            records.append(TraceRecord(beta, it, report, rel, time.perf_counter() - start,
                                       cg_iterations, cg_residual))
            u = u_new
            if rel < params.inner_tol:
                break
    status = "ok" if not violations else f"{len(violations)} monotonicity flag(s)"
    return u, SolveTrace(tuple(records), tuple(violations), status)


def solve_enlarged(f: np.ndarray, psf: Psf, extension: str, pad=None,
                   params: SolveParams = None):
    """Extend the data, solve with periodic boundaries, crop the interior.

    Supports nonsymmetric kernels: the enlarged domain is always handled by
    the FFT, whatever the extension rule used to fill the margin. ``pad`` is
    the margin on every side, ``((pad, pad), (pad, pad))`` for
    :func:`extend` and :func:`crop`. It defaults to the full kernel extent,
    comfortably past the half-extent minimum, and must cover that minimum
    when given (pad = 0 is allowed as the degenerate case equivalent to a
    plain periodic solve). The returned trace is that of the enlarged-domain
    run.
    """
    f = as_image(f, "observed image")
    check_boundary_model(extension)
    if params is None:
        raise DataError("params is required")
    pad = max(psf.rows, psf.cols) if pad is None else int(pad)
    need = -(-max(psf.rows, psf.cols) // 2)
    if pad != 0 and pad < need:
        raise PreconditionError(
            f"padding {pad} too small for a {psf.rows}x{psf.cols} kernel; "
            f"need at least {need} per side")
    pads = ((pad, pad), (pad, pad))
    u_big, trace = solve(extend(f, pads, extension), psf, "periodic", params)
    return crop(u_big, pads), trace

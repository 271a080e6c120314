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

The inner loop works on plain arrays and computes each quantity once. An
iteration takes the gradient of ``u`` once; the shrinkage returns ``z`` and
the shrunk magnitudes ``max(|grad u| - 1/beta, 0)``, whose sum is the TV
term; the coupling is taken from ``z - grad u`` as :func:`energy` takes it;
and the fidelity term is the ``||H u - f||^2`` that the image update
returned with ``u`` (see :func:`~tvdeblur.transforms.solve_and_blur`), so
the objective costs no transform of its own. The zero model's CG starts
from the current iterate. The trace's energies equal
:func:`energy`'s to rounding, and the restoration does not depend on them.
Each trace record carries the seconds of the shrinkage, the objective and
the image update.

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

from .errors import ConvergenceError, DataError, PreconditionError
from .grid import EnergyReport, GradientField, Psf, SolveParams, as_image, check_boundary_model
from .operators import (adjoint_gradient, apply_correlation, crop, differences, extend,
                        transpose_adjoint_gradient)
from .transforms import SpectralPlan, SystemPlanner, _l2, fidelity_target, solve_and_blur
# Unused here, but perfbench/layers.py patches these names on this module.
from .energy import energy  # noqa: F401
from .operators import gradient  # noqa: F401
from .transforms import solve_system  # noqa: F401

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
    z1, z2, _ = _soft_threshold(g.z1, g.z2, beta)
    return GradientField(z1, z2)


def _soft_threshold(g1: np.ndarray, g2: np.ndarray, beta: float):
    """:func:`shrink` on plain arrays: ``z1``, ``z2`` and ``max(|g| - 1/beta, 0)``.

    One pass over two buffers: ``|g|`` is the root of the sum of squares,
    and the divisor is floored at ``ZERO_MAGNITUDE``, where the shrunk
    magnitude is already 0. Where a square overflows (``|g|`` above about
    1e154), or the threshold is so small that squares underflowing to 0
    would matter, ``|g|`` comes from ``np.hypot`` instead.
    """
    with np.errstate(over="ignore", under="ignore"):
        scale = np.multiply(g1, g1)
        shrunk = np.multiply(g2, g2)
        scale += shrunk
    if np.isfinite(scale.max()) and beta < 1e150:
        np.sqrt(scale, out=scale)
    else:
        np.hypot(g1, g2, out=scale)
    np.subtract(scale, 1.0 / beta, out=shrunk)
    np.maximum(shrunk, 0.0, out=shrunk)
    np.maximum(scale, ZERO_MAGNITUDE, out=scale)
    np.divide(shrunk, scale, out=scale)
    return g1 * scale, g2 * scale, shrunk


def _shrink_and_objective(u, fit, bc, alpha, beta):
    """z = shrink(grad u), and the objective at (u, z) from what that step
    computed: ``fit`` is ``||H u - f||^2``, kept from the image update that
    produced u.

    Returns z1, z2, the EnergyReport and the seconds of the two phases. The
    terms are those of :func:`energy`: the coupling to the bit, fidelity and
    TV to rounding. The gradient and magnitudes die on return, before the
    image update allocates its own.
    """
    t0 = time.perf_counter()
    g1, g2 = differences(u, bc)
    z1, z2, shrunk = _soft_threshold(g1, g2, beta)
    t1 = time.perf_counter()
    tv_z = float(np.sum(shrunk))
    del shrunk
    fidelity = 0.5 * alpha * fit
    # squares of z - grad u, in the gradient's buffers
    for d, z in ((g1, z1), (g2, z2)):
        np.subtract(z, d, out=d)
        d *= d
    coupling = 0.5 * beta * float(np.sum(g1) + np.sum(g2))
    report = EnergyReport(fidelity=fidelity, tv_z=tv_z, coupling=coupling,
                          total=fidelity + tv_z + coupling)
    return z1, z2, report, t1 - t0, time.perf_counter() - t1


def u_step(plan: SpectralPlan, corr_f: np.ndarray, z, target: np.ndarray, start=None):
    """Solve (H'H + ratio D'D) u = H'f + ratio D'z in the plan's basis.

    ``corr_f`` is the correlated data H'f under the plan's boundary model;
    ``ratio`` (beta / alpha) and the model are read from the plan. ``z`` is
    a GradientField or a plain pair ``(z1, z2)``. ``target`` is f as
    :func:`~tvdeblur.transforms.fidelity_target` prepares it, and ``start``
    the zero model's CG start. Returns ``u``, its fidelity
    ``||H u - f||^2`` and the zero model's CG numerics (see
    :func:`~tvdeblur.transforms.solve_and_blur`).
    """
    # Reflective uses the exact transpose pairing (see module docstring).
    divergence = transpose_adjoint_gradient if plan.bc == "reflective" else adjoint_gradient
    return solve_and_blur(plan, corr_f + plan.ratio * divergence(z, plan.bc), target, start)


@dataclass(frozen=True)
class TraceRecord:
    """One inner iteration: the objective at (u^k, z^k), then the step taken.

    ``seconds`` is the wall time from the start of the ladder to the end of
    this iteration. ``shrink_s``, ``objective_s`` and ``update_s`` are this
    iteration's own seconds in the shrinkage, the objective evaluation and
    the image update. ``cg_iterations`` and ``cg_residual`` (the final
    ||b - Au|| / ||b||) are the zero model's CG numerics for the image
    update, ``None`` for the transform-solved models; the CG starts from
    u^k, so ``cg_iterations`` counts the steps from there.
    """

    beta: float
    iteration: int
    energy: EnergyReport
    rel_change: float
    seconds: float
    cg_iterations: int | None
    cg_residual: float | None
    shrink_s: float
    objective_s: float
    update_s: float


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
    target, fit = fidelity_target(planner, f)  # later fits come with each image update
    records = []
    violations = []
    start = time.perf_counter()
    for beta in params.beta_ladder:
        plan = planner.plan(beta / alpha)
        previous_total = None
        for it in range(params.inner_max):
            z1, z2, report, shrink_s, objective_s = _shrink_and_objective(
                u, fit, bc, alpha, beta)
            if previous_total is not None:
                rise = report.total - previous_total
                if rise > MONOTONE_SLACK * max(abs(previous_total), ZERO_MAGNITUDE):
                    violations.append(
                        (beta, it, rise / max(abs(previous_total), ZERO_MAGNITUDE)))
            previous_total = report.total
            t0 = time.perf_counter()
            u_new, fit, cg = u_step(plan, corr_f, (z1, z2), target, u)
            update_s = time.perf_counter() - t0
            if not np.isfinite(u_new).all():
                raise ConvergenceError(
                    f"non-finite iterate at beta={beta:g}, inner iteration {it}")
            norm_u = _l2(u)
            rel = _l2(u_new - u) / (norm_u if norm_u > 0 else 1.0)
            cg_iterations, cg_residual = cg or (None, None)
            records.append(TraceRecord(beta, it, report, rel, time.perf_counter() - start,
                                       cg_iterations, cg_residual,
                                       shrink_s, objective_s, update_s))
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

    Every image update transforms the enlarged grid, so choose ``pad`` to
    make ``n + 2 * pad`` a 2-3-5-smooth length on both axes: at 256 + 2*14
    = 284 = 4 * 71 a real FFT pair costs more than twice what it costs at 288.
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

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
uses the reblurred closure that its sine-transform solve diagonalizes. The
zero model's update is a descent step rather than an exact partial
minimizer: its CG starts from the current iterate, lowers the image
subproblem at every step, and stops at a forcing term (see
:func:`~tvdeblur.transforms.solve_and_blur`). With exact partial
minimizers or descent steps the objective is non-increasing within a rung;
the trace records any violation instead of silently accepting it. A
non-finite image update raises ``ConvergenceError`` at once. The antireflective model
can flag at large penalties (a known consequence of reblurring the boundary
rows), as can even-extent kernels under the reflective model, whose
half-sample center offset leaves the transform solve a boundary-row
approximation of the literal normal equations.

The inner loop works on plain arrays and computes each quantity once, in
one workspace per solve: five image-shaped buffers, written in place. They
hold the gradient pair (which the shrinkage overwrites with ``z``),
``|grad u|``, the shrunk magnitudes and the right-hand side. An iteration
takes the gradient of ``u`` once. The shrunk magnitudes
``max(|grad u| - 1/beta, 0)`` sum to the TV term. The coupling is
``0.5 beta sum min(|grad u|, 1/beta)^2``, since ``|z - grad u|`` is the
threshold where the shrinkage is active and ``|grad u|`` where it is not.
That reorders :func:`energy`'s sum over ``z - grad u``: the two agree to
rounding, and the loop's stays exact where ``beta |grad u|`` is so large
that ``z - grad u`` cancels. The fidelity term is the ``||H u - f||^2``
that the image update returned with ``u`` (see
:func:`~tvdeblur.transforms.solve_and_blur`), so the objective costs no
transform of its own. The right-hand side is the divergence of ``z``, times
the ratio, plus ``H'f``. The step norm and ``||u||^2`` are one pass each,
and finiteness is read from the step norm: only when that is not finite
does the loop check the iterate itself. The zero model's fidelity comes
from the final residual check of its CG, so it is exact for the u the
update returns, early stop or not. The trace's energies equal
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

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DataError, PreconditionError
from .grid import EnergyReport, GradientField, Psf, SolveParams, _integer, as_image
from .operators import adjoint_gradient, crop, differences, extend, transpose_adjoint_gradient
from .transforms import SystemPlanner, _sum_of_squares, solve_and_blur
# Unused here, but perfbench/layers.py patches these names on this module.
from .energy import energy  # noqa: F401
from .operators import apply_correlation, gradient  # noqa: F401
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


def _soft_threshold(g1: np.ndarray, g2: np.ndarray, beta: float, out=None):
    """:func:`shrink` on plain arrays: ``z1``, ``z2`` and ``max(|g| - 1/beta, 0)``.

    ``out`` holds five arrays of the gradient's shape, fresh ones when
    ``None``: ``z1`` and ``z2`` (which may be ``g1`` and ``g2`` themselves),
    ``|g|``, the shrunk magnitude and the scale ``|z| / |g|``; ``|g|`` is
    left in its buffer for the caller. ``|g|`` is the root of the sum of
    squares, and the divisor is floored at ``ZERO_MAGNITUDE``, where the
    shrunk magnitude is already 0. Where a square overflows (``|g|`` above
    about 1e154), or the threshold is so small that squares underflowing to
    0 would matter, ``|g|`` comes from ``np.hypot`` instead.
    """
    z1, z2, mag, shrunk, scale = (np.empty_like(g1) for _ in range(5)) if out is None else out
    with np.errstate(over="ignore", under="ignore"):
        np.multiply(g1, g1, out=mag)
        np.multiply(g2, g2, out=shrunk)
        mag += shrunk
    if np.isfinite(mag.max()) and beta < 1e150:
        np.sqrt(mag, out=mag)
    else:
        np.hypot(g1, g2, out=mag)
    np.subtract(mag, 1.0 / beta, out=shrunk)
    np.maximum(shrunk, 0.0, out=shrunk)
    np.maximum(mag, ZERO_MAGNITUDE, out=scale)
    np.divide(shrunk, scale, out=scale)
    np.multiply(g1, scale, out=z1)
    np.multiply(g2, scale, out=z2)
    return z1, z2, shrunk


def _shrink_and_objective(u, fit, bc, alpha, beta, work):
    """z = shrink(grad u), and the objective at (u, z) from what that step
    computed: ``fit`` is ``||H u - f||^2``, kept from the image update that
    produced u.

    ``work`` is the solve's five image-shaped buffers: z lands in the first
    two, and all five are scratch afterwards. Returns the EnergyReport and
    the seconds of the two phases. The terms are those of :func:`energy` to
    rounding; the coupling is ``0.5 beta sum min(|grad u|, 1/beta)^2`` (see
    the module docstring).
    """
    t0 = time.perf_counter()
    g1, g2, mag, shrunk, _ = work
    differences(u, bc, (g1, g2))
    _soft_threshold(g1, g2, beta, work)
    t1 = time.perf_counter()
    tv_z = float(np.sum(shrunk))
    fidelity = 0.5 * alpha * fit
    np.minimum(mag, 1.0 / beta, out=mag)
    coupling = 0.5 * beta * _sum_of_squares(mag)
    report = EnergyReport(fidelity=fidelity, tv_z=tv_z, coupling=coupling,
                          total=fidelity + tv_z + coupling)
    return report, t1 - t0, time.perf_counter() - t1


@dataclass(frozen=True)
class TraceRecord:
    """One inner iteration: the objective at (u^k, z^k), then the step taken.

    ``seconds`` is the wall time from the start of the ladder to the end of
    this iteration. ``shrink_s``, ``objective_s`` and ``update_s`` are this
    iteration's own seconds in the shrinkage, the objective evaluation and
    the image update. ``cg_iterations``, ``cg_start_residual`` (the
    ||b - A u^k|| / ||b|| of the CG's start) and ``cg_residual`` (the final
    ||b - Au|| / ||b||) are the zero model's CG numerics for the image
    update, ``None`` for the transform-solved models. The CG starts from
    u^k, so ``cg_iterations`` counts the steps from there, and it stops once
    ``cg_residual`` falls to ``max(CG_RTOL, CG_FORCING * cg_start_residual)``
    (up to the rounding between CG's recurrence and the true residual).
    """

    beta: float
    iteration: int
    energy: EnergyReport
    rel_change: float
    seconds: float
    cg_iterations: int | None
    cg_start_residual: float | None
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
    corr_f, target, fit = planner.prepare(f)  # later fits come with each image update
    # Reflective uses the exact transpose pairing (see module docstring).
    divergence = transpose_adjoint_gradient if bc == "reflective" else adjoint_gradient
    # the gradient pair (then z), |g|, the shrunk magnitude, the right-hand side
    work = np.empty((5,) + f.shape)
    z1, z2, mag, _, rhs = work
    u = f.copy()
    records = []
    violations = []
    start = time.perf_counter()
    for beta in params.beta_ladder:
        plan = planner.plan(beta / alpha)
        previous_total = None
        for it in range(params.inner_max):
            report, shrink_s, objective_s = _shrink_and_objective(u, fit, bc, alpha, beta, work)
            if previous_total is not None:
                rise = report.total - previous_total
                if rise > MONOTONE_SLACK * max(abs(previous_total), ZERO_MAGNITUDE):
                    violations.append(
                        (beta, it, rise / max(abs(previous_total), ZERO_MAGNITUDE)))
            previous_total = report.total
            t0 = time.perf_counter()
            divergence((z1, z2), bc, (rhs, mag))
            rhs *= plan.ratio
            rhs += corr_f
            u_new, fit, cg = solve_and_blur(plan, rhs, target, u)
            update_s = time.perf_counter() - t0
            step = _sum_of_squares(np.subtract(u_new, u, out=mag))
            # a finite iterate has a finite step unless its square overflows
            if not math.isfinite(step) and not np.isfinite(u_new).all():
                raise ConvergenceError(
                    f"non-finite iterate at beta={beta:g}, inner iteration {it}")
            norm_u = math.sqrt(_sum_of_squares(u))
            rel = math.sqrt(step) / (norm_u if norm_u > 0 else 1.0)
            records.append(TraceRecord(beta, it, report, rel, time.perf_counter() - start,
                                       *(cg or (None, None, None)),
                                       shrink_s, objective_s, update_s))
            u = u_new
            if rel < params.inner_tol:
                break
    status = "ok" if not violations else f"{len(violations)} monotonicity flag(s)"
    return u, SolveTrace(tuple(records), tuple(violations), status)


def solve_enlarged(f: np.ndarray, psf: Psf, extension: str, params: SolveParams, pad=None):
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
    pad = max(psf.rows, psf.cols) if pad is None else _integer(pad, "pad")
    need = -(-max(psf.rows, psf.cols) // 2)
    if pad != 0 and pad < need:
        raise PreconditionError(
            f"padding {pad} too small for a {psf.rows}x{psf.cols} kernel; "
            f"need at least {need} per side")
    pads = ((pad, pad), (pad, pad))
    u_big, trace = solve(extend(f, pads, extension), psf, "periodic", params)
    return crop(u_big, pads), trace

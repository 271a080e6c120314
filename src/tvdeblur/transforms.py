"""Transform-domain solvers for the restoration system.

The image update of the alternating-minimization loop solves

    (H'H + ratio * D'D) u = rhs

where the composite operator is, per boundary model, diagonalized by:

* ``periodic``        2-D real FFT: eigenvalues |fft(kernel)|^2 + ratio * fft(laplacian);
* ``reflective``      2-D DCT-II (quadrantally symmetric kernels only);
* ``antireflective``  a decoupled solve: the four corner unknowns satisfy
  scalar equations with coefficient (kernel mass)^2, each frame edge
  satisfies a closed 1-D problem in the axis-collapsed stencil (solved by a
  linear-ramp lift plus a 1-D DST-I), and the interior satisfies a 2-D DST-I
  system once the known frame values are moved to the right-hand side;
* ``zero``            no fast transform exists; the plan falls back to
  conjugate gradients on the literal normal equations, preconditioned by a
  fast-transform plan for the same kernel, shape and ratio: the
  ``reflective`` (DCT-II) plan when the kernel is quadrantally symmetric and
  its composite stencil fits the reflective ghost depth (the
  Neumann-boundary preconditioner of Ng, Chan & Tang, SIAM J. Sci. Comput.
  21, 1999), else the ``periodic`` (FFT) plan (T. F. Chan's optimal
  circulant, SIAM J. Sci. Stat. Comput. 9, 1988). A matvec is two real-FFT
  products on a grid ``L = (R + kr - 1) x (C + kc - 1)`` or larger, where
  neither the blur nor its transpose wraps around, plus ``ratio * D'D u``.
  The loop takes its norms and dot products as NumPy sums, never through
  BLAS, whose threads would spin against sweep workers. CG stops when the
  unpreconditioned residual falls to ``CG_RTOL`` relative to the
  right-hand side, and raises ``ConvergenceError`` after ``CG_MAXITER``
  iterations.

Plans are deterministic and, apart from the zero plan's ``cg_log`` (one
``(iterations, relative residual)`` entry per solve), immutable; eigenvalue
magnitudes below 1e-14 are clamped (never silently: the count is recorded
on the plan and logged).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as _fft

from .dense import (LAPLACIAN_CENTER, LAPLACIAN_STENCIL, autocorrelation,
                    combine_stencils)
from .errors import (ConvergenceError, DataError, ShapeError, SingularPlanError,
                     SymmetryError, UnsupportedError)
from .grid import Psf, check_boundary_model
from .operators import apply_stencil, gradient, transpose_adjoint_gradient
# Unused here, but perfbench/layers.py patches these names on this module.
from .operators import apply_blur, apply_correlation  # noqa: F401

logger = logging.getLogger(__name__)

EIG_FLOOR = 1e-14

#: The zero model's CG stops once ||b - Ax|| <= CG_RTOL * ||b||.
CG_RTOL = 1e-12

#: Iteration cap of the zero model's CG: the worst case measured with the
#: preconditioner, 1844 iterations (the nonsymmetric 7x7 motion kernel at
#: 48x48 with alpha = 1e6, so only the FFT preconditioner applies), with
#: headroom; a 5x5 Gaussian update at alpha = 500 takes about 22. The cap
#: does not grow with the image, so an update stays bounded at 1024x1024.
CG_MAXITER = 5000


# --- plan machinery ---

def _embed_wrapped(weights, center, shape) -> np.ndarray:
    """Place stencil weights on the torus at their offsets modulo the shape."""
    out = np.zeros(shape)
    cr, cc = center
    for a in range(weights.shape[0]):
        for b in range(weights.shape[1]):
            out[(a - cr) % shape[0], (b - cc) % shape[1]] += weights[a, b]
    return out


def _cos_symbol(weights, center, theta_r, theta_c) -> np.ndarray:
    """sum_st w[s,t] cos(s*theta_r) cos(t*theta_c), sampled on the grid.

    Exact transform-basis eigenvalues for quadrantally symmetric stencils.
    """
    s = np.arange(weights.shape[0]) - center[0]
    t = np.arange(weights.shape[1]) - center[1]
    cr = np.cos(np.outer(np.atleast_1d(theta_r), s))
    cc = np.cos(np.outer(np.atleast_1d(theta_c), t))
    return cr @ weights @ cc.T


def _ghost_depth(weights, center) -> int:
    """How far a stencil reaches past its center, along either axis."""
    return max(weights.shape[0] - 1 - center[0], center[0],
               weights.shape[1] - 1 - center[1], center[1])


def _l2(x: np.ndarray) -> float:
    # Not np.linalg.norm: that is a BLAS dot, which OpenBLAS threads above
    # 10^4 elements, and its spinning threads compete with sweep workers.
    return float(np.sqrt(np.sum(x * x)))


def _zero_grid(shape, psf: Psf) -> tuple[int, int]:
    """Real-FFT grid on which the zero model's blur and its transpose, each a
    linear convolution of an image with the kernel, do not wrap around."""
    return tuple(_fft.next_fast_len(n + k - 1, True)
                 for n, k in zip(shape, psf.weights.shape))


def _clamp(values):
    """Clamp magnitudes below EIG_FLOOR, preserving sign; report count and min."""
    v = np.atleast_1d(np.asarray(values, dtype=float))
    mags = np.abs(v)
    count = int(np.count_nonzero(mags < EIG_FLOOR))
    if count:
        sign = np.where(v < 0, -1.0, 1.0)
        v = np.where(mags < EIG_FLOOR, sign * EIG_FLOOR, v)
    return v, count, float(mags.min()) if mags.size else None


@dataclass(frozen=True)
class SpectralPlan:
    """Prepared solve for one (kernel, shape, boundary model, ratio) tuple.

    ``eigenvalues`` holds the system eigenvalues in the matching transform
    basis (half-spectrum for periodic, full grid for reflective, interior
    grid for antireflective). For the zero model's CG fallback it holds the
    kernel's real-FFT half-spectrum on the no-wraparound grid of
    :func:`_zero_grid` (the eigenvalues of the blur embedded in a circulant
    there), shared by the plans of every ratio.
    """

    bc: str
    shape: tuple[int, int]
    ratio: float
    eigenvalues: np.ndarray | None
    min_modulus: float | None
    clamp_count: int
    # antireflective boundary data
    edge_row: np.ndarray | None = None
    edge_col: np.ndarray | None = None
    corner: float | None = None
    stencil: tuple | None = None
    # zero-model fallback data
    psf: Psf | None = field(default=None, repr=False)
    preconditioner: SpectralPlan | None = field(default=None, repr=False)
    cg_log: list | None = field(default=None, repr=False, compare=False)


class SystemPlanner:
    """Caches the ratio-independent spectral pieces of the system operator.

    The continuation loop rebuilds the plan once per penalty value; only the
    linear combination blur-part + ratio * laplacian-part changes, so the
    kernel transforms are computed a single time here.
    """

    def __init__(self, psf: Psf, shape, bc: str):
        check_boundary_model(bc)
        self.psf = psf
        self.shape = (int(shape[0]), int(shape[1]))
        if min(self.shape) < 2:
            raise ShapeError(f"image dims must be at least 2x2, got {self.shape}")
        self.bc = bc
        if bc in ("reflective", "antireflective") and not psf.quadrantally_symmetric:
            raise SymmetryError(
                f"{bc} restoration requires a quadrantally symmetric kernel; "
                "use solve_enlarged with a reflective or antireflective extension instead")
        if psf.mass ** 2 < EIG_FLOOR:
            raise SingularPlanError(
                f"kernel mass {psf.mass:.3e} makes the zero-frequency mode numerically singular")
        acorr, acorr_center = autocorrelation(psf)
        self._acorr = (acorr, acorr_center)
        if bc in ("zero", "periodic") and (psf.rows > self.shape[0]
                                           or psf.cols > self.shape[1]):
            raise UnsupportedError(
                f"kernel support {(psf.rows, psf.cols)} exceeds image dims {self.shape}")
        if bc == "zero":
            fits_dct = (psf.quadrantally_symmetric
                        and _ghost_depth(acorr, acorr_center) <= min(self.shape))
            self._preconditioner = SystemPlanner(
                psf, self.shape, "reflective" if fits_dct else "periodic")
            self._blur_eig = _fft.rfft2(psf.weights, _zero_grid(self.shape, psf))
        elif bc == "periodic":
            spectrum = _fft.rfft2(_embed_wrapped(psf.weights, psf.center, self.shape))
            self._blur_eig = np.abs(spectrum) ** 2
            self._lap_eig = _fft.rfft2(
                _embed_wrapped(LAPLACIAN_STENCIL, LAPLACIAN_CENTER, self.shape)).real
        elif bc == "reflective":
            self._check_ghost_depth(acorr, acorr_center, cap=min(self.shape))
            impulse = np.zeros(self.shape)
            impulse[0, 0] = 1.0
            denom = _fft.dctn(impulse, type=2, norm="ortho")
            if np.abs(denom).min() < EIG_FLOOR:
                raise SingularPlanError("degenerate DCT basis sample")
            self._blur_eig = _fft.dctn(apply_stencil(impulse, acorr, acorr_center, bc),
                                        type=2, norm="ortho") / denom
            self._lap_eig = _fft.dctn(
                apply_stencil(impulse, LAPLACIAN_STENCIL, LAPLACIAN_CENTER, bc),
                type=2, norm="ortho") / denom
        else:  # antireflective
            self._check_ghost_depth(acorr, acorr_center, cap=min(self.shape) - 1)
            R, C = self.shape
            theta_r = np.arange(1, R - 1) * np.pi / (R - 1)
            theta_c = np.arange(1, C - 1) * np.pi / (C - 1)
            self._blur_int = _cos_symbol(acorr, acorr_center, theta_r, theta_c)
            self._lap_int = _cos_symbol(LAPLACIAN_STENCIL, LAPLACIAN_CENTER, theta_r, theta_c)
            # frame edges see the stencil collapsed along the perpendicular axis
            self._blur_edge_row = _cos_symbol(acorr.sum(axis=1)[:, None],
                                              (acorr_center[0], 0), theta_r, [0.0])[:, 0]
            self._blur_edge_col = _cos_symbol(acorr.sum(axis=0)[None, :],
                                              (0, acorr_center[1]), [0.0], theta_c)[0, :]
            self._lap_edge_row = _cos_symbol(np.array([[-1.0], [2.0], [-1.0]]), (1, 0),
                                             theta_r, [0.0])[:, 0]
            self._lap_edge_col = _cos_symbol(np.array([[-1.0, 2.0, -1.0]]), (0, 1),
                                             [0.0], theta_c)[0, :]
            self._blur_corner = float(acorr.sum())

    @staticmethod
    def _check_ghost_depth(weights, center, cap):
        depth = _ghost_depth(weights, center)
        if depth > cap:
            raise UnsupportedError(
                f"composite stencil ghost depth {depth} exceeds the extension cap {cap}")

    def plan(self, ratio: float) -> SpectralPlan:
        if not (np.isfinite(ratio) and ratio >= 0):
            raise DataError(f"ratio must be finite and non-negative, got {ratio}")
        bc = self.bc
        if bc == "zero":
            return SpectralPlan(bc, self.shape, float(ratio), eigenvalues=self._blur_eig,
                                min_modulus=None, clamp_count=0, psf=self.psf,
                                preconditioner=self._preconditioner.plan(ratio), cg_log=[])
        if bc in ("periodic", "reflective"):
            eig, count, mn = _clamp(self._blur_eig + ratio * self._lap_eig)
            if count:
                logger.warning("%s plan: clamped %d eigenvalue(s) below %g", bc, count, EIG_FLOOR)
            return SpectralPlan(bc, self.shape, float(ratio), eigenvalues=eig,
                                min_modulus=mn, clamp_count=count, psf=self.psf)
        # antireflective
        interior, c_int, mn_int = _clamp(self._blur_int + ratio * self._lap_int)
        edge_row, c_er, mn_er = _clamp(self._blur_edge_row + ratio * self._lap_edge_row)
        edge_col, c_ec, mn_ec = _clamp(self._blur_edge_col + ratio * self._lap_edge_col)
        corner, c_co, mn_co = _clamp(self._blur_corner)  # laplacian mass is zero
        count = c_int + c_er + c_ec + c_co
        if count:
            logger.warning("antireflective plan: clamped %d eigenvalue(s) below %g",
                           count, EIG_FLOOR)
        mins = [m for m in (mn_int, mn_er, mn_ec, mn_co) if m is not None]
        acorr, acorr_center = self._acorr
        stencil = combine_stencils(acorr, acorr_center,
                                   LAPLACIAN_STENCIL, LAPLACIAN_CENTER, ratio)
        return SpectralPlan(bc, self.shape, float(ratio), eigenvalues=interior,
                            min_modulus=min(mins) if mins else None, clamp_count=count,
                            edge_row=edge_row, edge_col=edge_col,
                            corner=float(corner[0]), stencil=stencil, psf=self.psf)


def _solve_zero(plan: SpectralPlan, rhs: np.ndarray) -> np.ndarray:
    """Preconditioned CG on the literal normal equations; exact transposes,
    matrix-free. Appends (iterations, relative residual) to ``plan.cg_log``."""
    psf, ratio, (R, C) = plan.psf, plan.ratio, rhs.shape
    (cr, cc), grid = psf.center, _zero_grid(rhs.shape, psf)
    spectrum, transposed = plan.eigenvalues, plan.eigenvalues.conj()

    def matvec(u):
        # H u sits at [cr:cr+R, cc:cc+C] of the full convolution; zeroing the
        # rest leaves exactly the ghosts the zero model's H' reads, and the
        # conjugate spectrum correlates them back onto [0:R, 0:C]
        blurred = _fft.irfft2(_fft.rfft2(u, grid) * spectrum, grid)
        blurred[:cr] = 0.0
        blurred[cr + R:] = 0.0
        blurred[:, :cc] = 0.0
        blurred[:, cc + C:] = 0.0
        out = _fft.irfft2(_fft.rfft2(blurred) * transposed, grid)[:R, :C]
        return out + ratio * transpose_adjoint_gradient(gradient(u, "zero"), "zero")

    b_norm = _l2(rhs)
    tol = CG_RTOL * b_norm
    x, r, steps = np.zeros((R, C)), rhs.copy(), 0
    while _l2(r) > tol and steps < CG_MAXITER:
        z = solve_system(plan.preconditioner, r)
        rho = np.sum(r * z)
        p = z if steps == 0 else z + (rho / rho_prev) * p
        q = matvec(p)
        alpha = rho / np.sum(p * q)
        x += alpha * p
        r -= alpha * q
        rho_prev, steps = rho, steps + 1
    residual = _l2(rhs - matvec(x)) / b_norm if b_norm > 0 else 0.0
    if _l2(r) > tol:
        raise ConvergenceError(
            f"zero-boundary CG stopped after {steps} iterations at relative residual "
            f"{residual:.3e}, above its tolerance {CG_RTOL:g} (info={steps})")
    plan.cg_log.append((steps, residual))
    return x


def _edge_solve_1d(b: np.ndarray, end0: float, end1: float, eig: np.ndarray,
                   corner: float) -> np.ndarray:
    """Interior of a frame edge: lift a linear ramp through the known ends,
    then a DST-I solve for the remainder, which vanishes at both ends."""
    m = b.size
    ramp = end0 + (end1 - end0) * np.arange(1, m + 1) / (m + 1)
    w = _fft.dst(_fft.dst(b - corner * ramp, type=1, norm="ortho") / eig,
                 type=1, norm="ortho")
    return ramp + w


def solve_system(plan: SpectralPlan, rhs: np.ndarray) -> np.ndarray:
    """Solve (H'H + ratio * D'D) u = rhs in the plan's transform basis."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != plan.shape:
        raise ShapeError(f"rhs shape {rhs.shape} does not match plan {plan.shape}")
    if plan.bc == "periodic":
        return _fft.irfft2(_fft.rfft2(rhs) / plan.eigenvalues, s=plan.shape)
    if plan.bc == "reflective":
        return _fft.idctn(_fft.dctn(rhs, type=2, norm="ortho") / plan.eigenvalues,
                          type=2, norm="ortho")
    if plan.bc == "zero":
        return _solve_zero(plan, rhs)
    # antireflective: corners, then frame edges, then the interior
    R, C = plan.shape
    u = np.zeros((R, C))
    for i, j in ((0, 0), (0, C - 1), (R - 1, 0), (R - 1, C - 1)):
        u[i, j] = rhs[i, j] / plan.corner
    if C > 2:
        u[0, 1:-1] = _edge_solve_1d(rhs[0, 1:-1], u[0, 0], u[0, -1],
                                    plan.edge_col, plan.corner)
        u[-1, 1:-1] = _edge_solve_1d(rhs[-1, 1:-1], u[-1, 0], u[-1, -1],
                                     plan.edge_col, plan.corner)
    if R > 2:
        u[1:-1, 0] = _edge_solve_1d(rhs[1:-1, 0], u[0, 0], u[-1, 0],
                                    plan.edge_row, plan.corner)
        u[1:-1, -1] = _edge_solve_1d(rhs[1:-1, -1], u[0, -1], u[-1, -1],
                                     plan.edge_row, plan.corner)
    if R > 2 and C > 2:
        weights, center = plan.stencil
        frame_load = apply_stencil(u, weights, center, "antireflective")
        interior = rhs[1:-1, 1:-1] - frame_load[1:-1, 1:-1]
        u[1:-1, 1:-1] = _fft.dstn(_fft.dstn(interior, type=1, norm="ortho") / plan.eigenvalues,
                                  type=1, norm="ortho")
    return u

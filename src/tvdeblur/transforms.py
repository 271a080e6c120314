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
  products, built once per planner, on a grid ``L = (R + kr - 1) x (C + kc - 1)``
  or larger, where neither H nor H' wraps around, plus ``ratio * D'D u``.
  The loop takes its norms and dot products as NumPy sums, never through
  BLAS, whose threads would spin against sweep workers. CG stops when the
  unpreconditioned residual falls to ``CG_RTOL`` relative to the
  right-hand side, and raises ``ConvergenceError`` after ``CG_MAXITER``
  iterations.

Both trigonometric models take their eigenvalues from one cosine symbol,
``sum_st w[s,t] cos(s theta_r) cos(t theta_c)`` of the system stencil (the
kernel's autocorrelation plus ``ratio`` times the five-point Laplacian),
sampled at ``theta = pi k / n`` for the DCT-II and at
``theta = pi k / (n - 1)`` for the DST-I (Ng, Chan & Tang 1999;
Serra-Capizzano, SIAM J. Sci. Comput. 25, 2003). The antireflective grid's
``theta = 0`` row and column are the frame edges' axis-collapsed symbols,
and its origin is the corners' coefficient.

The antireflective frame load (the system stencil applied to the solved
frame, which is zero inside) is convolved only on the bands within the
stencil's reach of the frame when the stencil has at most
``DIRECT_MAX_TAPS`` taps, with the bytes of the whole-image convolution;
wider stencils go through a convolver whose spectrum the plan computes once.

The zero model's CG starts from zeros in :func:`solve_system`; the solver
loop's update starts it from the current iterate instead.

:func:`solve_and_blur` is the solver loop's image update: the solution and
its fidelity ``||H u - f||^2``, which the objective needs. For periodic
plans, and reflective ones whose kernel is odd and symmetric about its
center sample, the fidelity comes from the solution's own coefficients by
Parseval: the kernel's symbol times the coefficients, minus the transform
of ``f`` (:func:`fidelity_target`, taken once per solve), summed in the
transform domain, so the update makes one forward and one inverse
transform. Otherwise ``H u`` is the plan's ``blur``: one real-FFT pair on
the CG grid for zero, and for antireflective and even-extent reflective
kernels a stencil convolver built once per planner; the first iterate's
fidelity comes the same way. :func:`solve_system`, the update and the CG
preconditioner share one analyze, divide and synthesize step.

Plans are deterministic and immutable; eigenvalue magnitudes below 1e-14
are clamped (never silently: the count is recorded on the plan and logged).
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import fft as _fft
from scipy.signal import convolve2d

from .errors import (ConvergenceError, DataError, ShapeError, SingularPlanError,
                     SymmetryError, UnsupportedError)
from .grid import Psf, check_boundary_model
from .operators import (DIRECT_MAX_TAPS, LAPLACIAN_CENTER, LAPLACIAN_STENCIL, autocorrelation,
                        combine_stencils, differences, extend, stencil_convolver, stencil_pads,
                        transpose_adjoint_gradient)
# Unused here, but perfbench/layers.py patches these names on this module.
from .operators import apply_blur, apply_correlation, apply_stencil, gradient  # noqa: F401

logger = logging.getLogger(__name__)

EIG_FLOOR = 1e-14

#: The zero model's CG stops once ||b - Ax|| <= CG_RTOL * ||b||.
CG_RTOL = 1e-12

#: Iteration cap of the zero model's CG. A 5x5 Gaussian update at
#: alpha = 500 takes about 22 iterations, and gaussian_psf(5, 1) stays at
#: 37-39 at every size up to 192x192 at ratio 2e-6. The count does grow with
#: the image for ill-conditioned kernels: a cold solve of H'f with the
#: nonsymmetric diagonal_motion_psf(7) at ratio 2e-6 (alpha = 1e6, first
#: rung; only the FFT preconditioner applies) took 1,755, 2,610 and 3,515
#: iterations at 48x48, 96x96 and 192x192, about +900 per doubling of the
#: side. Extrapolated, such a solve reaches the cap between 512x512 and
#: 768x768 and raises ConvergenceError there.
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
    cr = np.cos(np.outer(theta_r, s))
    cc = np.cos(np.outer(theta_c, t))
    return cr @ weights @ cc.T


def _ghost_depth(weights, center) -> int:
    """How far a stencil reaches past its center, along either axis."""
    return max(weights.shape[0] - 1 - center[0], center[0],
               weights.shape[1] - 1 - center[1], center[1])


def _l2(x: np.ndarray) -> float:
    # Not np.linalg.norm: that is a BLAS dot, which OpenBLAS threads above
    # 10^4 elements, and its spinning threads compete with sweep workers.
    return float(np.sqrt(np.sum(x * x)))


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
    basis (``None`` for zero, like ``min_modulus``):

    * periodic: the real-FFT half-spectrum, ``R x (C // 2 + 1)``;
    * reflective: the DCT-II eigenvalues, ``R x C``, the system stencil's
      cosine symbol at ``theta = pi k / R`` and ``pi l / C``;
    * antireflective: the same symbol at ``theta = pi k / (R - 1)`` and
      ``pi l / (C - 1)``, ``(R - 1) x (C - 1)``. ``[1:, 1:]`` are the
      interior's DST-I eigenvalues. At ``theta = 0`` the symbol is that of
      the stencil summed along that axis, so ``[1:, 0]`` and ``[0, 1:]`` are
      the DST-I eigenvalues of the left/right and top/bottom frame edges,
      and ``[0, 0]``, the kernel mass squared, is the corners' coefficient.

    Clamping, ``min_modulus`` and ``clamp_count`` cover the whole array.
    """

    bc: str
    shape: tuple[int, int]
    ratio: float
    eigenvalues: np.ndarray | None
    min_modulus: float | None
    clamp_count: int
    # the blur H of the solution, for the objective: a symbol in the plan's
    # transform basis (periodic, and reflective with an odd centered
    # kernel), else a callable u -> H u
    blur_symbol: np.ndarray | None = field(default=None, repr=False)
    blur: Callable | None = field(default=None, repr=False)
    # antireflective: u -> (system stencil) u for a u that is zero off its frame
    frame_load: Callable | None = field(default=None, repr=False)
    # zero: u -> H'H u, and the fast-transform plan that preconditions the CG
    normal: Callable | None = field(default=None, repr=False)
    preconditioner: SpectralPlan | None = field(default=None, repr=False)


class SystemPlanner:
    """Caches the ratio-independent spectral pieces of the system operator.

    The continuation loop rebuilds the plan once per penalty value; only the
    linear combination blur-part + ratio * laplacian-part changes, so the
    kernel transforms are computed a single time here.
    """

    def __init__(self, psf: Psf, shape, bc: str):
        check_boundary_model(bc)
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
        self._blur_symbol, self._blur, self._normal = None, None, None
        if bc in ("zero", "periodic") and (psf.rows > self.shape[0]
                                           or psf.cols > self.shape[1]):
            raise UnsupportedError(
                f"kernel support {(psf.rows, psf.cols)} exceeds image dims {self.shape}")
        if bc == "zero":
            fits_dct = (psf.quadrantally_symmetric
                        and _ghost_depth(acorr, acorr_center) <= min(self.shape))
            self._preconditioner = SystemPlanner(
                psf, self.shape, "reflective" if fits_dct else "periodic")
            self._blur, self._normal = _zero_products(psf, self.shape)
        elif bc == "periodic":
            spectrum = _fft.rfft2(_embed_wrapped(psf.weights, psf.center, self.shape))
            self._blur_eig = np.abs(spectrum) ** 2
            self._blur_symbol = spectrum
            self._lap_eig = _fft.rfft2(
                _embed_wrapped(LAPLACIAN_STENCIL, LAPLACIAN_CENTER, self.shape)).real
        else:
            # the cosine symbols on the DCT-II grid, theta = pi k / n, or the
            # DST-I grid with its frame row and column, theta = pi k / (n - 1)
            short = int(bc == "antireflective")
            depth, cap = _ghost_depth(acorr, acorr_center), min(self.shape) - short
            if depth > cap:
                raise UnsupportedError(
                    f"composite stencil ghost depth {depth} exceeds the extension cap {cap}")
            theta_r, theta_c = (np.arange(n - short) * np.pi / (n - short) for n in self.shape)
            self._blur_eig = _cos_symbol(acorr, acorr_center, theta_r, theta_c)
            self._lap_eig = _cos_symbol(LAPLACIAN_STENCIL, LAPLACIAN_CENTER, theta_r, theta_c)
            # the blur itself is DCT-diagonal only when the kernel is
            # symmetric about its center sample (Ng, Chan & Tang 1999)
            if (bc == "reflective" and psf.rows % 2 and psf.cols % 2
                    and psf.center == (psf.rows // 2, psf.cols // 2)):
                self._blur_symbol = _cos_symbol(psf.weights, psf.center, theta_r, theta_c)
            else:
                self._blur = stencil_convolver(psf.weights, psf.center, bc, self.shape)

    def plan(self, ratio: float) -> SpectralPlan:
        if not (np.isfinite(ratio) and ratio >= 0):
            raise DataError(f"ratio must be finite and non-negative, got {ratio}")
        bc = self.bc
        if bc == "zero":
            return SpectralPlan(bc, self.shape, float(ratio), eigenvalues=None, min_modulus=None,
                                clamp_count=0, blur=self._blur, normal=self._normal,
                                preconditioner=self._preconditioner.plan(ratio))
        eig, count, mn = _clamp(self._blur_eig + ratio * self._lap_eig)
        if count:
            logger.warning("%s plan: clamped %d eigenvalue(s) below %g", bc, count, EIG_FLOOR)
        frame_load = None
        if bc == "antireflective":
            weights, center = combine_stencils(*self._acorr, LAPLACIAN_STENCIL,
                                               LAPLACIAN_CENTER, ratio)
            if weights.size <= DIRECT_MAX_TAPS:
                frame_load = partial(_banded_frame_load, weights=weights, center=center)
            else:
                frame_load = stencil_convolver(weights, center, bc, self.shape)
        return SpectralPlan(bc, self.shape, float(ratio), eigenvalues=eig,
                            min_modulus=mn, clamp_count=count, blur_symbol=self._blur_symbol,
                            blur=self._blur, frame_load=frame_load)


def _solve_zero(plan: SpectralPlan, rhs: np.ndarray, start=None):
    """Preconditioned CG on the literal normal equations; exact transposes,
    matrix-free. Starts from ``start`` (zeros when ``None``) and returns the
    solution, the iterations taken and the final relative residual."""
    def matvec(u):
        return plan.normal(u) + plan.ratio * transpose_adjoint_gradient(
            differences(u, "zero"), "zero")

    b_norm = _l2(rhs)
    if b_norm == 0:
        # the solution is zero whatever the start; a tolerance of 0 could
        # not be met from a nonzero one
        return np.zeros(rhs.shape), 0, 0.0
    tol = CG_RTOL * b_norm
    if start is None:
        x, r = np.zeros(rhs.shape), rhs.copy()
    else:
        x = np.array(start, dtype=float)
        r = rhs - matvec(x)
    steps = 0
    while _l2(r) > tol and steps < CG_MAXITER:
        z = _transform_solve(plan.preconditioner, r)[0]
        rho = np.sum(r * z)
        p = z if steps == 0 else z + (rho / rho_prev) * p
        q = matvec(p)
        alpha = rho / np.sum(p * q)
        x += alpha * p
        r -= alpha * q
        rho_prev, steps = rho, steps + 1
    residual = _l2(rhs - matvec(x)) / b_norm
    if _l2(r) > tol:
        raise ConvergenceError(
            f"zero-boundary CG stopped after {steps} iterations at relative residual "
            f"{residual:.3e}, above its tolerance {CG_RTOL:g} (info={steps})")
    return x, steps, residual


def _edge_solve_1d(b: np.ndarray, end0: float, end1: float, eig: np.ndarray,
                   corner: float) -> np.ndarray:
    """Interior of a frame edge: lift a linear ramp through the known ends,
    then a DST-I solve for the remainder, which vanishes at both ends."""
    m = b.size
    ramp = end0 + (end1 - end0) * np.arange(1, m + 1) / (m + 1)
    w = _fft.dst(_fft.dst(b - corner * ramp, type=1, norm="ortho") / eig,
                 type=1, norm="ortho")
    return ramp + w


def _zero_products(psf: Psf, shape):
    """u -> H u and u -> H'H u under the zero model, by real-FFT products
    with the kernel's spectrum and its conjugate on a grid where neither
    linear convolution wraps around."""
    (cr, cc), (R, C) = psf.center, shape
    grid = tuple(_fft.next_fast_len(n + k - 1, True) for n, k in zip(shape, psf.weights.shape))
    spectrum = _fft.rfft2(psf.weights, grid)
    transposed = spectrum.conj()

    def blur(u):
        return _fft.irfft2(_fft.rfft2(u, grid) * spectrum, grid)[cr:cr + R, cc:cc + C]

    def normal(u):
        # H u sits at [cr:cr+R, cc:cc+C] of the full convolution; zeros
        # around it are exactly the ghosts the zero model's H' reads, and the
        # conjugate spectrum correlates them back onto [0:R, 0:C]
        blurred = np.zeros(grid)
        blurred[cr:cr + R, cc:cc + C] = blur(u)
        return _fft.irfft2(_fft.rfft2(blurred) * transposed, grid)[:R, :C]

    return blur, normal


def _banded_frame_load(u: np.ndarray, weights: np.ndarray, center) -> np.ndarray:
    """``apply_stencil(u, weights, center, "antireflective")`` for a ``u``
    that is zero off its frame (first and last row and column).

    An output pixel reads the extended ``u`` from ``top`` rows above it to
    ``bottom`` rows below, and likewise across columns; off the frame's
    bands of that depth it reads only zeros, so the load there is exactly
    0.0. Each band is a "valid" convolution of its own slice of the
    extended array, which sums the same products in the same order as the
    whole-array convolution. Bands of small images overlap; the overlap is
    written twice with the same values.
    """
    pads = ((top, bottom), (left, right)) = stencil_pads(weights, center)
    R, C = u.shape
    ext = extend(u, pads, "antireflective")
    out = np.zeros((R, C))
    for rows, cols in ((slice(0, min(top + 1, R)), slice(0, C)),
                       (slice(max(R - 1 - bottom, 0), R), slice(0, C)),
                       (slice(0, R), slice(0, min(left + 1, C))),
                       (slice(0, R), slice(max(C - 1 - right, 0), C))):
        out[rows, cols] = convolve2d(
            ext[rows.start:rows.stop + top + bottom, cols.start:cols.stop + left + right],
            weights, mode="valid")
    return out


def _analyze(bc: str, image: np.ndarray) -> np.ndarray:
    """The image's coefficients in the periodic or reflective basis."""
    if bc == "periodic":
        return _fft.rfft2(image)
    return _fft.dctn(image, type=2, norm="ortho")


def _transform_solve(plan: SpectralPlan, rhs: np.ndarray):
    """A periodic or reflective plan's solution and its coefficients."""
    coefficients = _analyze(plan.bc, rhs)
    coefficients /= plan.eigenvalues
    if plan.bc == "periodic":
        return _fft.irfft2(coefficients, s=plan.shape), coefficients
    return _fft.idctn(coefficients, type=2, norm="ortho"), coefficients


def _squared_norm(owner, coefficients: np.ndarray) -> float:
    """``||x||^2`` of the image x with these coefficients in the periodic or
    reflective basis of ``owner`` (a plan or planner), by Parseval; squares them in place.

    The orthonormal DCT needs no weights. A real-FFT half-spectrum row holds
    column 0, the columns 1 .. C/2 whose conjugates it leaves out, and for
    even C the Nyquist column, its own conjugate: the inner columns count
    twice, and the sum is divided by R*C.
    """
    if owner.bc == "reflective":
        coefficients *= coefficients
        return float(np.sum(coefficients))
    (R, C), parts = owner.shape, coefficients.view(float)  # re, im interleaved
    parts *= parts
    own = np.sum(parts[:, :2]) + (np.sum(parts[:, -2:]) if C % 2 == 0 else 0.0)
    return float((2.0 * np.sum(parts) - own) / (R * C))


def solve_system(plan: SpectralPlan, rhs: np.ndarray) -> np.ndarray:
    """Solve (H'H + ratio * D'D) u = rhs in the plan's transform basis."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != plan.shape:
        raise ShapeError(f"rhs shape {rhs.shape} does not match plan {plan.shape}")
    if plan.bc in ("periodic", "reflective"):
        return _transform_solve(plan, rhs)[0]
    if plan.bc == "zero":
        return _solve_zero(plan, rhs)[0]
    # antireflective: corners, then frame edges, then the interior
    R, C = plan.shape
    eig = plan.eigenvalues
    corner = eig[0, 0]
    u = np.zeros((R, C))
    for i, j in ((0, 0), (0, C - 1), (R - 1, 0), (R - 1, C - 1)):
        u[i, j] = rhs[i, j] / corner
    if C > 2:
        u[0, 1:-1] = _edge_solve_1d(rhs[0, 1:-1], u[0, 0], u[0, -1], eig[0, 1:], corner)
        u[-1, 1:-1] = _edge_solve_1d(rhs[-1, 1:-1], u[-1, 0], u[-1, -1], eig[0, 1:], corner)
    if R > 2:
        u[1:-1, 0] = _edge_solve_1d(rhs[1:-1, 0], u[0, 0], u[-1, 0], eig[1:, 0], corner)
        u[1:-1, -1] = _edge_solve_1d(rhs[1:-1, -1], u[0, -1], u[-1, -1], eig[1:, 0], corner)
    if R > 2 and C > 2:
        interior = rhs[1:-1, 1:-1] - plan.frame_load(u)[1:-1, 1:-1]
        u[1:-1, 1:-1] = _fft.dstn(_fft.dstn(interior, type=1, norm="ortho") / eig[1:, 1:],
                                  type=1, norm="ortho")
    return u


def fidelity_target(planner: SystemPlanner, f: np.ndarray):
    """``f`` as :func:`solve_and_blur` compares ``H u`` with it, for every plan
    of the planner (in their transform basis when they carry a blur symbol),
    and the fidelity ``||H f - f||^2`` of ``f`` itself, taken the same way."""
    if planner._blur_symbol is None:
        return f, float(np.sum((planner._blur(f) - f) ** 2))
    target = _analyze(planner.bc, f)
    return target, _squared_norm(planner, planner._blur_symbol * target - target)


def solve_and_blur(plan: SpectralPlan, rhs: np.ndarray, target: np.ndarray, start=None):
    """``solve_system(plan, rhs)``, the fidelity ``||H u - f||^2`` of its
    solution for the ``target`` that :func:`fidelity_target` made of ``f``,
    and the zero model's CG ``(iterations, relative residual)``, else ``None``.

    With a blur symbol (periodic, reflective with an odd centered kernel)
    the fidelity is the squared norm of the symbol times the solution's
    coefficients minus the target, by Parseval, so the update makes one
    forward and one inverse transform. Otherwise ``H u`` is the plan's
    ``blur``: an FFT pair on the CG grid for zero, a stencil apply for the
    rest. ``start`` is where the zero model's CG starts (zeros when
    ``None``); the other models ignore it.
    """
    if plan.blur_symbol is not None:
        u, coefficients = _transform_solve(plan, rhs)
        coefficients *= plan.blur_symbol
        coefficients -= target
        return u, _squared_norm(plan, coefficients), None
    if plan.bc == "zero":
        u, iterations, residual = _solve_zero(plan, rhs, start)
        cg = (iterations, residual)
    else:
        u, cg = solve_system(plan, rhs), None
    misfit = plan.blur(u) - target
    misfit *= misfit
    return u, float(np.sum(misfit)), cg

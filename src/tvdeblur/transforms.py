"""Transform-domain solvers for the restoration system.

The image update of the alternating-minimization loop solves

    (H'H + ratio * D'D) u = rhs

where the composite operator is, per boundary model, diagonalized by:

* ``periodic``        2-D real FFT;
* ``reflective``      2-D DCT-II (quadrantally symmetric kernels only);
* ``antireflective``  the antireflective transform (quadrantally symmetric
  kernels only): per axis, the two linear ramps through the end samples
  plus the DST-I sines that vanish there (Serra-Capizzano, SIAM J. Sci.
  Comput. 25, 2003; Arico, Donatelli & Serra-Capizzano, Linear Algebra
  Appl. 428, 2008). Its forward step keeps the four corners, subtracts from
  each frame edge the ramp through its two corners and takes a 1-D DST-I of
  the rest, and subtracts from the interior the bilinear (Coons) blend of
  the frame and takes a 2-D DST-I; the inverse undoes these in reverse.
  Along an axis of at most ``DENSE_SINE_MAX`` sines the DST-I is a product
  with the orthonormal sine matrix, which the planner builds once per axis
  length and its plans carry. Its cost depends on the length alone, where
  pocketfft's DST-I, a real FFT of length ``2 (m + 1)``, was 8-12 times
  slower at the benchmark's m = 102 and 126. Each of its BLAS calls makes at most ``BLAS_SERIAL_MADDS``
  multiply-adds, which OpenBLAS runs on one thread. Longer axes keep
  pocketfft's DST-I, so the update stays ``O(N log N)``;
* ``zero``            no fast transform exists; the plan falls back to
  conjugate gradients on the literal normal equations, preconditioned by
  the system of the plan's ``basis`` model, solved in its transform:
  ``reflective`` (DCT-II) when the kernel is quadrantally symmetric and its
  composite stencil fits the reflective ghost depth (the Neumann-boundary
  preconditioner of Ng, Chan & Tang, SIAM J. Sci. Comput. 21, 1999), else
  ``periodic`` (FFT; T. F. Chan's optimal circulant, SIAM J. Sci. Stat.
  Comput. 9, 1988). A matvec is ``H'H u`` plus ``ratio * D'D u``: H is the
  kernel's product from :func:`~tvdeblur.operators.fft_convolver`, H' the
  flipped kernel's, both built once per planner and kept on its plans as
  ``blur`` and ``correlate``, each a real-FFT pair on a grid of at least
  ``(R + kr - 1) x (C + kc - 1)``, whose zero padding supplies the zero
  model's ghosts. Norms go through :func:`_sum_of_squares` and dot products
  are NumPy sums, never BLAS, whose threads would spin against sweep
  workers. A cold CG (:func:`solve_system`, from zeros) stops once the
  unpreconditioned residual falls to ``CG_RTOL`` relative to the
  right-hand side. The solver loop's update starts from the current iterate
  and also stops at a forcing term, once the residual falls to
  ``CG_FORCING`` times that of its start (Eisenstat & Walker, SIAM J. Sci.
  Comput. 17, 1996): the loop needs only a step that lowers the image
  subproblem, which every CG step from there does; the start's residual is
  formed anyway, so the rule costs no matvec. Either raises
  ``ConvergenceError`` after ``CG_MAXITER`` iterations.

Every plan samples one symbol, the kernel's
``h(theta) = sum_st w[s,t] exp(-i (s theta_r + t theta_c))`` over its
offsets from the center (:func:`_symbol`), on its transform's grid:
``theta = 2 pi k / n`` for the FFT, ``pi k / n`` for the DCT-II and
``pi k / (n - 1)`` for the antireflective basis, where both ramps take
``theta = 0``. There the system's eigenvalues are
``|h|^2 + ratio * (4 - 2 cos theta_r - 2 cos theta_c)``: ``|h|^2`` is the
symbol of the kernel's autocorrelation, the stencil of H'H, and the rest
that of the five-point Laplacian D'D (Ng, Chan & Tang 1999;
Serra-Capizzano 2003). Neither stencil is built.

:func:`solve_and_blur` is the solver loop's image update: the solution and
its fidelity ``||H u - f||^2``, which the objective needs. For periodic
plans, and reflective ones whose kernel is odd and symmetric about its
center sample, the fidelity comes from the solution's own coefficients by
Parseval: the kernel's symbol times the coefficients, minus the transform
of ``f`` (:meth:`SystemPlanner.prepare`, taken once per solve), summed in the
transform domain, so the update makes one forward and one inverse
transform. The zero model's ``H u`` is the product its CG's final residual
check made, so the update makes no blur of its own. Otherwise ``H u`` is the
plan's ``blur``, a stencil convolver built once per planner, for
antireflective and even-extent reflective kernels; the first iterate's
fidelity comes the same way; this module makes no convolution of its own.
Every fidelity and squared norm the loop reads is one pass, a
non-optimized ``einsum`` (:func:`_sum_of_squares`).
:func:`solve_system` of every model but zero, the update and the CG
preconditioner share one analyze, divide and synthesize step.

Plans are deterministic and immutable. Every eigenvalue is non-negative by
construction; those below 1e-14 are raised to it (never silently: the count
is recorded on the plan and logged).
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as _fft

from .errors import (ConvergenceError, DataError, ShapeError, SingularPlanError,
                     SymmetryError, UnsupportedError)
from .grid import Psf, check_boundary_model
from .operators import (apply_correlation, differences, fft_convolver, stencil_convolver,
                        transpose_adjoint_gradient)
# Unused here, but perfbench/layers.py patches these names on this module.
from .operators import apply_blur, apply_stencil, gradient  # noqa: F401

logger = logging.getLogger(__name__)

EIG_FLOOR = 1e-14

#: The zero model's CG stops once ||b - Ax|| <= CG_RTOL * ||b||.
CG_RTOL = 1e-12

#: The forcing term of a warm-started CG, the solver loop's image update: it
#: stops once ||b - Ax|| <= max(CG_RTOL * ||b||, CG_FORCING * ||b - A x0||),
#: with x0 the start (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996).
CG_FORCING = 1e-5

#: Iteration cap of the zero model's CG. A cold 5x5 Gaussian solve at
#: alpha = 500 takes about 22 iterations, and gaussian_psf(5, 1) stays at
#: 37-39 at every size up to 192x192 at ratio 2e-6; a forced update from the
#: current iterate takes about 11. The count does grow with the image for
#: ill-conditioned kernels: a cold solve of H'f with the nonsymmetric
#: diagonal_motion_psf(7) at ratio 2e-6 (alpha = 1e6, first rung; only the
#: FFT preconditioner applies) took 1,755, 2,610 and 3,515 iterations at
#: 48x48, 96x96 and 192x192, about +900 per doubling of the side.
#: Extrapolated, such a solve reaches the cap between 512x512 and 768x768
#: and raises ConvergenceError there. The loop's forced updates of that
#: kernel took at most 1,280, 1,810 and 2,528 at the same sizes.
CG_MAXITER = 5000

#: The longest antireflective DST-I axis, ``m = n - 2``, taken as a product
#: with its sine matrix; longer axes take pocketfft's DST-I. Measured
#: pocketfft / dense time ratios of an m x m 2-D transform (2 vCPUs):
#: 30: 4.4, 46: 6.6, 62: 2.9, 95: 1.6, 102: 12.3, 126: 7.9, 127: 0.88,
#: 128: 1.95, 142: 1.38, 159: 0.58, 191: 0.44, 254: 0.48. Up to 128 the
#: dense product loses at most 1.14x (at 127, where 2 (m + 1) = 256) and
#: gains up to 12x; above it the O(m^3) product falls behind.
DENSE_SINE_MAX = 128

#: The most multiply-adds (m * k * n) in one BLAS call of the dense DST-I:
#: OpenBLAS runs a gemm of at most 65536 * 4 on one thread, and a second
#: thread would spin against the solve and sweep workers. DENSE_SINE_MAX^2
#: times a 16-row block fits it.
BLAS_SERIAL_MADDS = 65536 * 4


# --- plan machinery ---

def _symbol(weights, center, theta_r, theta_c) -> np.ndarray:
    """sum_st w[s,t] exp(-i (s theta_r + t theta_c)), over the stencil's
    offsets ``(s, t)`` from its center, sampled on the grid.

    The products are non-optimized ``einsum`` loops: a complex matmul of
    this size is a threaded BLAS call, whose spinning threads would compete
    with the solve and with sweep workers.
    """
    s = np.arange(weights.shape[0]) - center[0]
    t = np.arange(weights.shape[1]) - center[1]
    rows = np.einsum("is,st->it", np.exp(-1j * np.outer(theta_r, s)), weights)
    return np.einsum("it,tj->ij", rows, np.exp(-1j * np.outer(t, theta_c)))


def _sum_of_squares(x: np.ndarray) -> float:
    """The sum of the squares of a 2-D array's entries, in one pass and
    without a temporary: a non-optimized ``einsum`` loop, not a BLAS dot.
    Silent on overflow, which gives ``inf``."""
    return float(np.einsum("ij,ij->", x, x))


def _clamp(values):
    """Raise eigenvalues below EIG_FLOOR to it; report the count and the minimum."""
    return (np.maximum(values, EIG_FLOOR), int(np.count_nonzero(values < EIG_FLOOR)),
            float(values.min()))


@dataclass(frozen=True)
class SpectralPlan:
    """Prepared solve for one (kernel, shape, boundary model, ratio) tuple.

    ``basis`` is the transform: the model's own, or under ``zero`` that of
    its CG's preconditioner. ``eigenvalues`` are the system's under the
    ``basis`` model, in that transform:

    * periodic: the real-FFT half-spectrum, ``R x (C // 2 + 1)``, the
      system's symbol at ``theta = 2 pi k / R`` and ``2 pi l / C`` for
      ``l <= C // 2``;
    * reflective: the DCT-II eigenvalues, ``R x C``, the symbol at
      ``theta = pi k / R`` and ``pi l / C``;
    * antireflective: one eigenvalue per basis function, ``R x C``, laid out
      like the image the transform came from: the symbol at
      ``theta = pi k / (R - 1)`` and ``pi l / (C - 1)`` for
      ``k = 0 .. R - 2, 0`` and ``l = 0 .. C - 2, 0``, since the ramps at
      either end share ``theta = 0``. ``[1:-1, 1:-1]`` are the interior's
      DST-I eigenvalues, the rest of the frame rows and columns those of the
      edges, and the corners hold the kernel mass squared.

    Clamping, ``min_modulus`` (the smallest eigenvalue before clamping; all
    are non-negative) and ``clamp_count`` cover the distinct eigenvalues:
    the periodic half-spectrum, the reflective grid and the antireflective
    ``(R - 1) x (C - 1)`` grid before the ramps' copies.
    """

    bc: str
    basis: str
    shape: tuple[int, int]
    ratio: float
    eigenvalues: np.ndarray
    min_modulus: float
    clamp_count: int
    # the blur H of the solution, for the objective: a symbol in the plan's
    # transform basis (periodic, and reflective with an odd centered
    # kernel), else a callable u -> H u
    blur_symbol: np.ndarray | None = field(default=None, repr=False)
    blur: Callable | None = field(default=None, repr=False)
    # zero: v -> H'v, the flipped kernel's product
    correlate: Callable | None = field(default=None, repr=False)
    # antireflective: per axis, its DST-I sine matrix or None (_sine_matrices)
    sines: tuple = field(default=(None, None), repr=False)


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
        self.bc, self._psf = bc, psf
        if bc in ("reflective", "antireflective") and not psf.quadrantally_symmetric:
            raise SymmetryError(
                f"{bc} restoration requires a quadrantally symmetric kernel; "
                "use solve_enlarged with a reflective or antireflective extension instead")
        if psf.mass ** 2 < EIG_FLOOR:
            raise SingularPlanError(
                f"kernel mass {psf.mass:.3e} makes the zero-frequency mode numerically singular")
        self._blur_symbol, self._blur, self._correlate = None, None, None
        if bc in ("zero", "periodic") and (psf.rows > self.shape[0]
                                           or psf.cols > self.shape[1]):
            raise UnsupportedError(
                f"kernel support {(psf.rows, psf.cols)} exceeds image dims {self.shape}")
        # how far H'H, the kernel's autocorrelation, reaches past its center
        depth = max(psf.rows, psf.cols) - 1
        # under zero, the preconditioner's transform
        fits_dct = psf.quadrantally_symmetric and depth <= min(self.shape)
        self.basis = bc if bc != "zero" else "reflective" if fits_dct else "periodic"
        # the transform's grid: theta = 2 pi k / n for the real FFT, whose
        # half-spectrum keeps l <= C // 2; pi k / n for the DCT-II; and
        # pi k / (n - 1) for the antireflective basis, whose ramps share k = 0
        (R, C), short = self.shape, int(bc == "antireflective")
        if self.basis == "periodic":
            theta_r = 2 * np.pi * np.arange(R) / R
            theta_c = 2 * np.pi * np.arange(C // 2 + 1) / C
        elif depth > min(R, C) - short:
            raise UnsupportedError(f"composite stencil ghost depth {depth} exceeds the "
                                   f"extension cap {min(R, C) - short}")
        else:
            theta_r, theta_c = (np.pi * np.arange(n - short) / (n - short) for n in (R, C))
        self.sines = _sine_matrices(self.shape) if bc == "antireflective" else (None, None)
        symbol = _symbol(psf.weights, psf.center, theta_r, theta_c)
        self._blur_eig = np.abs(symbol) ** 2
        self._lap_eig = (2 - 2 * np.cos(theta_r))[:, None] + (2 - 2 * np.cos(theta_c))
        # the blur itself is diagonal in the FFT basis, and in the DCT-II
        # basis when the kernel is symmetric about its center sample (Ng,
        # Chan & Tang 1999); under zero, H and H', the flipped kernel's
        # product and the exact transpose there, are FFT products
        if bc == "zero":
            flipped = psf.flipped()
            self._blur = fft_convolver(psf.weights, psf.center, bc, self.shape)
            self._correlate = fft_convolver(flipped.weights, flipped.center, bc, self.shape)
        elif bc == "periodic":
            self._blur_symbol = symbol
        elif (bc == "reflective" and psf.rows % 2 and psf.cols % 2
                and psf.center == (psf.rows // 2, psf.cols // 2)):
            self._blur_symbol = symbol.real.copy()  # contiguous, for the per-iteration product
        else:
            self._blur = stencil_convolver(psf.weights, psf.center, bc, self.shape)

    def plan(self, ratio: float) -> SpectralPlan:
        if not (np.isfinite(ratio) and ratio >= 0):
            raise DataError(f"ratio must be finite and non-negative, got {ratio}")
        eig, count, mn = _clamp(self._blur_eig + ratio * self._lap_eig)
        if count:
            logger.warning("%s plan: clamped %d eigenvalue(s) below %g",
                           self.basis, count, EIG_FLOOR)
        if self.basis == "antireflective":
            eig = eig[np.ix_(*(np.r_[0:n - 1, 0] for n in self.shape))]
        return SpectralPlan(self.bc, self.basis, self.shape, float(ratio), eigenvalues=eig,
                            min_modulus=mn, clamp_count=count, blur_symbol=self._blur_symbol,
                            blur=self._blur, correlate=self._correlate, sines=self.sines)

    def prepare(self, f: np.ndarray):
        """The data every solve with these plans shares: ``H'f`` (from
        :func:`~tvdeblur.operators.apply_correlation`), ``f`` as
        :func:`solve_and_blur` compares ``H u`` with it (in the transform
        basis when the plans carry a blur symbol), and the fidelity
        ``||H f - f||^2`` of ``f`` itself, taken the same way."""
        corr_f = apply_correlation(f, self._psf, self.bc)
        if self._blur_symbol is None:
            return corr_f, f, _sum_of_squares(self._blur(f) - f)
        target = _analyze(self, f)
        return corr_f, target, _squared_norm(self, self._blur_symbol * target - target)


def _solve_zero(plan: SpectralPlan, rhs: np.ndarray, start=None):
    """Preconditioned CG on the literal normal equations; exact transposes,
    matrix-free. Starts from ``start`` (zeros when ``None``) and stops once
    the residual falls to ``CG_RTOL * ||b||``, or from a ``start`` to
    ``CG_FORCING`` times its own residual if that is larger. Returns the
    solution x, the CG numerics ``(iterations, start residual, final
    residual)``, both residuals relative to ``||b||``, and ``H x``, the
    product the final residual's check made."""
    def matvec(u):
        """``(A u, H u)``."""
        blurred = plan.blur(u)
        regularizer = plan.ratio * transpose_adjoint_gradient(differences(u, "zero"), "zero")
        return plan.correlate(blurred) + regularizer, blurred

    b_norm = math.sqrt(_sum_of_squares(rhs))
    if b_norm == 0:
        # the solution is zero whatever the start; a tolerance of 0 could
        # not be met from a nonzero one
        return np.zeros(rhs.shape), (0, 0.0, 0.0), np.zeros(rhs.shape)
    if start is None:
        x, r = np.zeros(rhs.shape), rhs.copy()
        r_norm, tol = b_norm, CG_RTOL * b_norm
    else:
        x = np.array(start, dtype=float)
        r = rhs - matvec(x)[0]
        r_norm = math.sqrt(_sum_of_squares(r))
        tol = max(CG_RTOL * b_norm, CG_FORCING * r_norm)
    start_residual, steps = r_norm / b_norm, 0
    while r_norm > tol and steps < CG_MAXITER:
        z = _transform_solve(plan, r)[0]
        rho = np.sum(r * z)
        p = z if steps == 0 else z + (rho / rho_prev) * p
        q = matvec(p)[0]
        alpha = rho / np.sum(p * q)
        x += alpha * p
        r -= alpha * q
        r_norm = math.sqrt(_sum_of_squares(r))
        rho_prev, steps = rho, steps + 1
    product, blurred = matvec(x)
    residual = math.sqrt(_sum_of_squares(rhs - product)) / b_norm
    if r_norm > tol:
        raise ConvergenceError(
            f"zero-boundary CG stopped after {steps} iterations at relative residual "
            f"{residual:.3e}, above its tolerance {tol / b_norm:g} (info={steps})")
    return x, (steps, start_residual, residual), blurred


def _sine_matrix(m: int) -> np.ndarray:
    """The orthonormal DST-I matrix of length ``m``, symmetric:
    ``sqrt(2 / (m + 1)) sin(pi j k / (m + 1))`` for ``j, k = 1 .. m``. The
    product ``j k`` is reduced modulo the period ``2 (m + 1)`` in integers,
    so every argument is below ``2 pi``: unreduced, the rounding of large
    arguments moved benchmark restorations by up to 2.9e-12 from pocketfft's,
    against 1.0e-13 reduced."""
    jk = np.outer(np.arange(1, m + 1), np.arange(1, m + 1)) % (2 * (m + 1))
    return math.sqrt(2 / (m + 1)) * np.sin(np.pi / (m + 1) * jk)


def _sine_matrices(shape) -> tuple:
    """Per axis of an antireflective grid, the sine matrix of its DST-I
    length ``m = n - 2`` when ``1 <= m <= DENSE_SINE_MAX``, else ``None``
    (pocketfft's DST-I, or no sines at ``m = 0``); one matrix per length."""
    lengths = [n - 2 for n in shape]
    built = {m: _sine_matrix(m) for m in set(lengths) if 1 <= m <= DENSE_SINE_MAX}
    return tuple(built.get(m) for m in lengths)


def _dst(x: np.ndarray, sine, axis: int) -> np.ndarray:
    """The orthonormal DST-I of the 2-D ``x`` along ``axis``: pocketfft's when
    ``sine`` is ``None``, else the product with that symmetric matrix, one
    batched ``np.matmul`` over zero-padded blocks of rows (of ``x.T`` along
    axis 0), each a BLAS call of at most ``BLAS_SERIAL_MADDS`` multiply-adds."""
    if sine is None:
        return _fft.dst(x, type=1, norm="ortho", axis=axis)
    rows = x if axis == 1 else x.T
    p, m = rows.shape
    blocks = -(-p // (BLAS_SERIAL_MADDS // (m * m)))
    size = -(-p // blocks)  # balanced, at most BLAS_SERIAL_MADDS // m^2
    padded = np.zeros((blocks * size, m))
    padded[:p] = rows
    out = np.matmul(padded.reshape(blocks, size, m), sine).reshape(-1, m)[:p]
    return out if axis == 1 else out.T


def _antireflective(x: np.ndarray, sines, inverse: bool = False) -> np.ndarray:
    """``x`` in the antireflective basis, or with ``inverse`` the image with
    coefficients ``x``; a new array either way. ``sines`` are the grid's
    :func:`_sine_matrices`, which its planner builds and its plans carry.

    Forward: the corners stay, each frame edge loses the ramp through its
    two corners and the interior loses the bilinear (Coons) blend of the
    frame; then the edges take a 1-D DST-I and the interior a 2-D DST-I.
    The inverse runs the same steps backwards (the orthonormal DST-I is its
    own inverse).

    The DST-I along an axis whose sine length ``m = n - 2`` is at most
    ``DENSE_SINE_MAX`` is a product with its sine matrix (:func:`_dst`),
    taken on the columns ``1 .. n - 2`` of the whole image at once, the top
    and bottom edges with the interior, and then on the rows, the left and
    right edges with the interior. Below the cutoff the cost depends on the
    length alone, not on the factors of ``2 (m + 1)``, the length of the
    real FFT behind pocketfft's DST-I: a 2-D DST-I took 0.12 and 0.18 ms
    dense at m = 102 and 126 against 1.44 and 1.45 ms with pocketfft, whose
    FFTs of 2 * 103 and 2 * 127 fall back to Bluestein (2 vCPUs). Longer
    axes keep pocketfft, so the update stays ``O(N log N)``; when both do,
    the edges take ``dst`` and the interior ``dstn``, as before the dense
    route.

    The blend is taken as the whole top and bottom rows blended down the
    columns plus the left and right edges less their ramps blended across
    the rows, so it falls between the two pairs of edges' ramp steps. Its
    products are non-optimized ``einsum`` loops, not BLAS calls. An axis of
    two samples has only the ramps.
    """
    out = np.array(x, dtype=float)
    R, C = out.shape
    s, t = (np.arange(1, n - 1) / (n - 1) for n in (R, C))
    down, across = np.stack([1 - s, s], axis=1), np.stack([1 - t, t])
    corners = out[::R - 1, ::C - 1]
    rows, cols, inner = out[::R - 1, 1:-1], out[1:-1, ::C - 1], out[1:-1, 1:-1]
    sine_r, sine_c = sines

    def blend():
        return np.einsum("ik,kj->ij", np.hstack([down, cols]), np.vstack([rows, across]))

    def transform():
        # scipy.fft rejects a transform of length 0
        if sine_r is None and sine_c is None:
            if C > 2:
                rows[...] = _fft.dst(rows, type=1, norm="ortho", axis=1)
            if R > 2:
                cols[...] = _fft.dst(cols, type=1, norm="ortho", axis=0)
            if R > 2 and C > 2:
                inner[...] = _fft.dstn(inner, type=1, norm="ortho")
            return
        if C > 2:
            out[:, 1:-1] = _dst(out[:, 1:-1], sine_c, 1)
        if R > 2:
            out[1:-1] = _dst(out[1:-1], sine_r, 0)

    if inverse:
        transform()
        rows += np.einsum("ik,kj->ij", corners, across)
        inner += blend()
        cols += np.einsum("ik,kj->ij", down, corners)
    else:
        cols -= np.einsum("ik,kj->ij", down, corners)
        inner -= blend()
        rows -= np.einsum("ik,kj->ij", corners, across)
        transform()
    return out


def _analyze(owner, image: np.ndarray) -> np.ndarray:
    """The image's coefficients in the transform basis of ``owner``, a plan
    or planner."""
    if owner.basis == "periodic":
        return _fft.rfft2(image)
    if owner.basis == "reflective":
        return _fft.dctn(image, type=2, norm="ortho")
    return _antireflective(image, owner.sines)


def _transform_solve(plan: SpectralPlan, rhs: np.ndarray):
    """The solution in the plan's transform basis, and its coefficients: the
    system's own for every model but zero, the preconditioner's for zero."""
    coefficients = _analyze(plan, rhs)
    coefficients /= plan.eigenvalues
    if plan.basis == "periodic":
        return _fft.irfft2(coefficients, s=plan.shape), coefficients
    if plan.basis == "reflective":
        return _fft.idctn(coefficients, type=2, norm="ortho"), coefficients
    return _antireflective(coefficients, plan.sines, inverse=True), coefficients


def _squared_norm(owner, coefficients: np.ndarray) -> float:
    """``||x||^2`` of the image x with these coefficients in the periodic or
    reflective basis of ``owner`` (a plan or planner), by Parseval.

    The orthonormal DCT needs no weights. A real-FFT half-spectrum row holds
    column 0, the columns 1 .. C/2 whose conjugates it leaves out, and for
    even C the Nyquist column, its own conjugate: the inner columns count
    twice, and the sum is divided by R*C. Each sum is one pass.
    """
    if owner.basis == "reflective":
        return _sum_of_squares(coefficients)
    (R, C), parts = owner.shape, coefficients.view(float)  # re, im interleaved
    own = _sum_of_squares(parts[:, :2]) + (
        _sum_of_squares(parts[:, -2:]) if C % 2 == 0 else 0.0)
    return (2.0 * _sum_of_squares(parts) - own) / (R * C)


def solve_system(plan: SpectralPlan, rhs: np.ndarray) -> np.ndarray:
    """Solve (H'H + ratio * D'D) u = rhs in the plan's transform basis."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != plan.shape:
        raise ShapeError(f"rhs shape {rhs.shape} does not match plan {plan.shape}")
    if plan.bc == "zero":
        return _solve_zero(plan, rhs)[0]
    return _transform_solve(plan, rhs)[0]


def solve_and_blur(plan: SpectralPlan, rhs: np.ndarray, target: np.ndarray, start=None):
    """``solve_system(plan, rhs)``, the fidelity ``||H u - f||^2`` of its
    solution for the ``target`` that :meth:`SystemPlanner.prepare` made of ``f``,
    and the zero model's CG ``(iterations, start residual, final residual)``,
    relative to ``||rhs||``, else ``None``. A zero solve from a ``start``
    stops at the forcing term, so its u is a descent step, not the solution.

    With a blur symbol (periodic, reflective with an odd centered kernel)
    the fidelity is the squared norm of the symbol times the solution's
    coefficients minus the target, by Parseval, so the update makes one
    forward and one inverse transform. For zero, ``H u`` is the product the
    CG's final residual check made; otherwise it is the plan's ``blur``, a
    stencil apply. ``start`` is where the zero model's CG starts (zeros when
    ``None``); the other models ignore it. ``rhs`` is only read.
    """
    if plan.blur_symbol is not None:
        u, coefficients = _transform_solve(plan, rhs)
        coefficients *= plan.blur_symbol
        coefficients -= target
        return u, _squared_norm(plan, coefficients), None
    if plan.bc == "zero":
        u, cg, blurred = _solve_zero(plan, rhs, start)
    else:
        u, cg = _transform_solve(plan, rhs)[0], None
        blurred = plan.blur(u)
    blurred -= target
    return u, _sum_of_squares(blurred), cg

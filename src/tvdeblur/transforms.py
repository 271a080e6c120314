"""Transform-domain solvers for the restoration system.

The image update of the alternating-minimization loop solves

    (H'H + ratio * D'D) u = rhs

where the composite operator is, per boundary model, diagonalized by:

* ``periodic``        2-D real FFT;
* ``reflective``      2-D DCT-II (quadrantally symmetric kernels only). On
  an R x C grid with ``R * C * max(R, C) <= BLAS_SERIAL_MADDS`` (up to
  64 x 64 for a square one) it is two products each way with the
  orthonormal cosine matrices, cached per length (:func:`_cosine_matrix`),
  each one single-threaded BLAS call: there pocketfft's per-call set-up
  cost about as much as the transform (a forward and inverse pair took 17
  and 34 us dense at 48 x 48 and 64 x 64, against 42 and 62 us). Larger
  grids keep pocketfft's: there one product would exceed the bound, and at
  120 x 120 the dense pair took 209 us against 174 (2 vCPUs);
* ``antireflective``  the antireflective transform (quadrantally symmetric
  kernels only): per axis, the two linear ramps through the end samples
  plus the DST-I sines that vanish there (Serra-Capizzano, SIAM J. Sci.
  Comput. 25, 2003; Arico, Donatelli & Serra-Capizzano, Linear Algebra
  Appl. 428, 2008). Along each axis the forward map takes from the samples
  ``1 .. n - 2`` the ramp through the two ends and takes a DST-I of what is
  left; the inverse runs this backwards, and the 2-D transform is one such
  map per axis. Along an axis of at most ``DENSE_AXIS_MAX`` sines the map,
  ramps included, is one product with its matrix, built once per length and
  process and cached (:func:`_antireflective_matrices`), so a grid whose
  axes are both that short takes two products each way and no other pass.
  Their cost depends on the length alone, where with the ramp steps and
  pocketfft's DST-I, a real FFT of length ``2 (m + 1)``, a forward and
  inverse pair was 7.7 and 6.6 times slower at the benchmark's m = 102 and
  126. Each of their BLAS calls makes at most ``BLAS_SERIAL_MADDS``
  multiply-adds, which OpenBLAS runs on one thread (:func:`_matmul_rows`).
  A longer axis keeps a ramp step and pocketfft's DST-I, so the update
  stays ``O(N log N)``. The basis also diagonalizes the blur
  itself when the kernel has odd extent and is centred on its middle
  sample: then H lies in the antireflective algebra, and its eigenvalues
  are the symbol on the system's grid;
* ``zero``            no fast transform exists; the plan falls back to
  conjugate gradients on the literal normal equations, preconditioned by
  the system of the plan's ``basis`` model, solved in its transform:
  ``reflective`` (DCT-II) when the kernel is quadrantally symmetric (the
  Neumann-boundary preconditioner of Ng, Chan & Tang, SIAM J. Sci. Comput.
  21, 1999), else ``periodic`` (FFT; T. F. Chan's optimal circulant, SIAM
  J. Sci. Stat. Comput. 9, 1988). A matvec is ``H'H u`` plus ``ratio * D'D u``: H, its
  exact transpose H' and H'H are built once per planner and kept on its
  plans as ``blur``, ``correlate`` and ``normal`` (:func:`_zero_products`).
  For a separable (rank-1) kernel on an image whose sides are both at most
  ``DENSE_AXIS_MAX`` H and H' are Kronecker products of two banded
  Toeplitz matrices, ``T_a u T_b'`` and ``T_a' v T_b``, and H'H is
  ``M_a u M_b`` with the Gram matrices ``M_a = T_a' T_a`` and
  ``M_b = T_b' T_b``: two single-threaded BLAS products each, and no
  transform. With the cosine-product DCT-II preconditioner a CG step on
  such a plan up to 64 x 64 makes no scipy.fft call. Otherwise H is the
  kernel's product from :func:`~tvdeblur.operators.fft_convolver`, H' the
  flipped kernel's, each a real-FFT pair on a grid of at least
  ``(R + kr - 1) x (C + kc - 1)``, whose zero padding supplies the zero
  model's ghosts, and H'H the one after the other. Each CG step takes
  ``normal``; the start residual and the final check take ``blur`` and
  then ``correlate``, since the final ``H x`` is the fidelity's. A norm of
  the right-hand side or start residual that overflows raises
  ``ConvergenceError``. Norms go through :func:`_sum_of_squares` and dot
  products are NumPy sums, never BLAS, whose threads would spin against
  sweep workers. A cold CG (:func:`solve_system`, from zeros) stops once the
  unpreconditioned residual falls to ``CG_RTOL`` relative to the
  right-hand side. The solver loop's update starts from the current iterate
  and also stops at a forcing term, once the residual falls to
  ``CG_FORCING`` times that of its start (Eisenstat & Walker, SIAM J. Sci.
  Comput. 17, 1996): the loop needs only a step that lowers the image
  subproblem, which every CG step from there does; the start's residual is
  formed anyway, so the rule costs no matvec. Either raises
  ``ConvergenceError`` after ``CG_MAXITER`` iterations.

Every model plans a kernel whose side along each axis is at most the
image's (:func:`~tvdeblur.grid.check_kernel_fits`, the check
:func:`~tvdeblur.operators.apply_blur` makes too): the transforms work one
axis at a time. Every plan samples one symbol, the kernel's
``h(theta) = sum_st w[s,t] exp(-i (s theta_r + t theta_c))`` over its
offsets from the center (:func:`_symbol`), on its transform's grid:
``theta = 2 pi k / n`` for the FFT, ``pi k / n`` for the DCT-II and
``pi [0 .. n - 2, 0] / (n - 1)`` for the antireflective basis, in the
layout of its coefficients, where both ramps take ``theta = 0``. There the
system's eigenvalues are
``|h|^2 + ratio * (4 - 2 cos theta_r - 2 cos theta_c)``: ``|h|^2`` is the
symbol of the kernel's autocorrelation, the stencil of H'H, and the rest
that of the five-point Laplacian D'D (Ng, Chan & Tang 1999;
Serra-Capizzano 2003). Neither stencil is built.

:func:`solve_and_blur` is the solver loop's image update: the solution and
its fidelity ``||H u - f||^2``, which the objective needs. For periodic
plans, and reflective and antireflective ones whose kernel has odd extent
and is centred on its middle sample, the fidelity comes from the solution's
own coefficients by Parseval: the kernel's symbol times the coefficients,
minus the transform of ``f`` (:meth:`SystemPlanner.prepare`, taken once per
solve), summed in the transform domain (:func:`_squared_norm`; the
antireflective basis is not orthonormal, and its norm adds a rank-4 frame
correction per axis, :func:`_frame_gram`), so the update makes one forward
and one inverse transform and no convolution. The zero model's ``H u`` is
the product its CG's final residual check made, so the update makes no blur
of its own. Otherwise ``H u`` is the plan's ``blur``, a stencil convolver
built once per planner, for even-extent or off-centre reflective and
antireflective kernels; the first iterate's fidelity comes the same way;
this module makes no convolution of its own.
Every fidelity and squared norm the loop reads is one pass, a
non-optimized ``einsum`` (:func:`_sum_of_squares`).
:func:`solve_system` of every model but zero, the update and the CG
preconditioner share one step (:func:`_transform_solve`): the forward
:func:`_transform` of the right-hand side, a division by the eigenvalues,
and the inverse. :func:`_transform` is the one place each basis names its
transform pair.

Plans are deterministic and immutable. Every eigenvalue is non-negative by
construction; those below 1e-14 are raised to it (never silently: the count
is recorded on the plan and logged).
"""

from __future__ import annotations

import functools
import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as _fft

from .errors import ConvergenceError, DataError, ShapeError, SingularPlanError, SymmetryError
from .grid import Psf, _real, _square, check_boundary_model, check_kernel_fits
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

#: The longest axis taken as a dense matrix product: the antireflective
#: transform's sine length ``m = n - 2``, whose map along the axis, ramps
#: included, is one product (longer axes take a ramp step and pocketfft's
#: DST-I), and both sides of a zero-model image whose separable kernel's CG
#: products are Toeplitz and Gram matrix products (larger images take FFT
#: products). Measured time ratios of an antireflective forward and inverse
#: pair on an (m + 2) x (m + 2) grid, ramp steps and pocketfft against the
#: two products each way (two runs, 2 vCPUs): 30: 11-12, 46: 11-12,
#: 62: 5.3-6.7, 95: 2.1-3.7, 102: 7.5-7.7, 126: 6.5-7.8, 127: 1.20-1.25,
#: 128: 2.4-2.7, 142: 1.8-1.9, 159: 0.57-0.61, 191: 0.56-0.58. Up to 128
#: the products win everywhere, least at 127, where 2 (m + 1) = 256; by 159
#: the O(m^3) products fall behind. FFT / Gram
#: time ratios of a CG step's ``H'H u`` for gaussian_psf(5, 1) on an n x n
#: image, the FFT pair against M_a u M_b (best of 7, 2-vCPU Xeon): 48: 11,
#: 64: 8.6, 96: 3.8-3.9, 104: 3.1, 112: 2.9, 120: 3.0, 127: 2.6,
#: 128: 2.2 (367 against 164-170 us); the Toeplitz H then H' that each
#: update's start and end take lost 0.86x at 128.
DENSE_AXIS_MAX = 128

#: The most multiply-adds (m * k * n) in one BLAS call of the dense routes,
#: the antireflective products, the DCT-II cosine products and the zero
#: model's Toeplitz and Gram products: OpenBLAS runs a gemm of at most
#: 65536 * 4 on one thread, and a second thread would spin against the solve
#: and sweep workers. (DENSE_AXIS_MAX + 2)^2 times a 15-row block fits it, and
#: so does each cosine product of an R x C image with R * C * max(R, C)
#: within it.
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
    are non-negative) and ``clamp_count`` cover ``eigenvalues`` itself, in
    every basis: the antireflective count includes the second ramp's row
    and column, which repeat ``theta = 0``.
    """

    bc: str
    basis: str
    shape: tuple[int, int]
    ratio: float
    eigenvalues: np.ndarray
    min_modulus: float
    clamp_count: int
    # the blur H of the solution, for the objective: a symbol in the plan's
    # transform basis (periodic; reflective and antireflective with a kernel
    # of odd extent centred on its middle sample, real, the antireflective
    # one laid out like its eigenvalues), else a callable u -> H u; under
    # zero, a Kronecker product of Toeplitz matrices for a separable kernel
    # up to DENSE_AXIS_MAX a side, else an FFT product (_zero_products)
    blur_symbol: np.ndarray | None = field(default=None, repr=False)
    blur: Callable | None = field(default=None, repr=False)
    # zero: v -> H'v, the exact transpose of blur, by the same route
    correlate: Callable | None = field(default=None, repr=False)
    # zero: u -> H'H u, each CG step's: the Gram products M_a u M_b on the
    # Kronecker route, else correlate(blur(u))
    normal: Callable | None = field(default=None, repr=False)


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
        if _square(psf.mass, "kernel mass") < EIG_FLOOR:
            raise SingularPlanError(
                f"kernel mass {psf.mass:.3e} makes the zero-frequency mode numerically singular")
        check_kernel_fits(psf, self.shape)
        self._blur_symbol, self._blur, self._correlate, self._normal = None, None, None, None
        # under zero, the preconditioner's transform
        self.basis = (bc if bc != "zero" else
                      "reflective" if psf.quadrantally_symmetric else "periodic")
        # the transform's grid: theta = 2 pi k / n for the real FFT, whose
        # half-spectrum keeps l <= C // 2; pi k / n for the DCT-II; and
        # pi [0 .. n - 2, 0] / (n - 1) for the antireflective basis, laid out
        # like its coefficients, whose ramps at either end share theta = 0
        R, C = self.shape
        if self.basis == "periodic":
            theta_r = 2 * np.pi * np.arange(R) / R
            theta_c = 2 * np.pi * np.arange(C // 2 + 1) / C
        elif self.basis == "reflective":
            theta_r, theta_c = (np.pi * np.arange(n) / n for n in (R, C))
        else:
            theta_r, theta_c = (np.pi * np.r_[0:n - 1, 0] / (n - 1) for n in (R, C))
        # a kernel with negative weights can have |h| above its mass, so the
        # mass check above does not bound |h|^2
        with np.errstate(over="ignore", invalid="ignore"):
            symbol = _symbol(psf.weights, psf.center, theta_r, theta_c)
            self._blur_eig = np.abs(symbol) ** 2
        if not np.isfinite(self._blur_eig).all():
            raise DataError("kernel spectrum |h|^2 overflows: "
                            f"the kernel's weights reach {np.abs(psf.weights).max():.3e}")
        self._lap_eig = (2 - 2 * np.cos(theta_r))[:, None] + (2 - 2 * np.cos(theta_c))
        # the blur itself is diagonal in the FFT basis, and in the DCT-II and
        # antireflective bases when the kernel is symmetric about its center
        # sample (Ng, Chan & Tang 1999; Serra-Capizzano 2003); under zero, H,
        # its exact transpose H' and H'H are matrix products (_zero_products)
        if bc == "zero":
            self._blur, self._correlate, self._normal = _zero_products(psf, self.shape)
        elif bc == "periodic":
            self._blur_symbol = symbol
        elif psf.rows % 2 and psf.cols % 2 and psf.center == (psf.rows // 2, psf.cols // 2):
            self._blur_symbol = symbol.real.copy()  # contiguous
        else:
            self._blur = stencil_convolver(psf.weights, psf.center, bc, self.shape)

    def plan(self, ratio: float) -> SpectralPlan:
        ratio = _real(ratio, "ratio", positive=False)
        eig, count, mn = _clamp(self._blur_eig + ratio * self._lap_eig)
        if count:
            logger.warning("%s plan: clamped %d eigenvalue(s) below %g",
                           self.basis, count, EIG_FLOOR)
        return SpectralPlan(self.bc, self.basis, self.shape, ratio, eigenvalues=eig,
                            min_modulus=mn, clamp_count=count, blur_symbol=self._blur_symbol,
                            blur=self._blur, correlate=self._correlate, normal=self._normal)

    def prepare(self, f: np.ndarray):
        """The data every solve with these plans shares: ``H'f`` (from
        :func:`~tvdeblur.operators.apply_correlation`, for every model), ``f``
        as :func:`solve_and_blur` compares ``H u`` with it (its transform,
        in any basis, when the plans carry a blur symbol), and the fidelity
        ``||H f - f||^2`` of ``f`` itself, taken the same way: from ``T f``
        by :func:`_squared_norm`, with no blur of ``f``, for symbol plans."""
        corr_f = apply_correlation(f, self._psf, self.bc)
        if self._blur_symbol is None:
            return corr_f, f, _sum_of_squares(self._blur(f) - f)
        target = _transform(self, f)
        return corr_f, target, _squared_norm(self, self._blur_symbol * target - target)


def _solve_zero(plan: SpectralPlan, rhs: np.ndarray, start=None):
    """Preconditioned CG on the literal normal equations; exact transposes,
    matrix-free. Starts from ``start`` (zeros when ``None``) and stops once
    the residual falls to ``CG_RTOL * ||b||``, or from a ``start`` to
    ``CG_FORCING`` times its own residual if that is larger. Returns the
    solution x, the CG numerics ``(iterations, start residual, final
    residual)``, both residuals relative to ``||b||``, and ``H x``, the
    product the final residual's check made. A right-hand side or start
    residual whose norm overflows raises ``ConvergenceError``: its tolerance
    would be infinite, met by any x.

    Each step's ``A p`` is ``plan.normal(p)`` plus the regularizer; the
    start residual and the final check take ``H`` and then ``H'``, since
    the final ``H x`` is the fidelity's.
    """
    def regularizer(u):
        return plan.ratio * transpose_adjoint_gradient(differences(u, "zero"), "zero")

    def matvec(u):
        """``(A u, H u)``."""
        blurred = plan.blur(u)
        return plan.correlate(blurred) + regularizer(u), blurred

    def finite(norm, name):
        if not math.isfinite(norm):
            raise ConvergenceError(f"zero-boundary CG: the norm of the {name} is {norm}; "
                                   "its tolerance would be met by any solution")
        return norm

    b_norm = finite(math.sqrt(_sum_of_squares(rhs)), "right-hand side")
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
        r_norm = finite(math.sqrt(_sum_of_squares(r)), "start residual")
        tol = max(CG_RTOL * b_norm, CG_FORCING * r_norm)
    start_residual, steps = r_norm / b_norm, 0
    while r_norm > tol and steps < CG_MAXITER:
        z = _transform_solve(plan, r)[0]
        rho = np.sum(r * z)
        p = z if steps == 0 else z + (rho / rho_prev) * p
        q = plan.normal(p) + regularizer(p)
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


@functools.cache
def _sine_matrix(m: int) -> np.ndarray:
    """The orthonormal DST-I matrix of length ``m``, symmetric:
    ``sqrt(2 / (m + 1)) sin(pi j k / (m + 1))`` for ``j, k = 1 .. m``. The
    product ``j k`` is reduced modulo the period ``2 (m + 1)`` in integers,
    so every argument is below ``2 pi``: unreduced, the rounding of large
    arguments moved benchmark restorations by up to 2.9e-12 from pocketfft's,
    against 1.0e-13 reduced. Cached and read-only: one matrix per length per
    process, and only :func:`_antireflective_matrices` asks for it."""
    jk = np.outer(np.arange(1, m + 1), np.arange(1, m + 1)) % (2 * (m + 1))
    sine = math.sqrt(2 / (m + 1)) * np.sin(np.pi / (m + 1) * jk)
    sine.setflags(write=False)
    return sine


@functools.cache
def _cosine_matrix(n: int) -> np.ndarray:
    """The orthonormal DCT-II matrix of length ``n``:
    ``s_k cos(pi k (2 j + 1) / (2 n))`` for row ``k`` and column
    ``j = 0 .. n - 1``, with ``s_0 = sqrt(1 / n)`` and ``s_k = sqrt(2 / n)``;
    its transpose is the inverse. The product ``k (2 j + 1)`` is reduced
    modulo the period ``4 n`` in integers, as in :func:`_sine_matrix`.
    Cached and read-only: one matrix per length per process, and
    :func:`_transform` asks only for grids within ``BLAS_SERIAL_MADDS``."""
    kj = np.outer(np.arange(n), 2 * np.arange(n) + 1) % (4 * n)
    cosine = math.sqrt(2 / n) * np.cos(np.pi / (2 * n) * kj)
    cosine[0] = math.sqrt(1 / n)
    cosine.setflags(write=False)
    return cosine


def _matmul_rows(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``rows @ matrix`` for a 2-D ``rows`` (p x k) and a k x n ``matrix``
    with ``k * n <= BLAS_SERIAL_MADDS``: one batched ``np.matmul`` over
    zero-padded, balanced blocks of rows, each a BLAS call of at most
    ``BLAS_SERIAL_MADDS`` multiply-adds (block rows times k times n), which
    OpenBLAS runs on one thread. C-contiguous rows that the blocks hold
    exactly (one block of every row, or 128 rows of 128 in eight) are
    blocked as a view, without the padded copy, which took about 40% of a
    48 x 48 product and 10% of a 128 x 128 one. A new C-contiguous array."""
    p, (k, n) = rows.shape[0], matrix.shape
    blocks = -(-p // (BLAS_SERIAL_MADDS // (k * n)))
    size = -(-p // blocks)  # balanced, at most BLAS_SERIAL_MADDS // (k n)
    # a transposed view would reach BLAS as a transposed operand, whose
    # rounding differs from a copy's
    if blocks * size != p or not rows.flags.c_contiguous:
        rows = np.concatenate([rows, np.zeros((blocks * size - p, k))])
    # one block is a plain 2-D product: the batched call and its reshapes
    # made a 48 x 48 zero-model restore 6% slower
    return (np.matmul(rows, matrix) if blocks == 1 else
            np.matmul(rows.reshape(blocks, size, k), matrix).reshape(-1, n)[:p])


def _toeplitz(taps: np.ndarray, center: int, n: int) -> np.ndarray:
    """The n x n matrix of the zero-boundary convolution of a length-n axis
    with the 1-D ``taps`` centred on sample ``center``, the output the size
    of the input: ``T[i, j] = taps[i - j + center]`` where that index is in
    range, else 0."""
    index = np.subtract.outer(np.arange(n), np.arange(n)) + center
    inside = (index >= 0) & (index < taps.size)
    return np.where(inside, taps[np.clip(index, 0, taps.size - 1)], 0.0)


def _zero_products(psf: Psf, shape):
    """The zero plan's ``blur``, ``correlate`` and ``normal``: ``u -> H u``,
    its exact transpose ``v -> H'v`` and ``u -> H'H u``.

    A separable kernel, ``w = a b'`` (``np.linalg.matrix_rank(w) == 1`` at
    NumPy's default tolerance; ``a`` and ``b`` are its first singular
    vectors scaled by the root of its singular value), on an image whose
    sides are both at most ``DENSE_AXIS_MAX`` blurs as an exact Kronecker
    product of two banded Toeplitz matrices (Hansen, Nagy & O'Leary,
    *Deblurring Images*, SIAM 2006, sec. 4.4): ``H u = T_a u T_b'`` and
    ``H'v = T_a' v T_b``, two :func:`_matmul_rows` products each, down the
    columns and then along the rows, so the result is C-contiguous; and
    ``H'H u = M_a u M_b`` with the Gram matrices ``M_a = T_a' T_a`` and
    ``M_b = T_b' T_b``, built once here, two products with no transposed
    copy. Any other kernel, or a side above the cutoff, takes
    :func:`~tvdeblur.operators.fft_convolver` products, the kernel's and the
    flipped kernel's, each a real-FFT pair on a grid of at least
    ``(R + kr - 1) x (C + kc - 1)``, whose zero padding supplies the ghosts;
    there ``H'H u`` is the one after the other.
    """
    if max(shape) <= DENSE_AXIS_MAX and np.linalg.matrix_rank(psf.weights) == 1:
        left, singular, right = np.linalg.svd(psf.weights)
        scale = math.sqrt(singular[0])
        t_a, t_b = (_toeplitz(scale * taps, c, n) for taps, c, n
                    in zip((left[:, 0], right[0]), psf.center, shape))
        # contiguous transposes: a transposed view made each product up to
        # 1.6x slower at 128^2
        ta_t, tb_t = np.ascontiguousarray(t_a.T), np.ascontiguousarray(t_b.T)
        gram_a, gram_b = _matmul_rows(ta_t, t_a), _matmul_rows(tb_t, t_b)
        return (lambda u: _matmul_rows(_matmul_rows(u.T, ta_t).T, tb_t),
                lambda v: _matmul_rows(_matmul_rows(v.T, t_a).T, t_b),
                lambda u: _matmul_rows(_matmul_rows(gram_a, u), gram_b))
    flipped = psf.flipped()
    blur = fft_convolver(psf.weights, psf.center, "zero", shape)
    correlate = fft_convolver(flipped.weights, flipped.center, "zero", shape)
    return blur, correlate, lambda u: correlate(blur(u))


@functools.cache
def _antireflective_matrices(n: int):
    """The antireflective transform along an axis of ``n`` samples, at most
    ``DENSE_AXIS_MAX`` sines, as ``((F, F'), (A, A'))``: its forward map
    ``F`` and inverse ``A``, each with its transpose, all C-contiguous. The
    row axis's product takes ``F`` or ``A`` from the left, the column axis's
    ``F'`` or ``A'`` from the right (:func:`_antireflective`): a transposed
    view as the right operand made a 104 x 104 forward and inverse pair
    about 1.3x slower, and as the left one it costs a transposing copy.

    With ``S = _sine_matrix(n - 2)`` and the ramp ``s = k / (n - 1)``,
    ``k = 1 .. n - 2``, ``F = [[1, 0, 0], [-S (1 - s), S, -S s], [0, 0, 1]]``
    takes the ramp through the two ends from the interior samples and the
    DST-I of what is left, and ``A = [1 - s | S | s]`` between unit end rows
    synthesizes the ramps and sines: ``F A = I``. For ``n = 2`` both are the
    identity. The ramp columns of ``F`` are in closed form: the interior of
    the ramp ``1 - s`` has the second difference ``e_1``, which the DST-I
    diagonalizes, so ``S (1 - s) = S e_1 / (2 - 2 cos theta)``, that is
    ``sqrt(2 / (n - 1)) cot(theta / 2) / 2`` at ``theta = pi k / (n - 1)``,
    and ``S s`` is the same with the sign of ``(-1)^(k + 1)``. Summed as
    ``S (1 - s)`` instead, their rounding moved the 127-sine transform by up
    to 2.0e-13 from pocketfft's over 40 draws, against 9.5e-14. Cached and
    read-only: one pair per length per process.
    """
    k = np.arange(1, n - 1)
    ramp = math.sqrt(0.5 / (n - 1)) / np.tan(np.pi / (2 * (n - 1)) * k)  # S (1 - s), closed
    forward, inverse = np.eye(n), np.eye(n)  # F' and A', row by row
    forward[1:-1, 1:-1] = inverse[1:-1, 1:-1] = _sine_matrix(n - 2)  # S' = S
    forward[::n - 1, 1:-1] = -ramp, ramp * (-1.0) ** k
    inverse[::n - 1, 1:-1] = 1 - k / (n - 1), k / (n - 1)
    maps = tuple((matrix.T.copy(), matrix) for matrix in (forward, inverse))
    for matrix in (*maps[0], *maps[1]):
        matrix.setflags(write=False)
    return maps


def _antireflective(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """``x`` in the antireflective basis, ``F_r x F_c'``, or with ``inverse``
    the image with coefficients ``x``, ``A_r x A_c'``; a new C-contiguous,
    writeable array either way, and ``x`` is only read (the solver passes
    its right-hand-side workspace, and :func:`solve_and_blur` scales the
    coefficients in place).

    Per axis, the forward map takes from the samples ``1 .. n - 2`` the ramp
    through the two ends, then the DST-I of what is left; the inverse takes
    the DST-I (the orthonormal DST-I is its own inverse) and adds the ramps
    back. Along an axis of at most ``DENSE_AXIS_MAX`` sines the map is one
    product with its cached matrix, ramps folded in
    (:func:`_antireflective_matrices`, :func:`_matmul_rows`); an axis of two
    samples has only the ramps, and its matrix is the identity. When both
    axes are that short, the transform is two products and nothing else,
    the row axis first: on the test draws of 127 sines the column axis first
    moved it by up to 8.5e-14 from pocketfft's, against 5.7e-14. A forward
    and inverse pair took 14, 26, 199-208 and 375-413 us at 26^2, 48^2,
    104^2 and 128^2, against 69-79, 120-126, 390-398 and 590-605 us with
    the ramp steps and DST-I products apart (best of four alternating runs,
    2 vCPUs). The cost depends on the length alone, not on the factors of
    ``2 (m + 1)``, the length of the real FFT behind pocketfft's DST-I,
    which falls back to Bluestein at m = 102 and 126.

    A longer axis keeps its ramp step, one rank-2 product, a non-optimized
    ``einsum`` loop, not a BLAS call, and pocketfft's DST-I, so the update
    stays ``O(N log N)``. Beside it the short axis's product is the same,
    but the row axis's runs on the transpose, ``(x' F_r')'``, once ``R C``
    exceeds ``BLAS_SERIAL_MADDS``: there even one row of ``F_r x`` would
    exceed the bound in one BLAS call. When both axes are longer, both ramp steps come
    first (last in the inverse), then the frame edges take a 1-D ``dst``
    and the interior a ``dstn``, which beat a ``dst`` along each axis by
    4-8% at m = 254 to 1022 (2 vCPUs).
    """
    R, C = x.shape
    long = [axis for axis, n in enumerate((R, C)) if n - 2 > DENSE_AXIS_MAX]

    def ramps(out, sign):
        s, t = (np.arange(1, n - 1) / (n - 1) for n in (R, C))
        if 0 in long:
            out[1:-1] += np.einsum("ik,kj->ij", sign * np.stack([1 - s, s], axis=1), out[::R - 1])
        if 1 in long:
            out[:, 1:-1] += np.einsum("ik,kj->ij", out[:, ::C - 1], sign * np.stack([1 - t, t]))

    out = np.array(x, dtype=float) if long else x
    if long and not inverse:
        ramps(out, -1.0)
    if len(long) == 2:
        out[::R - 1, 1:-1] = _fft.dst(out[::R - 1, 1:-1], type=1, norm="ortho", axis=1)
        out[1:-1, ::C - 1] = _fft.dst(out[1:-1, ::C - 1], type=1, norm="ortho", axis=0)
        out[1:-1, 1:-1] = _fft.dstn(out[1:-1, 1:-1], type=1, norm="ortho")
    elif long:
        inner = np.s_[:, 1:-1] if long[0] else np.s_[1:-1]
        out[inner] = _fft.dst(out[inner], type=1, norm="ortho", axis=long[0])
    for axis, n in enumerate((R, C)):
        if axis not in long:
            # the column axis: x F_c'; the row axis: F_r x, or (x' F_r')'
            left, right = _antireflective_matrices(n)[inverse]
            out = (_matmul_rows(out, right) if axis else _matmul_rows(left, out)
                   if R * C <= BLAS_SERIAL_MADDS else _matmul_rows(out.T, right).T)
    if long and inverse:
        ramps(out, 1.0)
    return np.ascontiguousarray(out)


def _transform(owner, x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """``x`` in the transform basis of ``owner``, a plan or planner, or with
    ``inverse`` the image with coefficients ``x``: the real 2-D FFT
    (periodic), the orthonormal DCT-II (reflective) or :func:`_antireflective`.
    An R x C DCT-II with ``R * C * max(R, C) <= BLAS_SERIAL_MADDS`` is two
    products with :func:`_cosine_matrix`, each one BLAS call on one thread;
    larger grids keep pocketfft's."""
    if owner.basis == "periodic":
        return _fft.irfft2(x, s=owner.shape) if inverse else _fft.rfft2(x)
    if owner.basis != "reflective":
        return _antireflective(x, inverse)
    R, C = x.shape
    if R * C * max(R, C) > BLAS_SERIAL_MADDS:
        return (_fft.idctn if inverse else _fft.dctn)(x, type=2, norm="ortho")
    rows, cols = _cosine_matrix(R), _cosine_matrix(C)
    if inverse:
        return np.matmul(np.matmul(rows.T, x), cols)
    return np.matmul(np.matmul(rows, x), cols.T)


def _transform_solve(plan: SpectralPlan, rhs: np.ndarray):
    """The solution in the plan's transform basis, and its coefficients: the
    system's own for every model but zero, the preconditioner's for zero."""
    coefficients = _transform(plan, rhs)
    coefficients /= plan.eigenvalues
    return _transform(plan, coefficients, inverse=True), coefficients


@functools.cache
def _frame_gram(n: int):
    """The rank-4 correction of the antireflective basis of length ``n`` to
    an orthonormal one, as ``(sines, gram)``.

    The inverse transform along the axis is ``A = [ramps | DST-I]``: column
    0 is the ramp ``1 - s`` and column ``n - 1`` the ramp ``s``, with
    ``s = k / (n - 1)``, and the columns between are the orthonormal sines
    ``S``, zero at both ends. Its Gram matrix is ``A'A = I + U B U'`` with
    ``U = [e_0, e_{n-1}, S (1 - s), S s]`` (the last two zero at both ends)
    and ``B = [[K, I_2], [I_2, 0]]``, where ``K`` is the Gram matrix of the
    ramps' interior samples ``1 .. n - 2``. ``sines`` is the 2 x (n - 2)
    array ``[S (1 - s), S s]'``, empty for ``n = 2``, and ``gram`` is ``B``.
    Both come from the transform itself, applied along the axis to the unit
    vectors ``e_0`` and ``e_{n-1}``: their synthesis is the two ramps, and
    minus their analysis is ``F``'s ramp columns, the sines of the ramps
    (:func:`_antireflective_matrices` up to ``DENSE_AXIS_MAX`` sines,
    pocketfft's DST-I of the ramps on a longer axis). Both depend on the
    length alone: cached and read-only, one pair per length per process,
    like :func:`_sine_matrix`.
    """
    ramps = _antireflective(np.eye(n)[::n - 1], inverse=True)[:, 1:-1]
    sines = -_antireflective(np.eye(n)[::n - 1])[:, 1:-1]
    gram = np.zeros((4, 4))
    gram[:2, :2] = np.einsum("ik,jk->ij", ramps, ramps)
    gram[:2, 2:] = gram[2:, :2] = np.eye(2)
    for array in (sines, gram):
        array.setflags(write=False)
    return sines, gram


def _squared_norm(owner, coefficients: np.ndarray) -> float:
    """``||x||^2`` of the image x with these coefficients in the basis of
    ``owner`` (a plan or planner), by Parseval.

    The orthonormal DCT needs no weights. A real-FFT half-spectrum row holds
    column 0, the columns 1 .. C/2 whose conjugates it leaves out, and for
    even C the Nyquist column, its own conjugate: the inner columns count
    twice, and the sum is divided by R*C. Each sum is one pass.

    The antireflective basis is not orthonormal, but its Gram matrix along
    each axis is the identity plus a rank-4 correction (:func:`_frame_gram`,
    ``A'A = I + U B U'``). With ``D`` the coefficients,
    ``||A_r D A_c'||^2 = ||D||^2 + <M, B_r M> + <N, N B_c> + <Q, B_r Q B_c>``
    for ``M = U_r' D`` (4 x C), ``N = D U_c`` (R x 4) and
    ``Q = U_r' D U_c`` (4 x 4): three passes over ``D``, each a
    non-optimized ``einsum`` loop, not a BLAS call. The layout of the
    products matters: with ``sines`` 2 x (n - 2), ``N``'s sine columns took
    37 us at 256 x 256, against 261 us for ``D[:, 1:-1]`` times an
    (n - 2) x 2 copy. The whole norm took 0.15 ms there, against 0.63 ms for
    the 3 x 3 stencil blur, subtraction and sum it replaces (2-vCPU Xeon).
    """
    if owner.basis == "reflective":
        return _sum_of_squares(coefficients)
    if owner.basis == "antireflective":
        (R, C), d = owner.shape, coefficients
        (sines_r, gram_r), (sines_c, gram_c) = _frame_gram(R), _frame_gram(C)
        m, n, q = np.empty((4, C)), np.empty((R, 4)), np.empty((4, 4))
        m[:2], m[2:] = d[::R - 1], np.einsum("ki,ij->kj", sines_r, d[1:-1])
        n[:, :2], n[:, 2:] = d[:, ::C - 1], np.einsum("kj,ij->ik", sines_c, d[:, 1:-1])
        q[:, :2], q[:, 2:] = m[:, ::C - 1], np.einsum("kj,ij->ik", sines_c, m[:, 1:-1])
        return float(_sum_of_squares(d) + np.einsum("ai,ab,bi->", m, gram_r, m)
                     + np.einsum("ia,ab,ib->", n, gram_c, n)
                     + np.einsum("ad,ab,bc,cd->", q, gram_r, q, gram_c))
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

    With a blur symbol (periodic; reflective and antireflective with a
    kernel of odd extent centred on its middle sample) the fidelity is the
    squared norm of the symbol times the solution's coefficients minus the
    target, by Parseval (:func:`_squared_norm`, with the antireflective
    frame correction), so the update makes one forward and one inverse
    transform and no convolution. For zero, ``H u`` is the product the CG's
    final residual check made; otherwise it is the plan's ``blur``, a
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

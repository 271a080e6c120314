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
  Appl. 428, 2008). Its forward step takes from every column's samples
  ``1 .. R - 2`` the ramp through its two ends, then from every row's
  ``1 .. C - 2`` the same (the two steps commute), and takes a DST-I along
  each axis of what is left; the inverse runs these backwards. Along an axis
  of at most ``DENSE_AXIS_MAX`` sines the DST-I is a product with the
  orthonormal sine matrix, built once per length and process and cached
  (:func:`_sine_matrix`). Its cost depends on the length alone, where
  pocketfft's DST-I, a real FFT of length ``2 (m + 1)``, was 8-12 times
  slower at the benchmark's m = 102 and 126. Each of its BLAS calls makes
  at most ``BLAS_SERIAL_MADDS`` multiply-adds, which OpenBLAS runs on one
  thread (:func:`_matmul_rows`). Longer axes keep pocketfft's DST-I, so
  the update stays ``O(N log N)``;
* ``zero``            no fast transform exists; the plan falls back to
  conjugate gradients on the literal normal equations, preconditioned by
  the system of the plan's ``basis`` model, solved in its transform:
  ``reflective`` (DCT-II) when the kernel is quadrantally symmetric and its
  composite stencil fits the reflective ghost depth (the Neumann-boundary
  preconditioner of Ng, Chan & Tang, SIAM J. Sci. Comput. 21, 1999), else
  ``periodic`` (FFT; T. F. Chan's optimal circulant, SIAM J. Sci. Stat.
  Comput. 9, 1988). A matvec is ``H'H u`` plus ``ratio * D'D u``: H and
  its exact transpose H' are built once per planner and kept on its plans
  as ``blur`` and ``correlate`` (:func:`_zero_products`). For a separable
  (rank-1) kernel on an image whose sides are both at most
  ``DENSE_AXIS_MAX`` they are Kronecker products of two banded Toeplitz
  matrices, ``T_a u T_b'`` and ``T_a' v T_b``, each two single-threaded
  BLAS products and no transform; otherwise H is the kernel's product from
  :func:`~tvdeblur.operators.fft_convolver` and H' the flipped kernel's,
  each a real-FFT pair on a grid of at least
  ``(R + kr - 1) x (C + kc - 1)``, whose zero padding supplies the zero
  model's ghosts. Norms go through :func:`_sum_of_squares` and dot
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

from .errors import (ConvergenceError, ShapeError, SingularPlanError,
                     SymmetryError, UnsupportedError)
from .grid import Psf, _real, check_boundary_model
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
#: DST-I's sine length ``m = n - 2`` (longer axes take pocketfft's DST-I),
#: and both sides of a zero-model image whose separable kernel's CG
#: products are Toeplitz matrix products (larger images take FFT products).
#: Measured pocketfft / dense time ratios of an m x m 2-D DST-I (2 vCPUs):
#: 30: 4.4, 46: 6.6, 62: 2.9, 95: 1.6, 102: 12.3, 126: 7.9, 127: 0.88,
#: 128: 1.95, 142: 1.38, 159: 0.58, 191: 0.44, 254: 0.48. Up to 128 the
#: dense product loses at most 1.14x (at 127, where 2 (m + 1) = 256) and
#: gains up to 12x; above it the O(m^3) product falls behind. FFT / Toeplitz
#: time ratios of ``H'H u`` for gaussian_psf(5, 1) on an n x n image (best
#: of 7, 2-vCPU Xeon): 48: 3.2-3.4, 64: 2.7, 96: 1.3-1.4, 104: 1.25,
#: 112: 1.18, 120: 1.13, 127: 1.08, 128: 0.86, 160: 1.1, 192: 0.42,
#: 256: 0.55; the crossover sits at the cutoff.
DENSE_AXIS_MAX = 128

#: The most multiply-adds (m * k * n) in one BLAS call of the dense routes,
#: the DST-I and the zero model's Toeplitz products: OpenBLAS runs a gemm of at most 65536 * 4 on one thread, and a second
#: thread would spin against the solve and sweep workers. DENSE_AXIS_MAX^2
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
    # kernel), else a callable u -> H u; under zero, a Kronecker product of
    # Toeplitz matrices for a separable kernel up to DENSE_AXIS_MAX a side,
    # else an FFT product (_zero_products)
    blur_symbol: np.ndarray | None = field(default=None, repr=False)
    blur: Callable | None = field(default=None, repr=False)
    # zero: v -> H'v, the exact transpose of blur, by the same route
    correlate: Callable | None = field(default=None, repr=False)


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
        symbol = _symbol(psf.weights, psf.center, theta_r, theta_c)
        self._blur_eig = np.abs(symbol) ** 2
        self._lap_eig = (2 - 2 * np.cos(theta_r))[:, None] + (2 - 2 * np.cos(theta_c))
        # the blur itself is diagonal in the FFT basis, and in the DCT-II
        # basis when the kernel is symmetric about its center sample (Ng,
        # Chan & Tang 1999); under zero, H and its exact transpose H' are
        # matrix products (_zero_products)
        if bc == "zero":
            self._blur, self._correlate = _zero_products(psf, self.shape)
        elif bc == "periodic":
            self._blur_symbol = symbol
        elif (bc == "reflective" and psf.rows % 2 and psf.cols % 2
                and psf.center == (psf.rows // 2, psf.cols // 2)):
            self._blur_symbol = symbol.real.copy()  # contiguous, for the per-iteration product
        else:
            self._blur = stencil_convolver(psf.weights, psf.center, bc, self.shape)

    def plan(self, ratio: float) -> SpectralPlan:
        ratio = _real(ratio, "ratio", positive=False)
        eig, count, mn = _clamp(self._blur_eig + ratio * self._lap_eig)
        if count:
            logger.warning("%s plan: clamped %d eigenvalue(s) below %g",
                           self.basis, count, EIG_FLOOR)
        if self.basis == "antireflective":
            eig = eig[np.ix_(*(np.r_[0:n - 1, 0] for n in self.shape))]
        return SpectralPlan(self.bc, self.basis, self.shape, ratio, eigenvalues=eig,
                            min_modulus=mn, clamp_count=count, blur_symbol=self._blur_symbol,
                            blur=self._blur, correlate=self._correlate)

    def prepare(self, f: np.ndarray):
        """The data every solve with these plans shares: ``H'f`` (from
        :func:`~tvdeblur.operators.apply_correlation`), ``f`` as
        :func:`solve_and_blur` compares ``H u`` with it (in the transform
        basis when the plans carry a blur symbol), and the fidelity
        ``||H f - f||^2`` of ``f`` itself, taken the same way."""
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


@functools.cache
def _sine_matrix(m: int) -> np.ndarray:
    """The orthonormal DST-I matrix of length ``m``, symmetric:
    ``sqrt(2 / (m + 1)) sin(pi j k / (m + 1))`` for ``j, k = 1 .. m``. The
    product ``j k`` is reduced modulo the period ``2 (m + 1)`` in integers,
    so every argument is below ``2 pi``: unreduced, the rounding of large
    arguments moved benchmark restorations by up to 2.9e-12 from pocketfft's,
    against 1.0e-13 reduced. Cached and read-only: one matrix per length per
    process, and :func:`_dst` asks only for ``m <= DENSE_AXIS_MAX``."""
    jk = np.outer(np.arange(1, m + 1), np.arange(1, m + 1)) % (2 * (m + 1))
    sine = math.sqrt(2 / (m + 1)) * np.sin(np.pi / (m + 1) * jk)
    sine.setflags(write=False)
    return sine


def _matmul_rows(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``rows @ matrix`` for a 2-D ``rows`` (p x k) and a k x n ``matrix``
    with ``k * n <= BLAS_SERIAL_MADDS``: one batched ``np.matmul`` over
    zero-padded, balanced blocks of rows, each a BLAS call of at most
    ``BLAS_SERIAL_MADDS`` multiply-adds (block rows times k times n), which
    OpenBLAS runs on one thread; when one block holds every row, a plain
    ``np.matmul`` (the padded copy took about 40% of a 48 x 48 product). A
    new C-contiguous array."""
    p, (k, n) = rows.shape[0], matrix.shape
    blocks = -(-p // (BLAS_SERIAL_MADDS // (k * n)))
    if blocks == 1:
        # a transposed view would reach BLAS as a transposed operand, whose
        # rounding differs from the blocked route's
        return np.matmul(np.ascontiguousarray(rows), matrix)
    size = -(-p // blocks)  # balanced, at most BLAS_SERIAL_MADDS // (k n)
    padded = np.zeros((blocks * size, k))
    padded[:p] = rows
    return np.matmul(padded.reshape(blocks, size, k), matrix).reshape(-1, n)[:p]


def _dst(x: np.ndarray, axis: int) -> np.ndarray:
    """The orthonormal DST-I of the 2-D ``x`` along ``axis``: up to
    ``DENSE_AXIS_MAX`` samples, the product of the rows of ``x`` (of ``x.T``
    along axis 0) with the symmetric :func:`_sine_matrix` of that length
    (:func:`_matmul_rows`), else pocketfft's."""
    m = x.shape[axis]
    if m > DENSE_AXIS_MAX:
        return _fft.dst(x, type=1, norm="ortho", axis=axis)
    sine = _sine_matrix(m)
    return _matmul_rows(x, sine) if axis == 1 else _matmul_rows(x.T, sine).T


def _toeplitz(taps: np.ndarray, center: int, n: int) -> np.ndarray:
    """The n x n matrix of the zero-boundary convolution of a length-n axis
    with the 1-D ``taps`` centred on sample ``center``, the output the size
    of the input: ``T[i, j] = taps[i - j + center]`` where that index is in
    range, else 0."""
    index = np.subtract.outer(np.arange(n), np.arange(n)) + center
    inside = (index >= 0) & (index < taps.size)
    return np.where(inside, taps[np.clip(index, 0, taps.size - 1)], 0.0)


def _zero_products(psf: Psf, shape):
    """The zero plan's ``blur`` and ``correlate``, ``u -> H u`` and its exact
    transpose ``v -> H'v``.

    A separable kernel, ``w = a b'`` (``np.linalg.matrix_rank(w) == 1`` at
    NumPy's default tolerance; ``a`` and ``b`` are its first singular
    vectors scaled by the root of its singular value), on an image whose
    sides are both at most ``DENSE_AXIS_MAX`` blurs as an exact Kronecker
    product of two banded Toeplitz matrices (Hansen, Nagy & O'Leary,
    *Deblurring Images*, SIAM 2006, sec. 4.4): ``H u = T_a u T_b'`` and
    ``H'v = T_a' v T_b``, two :func:`_matmul_rows` products each, down the
    columns and then along the rows, so the result is C-contiguous. Any
    other kernel, or a side above the cutoff, takes
    :func:`~tvdeblur.operators.fft_convolver` products, the kernel's and the
    flipped kernel's, each a real-FFT pair on a grid of at least
    ``(R + kr - 1) x (C + kc - 1)``, whose zero padding supplies the ghosts.
    """
    if max(shape) <= DENSE_AXIS_MAX and np.linalg.matrix_rank(psf.weights) == 1:
        left, singular, right = np.linalg.svd(psf.weights)
        scale = math.sqrt(singular[0])
        t_a, t_b = (_toeplitz(scale * taps, c, n) for taps, c, n
                    in zip((left[:, 0], right[0]), psf.center, shape))
        # contiguous transposes: a transposed view made each product up to
        # 1.6x slower at 128^2
        ta_t, tb_t = np.ascontiguousarray(t_a.T), np.ascontiguousarray(t_b.T)
        return (lambda u: _matmul_rows(_matmul_rows(u.T, ta_t).T, tb_t),
                lambda v: _matmul_rows(_matmul_rows(v.T, t_a).T, t_b))
    flipped = psf.flipped()
    return (fft_convolver(psf.weights, psf.center, "zero", shape),
            fft_convolver(flipped.weights, flipped.center, "zero", shape))


def _antireflective(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """``x`` in the antireflective basis, or with ``inverse`` the image with
    coefficients ``x``; a new array either way.

    Forward: every column's samples ``1 .. R - 2`` lose the ramp through the
    column's two ends, then every row's ``1 .. C - 2`` lose the ramp through
    the row's (the two steps commute: each removes one axis's ramps); then
    the DST-I of what is left along each axis. The inverse takes the DST-I
    first (the orthonormal DST-I is its own inverse) and adds the ramps
    back. Each ramp step is one rank-2 product, a non-optimized ``einsum``
    loop, not a BLAS call; an axis of two samples has only the ramps.

    The DST-I along an axis of at most ``DENSE_AXIS_MAX`` sines is a product
    with its sine matrix (:func:`_dst`), taken on the columns ``1 .. C - 2``
    of the whole image at once, the top and bottom edges with the interior,
    and then on the rows ``1 .. R - 2``. Below the cutoff the cost depends on
    the length alone, not on the factors of ``2 (m + 1)``, the length of the
    real FFT behind pocketfft's DST-I: a 2-D DST-I took 0.12 and 0.18 ms
    dense at m = 102 and 126 against 1.44 and 1.45 ms with pocketfft, whose
    FFTs of 2 * 103 and 2 * 127 fall back to Bluestein (2 vCPUs). Longer
    axes keep pocketfft, so the update stays ``O(N log N)``; when both do,
    the frame edges take a 1-D ``dst`` and the interior a ``dstn``, which
    beat a ``dst`` along each axis by 4-8% at m = 254 to 1022 (2 vCPUs).
    """
    out = np.array(x, dtype=float)
    R, C = out.shape
    sign = 1.0 if inverse else -1.0

    def ramps():
        s, t = (np.arange(1, n - 1) / (n - 1) for n in (R, C))
        out[1:-1] += np.einsum("ik,kj->ij", sign * np.stack([1 - s, s], axis=1), out[::R - 1])
        out[:, 1:-1] += np.einsum("ik,kj->ij", out[:, ::C - 1], sign * np.stack([1 - t, t]))

    def transform():
        if min(R, C) - 2 > DENSE_AXIS_MAX:
            out[::R - 1, 1:-1] = _fft.dst(out[::R - 1, 1:-1], type=1, norm="ortho", axis=1)
            out[1:-1, ::C - 1] = _fft.dst(out[1:-1, ::C - 1], type=1, norm="ortho", axis=0)
            out[1:-1, 1:-1] = _fft.dstn(out[1:-1, 1:-1], type=1, norm="ortho")
            return
        # an axis of two samples has no sines
        if C > 2:
            out[:, 1:-1] = _dst(out[:, 1:-1], 1)
        if R > 2:
            out[1:-1] = _dst(out[1:-1], 0)

    for step in (transform, ramps) if inverse else (ramps, transform):
        step()
    return out


def _transform(owner, x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """``x`` in the transform basis of ``owner``, a plan or planner, or with
    ``inverse`` the image with coefficients ``x``: the real 2-D FFT
    (periodic), the orthonormal DCT-II (reflective) or :func:`_antireflective`."""
    if owner.basis == "periodic":
        return _fft.irfft2(x, s=owner.shape) if inverse else _fft.rfft2(x)
    if owner.basis == "reflective":
        return (_fft.idctn if inverse else _fft.dctn)(x, type=2, norm="ortho")
    return _antireflective(x, inverse)


def _transform_solve(plan: SpectralPlan, rhs: np.ndarray):
    """The solution in the plan's transform basis, and its coefficients: the
    system's own for every model but zero, the preconditioner's for zero."""
    coefficients = _transform(plan, rhs)
    coefficients /= plan.eigenvalues
    return _transform(plan, coefficients, inverse=True), coefficients


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

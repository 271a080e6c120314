"""Explicit dense operators on small square grids: the ground-truth oracle.

Every matrix here is assembled from first principles by resolving extended
indices through the boundary rule, one row at a time, independently of the
padded-convolution fast paths. The builders are deliberately plain (python
loops over kernel offsets) and capped at ``n <= 64``; they exist to pin down
the fast implementations, not to be fast themselves.

Images are flattened row-major: pixel ``(i, j)`` maps to ``i * n + j``.

The module imports nothing from ``operators`` or ``transforms``, the fast
paths it checks: its Laplacian literal and its kernel autocorrelation (a
plain loop over pairs of kernel taps) are its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, PreconditionError, ShapeError, UnsupportedError
from .grid import Psf, check_boundary_model

ORACLE_CAP = 64

#: Five-point Laplacian stencil with the sign making it positive semidefinite.
LAPLACIAN_STENCIL = np.array([[0.0, -1.0, 0.0],
                              [-1.0, 4.0, -1.0],
                              [0.0, -1.0, 0.0]])
LAPLACIAN_CENTER = (1, 1)


def resolve_index(i: int, n: int, bc: str):
    """Express the extended sample ``u_ext[i]`` as weighted interior samples.

    Returns a list of ``(index, weight)`` pairs; empty for zero boundaries.
    The antireflective rule ``u(-j) = 2 u(0) - u(j)`` (and its mirror at the
    far end) is applied recursively for indices more than one image length
    outside the frame.
    """
    if 0 <= i < n:
        return [(i, 1.0)]
    if bc == "zero":
        return []
    if bc == "periodic":
        return [(i % n, 1.0)]
    if bc == "reflective":
        if i < 0:
            return resolve_index(-1 - i, n, bc)
        return resolve_index(2 * n - 1 - i, n, bc)
    if bc == "antireflective":
        if i < 0:
            return [(0, 2.0)] + [(j, -w) for j, w in resolve_index(-i, n, bc)]
        return [(n - 1, 2.0)] + [(j, -w) for j, w in resolve_index(2 * (n - 1) - i, n, bc)]
    raise DataError(f"unknown boundary model {bc!r}")


def _check_cap(n: int):
    if n < 2:
        raise ShapeError(f"oracle grids need n >= 2, got {n}")
    if n > ORACLE_CAP:
        raise PreconditionError(f"dense oracle capped at n <= {ORACLE_CAP}, got {n}")


@dataclass(frozen=True)
class DenseOperator:
    """An explicit n^2 x n^2 matrix with a tag naming what it discretizes."""

    n: int
    matrix: np.ndarray
    tag: str

    def __post_init__(self):
        if self.matrix.shape != (self.n * self.n, self.n * self.n):
            raise ShapeError(f"matrix shape {self.matrix.shape} does not match n={self.n}")
        if not np.all(np.isfinite(self.matrix)):
            raise DataError("dense operator contains non-finite entries")

    def apply(self, u: np.ndarray) -> np.ndarray:
        return (self.matrix @ np.asarray(u, dtype=float).ravel()).reshape(self.n, self.n)

    def solve(self, b: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.matrix, np.asarray(b, dtype=float).ravel()).reshape(self.n, self.n)


def build_stencil_matrix(weights: np.ndarray, center, n: int, bc: str, tag: str = "stencil") -> DenseOperator:
    """Dense operator for out[i,j] = sum_ab w[a,b] u_ext[i-(a-cr), j-(b-cc)]."""
    check_boundary_model(bc)
    _check_cap(n)
    weights = np.asarray(weights, dtype=float)
    pr, pc = weights.shape
    cr, cc = center
    # Ghost depth must respect the extension caps (one mirror application).
    depth = max(pr - 1 - cr, cr, pc - 1 - cc, cc)
    if bc == "reflective" and depth > n:
        raise UnsupportedError(f"stencil ghost depth {depth} exceeds reflective cap {n}")
    if bc == "antireflective" and depth >= n:
        raise UnsupportedError(f"stencil ghost depth {depth} exceeds antireflective cap {n - 1}")
    # Per-axis resolution tables for every offset the kernel can produce.
    row_maps = {}
    col_maps = {}
    for a in range(pr):
        d = a - cr
        row_maps[d] = [resolve_index(i - d, n, bc) for i in range(n)]
    for b in range(pc):
        d = b - cc
        col_maps[d] = [resolve_index(j - d, n, bc) for j in range(n)]
    M = np.zeros((n * n, n * n))
    for a in range(pr):
        rmap = row_maps[a - cr]
        for b in range(pc):
            w = weights[a, b]
            if w == 0.0:
                continue
            cmap = col_maps[b - cc]
            for i in range(n):
                for j in range(n):
                    row = i * n + j
                    for ii, wi in rmap[i]:
                        for jj, wj in cmap[j]:
                            M[row, ii * n + jj] += w * wi * wj
    return DenseOperator(n, M, tag)


def build_blur(psf: Psf, n: int, bc: str) -> DenseOperator:
    """Blur matrix H: column j is the blurred j-th unit impulse."""
    if psf.rows > n or psf.cols > n:
        raise UnsupportedError(f"psf support {(psf.rows, psf.cols)} exceeds grid {n}x{n}")
    return build_stencil_matrix(psf.weights, psf.center, n, bc, tag="blur")


def build_correlation(psf: Psf, n: int, bc: str) -> DenseOperator:
    """Correlation matrix H': the doubly-flipped kernel under the same rule."""
    if psf.rows > n or psf.cols > n:
        raise UnsupportedError(f"psf support {(psf.rows, psf.cols)} exceeds grid {n}x{n}")
    flipped = psf.flipped()
    return build_stencil_matrix(flipped.weights, flipped.center, n, bc, tag="correlation")


def _grad_1d(n: int, bc: str) -> np.ndarray:
    """Forward difference d[i] = u_ext[i+1] - u[i] as an n x n matrix."""
    D = np.zeros((n, n))
    for i in range(n):
        D[i, i] -= 1.0
        for j, w in resolve_index(i + 1, n, bc):
            D[i, j] += w
    return D


def _adjgrad_1d(n: int, bc: str) -> np.ndarray:
    """Flipped difference d[i] = z_ext[i-1] - z[i] under the same rule."""
    D = np.zeros((n, n))
    for i in range(n):
        D[i, i] -= 1.0
        for j, w in resolve_index(i - 1, n, bc):
            D[i, j] += w
    return D


def build_grad(n: int, direction: int, bc: str) -> DenseOperator:
    """Forward-difference matrix; direction 1 is horizontal, 2 vertical."""
    check_boundary_model(bc)
    _check_cap(n)
    if direction not in (1, 2):
        raise DataError(f"direction must be 1 or 2, got {direction}")
    d = _grad_1d(n, bc)
    eye = np.eye(n)
    M = np.kron(eye, d) if direction == 1 else np.kron(d, eye)
    return DenseOperator(n, M, tag=f"grad{direction}")


def build_adjgrad(n: int, direction: int, bc: str) -> DenseOperator:
    """Reblurred adjoint-difference matrix (flipped stencil, same closure)."""
    check_boundary_model(bc)
    _check_cap(n)
    if direction not in (1, 2):
        raise DataError(f"direction must be 1 or 2, got {direction}")
    d = _adjgrad_1d(n, bc)
    eye = np.eye(n)
    M = np.kron(eye, d) if direction == 1 else np.kron(d, eye)
    return DenseOperator(n, M, tag=f"adjgrad{direction}")


def autocorrelation(psf: Psf):
    """Autocorrelation stencil of the kernel, centered on its (2p-1)-grid.

    Every pair of kernel taps ``(i, j)`` and ``(k, l)`` adds its product at
    offset ``(i - k, j - l)``, so the declared center of the kernel drops
    out and the result is point-symmetric.
    """
    w = psf.weights
    p, q = w.shape
    a = np.zeros((2 * p - 1, 2 * q - 1))
    for i, j in np.ndindex(p, q):
        for k, l in np.ndindex(p, q):
            a[p - 1 + i - k, q - 1 + j - l] += w[i, j] * w[k, l]
    return a, (p - 1, q - 1)


def build_system(psf: Psf, n: int, bc: str, ratio: float) -> DenseOperator:
    """The matrix the restoration step must invert: H'H + ratio * D'D.

    The Laplacian part D'D is the boundary-closed five-point stencil, which
    makes it positive semidefinite; for zero and periodic models that equals
    the literal product of the difference matrices, and those models use the
    literal H'H product as well. For the antireflective model the blur part
    is the boundary-closed autocorrelation stencil (the composite the fast
    sine-transform solve diagonalizes); the reflective model keeps the
    literal blur product, which coincides with the autocorrelation stencil
    whenever the kernel is quadrantally symmetric.
    """
    check_boundary_model(bc)
    _check_cap(n)
    if ratio < 0:
        raise DataError(f"ratio must be non-negative, got {ratio}")
    if bc in ("zero", "periodic"):
        H = build_blur(psf, n, bc).matrix
        Hp = build_correlation(psf, n, bc).matrix
        M = Hp @ H
        for direction in (1, 2):
            D = build_grad(n, direction, bc).matrix
            Dp = build_adjgrad(n, direction, bc).matrix
            M = M + ratio * (Dp @ D)
        return DenseOperator(n, M, tag="system")
    if bc == "reflective":
        H = build_blur(psf, n, bc).matrix
        Hp = build_correlation(psf, n, bc).matrix
        lap = build_stencil_matrix(LAPLACIAN_STENCIL, LAPLACIAN_CENTER, n, bc).matrix
        return DenseOperator(n, Hp @ H + ratio * lap, tag="system")
    a, ac = autocorrelation(psf)
    lap = build_stencil_matrix(LAPLACIAN_STENCIL, LAPLACIAN_CENTER, n, bc).matrix
    return DenseOperator(n, build_stencil_matrix(a, ac, n, bc).matrix + ratio * lap,
                         tag="system")

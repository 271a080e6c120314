"""Explicit dense operators on small grids: the ground-truth oracle.

Every matrix here is assembled from first principles by resolving extended
indices through the boundary rule, one row at a time, independently of the
padded-convolution fast paths. One builder, :func:`build_stencil_matrix`,
assembles every operator on an ``R x C`` grid with 2 to 64 samples per side;
it is deliberately plain (python loops over kernel offsets) and exists to
pin down the fast implementations, not to be fast itself.

Images are flattened row-major: pixel ``(i, j)`` maps to ``i * C + j``.

The module imports nothing from ``operators``, ``transforms`` or
``solver``, the fast paths it checks: its difference and Laplacian
stencils and its kernel autocorrelation (a plain loop over pairs of kernel
taps) are its own.
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


@dataclass(frozen=True)
class DenseOperator:
    """An explicit (R*C) x (R*C) matrix on an ``R x C`` grid."""

    shape: tuple
    matrix: np.ndarray

    def __post_init__(self):
        size = self.shape[0] * self.shape[1]
        if self.matrix.shape != (size, size):
            raise ShapeError(f"matrix shape {self.matrix.shape} does not match grid {self.shape}")
        if not np.all(np.isfinite(self.matrix)):
            raise DataError("dense operator contains non-finite entries")

    def apply(self, u: np.ndarray) -> np.ndarray:
        return (self.matrix @ np.asarray(u, dtype=float).ravel()).reshape(self.shape)

    def solve(self, b: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.matrix, np.asarray(b, dtype=float).ravel()).reshape(self.shape)


def build_stencil_matrix(weights: np.ndarray, center, shape, bc: str) -> DenseOperator:
    """Dense operator for out[i,j] = sum_ab w[a,b] u_ext[i-(a-cr), j-(b-cc)]
    on the ``shape = (R, C)`` grid."""
    check_boundary_model(bc)
    rows, cols = shape
    weights = np.asarray(weights, dtype=float)
    cr, cc = center
    maps = []
    for n, taps, c in ((rows, weights.shape[0], cr), (cols, weights.shape[1], cc)):
        if n < 2:
            raise ShapeError(f"oracle grids need at least 2 samples per side, got {shape}")
        if n > ORACLE_CAP:
            raise PreconditionError(f"dense oracle capped at {ORACLE_CAP} per side, got {shape}")
        # Ghost depth must respect the extension caps (one mirror application).
        depth = max(taps - 1 - c, c)
        if bc == "reflective" and depth > n:
            raise UnsupportedError(f"stencil ghost depth {depth} exceeds reflective cap {n}")
        if bc == "antireflective" and depth >= n:
            raise UnsupportedError(
                f"stencil ghost depth {depth} exceeds antireflective cap {n - 1}")
        # Resolution table per axis: for each tap, each sample's extended source.
        maps.append([[resolve_index(i - (a - c), n, bc) for i in range(n)] for a in range(taps)])
    row_maps, col_maps = maps
    M = np.zeros((rows * cols, rows * cols))
    for (a, b), w in np.ndenumerate(weights):
        if w == 0.0:
            continue
        for i in range(rows):
            for j in range(cols):
                for ii, wi in row_maps[a][i]:
                    for jj, wj in col_maps[b][j]:
                        M[i * cols + j, ii * cols + jj] += w * wi * wj
    return DenseOperator((rows, cols), M)


def build_blur(psf: Psf, shape, bc: str) -> DenseOperator:
    """Blur matrix H: column j is the blurred j-th unit impulse."""
    if psf.rows > shape[0] or psf.cols > shape[1]:
        raise UnsupportedError(f"psf support {(psf.rows, psf.cols)} exceeds grid {shape}")
    return build_stencil_matrix(psf.weights, psf.center, shape, bc)


def build_correlation(psf: Psf, shape, bc: str) -> DenseOperator:
    """Correlation matrix H': the doubly-flipped kernel under the same rule."""
    return build_blur(psf.flipped(), shape, bc)


def _difference(stencil, center, shape, direction: int, bc: str) -> DenseOperator:
    """The 1x2 ``stencil`` along rows (direction 1) or its column (direction 2)."""
    if direction not in (1, 2):
        raise DataError(f"direction must be 1 or 2, got {direction}")
    if direction == 2:
        stencil, center = stencil.T, center[::-1]
    return build_stencil_matrix(stencil, center, shape, bc)


def build_grad(shape, direction: int, bc: str) -> DenseOperator:
    """Forward difference d = u_ext[+1] - u: the stencil [[1, -1]] centred on
    its -1; direction 1 is horizontal, 2 vertical."""
    return _difference(np.array([[1.0, -1.0]]), (0, 1), shape, direction, bc)


def build_adjgrad(shape, direction: int, bc: str) -> DenseOperator:
    """Reblurred adjoint difference d = z_ext[-1] - z: the forward stencil
    reversed, under the same closure."""
    return _difference(np.array([[-1.0, 1.0]]), (0, 0), shape, direction, bc)


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


def build_system(psf: Psf, shape, bc: str, ratio: float) -> DenseOperator:
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
    if ratio < 0:
        raise DataError(f"ratio must be non-negative, got {ratio}")
    if bc in ("zero", "periodic"):
        M = build_correlation(psf, shape, bc).matrix @ build_blur(psf, shape, bc).matrix
        for direction in (1, 2):
            D = build_grad(shape, direction, bc).matrix
            Dp = build_adjgrad(shape, direction, bc).matrix
            M = M + ratio * (Dp @ D)
    else:
        lap = build_stencil_matrix(LAPLACIAN_STENCIL, LAPLACIAN_CENTER, shape, bc).matrix
        if bc == "reflective":
            blur = build_correlation(psf, shape, bc).matrix @ build_blur(psf, shape, bc).matrix
        else:
            blur = build_stencil_matrix(*autocorrelation(psf), shape, bc).matrix
        M = blur + ratio * lap
    return DenseOperator(tuple(shape), M)

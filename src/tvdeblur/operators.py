"""Matrix-free image operators under the four boundary models.

Ghost pixels outside the frame are filled by the active boundary rule:

* ``zero``            u(-j) = 0
* ``periodic``        u(-j) = u(n-j)
* ``reflective``      u(-j) = u(j-1)          (mirror about the frame edge)
* ``antireflective``  u(-j) = 2 u(0) - u(j)   (point reflection about the
                      first sample, preserving linear trends)

:func:`extend` fills ghost pixels by a rule to per-side depths
``((top, bottom), (left, right))``, both for a stencil apply and for the
enlarged domain of a nonsymmetric solve; :func:`crop` strips them again.
Blur applies the kernel as a convolution over the extended image;
correlation applies the doubly-flipped kernel under the same rule, which is
the adjoint for zero and periodic models and the "reblurred" companion
operator otherwise. Every stencil goes through :func:`apply_stencil`, or
:func:`stencil_convolver` where one stencil is applied to one image shape
many times; both convolve stencils of at most ``DIRECT_MAX_TAPS`` taps (5x5)
directly and wider ones by a real FFT over the padded image, so a wide
kernel costs a few transforms rather than k^2 multiply-adds per pixel.
:func:`differences` is the unvalidated, plain-array form of
:func:`gradient`, and both divergences accept a plain pair ``(z1, z2)``, for
the solver's inner loop. All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as _fft
from scipy.signal import convolve2d

from .errors import PreconditionError, UnsupportedError
from .grid import GradientField, Psf, as_image, check_boundary_model

_PAD_KW = {
    "zero": dict(mode="constant"),
    "periodic": dict(mode="wrap"),
    "reflective": dict(mode="symmetric"),
    "antireflective": dict(mode="reflect", reflect_type="odd"),
}


def extend(u: np.ndarray, pads, extension: str) -> np.ndarray:
    """Pad ``u`` by ``pads = ((top, bottom), (left, right))`` per the rule."""
    check_boundary_model(extension)
    (pt, pb), (pl, pr) = pads
    if min(pt, pb, pl, pr) < 0:
        raise PreconditionError(f"negative padding {pads}")
    rows, cols = u.shape
    # One application of the mirror rules reaches at most one image length.
    if extension == "reflective" and (max(pt, pb) > rows or max(pl, pr) > cols):
        raise UnsupportedError(f"reflective padding {pads} exceeds image dims {u.shape}")
    if extension == "antireflective" and (max(pt, pb) >= rows or max(pl, pr) >= cols):
        raise UnsupportedError(f"antireflective padding {pads} must stay below image dims {u.shape}")
    if max(pt, pb, pl, pr) == 0:
        return u.copy()
    return np.pad(u, ((pt, pb), (pl, pr)), **_PAD_KW[extension])


def crop(u: np.ndarray, pads) -> np.ndarray:
    """Inverse of :func:`extend`: a copy of ``u`` without its ``pads`` margins."""
    (pt, pb), (pl, pr) = pads
    return u[pt:u.shape[0] - pb, pl:u.shape[1] - pr].copy()


def _check_support(shape, weights, what="kernel"):
    if weights.shape[0] > shape[0] or weights.shape[1] > shape[1]:
        raise UnsupportedError(
            f"{what} support {weights.shape} exceeds image dims {shape}")


def stencil_pads(weights: np.ndarray, center):
    """Ghost depths ((top, bottom), (left, right)) a stencil apply needs."""
    pr, pc = weights.shape
    cr, cc = center
    return ((pr - 1 - cr, cr), (pc - 1 - cc, cc))


# Stencils up to this many taps are convolved directly, wider ones by FFT.
# The cutoff is not the speed break-even: on a 2-vCPU Xeon at 128^2-512^2
# the FFT is already 1.1-1.6x faster at 3x3, 2.2-3.0x at 5x5 and 5.6-9.2x at
# 9x9. It sits at 25 so that the delta, 3x3 and 5x5 kernels and their 5x5
# composites (a 3x3 kernel's autocorrelation and system stencil) keep the
# exact bytes of direct convolution, at a cost of at most a few ms a call.
DIRECT_MAX_TAPS = 25


def apply_stencil(u: np.ndarray, weights: np.ndarray, center, bc: str) -> np.ndarray:
    """out[i,j] = sum_ab w[a,b] * u_ext[i - (a - cr), j - (b - cc)].

    Core primitive behind blur, correlation and the composite system
    operators; ``weights`` need not be a valid Psf (e.g. zero-mass stencils).
    The extension caps bound the admissible ghost depth, so composite
    stencils wider than the image are fine as long as their half-extent is.
    It is :func:`stencil_convolver` built and applied once.
    """
    return stencil_convolver(weights, center, bc, u.shape)(u)


def stencil_convolver(weights: np.ndarray, center, bc: str, shape):
    """:func:`apply_stencil` for one stencil and image shape, as ``u -> out``.

    ``u`` is padded by the boundary rule and the stencil is applied with a
    "valid" convolution. Stencils of at most ``DIRECT_MAX_TAPS`` taps use
    direct ``convolve2d``; wider ones use a real 2-D FFT of each axis length
    ``L >= P``, where ``P`` is the padded length and ``k`` the stencil length
    along that axis. The circular product equals the linear convolution plus
    copies shifted by ``L``; a linear output index runs up to ``P + k - 2``,
    so a copy lands at most at ``P + k - 2 - L <= k - 2``, inside the first
    ``k - 1`` samples that the "valid" crop drops. The FFT result differs
    from direct convolution only by rounding. The stencil's spectrum is
    computed here, once, so a solve that applies the same stencil every
    iteration pays one forward and one inverse transform per call.
    """
    pads = stencil_pads(weights, center)
    if weights.size <= DIRECT_MAX_TAPS:
        return lambda u: convolve2d(extend(u, pads, bc), weights, mode="valid")
    padded = tuple(n + p0 + p1 for n, (p0, p1) in zip(shape, pads))
    fft_shape = tuple(_fft.next_fast_len(n, True) for n in padded)
    spectrum = _fft.rfft2(weights, fft_shape)
    kr, kc = weights.shape

    def convolve(u):
        full = _fft.irfft2(_fft.rfft2(extend(u, pads, bc), fft_shape) * spectrum, fft_shape)
        return full[kr - 1:padded[0], kc - 1:padded[1]]

    return convolve


def apply_blur(u: np.ndarray, psf: Psf, bc: str) -> np.ndarray:
    """Blur ``u`` by the kernel under the given boundary model."""
    u = as_image(u)
    check_boundary_model(bc)
    _check_support(u.shape, psf.weights)
    return apply_stencil(u, psf.weights, psf.center, bc)


def apply_correlation(u: np.ndarray, psf: Psf, bc: str) -> np.ndarray:
    """Apply the doubly-flipped kernel under the same boundary model.

    Equals the transpose of :func:`apply_blur` for zero and periodic models;
    for reflective/antireflective it is the reblurred companion used in the
    restoration system.
    """
    u = as_image(u)
    check_boundary_model(bc)
    _check_support(u.shape, psf.weights)
    flipped = psf.flipped()
    return apply_stencil(u, flipped.weights, flipped.center, bc)


def gradient(u: np.ndarray, bc: str) -> GradientField:
    """Forward differences with the boundary rule closing the last sample.

    The closing difference is: ``-u_last`` (zero), ``u_first - u_last``
    (periodic), ``0`` (reflective) and a copy of the preceding interior
    difference (antireflective, linear extrapolation).
    """
    u = as_image(u)
    check_boundary_model(bc)
    return GradientField(*differences(u, bc))


def differences(u: np.ndarray, bc: str):
    """The components ``(z1, z2)`` of :func:`gradient` as plain arrays.

    No validation: for loops that already hold a checked image.
    """
    z1 = np.empty_like(u)
    z2 = np.empty_like(u)
    z1[:, :-1] = u[:, 1:] - u[:, :-1]
    z2[:-1, :] = u[1:, :] - u[:-1, :]
    if bc == "zero":
        z1[:, -1] = -u[:, -1]
        z2[-1, :] = -u[-1, :]
    elif bc == "periodic":
        z1[:, -1] = u[:, 0] - u[:, -1]
        z2[-1, :] = u[0, :] - u[-1, :]
    elif bc == "reflective":
        z1[:, -1] = 0.0
        z2[-1, :] = 0.0
    else:  # antireflective
        z1[:, -1] = u[:, -1] - u[:, -2]
        z2[-1, :] = u[-1, :] - u[-2, :]
    return z1, z2


def adjoint_gradient(z: GradientField, bc: str) -> np.ndarray:
    """Discrete analogue of the negative divergence (reblurred closure).

    Applies the flipped difference stencil under the same boundary rule,
    so constants are annihilated for every non-zero model and
    ``adjoint_gradient(gradient(u))`` is the positive-semidefinite
    boundary-closed Laplacian for the periodic model, where this operator
    equals the exact transpose of :func:`gradient`. ``z`` is a
    :class:`GradientField` or a plain pair ``(z1, z2)``.
    """
    check_boundary_model(bc)
    z1, z2 = z
    o1 = np.empty_like(z1)
    o2 = np.empty_like(z2)
    o1[:, 1:] = z1[:, :-1] - z1[:, 1:]
    o2[1:, :] = z2[:-1, :] - z2[1:, :]
    if bc == "zero":
        o1[:, 0] = -z1[:, 0]
        o2[0, :] = -z2[0, :]
    elif bc == "periodic":
        o1[:, 0] = z1[:, -1] - z1[:, 0]
        o2[0, :] = z2[-1, :] - z2[0, :]
    elif bc == "reflective":
        o1[:, 0] = 0.0
        o2[0, :] = 0.0
    else:  # antireflective: ghost z(-1) = 2 z(0) - z(1)
        o1[:, 0] = z1[:, 0] - z1[:, 1]
        o2[0, :] = z2[0, :] - z2[1, :]
    return o1 + o2


def transpose_adjoint_gradient(z: GradientField, bc: str) -> np.ndarray:
    """Exact algebraic transpose of :func:`gradient` for every boundary model.

    Satisfies <grad(u), z> == <u, transpose_adjoint_gradient(z)> identically.
    This is the pairing the reflective-model restoration system uses, making
    its image update the exact partial minimizer of the discrete objective.
    ``z`` is a :class:`GradientField` or a plain pair ``(z1, z2)``.
    """
    check_boundary_model(bc)
    z1, z2 = z
    o1 = np.empty_like(z1)
    o2 = np.empty_like(z2)
    o1[:, 1:] = z1[:, :-1] - z1[:, 1:]
    o2[1:, :] = z2[:-1, :] - z2[1:, :]
    o1[:, 0] = -z1[:, 0]
    o2[0, :] = -z2[0, :]
    if bc == "periodic":
        o1[:, 0] += z1[:, -1]
        o2[0, :] += z2[-1, :]
    elif bc == "reflective":
        o1[:, -1] += z1[:, -1]
        o2[-1, :] += z2[-1, :]
    elif bc == "antireflective":
        o1[:, -2] -= z1[:, -1]
        o1[:, -1] += 2.0 * z1[:, -1]
        o2[-2, :] -= z2[-1, :]
        o2[-1, :] += 2.0 * z2[-1, :]
    return o1 + o2

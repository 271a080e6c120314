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
operator otherwise. Every kernel goes through :func:`apply_stencil`, or
:func:`stencil_convolver` where one kernel is applied to one image shape
many times; both convolve stencils of at most ``DIRECT_MAX_TAPS`` taps (5x5)
directly, by a NumPy sliding sum that adds the taps in the order of SciPy's
``convolve2d`` and so keeps its bytes, and wider ones by
:func:`fft_convolver`, a real FFT with the stencil's spectrum cached, so a
wide kernel costs a few transforms rather than k^2 multiply-adds per pixel.
The zero model's CG products come from :func:`fft_convolver` for every
kernel but a separable one on an image of at most
``transforms.DENSE_AXIS_MAX`` samples a side, whose products are matrix
products built in ``transforms``. The package takes only ``scipy.fft`` from SciPy.
The system stencil (the kernel's autocorrelation plus ``ratio`` times the
five-point Laplacian) is never built here: the transform plans sample its
symbol from the kernel alone. :func:`differences` is the unvalidated,
plain-array form of :func:`gradient`, and both divergences accept a plain
pair ``(z1, z2)``, for the solver's inner loop. These three write into
buffers the caller gives when it gives them, else into fresh arrays. Each
rule's closing difference is written once, in :func:`_close`, which all
three read (:func:`_divergence`). All functions are safe for concurrent
use, and only these three write into an array they did not make.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as _fft

from .errors import PreconditionError, UnsupportedError
from .grid import GradientField, Psf, _integer, as_image, check_boundary_model

_PAD_KW = {
    "zero": dict(mode="constant"),
    "periodic": dict(mode="wrap"),
    "reflective": dict(mode="symmetric"),
    "antireflective": dict(mode="reflect", reflect_type="odd"),
}


def _pad_widths(pads):
    """``pads = ((top, bottom), (left, right))`` as ints: a non-integral or
    boolean entry is a ``DataError``, a negative one a ``PreconditionError``."""
    (pt, pb), (pl, pr) = ((_integer(p, f"padding {pads} entry") for p in pair) for pair in pads)
    if min(pt, pb, pl, pr) < 0:
        raise PreconditionError(f"negative padding {pads}")
    return (pt, pb), (pl, pr)


def extend(u: np.ndarray, pads, extension: str) -> np.ndarray:
    """Pad ``u`` by ``pads = ((top, bottom), (left, right))`` per the rule."""
    check_boundary_model(extension)
    (pt, pb), (pl, pr) = _pad_widths(pads)
    rows, cols = u.shape
    # One application of the mirror rules reaches at most one image length.
    if extension == "reflective" and (max(pt, pb) > rows or max(pl, pr) > cols):
        raise UnsupportedError(f"reflective padding {pads} exceeds image dims {u.shape}")
    if extension == "antireflective" and (max(pt, pb) >= rows or max(pl, pr) >= cols):
        raise UnsupportedError(f"antireflective padding {pads} must stay below image dims {u.shape}")
    return np.pad(u, ((pt, pb), (pl, pr)), **_PAD_KW[extension])


def crop(u: np.ndarray, pads) -> np.ndarray:
    """Inverse of :func:`extend`: a copy of ``u`` without its ``pads`` margins,
    which must leave at least one sample per axis."""
    (pt, pb), (pl, pr) = _pad_widths(pads)
    if pt + pb >= u.shape[0] or pl + pr >= u.shape[1]:
        raise PreconditionError(f"padding {pads} leaves no sample of shape {u.shape}")
    return u[pt:u.shape[0] - pb, pl:u.shape[1] - pr].copy()


def stencil_pads(weights: np.ndarray, center):
    """Ghost depths ((top, bottom), (left, right)) a stencil apply needs."""
    pr, pc = weights.shape
    cr, cc = center
    return ((pr - 1 - cr, cr), (pc - 1 - cc, cc))


def _sliding_sum(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The "valid" 2-D convolution of ``x`` with ``weights``, one tap at a time.

    Adds the products in the order of SciPy 1.17's ``convolve2d(x, weights,
    mode="valid")``, whose bytes it reproduces: kernel rows ascending; within
    a row, groups of four taps summed from the group's first tap and then
    added to the running total, and the zero to three taps left over added
    one at a time. Like ``convolve2d`` it is silent on IEEE overflow, so a
    non-finite input reaches the caller's own checks. It is the direct route
    of :func:`stencil_convolver` and the blur of ``harness.simulate``.
    """
    kr, kc = weights.shape
    rows, cols = x.shape[0] - kr + 1, x.shape[1] - kc + 1
    at = [slice(kc - 1 - b, kc - 1 - b + cols) for b in range(kc)]
    grouped = kc - kc % 4
    out = np.zeros((rows, cols))
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(kr):
            band, w = x[kr - 1 - a:kr - 1 - a + rows], weights[a]
            for b in range(0, grouped, 4):
                group = w[b] * band[:, at[b]]
                group += w[b + 1] * band[:, at[b + 1]]
                group += w[b + 2] * band[:, at[b + 2]]
                group += w[b + 3] * band[:, at[b + 3]]
                out += group
            for b in range(grouped, kc):
                out += w[b] * band[:, at[b]]
    return out


# Stencils up to this many taps are convolved directly, wider ones by FFT.
# On a 2-vCPU Xeon at 128^2-512^2 the sliding sum takes 0.3-0.6x the time of
# the FFT route at 3x3 and 1.2-1.3x at 5x5 (SciPy's convolve2d took 1.8-4.7x
# the sliding sum's). The cutoff sits at 25 so that kernels up to 5x5 (the
# delta, 3x3 and 5x5 Gaussians) keep the exact bytes of direct convolution.
DIRECT_MAX_TAPS = 25


def apply_stencil(u: np.ndarray, weights: np.ndarray, center, bc: str) -> np.ndarray:
    """out[i,j] = sum_ab w[a,b] * u_ext[i - (a - cr), j - (b - cc)].

    Core primitive behind blur and correlation, on a plain weight array.
    It is :func:`stencil_convolver` built and applied once.
    """
    return stencil_convolver(weights, center, bc, u.shape)(u)


def stencil_convolver(weights: np.ndarray, center, bc: str, shape):
    """:func:`apply_stencil` for one stencil and image shape, as ``u -> out``:
    the direct sliding sum over ``u`` padded by the boundary rule, with the
    bytes of ``scipy.signal.convolve2d``, up to ``DIRECT_MAX_TAPS`` taps, and
    :func:`fft_convolver` above. Both routes are silent on IEEE overflow and
    invalid values: a non-finite iterate is the solver's to report, as
    ``ConvergenceError``. Neither route re-checks its pads per apply: they
    and the rule are fixed here, by a kernel that fits the image."""
    if weights.size > DIRECT_MAX_TAPS:
        # as a decorator, errstate costs a third of a with-block per call
        return np.errstate(over="ignore", invalid="ignore")(
            fft_convolver(weights, center, bc, shape))
    pads, pad_kw = stencil_pads(weights, center), _PAD_KW[bc]
    return lambda u: _sliding_sum(np.pad(u, pads, **pad_kw), weights)


def fft_convolver(weights: np.ndarray, center, bc: str, shape):
    """:func:`apply_stencil` for one stencil and image shape by a real 2-D
    FFT, as ``u -> out``; the stencil's spectrum is computed once, here.

    Each axis takes a transform length ``L >= n + k - 1``, for image length
    ``n`` and stencil length ``k``. Under ``zero`` the transform's own zero
    padding supplies the ghosts, no linear output index reaches ``L``, and
    the window starts at the stencil's center. Otherwise ``u`` is padded by
    the rule to ``P = n + k - 1`` samples and the window starts at ``k - 1``:
    the circular copies of the linear convolution, shifted by ``L``, land at
    most at ``P + k - 2 - L <= k - 2``, in the samples the "valid" window
    drops. The result differs from direct convolution only by rounding. The
    product leaves NumPy's IEEE warnings on, so the zero model's CG, which
    makes two per step, pays no ``errstate`` for them.
    """
    grid = tuple(_fft.next_fast_len(n + k - 1, True) for n, k in zip(shape, weights.shape))
    spectrum = _fft.rfft2(weights, grid)
    pads, pad_kw = stencil_pads(weights, center), _PAD_KW[bc]
    zero, (R, C) = bc == "zero", shape
    r0, c0 = center if zero else (weights.shape[0] - 1, weights.shape[1] - 1)

    def convolve(u):
        product = _fft.rfft2(u if zero else np.pad(u, pads, **pad_kw), grid)
        product *= spectrum
        return _fft.irfft2(product, grid)[r0:r0 + R, c0:c0 + C]

    return convolve


def apply_blur(u: np.ndarray, psf: Psf, bc: str) -> np.ndarray:
    """Blur ``u`` by the kernel under the given boundary model."""
    u = as_image(u)
    check_boundary_model(bc)
    if psf.rows > u.shape[0] or psf.cols > u.shape[1]:
        raise UnsupportedError(
            f"kernel support {psf.weights.shape} exceeds image dims {u.shape}")
    return apply_stencil(u, psf.weights, psf.center, bc)


def apply_correlation(u: np.ndarray, psf: Psf, bc: str) -> np.ndarray:
    """Apply the doubly-flipped kernel under the same boundary model.

    Equals the transpose of :func:`apply_blur` for zero and periodic models;
    for reflective/antireflective it is the reblurred companion used in the
    restoration system. The solver takes ``H'f`` from it through
    :meth:`~tvdeblur.transforms.SystemPlanner.prepare`.
    """
    return apply_blur(u, psf.flipped(), bc)


def gradient(u: np.ndarray, bc: str) -> GradientField:
    """Forward differences with the boundary rule closing the last sample.

    The closing difference is: ``-u_last`` (zero), ``u_first - u_last``
    (periodic), ``0`` (reflective) and a copy of the preceding interior
    difference (antireflective, linear extrapolation).
    """
    u = as_image(u)
    check_boundary_model(bc)
    return GradientField(*differences(u, bc))


def differences(u: np.ndarray, bc: str, out=None):
    """The components ``(z1, z2)`` of :func:`gradient` as plain arrays,
    written into the pair ``out`` when given, else into fresh arrays.

    No validation: for loops that already hold a checked image.
    """
    z1, z2 = (np.empty_like(u), np.empty_like(u)) if out is None else out
    np.subtract(u[:, 1:], u[:, :-1], out=z1[:, :-1])
    np.subtract(u[1:, :], u[:-1, :], out=z2[:-1, :])
    _close(z1[:, -1], u[:, -1], u[:, 0], u[:, -2], bc)
    _close(z2[-1, :], u[-1, :], u[0, :], u[-2, :], bc)
    return z1, z2


def _close(out, last, first, inner, bc: str):
    """Write a line's closing forward difference into ``out``: the rule's
    ghost past ``last``, minus ``last``; ``first`` is the line's other end
    and ``inner`` the sample before ``last``. Assignments, not
    ``np.negative(last, out=out)``, which NumPy 2.4.6 (AVX-512) got wrong for
    a strided input and output 8 doubles apart, as in an 8-wide image."""
    if bc == "zero":  # ghost 0
        out[...] = -last
    elif bc == "periodic":  # ghost: the line's other end
        out[...] = first - last
    elif bc == "reflective":  # ghost: last itself
        out[...] = 0.0
    else:  # antireflective, ghost 2 last - inner
        out[...] = last - inner


def adjoint_gradient(z: GradientField, bc: str, out=None) -> np.ndarray:
    """Discrete analogue of the negative divergence (reblurred closure).

    Applies the flipped difference stencil under the same boundary rule: its
    first column and row take the gradient's closure (:func:`_close`) read
    from the line's other end, so constants are annihilated for every
    non-zero model and ``adjoint_gradient(gradient(u))`` is the
    positive-semidefinite boundary-closed Laplacian for the periodic model,
    where this operator equals the exact transpose of :func:`gradient`.
    ``z`` is a :class:`GradientField` or a plain pair ``(z1, z2)``; ``out``
    is as in :func:`_divergence`.
    """
    check_boundary_model(bc)
    return _divergence(*z, bc, False, out)


def transpose_adjoint_gradient(z: GradientField, bc: str, out=None) -> np.ndarray:
    """Exact algebraic transpose of :func:`gradient` for every boundary model.

    Satisfies <grad(u), z> == <u, transpose_adjoint_gradient(z)> identically.
    This is the pairing the reflective-model restoration system uses, making
    its image update the exact partial minimizer of the discrete objective.
    Its first column and row close by the zero rule (:func:`_close`); the
    reflective and antireflective models then add the terms their
    gradient's closure reads at the far end.
    ``z`` is a :class:`GradientField` or a plain pair ``(z1, z2)``; ``out``
    is as in :func:`_divergence`.
    """
    check_boundary_model(bc)
    return _divergence(*z, bc, True, out)


def _divergence(z1, z2, bc: str, transpose: bool, out):
    """:func:`transpose_adjoint_gradient` (``transpose``) or
    :func:`adjoint_gradient` of the plain pair ``(z1, z2)``.

    The two components' terms go into the pair of arrays ``out`` when given,
    else into fresh arrays, and their sum into the first, which is returned.
    The inputs are only read. Both pairings take the same backward
    differences inside and close the first column and row by
    :func:`_close`, with the line read from its far end: the reblurred one
    by the model's rule, the exact transpose by the zero rule plus the
    far-end terms of the gradient's closure.
    """
    o1, o2 = (np.empty_like(z1), np.empty_like(z2)) if out is None else out
    np.subtract(z1[:, :-1], z1[:, 1:], out=o1[:, 1:])
    np.subtract(z2[:-1, :], z2[1:, :], out=o2[1:, :])
    rule = "zero" if transpose and bc in ("reflective", "antireflective") else bc
    _close(o1[:, 0], z1[:, 0], z1[:, -1], z1[:, 1], rule)
    _close(o2[0, :], z2[0, :], z2[-1, :], z2[1, :], rule)
    if transpose and bc == "reflective":  # the closure is 0, not -u_last
        o1[:, -1] += z1[:, -1]
        o2[-1, :] += z2[-1, :]
    elif transpose and bc == "antireflective":  # u_last - u_inner, not -u_last
        o1[:, -2] -= z1[:, -1]
        o1[:, -1] += 2.0 * z1[:, -1]
        o2[-2, :] -= z2[-1, :]
        o2[-1, :] += 2.0 * z2[-1, :]
    o1 += o2
    return o1

"""Core value types: images, kernels, gradient fields, solver parameters.

Images are plain ``(rows, cols)`` float64 arrays in intensity units,
nominally in [0, 1] but never clamped inside the solver; they are validated
at API boundaries with :func:`as_image`. Row-major ``(row, col)`` indexing is
used throughout; difference direction 1 is horizontal (along columns),
direction 2 is vertical (along rows).

Every value the library takes from its caller is read once, where it
enters, by one of three readers: :func:`_integer` (an integral number, with
an optional lower bound), :func:`_real` (a finite float, positive or
non-negative) and :func:`_sequence` (a tuple, never a string's characters).
A malformed value is a ``DataError`` that names the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, ShapeError

#: Supported boundary models, in the order used by reports and the CLI.
BOUNDARY_MODELS = ("zero", "periodic", "reflective", "antireflective")

#: Default penalty ladder 2^1 .. 2^7 for the continuation loop.
DEFAULT_BETA_LADDER = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def check_boundary_model(bc: str) -> str:
    if bc not in BOUNDARY_MODELS:
        raise DataError(f"unknown boundary model {bc!r}; expected one of {BOUNDARY_MODELS}")
    return bc


def as_image(values, name: str = "image") -> np.ndarray:
    """Validate and return a float64 image array.

    Requires a 2-D array with at least two samples per axis (finite
    differences need two) and all entries finite.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 2 or arr.shape[1] < 2:
        raise ShapeError(f"{name} must be at least 2x2, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite values")
    return arr


def _integer(value, name: str, least: int | None = None) -> int:
    """``value`` as an int of at least ``least``: integral floats such as
    ``1.0`` pass, ``2.7`` and booleans (``bool`` is an ``int``) raise."""
    if isinstance(value, (bool, np.bool_)) or not (
            isinstance(value, (int, np.integer))
            or (isinstance(value, (float, np.floating)) and float(value).is_integer())):
        raise DataError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise DataError(f"{name} must be {bound}, got {value!r}")
    return int(value)


def _real(value, name: str, positive: bool = True) -> float:
    """``value`` as a finite float, positive or else non-negative: a string,
    a boolean, ``None`` and whatever ``float()`` cannot read raise."""
    try:
        if isinstance(value, (str, bytes, bool, np.bool_)):
            raise TypeError
        real = float(value)
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"{name} must be a real number, got {value!r}") from None
    if not (math.isfinite(real) and (real > 0 if positive else real >= 0)):
        bound = "positive" if positive else "non-negative"
        raise DataError(f"{name} must be {bound} and finite, got {value!r}")
    return real


def _sequence(values, name: str) -> tuple:
    """``values`` as a tuple; a string (not its characters) or a scalar raises."""
    if not isinstance(values, (str, bytes)):
        try:
            return tuple(values)
        except TypeError:
            pass
    raise DataError(f"{name} must be a sequence, got {values!r}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Psf:
    """Compactly supported blur kernel with a declared center sample.

    ``weights[a, b]`` sits at offset ``(a - center[0], b - center[1])`` from
    the output pixel. Weights must be finite with positive total mass.
    """

    weights: np.ndarray
    center: tuple[int, int]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.size == 0:
            raise ShapeError(f"psf weights must be a non-empty 2-D array, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise DataError("psf weights contain non-finite values")
        if w.sum() <= 0.0:
            raise DataError("psf weights must have positive total mass")
        center = _sequence(self.center, "psf center")
        if len(center) != 2:
            raise DataError(f"psf center must be a pair, got {self.center!r}")
        cr, cc = (_integer(c, "psf center entry") for c in center)
        if not (0 <= cr < w.shape[0] and 0 <= cc < w.shape[1]):
            raise DataError(f"psf center {self.center} outside kernel extent {w.shape}")
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "center", (cr, cc))

    @property
    def rows(self) -> int:
        return self.weights.shape[0]

    @property
    def cols(self) -> int:
        return self.weights.shape[1]

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    @cached_property
    def quadrantally_symmetric(self) -> bool:
        """True iff the weights are invariant under each axis reversal.

        Array reversal is used, so even-extent kernels sampled on a
        symmetric grid (center between samples) qualify; their half-sample
        offset is carried by the declared center instead.
        """
        w = self.weights
        return bool(np.array_equal(w, w[::-1, :]) and np.array_equal(w, w[:, ::-1]))

    def flipped(self) -> "Psf":
        """Kernel flipped about its center along both axes (correlation kernel)."""
        return Psf(self.weights[::-1, ::-1],
                   (self.rows - 1 - self.center[0], self.cols - 1 - self.center[1]))

    @staticmethod
    def delta() -> "Psf":
        return Psf(np.ones((1, 1)), (0, 0))


@dataclass(frozen=True)
class GradientField:
    """Pair of image-shaped arrays holding the split gradient variable.

    ``z1`` holds horizontal differences, ``z2`` vertical ones.
    """

    z1: np.ndarray
    z2: np.ndarray

    def __post_init__(self):
        z1 = np.asarray(self.z1, dtype=float)
        z2 = np.asarray(self.z2, dtype=float)
        if z1.shape != z2.shape:
            raise ShapeError(f"gradient components differ in shape: {z1.shape} vs {z2.shape}")
        if z1.ndim != 2:
            raise ShapeError(f"gradient components must be 2-D, got {z1.shape}")
        if not (np.all(np.isfinite(z1)) and np.all(np.isfinite(z2))):
            raise DataError("gradient field contains non-finite values")
        object.__setattr__(self, "z1", _freeze(z1))
        object.__setattr__(self, "z2", _freeze(z2))

    @property
    def shape(self) -> tuple[int, int]:
        return self.z1.shape

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.z1, self.z2)

    def __iter__(self):
        """Unpacks as ``z1, z2 = field``, like the plain pairs the solver passes."""
        return iter((self.z1, self.z2))

    @staticmethod
    def zeros(shape) -> "GradientField":
        return GradientField(np.zeros(shape), np.zeros(shape))


@dataclass(frozen=True)
class SolveParams:
    """Parameters of one alternating-minimization run.

    ``alpha`` weighs the data-fidelity term; ``beta_ladder`` is the strictly
    increasing continuation schedule for the quadratic penalty; each ladder
    rung iterates until the relative change of the image drops below
    ``inner_tol`` or ``inner_max`` iterations are spent.
    """

    alpha: float
    beta_ladder: tuple = DEFAULT_BETA_LADDER
    inner_tol: float = 1e-3
    inner_max: int = 10

    def __post_init__(self):
        alpha = _real(self.alpha, "alpha")
        ladder = tuple(_real(b, "beta ladder entry")
                       for b in _sequence(self.beta_ladder, "beta ladder"))
        if not ladder:
            raise DataError("beta ladder must not be empty")
        if any(b2 <= b1 for b1, b2 in zip(ladder, ladder[1:])):
            raise DataError(f"beta ladder must be strictly increasing, got {ladder}")
        inner_tol = _real(self.inner_tol, "inner_tol")
        if inner_tol >= 1.0:
            raise DataError(f"inner_tol must lie in (0, 1), got {self.inner_tol!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta_ladder", ladder)
        object.__setattr__(self, "inner_tol", inner_tol)
        object.__setattr__(self, "inner_max", _integer(self.inner_max, "inner_max", least=1))


@dataclass(frozen=True)
class EnergyReport:
    """Decomposition of the penalized objective into its three terms."""

    fidelity: float
    tv_z: float
    coupling: float
    total: float

    def __post_init__(self):
        parts = self.fidelity + self.tv_z + self.coupling
        if abs(self.total - parts) > 1e-12 * max(1.0, abs(parts)):
            raise DataError("energy total does not match the sum of its parts")

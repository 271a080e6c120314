"""Evaluation of the penalized restoration objective.

The objective splits into a data-fidelity term, the total variation of the
auxiliary gradient field, and the quadratic coupling tying that field to the
image gradient:

    0.5 * alpha * ||H u - f||^2  +  sum |z|  +  0.5 * beta * sum |z - grad u|^2

Integrals are plain pixel sums with unit cell area (the fidelity weight
absorbs any grid constant).

:func:`energy` validates its inputs and evaluates every term from scratch.
The solver's trace does not call it: the loop assembles the same three
terms from the gradient, shrinkage and blur it has already computed. This
function is the reference those values are tested against.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .grid import EnergyReport, GradientField, Psf, _real, as_image, check_boundary_model
from .operators import apply_blur, gradient


def energy(u: np.ndarray, z: GradientField, f: np.ndarray, psf: Psf, bc: str,
           alpha: float, beta: float) -> EnergyReport:
    """Evaluate the objective at ``(u, z)`` for data ``f``; deterministic.

    The coupling is taken from ``z - grad u`` as given, so it is exact for
    that ``z``. The solver's trace takes it instead from ``min(|g|, 1/beta)``,
    the coupling of the exact shrinkage of ``g = grad u``. The two part
    where the computed shrinkage rounds back to ``g``:
    for columns alternating ``+-5e99`` (``|g| = 1e100``) and ``beta = 128``,
    :func:`~tvdeblur.solver.shrink` returns a ``z`` bit-equal to ``g``, whose
    coupling here is 0.0, while the trace reports the exact shrinkage's
    0.0625.
    """
    u = as_image(u, "u")
    f = as_image(f, "f")
    check_boundary_model(bc)
    if u.shape != f.shape:
        raise ShapeError(f"u shape {u.shape} does not match f shape {f.shape}")
    if z.shape != u.shape:
        raise ShapeError(f"gradient field shape {z.shape} does not match image {u.shape}")
    alpha, beta = _real(alpha, "alpha"), _real(beta, "beta")
    residual = apply_blur(u, psf, bc) - f
    fidelity = 0.5 * alpha * float(np.sum(residual * residual))
    tv_z = float(np.sum(z.magnitude()))
    g = gradient(u, bc)
    d1 = z.z1 - g.z1
    d2 = z.z2 - g.z2
    coupling = 0.5 * beta * float(np.sum(d1 * d1) + np.sum(d2 * d2))
    return EnergyReport(fidelity=fidelity, tv_z=tv_z, coupling=coupling,
                        total=fidelity + tv_z + coupling)

"""Equivalence suite: fast matrix-free paths against the dense oracle.

Used by the ``oracle-check`` CLI command and the acceptance tests. Each
entry compares one operator under one boundary model, reporting the largest
max-abs deviation over a set of standard kernels (delta, 3x3 and 5x5
Gaussians, a 1x3 row and a 3x1 column; an even-extent 4x4 Gaussian, a 3x3
one declared at its corner and an even-extent 4x4 kernel of matrix rank 2
for every model but reflective; and a nonsymmetric 3x2 kernel where the
model admits it; each where its support fits the grid) applied to a fixed
pseudorandom image. Both divergences are checked: ``adjgrad`` is the
reblurred pairing, ``transpose`` the exact transpose of the gradient that
the reflective solve uses. ``fidelity`` compares the image update's
``||H u - f||^2`` (by Parseval from the coefficients where the plan has a
blur symbol) for a second pseudorandom image ``f`` with the dense blur's,
as a relative deviation.
"""

from __future__ import annotations

import numpy as np

from . import dense
from .grid import BOUNDARY_MODELS, GradientField, Psf
from .harness import gaussian_psf
from .operators import (adjoint_gradient, apply_blur, apply_correlation, gradient,
                        transpose_adjoint_gradient)
from .transforms import SystemPlanner, solve_and_blur, solve_system

TOLERANCE = 1e-8


def standard_kernels():
    nonsym = Psf(np.array([[0.50, 0.10],
                           [0.20, 0.10],
                           [0.05, 0.05]]), (1, 0))
    row = Psf(np.array([[0.25, 0.5, 0.25]]), (0, 1))
    # reflective stays off the even-extent and off-centre kernels, whose DCT-II
    # plan is not the dense system's (ROADMAP item 13)
    unreflected = ("zero", "periodic", "antireflective")
    # separable kernels without a symbol blur by per-axis matrix products;
    # this one, the mean of two even Gaussians, keeps the stencil route
    mixed = (gaussian_psf(4, 1.0).weights + gaussian_psf(4, 0.6).weights) / 2
    return [
        ("delta", Psf.delta(), BOUNDARY_MODELS),
        ("gauss3", gaussian_psf(3, 1.0), BOUNDARY_MODELS),
        ("gauss5", gaussian_psf(5, 1.0), BOUNDARY_MODELS),
        ("row3", row, BOUNDARY_MODELS),
        ("col3", Psf(row.weights.T, (1, 0)), BOUNDARY_MODELS),
        ("gauss4", gaussian_psf(4, 1.0), unreflected),
        ("gauss3-at-0-0", Psf(gaussian_psf(3, 1.0).weights, (0, 0)), unreflected),
        ("gauss4-rank2", Psf(mixed, gaussian_psf(4, 1.0).center), unreflected),
        ("nonsym3x2", nonsym, ("zero", "periodic")),
    ]


def oracle_deviations(rows: int, cols: int | None = None, *, ratio: float = 2.0,
                      bcs=BOUNDARY_MODELS):
    """Deviations keyed by (operator, bc) on a ``rows x cols`` grid (square
    when ``cols`` is ``None``), standard kernels on seed-0 images: max-abs,
    and relative for ``fidelity``."""
    shape = (rows, rows if cols is None else cols)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(shape)
    z = GradientField(rng.standard_normal(shape), rng.standard_normal(shape))
    f = rng.standard_normal(shape)
    devs = {}

    def note(op, bc, value):
        key = (op, bc)
        devs[key] = max(devs.get(key, 0.0), float(value))

    for bc in bcs:
        d1 = dense.build_grad(shape, 1, bc)
        d2 = dense.build_grad(shape, 2, bc)
        g = gradient(u, bc)
        note("grad1", bc, np.abs(d1.apply(u) - g.z1).max())
        note("grad2", bc, np.abs(d2.apply(u) - g.z2).max())
        transposed = (d1.matrix.T @ z.z1.ravel() + d2.matrix.T @ z.z2.ravel()).reshape(shape)
        note("transpose", bc, np.abs(transposed - transpose_adjoint_gradient(z, bc)).max())
        a1 = dense.build_adjgrad(shape, 1, bc)
        a2 = dense.build_adjgrad(shape, 2, bc)
        note("adjgrad", bc,
             np.abs(a1.apply(z.z1) + a2.apply(z.z2) - adjoint_gradient(z, bc)).max())
        for name, psf, models in standard_kernels():
            if bc not in models or psf.rows > shape[0] or psf.cols > shape[1]:
                continue
            H = dense.build_blur(psf, shape, bc)
            note("blur", bc, np.abs(H.apply(u) - apply_blur(u, psf, bc)).max())
            Hc = dense.build_correlation(psf, shape, bc)
            note("correlation", bc,
                 np.abs(Hc.apply(u) - apply_correlation(u, psf, bc)).max())
            system = dense.build_system(psf, shape, bc, ratio)
            rhs = system.apply(u)
            planner = SystemPlanner(psf, shape, bc)
            plan = planner.plan(ratio)
            note("solve", bc, np.abs(solve_system(plan, rhs) - u).max())
            solution, fit, _ = solve_and_blur(plan, rhs, planner.prepare(f)[1])
            expected = np.sum((H.apply(solution) - f) ** 2)
            note("fidelity", bc, abs(fit - expected) / expected)
    return devs


def worst_deviation(devs) -> float:
    return max(devs.values()) if devs else 0.0

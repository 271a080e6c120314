import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvdeblur import DataError, GradientField, Psf, ShapeError, gaussian_psf, gradient
from tvdeblur.energy import energy


def straight_loop_energy_periodic(u, z1, z2, f, weights, center, alpha, beta):
    """Independent elementwise oracle: explicit loops, periodic ghosts."""
    rows, cols = u.shape
    pr, pc = weights.shape
    cr, cc = center
    fidelity = 0.0
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for a in range(pr):
                for b in range(pc):
                    acc += weights[a, b] * u[(i - (a - cr)) % rows, (j - (b - cc)) % cols]
            fidelity += (acc - f[i, j]) ** 2
    fidelity *= 0.5 * alpha
    tv = 0.0
    coupling = 0.0
    for i in range(rows):
        for j in range(cols):
            tv += math.sqrt(z1[i, j] ** 2 + z2[i, j] ** 2)
            g1 = u[i, (j + 1) % cols] - u[i, j]
            g2 = u[(i + 1) % rows, j] - u[i, j]
            coupling += (z1[i, j] - g1) ** 2 + (z2[i, j] - g2) ** 2
    coupling *= 0.5 * beta
    return fidelity, tv, coupling


def test_perfect_fit_is_zero_energy():
    u = np.full((6, 6), 0.7)
    z = GradientField.zeros((6, 6))
    rep = energy(u, z, u.copy(), Psf.delta(), "periodic", alpha=2.0, beta=4.0)
    assert rep.fidelity == 0.0 and rep.tv_z == 0.0 and rep.coupling == 0.0
    assert rep.total == 0.0


@pytest.mark.parametrize("bc", ["zero", "periodic", "reflective", "antireflective"])
def test_exact_gradient_kills_coupling(rng, bc):
    u = rng.standard_normal((7, 9))
    z = gradient(u, bc)
    rep = energy(u, z, rng.standard_normal((7, 9)), gaussian_psf(3, 1.0), bc, 1.0, 8.0)
    assert rep.coupling == 0.0


def test_matches_straight_loop_oracle(rng):
    u = rng.standard_normal((8, 8))
    f = rng.standard_normal((8, 8))
    z1 = rng.standard_normal((8, 8))
    z2 = rng.standard_normal((8, 8))
    psf = gaussian_psf(3, 0.9)
    alpha, beta = 3.0, 16.0
    rep = energy(u, GradientField(z1, z2), f, psf, "periodic", alpha, beta)
    fid, tv, coup = straight_loop_energy_periodic(
        u, z1, z2, f, psf.weights, psf.center, alpha, beta)
    assert rep.fidelity == pytest.approx(fid, rel=1e-12)
    assert rep.tv_z == pytest.approx(tv, rel=1e-12)
    assert rep.coupling == pytest.approx(coup, rel=1e-12)
    assert rep.total == pytest.approx(fid + tv + coup, rel=1e-12)


@given(seed=st.integers(0, 2 ** 31))
def test_energy_is_nonnegative(seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((5, 6))
    f = rng.standard_normal((5, 6))
    z = GradientField(rng.standard_normal((5, 6)), rng.standard_normal((5, 6)))
    rep = energy(u, z, f, gaussian_psf(3, 1.0), "reflective", 0.5, 2.0)
    assert rep.fidelity >= 0 and rep.tv_z >= 0 and rep.coupling >= 0
    assert rep.total >= 0


def test_total_monotone_in_beta(rng):
    u = rng.standard_normal((6, 6))
    f = rng.standard_normal((6, 6))
    psf = gaussian_psf(3, 1.0)
    z_off = GradientField(rng.standard_normal((6, 6)), rng.standard_normal((6, 6)))
    totals = [energy(u, z_off, f, psf, "periodic", 1.0, b).total for b in (2.0, 8.0, 32.0)]
    assert totals[0] < totals[1] < totals[2]
    z_exact = gradient(u, "periodic")
    fixed = [energy(u, z_exact, f, psf, "periodic", 1.0, b).total for b in (2.0, 8.0, 32.0)]
    assert fixed[0] == fixed[1] == fixed[2]


def test_transposition_invariance(rng):
    u = rng.standard_normal((8, 8))
    f = rng.standard_normal((8, 8))
    z1 = rng.standard_normal((8, 8))
    z2 = rng.standard_normal((8, 8))
    psf = gaussian_psf(5, 1.3)  # invariant under transposition
    a = energy(u, GradientField(z1, z2), f, psf, "periodic", 2.0, 4.0)
    b = energy(u.T, GradientField(z2.T, z1.T), f.T, psf, "periodic", 2.0, 4.0)
    assert a.total == pytest.approx(b.total, rel=1e-12)


def test_dimension_mismatch_raises(rng):
    u = rng.standard_normal((6, 6))
    with pytest.raises(ShapeError):
        energy(u, GradientField.zeros((6, 6)), rng.standard_normal((5, 6)),
               Psf.delta(), "periodic", 1.0, 1.0)
    with pytest.raises(ShapeError):
        energy(u, GradientField.zeros((4, 4)), u, Psf.delta(), "periodic", 1.0, 1.0)


def test_nonfinite_input_raises(rng):
    u = rng.standard_normal((6, 6))
    bad = u.copy()
    bad[0, 0] = np.nan
    with pytest.raises(DataError):
        energy(bad, GradientField.zeros((6, 6)), u, Psf.delta(), "periodic", 1.0, 1.0)
    with pytest.raises(DataError):
        energy(u, GradientField.zeros((6, 6)), u, Psf.delta(), "periodic", -1.0, 1.0)

"""The dense matrices are the ground truth; these tests pin them down from
hand-derived values and structural identities before anything fast is
trusted against them."""

import numpy as np
import pytest

from tvdeblur import Psf, ShapeError, UnsupportedError, gaussian_psf
from tvdeblur.dense import (LAPLACIAN_CENTER, LAPLACIAN_STENCIL, autocorrelation,
                            build_adjgrad, build_blur, build_correlation,
                            build_grad, build_stencil_matrix, build_system,
                            resolve_index)
from tvdeblur.errors import PreconditionError

BCS = ("zero", "periodic", "reflective", "antireflective")
STENCIL_1D = Psf(np.array([[0.25], [0.5], [0.25]]), (1, 0))  # 3x1 vertical


def _grid_id(shape):
    return f"{shape[0]}x{shape[1]}"


class TestResolveIndex:
    def test_interior_passthrough(self):
        assert resolve_index(3, 8, "zero") == [(3, 1.0)]

    def test_zero_drops_ghosts(self):
        assert resolve_index(-1, 4, "zero") == []
        assert resolve_index(4, 4, "zero") == []

    def test_periodic_wraps(self):
        assert resolve_index(-1, 4, "periodic") == [(3, 1.0)]
        assert resolve_index(5, 4, "periodic") == [(1, 1.0)]

    def test_reflective_mirrors_about_edge(self):
        assert resolve_index(-1, 4, "reflective") == [(0, 1.0)]
        assert resolve_index(-2, 4, "reflective") == [(1, 1.0)]
        assert resolve_index(4, 4, "reflective") == [(3, 1.0)]

    def test_antireflective_rule(self):
        # u(-j) = 2 u(0) - u(j)
        assert resolve_index(-1, 4, "antireflective") == [(0, 2.0), (1, -1.0)]
        assert resolve_index(-2, 4, "antireflective") == [(0, 2.0), (2, -1.0)]
        assert resolve_index(4, 4, "antireflective") == [(3, 2.0), (2, -1.0)]

    def test_antireflective_deep_ghost_recursion(self):
        # two image lengths out: repeated application of the rule
        pairs = resolve_index(-4, 4, "antireflective")
        weights = np.zeros(4)
        for j, w in pairs:
            weights[j] += w
        # u(-4) = 2u(0) - u(4) = 2u(0) - (2u(3) - u(2))
        assert np.array_equal(weights, [2.0, 0.0, 1.0, -2.0])


class TestBuildBlur:
    @pytest.mark.parametrize("bc", BCS)
    def test_delta_gives_identity(self, bc):
        op = build_blur(Psf.delta(), (5, 5), bc)
        assert np.array_equal(op.matrix, np.eye(25))

    def test_periodic_rows_sum_to_one(self):
        op = build_blur(STENCIL_1D, (4, 4), "periodic")
        assert np.allclose(op.matrix.sum(axis=1), 1.0)

    def test_antireflective_boundary_rows_decouple(self):
        # hand expansion with u(-1) = 2u(0) - u(1): first grid row reduces to
        # (sum of stencil) * u(0) = 1 * u(0); same at the far edge.
        for n in (4, 8, 16):
            op = build_blur(STENCIL_1D, (n, n), "antireflective")
            for j in range(n):
                expected_first = np.zeros(n * n)
                expected_first[j] = 1.0
                assert np.allclose(op.matrix[j], expected_first, atol=1e-14)
                expected_last = np.zeros(n * n)
                expected_last[(n - 1) * n + j] = 1.0
                assert np.allclose(op.matrix[(n - 1) * n + j], expected_last, atol=1e-14)

    def test_periodic_blur_is_shift_equivariant(self, rng):
        n = 6
        psf = gaussian_psf(3, 0.8)
        op = build_blur(psf, (n, n), "periodic")
        u = rng.standard_normal((n, n))
        shifted = np.roll(u, (2, 1), axis=(0, 1))
        assert np.allclose(np.roll(op.apply(u), (2, 1), axis=(0, 1)),
                           op.apply(shifted), atol=1e-13)

    def test_psf_larger_than_grid_rejected(self):
        with pytest.raises(UnsupportedError):
            build_blur(gaussian_psf(9, 2.0), (8, 8), "periodic")

    def test_oracle_cap(self):
        with pytest.raises(PreconditionError):
            build_blur(Psf.delta(), (65, 65), "periodic")

    @pytest.mark.parametrize("shape", [(8, 12), (12, 8)], ids=_grid_id)
    def test_psf_longer_than_one_side_rejected(self, shape):
        with pytest.raises(UnsupportedError):
            build_blur(gaussian_psf(9, 2.0), shape, "periodic")

    @pytest.mark.parametrize("shape", [(65, 4), (4, 65)], ids=_grid_id)
    def test_oracle_cap_holds_per_side(self, shape):
        with pytest.raises(PreconditionError):
            build_blur(Psf.delta(), shape, "periodic")

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1)], ids=_grid_id)
    def test_grids_need_two_samples_per_side(self, shape):
        with pytest.raises(ShapeError):
            build_blur(Psf.delta(), shape, "periodic")

    @pytest.mark.parametrize("bc,shape,accepted", [
        ("reflective", (3, 4), True), ("reflective", (4, 3), False),
        ("antireflective", (4, 5), True), ("antireflective", (5, 4), False)],
        ids=lambda v: _grid_id(v) if isinstance(v, tuple) else None)
    def test_ghost_depth_caps_hold_per_axis(self, bc, shape, accepted):
        # a 1x9 row stencil centred on its middle reaches 4 ghosts along the
        # rows only, so only the column count caps it: C for reflective,
        # C - 1 for antireflective
        row = np.full((1, 9), 1 / 9)
        if accepted:
            assert build_stencil_matrix(row, (0, 4), shape, bc).shape == shape
        else:
            with pytest.raises(UnsupportedError):
                build_stencil_matrix(row, (0, 4), shape, bc)


class TestBuildCorrelation:
    def test_periodic_equals_blur_transpose(self, rng):
        psf = Psf(rng.random((3, 2)) + 0.1, (1, 0))
        H = build_blur(psf, (6, 6), "periodic")
        Hc = build_correlation(psf, (6, 6), "periodic")
        assert np.allclose(Hc.matrix, H.matrix.T, atol=1e-14)

    def test_reflective_quadsym_equals_blur_and_its_transpose(self):
        psf = gaussian_psf(5, 1.0)
        H = build_blur(psf, (8, 8), "reflective")
        Hc = build_correlation(psf, (8, 8), "reflective")
        assert np.allclose(Hc.matrix, H.matrix, atol=1e-14)
        assert np.allclose(Hc.matrix, H.matrix.T, atol=1e-13)

    def test_nonsymmetric_antireflective_differs_from_transpose(self):
        psf = Psf(np.array([[0.75], [0.25]]), (0, 0))  # 2x1, lopsided
        H = build_blur(psf, (5, 5), "antireflective")
        Hc = build_correlation(psf, (5, 5), "antireflective")
        assert np.abs(Hc.matrix - H.matrix.T).max() > 0.0


class TestBuildGrad:
    @pytest.mark.parametrize("bc", ["periodic", "reflective", "antireflective"])
    def test_constants_in_kernel(self, bc):
        u = np.full((5, 5), 3.3)
        for direction in (1, 2):
            D = build_grad((5, 5), direction, bc)
            assert np.allclose(D.apply(u), 0.0, atol=1e-14)

    def test_antireflective_preserves_ramp(self):
        n = 4
        ramp = np.tile(np.arange(n, dtype=float), (n, 1))  # u(i, j) = j
        D = build_grad((n, n), 1, "antireflective")
        assert np.allclose(D.apply(ramp), 1.0, atol=1e-14)

    def test_periodic_ramp_wraparound(self):
        n = 4
        ramp = np.tile(np.arange(n, dtype=float), (n, 1))
        out = build_grad((n, n), 1, "periodic").apply(ramp)
        assert np.allclose(out[:, :-1], 1.0)
        assert np.allclose(out[:, -1], 1.0 - n)

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3)], ids=_grid_id)
    def test_non_square_directions(self, shape):
        # direction 1 differences along each row, direction 2 down each column
        rows, cols = np.indices(shape, dtype=float)
        for u, moving in ((cols, 1), (rows, 2)):
            for direction in (1, 2):
                D = build_grad(shape, direction, "antireflective")
                expected = 1.0 if direction == moving else 0.0
                assert np.allclose(D.apply(u), expected, atol=1e-14)
        # the periodic wrap closes each row on its own first sample
        assert np.array_equal(build_grad(shape, 1, "periodic").apply(cols)[:, -1],
                              np.full(shape[0], 1.0 - shape[1]))


class TestBuildAdjgrad:
    @pytest.mark.parametrize("shape", [(3, 5), (5, 3)], ids=_grid_id)
    def test_non_square_periodic_equals_grad_transpose(self, shape):
        for direction in (1, 2):
            D = build_grad(shape, direction, "periodic")
            Dp = build_adjgrad(shape, direction, "periodic")
            assert np.array_equal(Dp.matrix, D.matrix.T)

    def test_periodic_equals_grad_transpose(self):
        for direction in (1, 2):
            D = build_grad((6, 6), direction, "periodic")
            Dp = build_adjgrad((6, 6), direction, "periodic")
            assert np.allclose(Dp.matrix, D.matrix.T, atol=1e-14)

    def test_reflective_annihilates_constants(self):
        q = np.full((6, 6), 2.5)
        out = (build_adjgrad((6, 6), 1, "reflective").apply(q)
               + build_adjgrad((6, 6), 2, "reflective").apply(q))
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_zero_field_maps_to_zero(self):
        z = np.zeros((5, 5))
        assert np.array_equal(build_adjgrad((5, 5), 1, "zero").apply(z), z)


class TestBuildSystem:
    def test_delta_ratio_zero_is_identity(self):
        for bc in BCS:
            op = build_system(Psf.delta(), (5, 5), bc, 0.0)
            assert np.allclose(op.matrix, np.eye(25), atol=1e-14)

    def test_delta_periodic_is_identity_plus_laplacian(self):
        n, ratio = 6, 3.0
        M = build_system(Psf.delta(), (n, n), "periodic", ratio).matrix
        lap = build_stencil_matrix(LAPLACIAN_STENCIL, LAPLACIAN_CENTER, (n, n), "periodic").matrix
        assert np.allclose(M, np.eye(n * n) + ratio * lap, atol=1e-13)
        eigs = np.linalg.eigvalsh((M + M.T) / 2)
        assert eigs.min() >= 1.0 - 1e-10

    @pytest.mark.parametrize("bc,psf", [
        ("periodic", gaussian_psf(3, 1.0)),
        ("reflective", gaussian_psf(5, 1.0)),
    ])
    def test_symmetry_of_system(self, bc, psf):
        M = build_system(psf, (8, 8), bc, 2.0).matrix
        assert np.abs(M - M.T).max() <= 1e-12

    def test_matches_fft_path_application(self, rng):
        from tvdeblur.transforms import SystemPlanner, solve_system
        n = 8
        psf = gaussian_psf(3, 1.0)
        M = build_system(psf, (n, n), "periodic", 2.0)
        x = rng.standard_normal((n, n))
        b = M.apply(x)
        plan = SystemPlanner(psf, (n, n), "periodic").plan(2.0)
        assert np.abs(solve_system(plan, b) - x).max() < 1e-10


class TestAdjointIdentities:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_periodic_blur_adjoint_pairing(self, rng, n):
        psf = Psf(rng.random((3, 3)) + 0.05, (1, 1))
        H = build_blur(psf, (n, n), "periodic").matrix
        Hc = build_correlation(psf, (n, n), "periodic").matrix
        p = rng.standard_normal(n * n)
        q = rng.standard_normal(n * n)
        assert (H @ p) @ q == pytest.approx(p @ (Hc @ q), abs=1e-10, rel=1e-10)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_reflective_quadsym_adjoint_pairing(self, rng, n):
        psf = gaussian_psf(3, 1.1)
        H = build_blur(psf, (n, n), "reflective").matrix
        Hc = build_correlation(psf, (n, n), "reflective").matrix
        p = rng.standard_normal(n * n)
        q = rng.standard_normal(n * n)
        assert (H @ p) @ q == pytest.approx(p @ (Hc @ q), abs=1e-10, rel=1e-10)


class TestAlgebraIdentities:
    """Structural facts the fast transform plans rely on."""

    @pytest.mark.parametrize("n", [8, 16])
    def test_reflective_product_equals_autocorrelation_stencil(self, n):
        psf = gaussian_psf(5, 1.0)
        H = build_blur(psf, (n, n), "reflective").matrix
        a, ac = autocorrelation(psf)
        Ba = build_stencil_matrix(a, ac, (n, n), "reflective").matrix
        assert np.abs(H @ H - Ba).max() < 1e-12

    @pytest.mark.parametrize("n", [8, 16])
    def test_reflective_gradient_normal_matrix_is_closed_laplacian(self, n):
        D1 = build_grad((n, n), 1, "reflective").matrix
        D2 = build_grad((n, n), 2, "reflective").matrix
        lap = build_stencil_matrix(LAPLACIAN_STENCIL, LAPLACIAN_CENTER, (n, n), "reflective").matrix
        assert np.abs(D1.T @ D1 + D2.T @ D2 - lap).max() == 0.0

    def test_autocorrelation_is_point_symmetric(self, rng):
        psf = Psf(rng.random((3, 2)) + 0.01, (1, 1))
        a, _ = autocorrelation(psf)
        assert np.allclose(a, a[::-1, ::-1], atol=1e-15)

    @pytest.mark.parametrize("psf", [
        gaussian_psf(5, 1.0), gaussian_psf(4, 1.0),
        Psf(np.random.default_rng(5).random((3, 2)) + 0.01, (1, 1)),
        Psf(np.random.default_rng(6).random((1, 6)) + 0.01, (0, 2)),
        Psf(np.random.default_rng(7).random((5, 1)) + 0.01, (3, 0)),
    ], ids=["odd", "even-extent", "nonsymmetric", "1xn", "nx1"])
    def test_autocorrelation_matches_the_fast_path(self, psf):
        # the planner's H'H eigenvalues are the autocorrelation's symbol on
        # each transform's grid; a non-square shape with an even width keeps
        # the real FFT's Nyquist column, and the antireflective grid is laid
        # out like its coefficients, k = 0 .. n - 2 and then 0 for the second
        # ramp
        from tvdeblur.transforms import EIG_FLOOR, SystemPlanner, _symbol
        a, (ar, ac) = autocorrelation(psf)
        rows, cols = 9, 8
        grids = {"periodic": (2 * np.pi * np.arange(rows) / rows,
                              2 * np.pi * np.arange(cols // 2 + 1) / cols),
                 "reflective": (np.pi * np.arange(rows) / rows, np.pi * np.arange(cols) / cols),
                 "antireflective": (np.pi * np.r_[0:rows - 1, 0] / (rows - 1),
                                    np.pi * np.r_[0:cols - 1, 0] / (cols - 1))}
        checked = 0
        for bc, (theta_r, theta_c) in grids.items():
            if bc != "periodic" and not psf.quadrantally_symmetric:
                continue
            symbol = np.zeros((theta_r.size, theta_c.size), dtype=complex)
            for (i, j), w in np.ndenumerate(a):
                symbol += w * np.exp(-1j * ((i - ar) * theta_r[:, None] + (j - ac) * theta_c))
            planner = SystemPlanner(psf, (rows, cols), bc)
            eigenvalues = planner._blur_eig
            assert eigenvalues.shape == symbol.shape
            assert np.abs(eigenvalues - symbol).max() <= 1e-14
            checked += 1
        assert checked == (3 if psf.quadrantally_symmetric else 1)
        if psf.quadrantally_symmetric:
            # bit for bit the plans that sampled the (R - 1) x (C - 1) grid
            # and gathered it into the layout
            theta_r, theta_c = (np.pi * np.arange(n - 1) / (n - 1) for n in (rows, cols))
            layout = np.ix_(np.r_[0:rows - 1, 0], np.r_[0:cols - 1, 0])
            gathered = _symbol(psf.weights, psf.center, theta_r, theta_c)
            laplacian = (2 - 2 * np.cos(theta_r))[:, None] + (2 - 2 * np.cos(theta_c))
            for ratio in (0.0, 0.7):
                plan = planner.plan(ratio)
                expected = np.maximum(np.abs(gathered) ** 2 + ratio * laplacian, EIG_FLOOR)
                assert plan.eigenvalues.tobytes() == expected[layout].tobytes()
            if plan.blur_symbol is not None:
                assert plan.blur_symbol.tobytes() == gathered.real[layout].tobytes()

    def test_autocorrelation_of_even_gaussian_is_quadrantally_symmetric(self):
        a, _ = autocorrelation(gaussian_psf(4, 1.0))
        assert np.allclose(a, a[::-1, :], atol=1e-15)
        assert np.allclose(a, a[:, ::-1], atol=1e-15)

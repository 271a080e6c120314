import logging
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tvdeblur import (ConvergenceError, Psf, ShapeError, SingularPlanError, SolveParams,
                      SymmetryError, UnsupportedError, apply_blur, apply_correlation,
                      builtin_truth, diagonal_motion_psf, gaussian_psf, simulate, solve,
                      solve_enlarged)
from tvdeblur import dense, transforms
from tvdeblur.dense import LAPLACIAN_CENTER, LAPLACIAN_STENCIL, autocorrelation
from tvdeblur.transforms import (BLAS_SERIAL_MADDS, DENSE_AXIS_MAX, EIG_FLOOR, SystemPlanner,
                                 _antireflective, _cosine_matrix, _fft, _sine_matrix,
                                 _solve_zero, _squared_norm, _sum_of_squares, _transform,
                                 solve_and_blur, solve_system)

BCS = ("zero", "periodic", "reflective", "antireflective")
NONSYM = Psf(np.array([[0.50, 0.10], [0.20, 0.10], [0.05, 0.05]]), (1, 0))
BOX = Psf(np.array([[0.5, 0.5]]), (0, 0))
ROW = Psf(np.array([[0.25, 0.5, 0.25]]), (0, 1))
COLUMN = Psf(ROW.weights.T, (1, 0))


RECTANGULAR_KERNELS = {"delta": Psf.delta(), "g2": gaussian_psf(2, 0.7),
                       "g3": gaussian_psf(3, 0.8), "g5": gaussian_psf(5, 1.0)}


def _planner_accepts(psf, shape, bc):
    try:
        SystemPlanner(psf, shape, bc)
    except UnsupportedError:
        return False
    return True


def stencil_system(psf, shape, bc, ratio):
    """The autocorrelation stencil plus ratio times the Laplacian, from the
    dense oracle: the system H'H + ratio D'D that the periodic transform
    solves, the reflective one for a quadrantally symmetric kernel, and the
    antireflective one by construction."""
    matrix = (dense.build_stencil_matrix(*autocorrelation(psf), shape, bc).matrix
              + ratio * dense.build_stencil_matrix(LAPLACIAN_STENCIL, LAPLACIAN_CENTER,
                                                   shape, bc).matrix)
    return dense.DenseOperator(shape, matrix)


class TestPlanSystem:
    @pytest.mark.parametrize("bc", ["periodic", "reflective", "antireflective"])
    def test_delta_ratio_zero_has_unit_eigenvalues(self, bc):
        plan = SystemPlanner(Psf.delta(), (8, 8), bc).plan(0.0)
        # antireflective: corners, frame edges and interior, laid out as the image
        assert np.allclose(plan.eigenvalues, 1.0, atol=1e-12)

    def test_periodic_dc_gain_of_unit_mass_kernel(self):
        plan = SystemPlanner(gaussian_psf(5, 1.3), (12, 12), "periodic").plan(0.0)
        assert plan.eigenvalues[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_reflective_solve_matches_dense_inverse(self, rng):
        n, ratio = 16, 4.0
        psf = gaussian_psf(5, 1.0)
        b = rng.standard_normal((n, n))
        expected = dense.build_system(psf, (n, n), "reflective", ratio).solve(b)
        got = solve_system(SystemPlanner(psf, (n, n), "reflective").plan(ratio), b)
        assert np.abs(got - expected).max() < 1e-8

    def test_nonsymmetric_kernel_rejected_for_trig_models(self):
        for bc in ("reflective", "antireflective"):
            with pytest.raises(SymmetryError):
                SystemPlanner(NONSYM, (8, 8), bc).plan(1.0)

    @pytest.mark.parametrize("shape", [(1, 6), (6, 1)])
    def test_grid_below_two_samples_a_side_rejected(self, shape):
        with pytest.raises(ShapeError, match="at least 2x2"):
            SystemPlanner(Psf.delta(), shape, "periodic")

    def test_vanishing_mass_is_singular(self):
        tiny = Psf(np.array([[1e-12]]), (0, 0))
        with pytest.raises(SingularPlanError):
            SystemPlanner(tiny, (8, 8), "periodic").plan(1.0)

    def test_plans_are_deterministic(self):
        psf = gaussian_psf(5, 1.0)
        a = SystemPlanner(psf, (12, 10), "antireflective").plan(3.0)
        b = SystemPlanner(psf, (12, 10), "antireflective").plan(3.0)
        assert a.eigenvalues.shape == (12, 10)  # one per basis function
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    @pytest.mark.parametrize("bc", ["periodic", "reflective", "antireflective"])
    @pytest.mark.parametrize("ratio", [0.0, 0.25, 4.0, 1e3])
    def test_min_modulus_positive_and_recorded(self, bc, ratio):
        plan = SystemPlanner(gaussian_psf(5, 1.0), (10, 10), bc).plan(ratio)
        assert plan.min_modulus is not None and plan.min_modulus > 0.0
        assert plan.clamp_count == 0

    def test_clamping_counted_and_logged(self, caplog):
        # near-zero mass barely above the singularity cutoff
        weights = np.full((2, 2), 1.0)
        weights[0, 0] = 1.0 + 1e-6
        psf = Psf(weights * 1e-3 / weights.sum(), (0, 0))
        with caplog.at_level(logging.WARNING, logger="tvdeblur.transforms"):
            plan = SystemPlanner(psf, (8, 8), "periodic").plan(0.0)
        assert plan.clamp_count > 0
        assert any("clamped" in rec.message for rec in caplog.records)

    def test_box_clamps_its_nyquist_column(self):
        # the 1x2 box's symbol 0.5 + 0.5 exp(-i theta_c) vanishes at
        # theta_c = pi, the real FFT's last column for an even width
        plan = SystemPlanner(BOX, (6, 8), "periodic").plan(0.0)
        assert plan.clamp_count == 6
        assert np.count_nonzero(plan.eigenvalues == EIG_FLOOR) == 6
        assert np.all(plan.eigenvalues[:, -1] == EIG_FLOOR)

    def test_antireflective_clamps_count_the_plans_eigenvalues(self):
        # [0.5, 0, 0.5]'s symbol cos(theta_c) vanishes at theta_c = pi / 2,
        # the middle of the five columns, in each of the 6 rows: the last,
        # the second ramp's, samples theta_r = 0 like the first
        psf = Psf(np.array([[0.5, 0.0, 0.5]]), (0, 1))
        plan = SystemPlanner(psf, (6, 5), "antireflective").plan(0.0)
        assert plan.clamp_count == np.count_nonzero(plan.eigenvalues == EIG_FLOOR) == 6
        assert np.all(plan.eigenvalues[:, 2] == EIG_FLOOR)

    # one fit rule for every model: each kernel side at most the image side
    @pytest.mark.parametrize("bc", BCS)
    @pytest.mark.parametrize("psf, shape", [(gaussian_psf(5, 1.0), (4, 4)),
                                            (gaussian_psf(3, 0.8), (2, 5)),
                                            (gaussian_psf(3, 0.8), (5, 2))],
                             ids=["5x5-on-4x4", "3x3-on-2x5", "3x3-on-5x2"])
    def test_a_kernel_side_above_the_image_side_is_refused(self, bc, psf, shape):
        with pytest.raises(UnsupportedError, match=re.escape(
                f"kernel support {(psf.rows, psf.cols)} exceeds image dims {shape}")):
            SystemPlanner(psf, shape, bc)

    @pytest.mark.parametrize("bc", ["periodic", "reflective", "antireflective"])
    @pytest.mark.parametrize("ratio", [0.0, 1e-6, 1.0])
    @pytest.mark.parametrize("psf", [BOX, Psf.delta(), gaussian_psf(2, 0.7), gaussian_psf(5, 1.0)],
                             ids=["box", "delta", "g2", "g5"])
    def test_eigenvalues_never_fall_below_the_floor(self, bc, ratio, psf):
        plan = SystemPlanner(psf, (7, 8), bc).plan(ratio)
        assert plan.eigenvalues.min() >= EIG_FLOOR


class TestSolveSystem:
    @pytest.mark.parametrize("bc", BCS)
    @pytest.mark.parametrize("name,psf", [
        ("g3", gaussian_psf(3, 1.0)),
        ("g5", gaussian_psf(5, 1.0)),
        ("nonsym", NONSYM),
    ])
    def test_round_trip_against_dense(self, rng, bc, name, psf):
        if name == "nonsym" and bc in ("reflective", "antireflective"):
            pytest.skip("trig models require quadrantal symmetry")
        n, ratio = 8, 2.0
        system = dense.build_system(psf, (n, n), bc, ratio)
        x = rng.standard_normal((n, n))
        got = solve_system(SystemPlanner(psf, (n, n), bc).plan(ratio), system.apply(x))
        assert np.abs(got - x).max() < 1e-8

    def test_periodic_recovers_random_solution(self, rng):
        n = 16
        psf = gaussian_psf(5, 1.0)
        system = dense.build_system(psf, (n, n), "periodic", 1.5)
        x = rng.standard_normal((n, n))
        got = solve_system(SystemPlanner(psf, (n, n), "periodic").plan(1.5), system.apply(x))
        assert np.abs(got - x).max() < 1e-9 * max(1.0, np.abs(x).max())

    def test_zero_rhs_gives_zero(self):
        for bc in BCS:
            plan = SystemPlanner(gaussian_psf(3, 1.0), (8, 8), bc).plan(2.0)
            assert np.allclose(solve_system(plan, np.zeros((8, 8))), 0.0, atol=1e-13)

    def test_identity_plan_returns_rhs(self, rng):
        rhs = rng.standard_normal((8, 8))
        for bc in BCS:
            plan = SystemPlanner(Psf.delta(), (8, 8), bc).plan(0.0)
            assert np.abs(solve_system(plan, rhs) - rhs).max() < 1e-10

    # On 2-row or 2-column grids the antireflective basis along that axis is
    # the two ramps, so its interior and one pair of edge slices are empty.
    # The (20, 14) g5 cases keep the ids they had before the grid sweep.
    @pytest.mark.parametrize("shape, kernel, bc", [
        pytest.param(shape, kernel, bc, id=bc if (shape, kernel) == ((20, 14), "g5")
                     and bc in ("reflective", "antireflective")
                     else f"{shape[0]}x{shape[1]}-{kernel}-{bc}")
        for shape in ((2, 2), (2, 5), (5, 2), (3, 7), (20, 14))
        for kernel in ("delta", "g2", "g3", "g5") for bc in BCS
        if _planner_accepts(RECTANGULAR_KERNELS[kernel], shape, bc)])
    def test_rectangular_solves(self, rng, shape, kernel, bc):
        psf, ratio = RECTANGULAR_KERNELS[kernel], 1.5
        plan = SystemPlanner(psf, shape, bc).plan(ratio)
        x = rng.standard_normal(shape)
        if bc == "zero":
            b = dense.build_system(psf, shape, "zero", ratio).apply(x)
        else:
            b = stencil_system(psf, shape, bc, ratio).apply(x)
        got = solve_system(plan, b)
        assert np.abs(got - x).max() < 1e-9

    # a kernel that fits each axis, though its long side exceeds the short
    # image side: the antireflective basis along a two-sample axis is ramps only
    FITS_EACH_AXIS = pytest.mark.parametrize("psf, shape", [(ROW, (2, 9)), (COLUMN, (9, 2))],
                                             ids=["1x3-on-2x9", "3x1-on-9x2"])

    @pytest.mark.parametrize("ratio", [2.0, 0.004])
    @FITS_EACH_AXIS
    def test_antireflective_takes_a_kernel_that_fits_each_axis(self, rng, psf, shape, ratio):
        b = rng.standard_normal(shape)
        expected = dense.build_system(psf, shape, "antireflective", ratio).solve(b)
        got = solve_system(SystemPlanner(psf, shape, "antireflective").plan(ratio), b)
        assert np.abs(got - expected).max() < 1e-8

    @FITS_EACH_AXIS
    def test_antireflective_restores_on_a_two_sample_axis(self, psf, shape):
        # a corner of a scene too small to build on its own
        truth = builtin_truth("cartoon", 13, 13)[:shape[0] + 2 * (psf.rows - 1),
                                                 :shape[1] + 2 * (psf.cols - 1)]
        observed = simulate(truth, psf, 1e-4, seed=5)[0]
        assert observed.shape == shape
        u, trace = solve(observed, psf, "antireflective",
                         SolveParams(alpha=500.0, beta_ladder=(4.0, 64.0), inner_max=4))
        assert u.shape == shape and np.all(np.isfinite(u))
        assert trace.total_inner_iterations > 0

    def test_shape_mismatch(self, rng):
        plan = SystemPlanner(gaussian_psf(3, 1.0), (8, 8), "periodic").plan(1.0)
        with pytest.raises(ShapeError):
            solve_system(plan, rng.standard_normal((8, 9)))


@given(n=st.integers(2, 12), k=st.integers(1, 7), sigma=st.floats(0.3, 3.0),
       ratio=st.sampled_from([1e-6, 1.0, 1e6]), seed=st.integers(0, 10 ** 6))
def test_antireflective_transform_inverts_the_dense_system(n, k, sigma, ratio, seed):
    # odd and even extents, and composite stencils over 25 taps from k >= 4
    psf = gaussian_psf(k, sigma)
    assume(_planner_accepts(psf, (n, n), "antireflective"))
    x = np.random.default_rng(seed).standard_normal((n, n))
    b = dense.build_system(psf, (n, n), "antireflective", ratio).apply(x)
    got = solve_system(SystemPlanner(psf, (n, n), "antireflective").plan(ratio), b)
    assert np.abs(got - x).max() < 1e-8


def _antireflective_basis(n):
    """Columns: the ramp 1 - s, the DST-I sines k = 1 .. n - 2, the ramp s."""
    i, s = np.arange(n), np.arange(n) / (n - 1)
    sines = np.sqrt(2 / (n - 1)) * np.sin(np.pi * np.outer(i, np.arange(1, n - 1)) / (n - 1))
    return np.column_stack([1 - s, sines, s])


AR_SHAPES = [(12, 9), (9, 14), (5, 5), (6, 7), (2, 2), (2, 5), (3, 3)]
AR_KERNELS = {"delta": Psf.delta(), "2x2 kernel": gaussian_psf(2, 0.7),
              "3x3 kernel": gaussian_psf(3, 0.8),
              "column 3x1": Psf(np.array([[0.25], [0.5], [0.25]]), (1, 0)),
              "4x4 kernel, 49-tap stencil": gaussian_psf(4, 1.0)}


class TestAntireflectiveTransform:
    @pytest.mark.parametrize("shape", AR_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_inverse_undoes_forward(self, rng, shape):
        x = rng.standard_normal(shape)
        back = _antireflective(_antireflective(x), inverse=True)
        assert np.abs(back - x).max() < 1e-12

    @pytest.mark.parametrize("shape", AR_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_synthesizes_ramps_and_sines(self, rng, shape):
        # corners weight the bilinear ramps, frame edges a ramp times a
        # sine, the interior products of sines
        c = rng.standard_normal(shape)
        expected = _antireflective_basis(shape[0]) @ c @ _antireflective_basis(shape[1]).T
        assert np.abs(_antireflective(c, inverse=True) - expected).max() < 1e-12

    @pytest.mark.parametrize("shape,name", [
        pytest.param(shape, name, id=f"{shape[0]}x{shape[1]}-{name}")
        for shape in AR_SHAPES for name in AR_KERNELS
        if _planner_accepts(AR_KERNELS[name], shape, "antireflective")])
    def test_diagonalizes_the_system(self, rng, shape, name):
        psf, ratio = AR_KERNELS[name], 0.7
        plan = SystemPlanner(psf, shape, "antireflective").plan(ratio)
        c = rng.standard_normal(shape)
        u = _antireflective(c, inverse=True)
        system_u = stencil_system(psf, shape, "antireflective", ratio).apply(u)
        assert plan.eigenvalues.shape == shape
        assert np.abs(_antireflective(system_u) - plan.eigenvalues * c).max() < 1e-12


# sine lengths m = n - 2 at and around the benchmark's, and either side of the cutoff
DENSE_LENGTHS = (1, 2, 46, 102, 126, 127, 128)
LONG_AXIS = DENSE_AXIS_MAX + 5


class TestDenseSines:
    """The dense DST-I against pocketfft's, through the whole transform: the
    reference sets DENSE_AXIS_MAX to 0, the route every axis above the
    cutoff takes. Bound, fixed before the run: 1e-13 max-abs on unit-normal
    entries, about 4 m eps at m = 128, for rounding in sums of at most 128
    terms."""

    @staticmethod
    def shapes(m):
        n = m + 2
        return [(n, n), (n, 9), (5, n), (n, LONG_AXIS), (LONG_AXIS, n)]

    @pytest.mark.parametrize("m", DENSE_LENGTHS)
    def test_matches_pocketfft(self, rng, monkeypatch, m):
        for shape in self.shapes(m):
            x = rng.standard_normal(shape)
            for inverse in (False, True):
                got = _antireflective(x, inverse=inverse)
                with monkeypatch.context() as patch:
                    patch.setattr(transforms, "DENSE_AXIS_MAX", 0)
                    expected = _antireflective(x, inverse=inverse)
                assert np.abs(got - expected).max() <= 1e-13, (shape, inverse)

    @pytest.mark.parametrize("m", DENSE_LENGTHS)
    def test_edges_take_a_one_dimensional_dst(self, rng, m):
        # each frame edge loses the ramp through its corners and takes a DST-I
        for shape in [(m + 2, 7), (7, m + 2)]:
            x = rng.standard_normal(shape)
            got = _antireflective(x)
            for edge, coefficients in ((x[0], got[0]), (x[-1], got[-1]),
                                       (x[:, 0], got[:, 0]), (x[:, -1], got[:, -1])):
                n = edge.size
                ramp = edge[0] + (edge[-1] - edge[0]) * np.arange(1, n - 1) / (n - 1)
                expected = _fft.dst(edge[1:-1] - ramp, type=1, norm="ortho")
                assert np.abs(coefficients[1:-1] - expected).max() <= 1e-13, shape

    @pytest.mark.parametrize("m", DENSE_LENGTHS)
    def test_round_trip(self, rng, m):
        for shape in self.shapes(m):
            x = rng.standard_normal(shape)
            back = _antireflective(_antireflective(x), inverse=True)
            assert np.abs(back - x).max() <= 1e-13, shape

    def test_every_blas_call_stays_on_one_thread(self, rng, monkeypatch):
        # OpenBLAS runs a gemm of at most 65536 * 4 multiply-adds on one thread
        calls, matmul = [], np.matmul

        def recorded(a, b, *args, **kwargs):
            calls.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", recorded)
        for m in DENSE_LENGTHS:
            for shape in self.shapes(m):
                _antireflective(rng.standard_normal(shape))
        assert BLAS_SERIAL_MADDS == 262144
        assert calls and max(calls) <= BLAS_SERIAL_MADDS

    def test_one_read_only_matrix_per_length_up_to_the_cutoff(self, rng):
        _sine_matrix.cache_clear()
        for shape in [(LONG_AXIS, 9), (9, 9), (9, LONG_AXIS), (LONG_AXIS, LONG_AXIS)]:
            _antireflective(_antireflective(rng.standard_normal(shape)), inverse=True)
        assert _sine_matrix.cache_info().currsize == 1
        sine = _sine_matrix(7)
        assert sine is _sine_matrix(7) and not sine.flags.writeable

    # three solves mixing the routes, one axis dense and the other pocketfft's
    MIXED_ROUTES = [(gaussian_psf(3, 0.8), (40, 150)), (gaussian_psf(3, 0.8), (150, 40)),
                    (gaussian_psf(9, 2), (60, 140))]

    @pytest.mark.parametrize("psf, shape", MIXED_ROUTES,
                             ids=[f"{s[0]}x{s[1]}-{p.rows}x{p.cols}" for p, s in MIXED_ROUTES])
    def test_a_mixed_route_solve_matches_pocketfft(self, monkeypatch, psf, shape):
        # bound, fixed before the run: 1e-12 max-abs on a [0, 1] image, with
        # the same iteration count
        truth = builtin_truth("cartoon", shape[0] + 2 * psf.rows - 2, shape[1] + 2 * psf.cols - 2)
        observed, _ = simulate(truth, psf, 1e-4, seed=2)
        assert observed.shape == shape
        params = SolveParams(alpha=500.0, beta_ladder=(4.0, 64.0), inner_max=4)
        got, trace = solve(observed, psf, "antireflective", params)
        monkeypatch.setattr(transforms, "DENSE_AXIS_MAX", 0)
        expected, expected_trace = solve(observed, psf, "antireflective", params)
        assert np.abs(got - expected).max() <= 1e-12
        assert trace.total_inner_iterations == expected_trace.total_inner_iterations


class TestDenseCosines:
    """The DCT-II of a grid within BLAS_SERIAL_MADDS as cosine products,
    against pocketfft's. Bound, fixed before the run: 1e-13 max-abs on
    unit-normal entries, as for the sines, for sums of at most 64 terms."""

    # every square length up to the bound, and non-square grids, one of them
    # (128 x 16) at the bound itself
    SHAPES = [(n, n) for n in range(2, 65)] + [(2, 64), (64, 40), (13, 64), (128, 16)]

    @staticmethod
    def owner(shape):
        return SystemPlanner(Psf.delta(), shape, "reflective")

    def test_matches_pocketfft(self, rng, monkeypatch):
        calls, dctn, idctn = [], _fft.dctn, _fft.idctn
        for name in ("dctn", "idctn"):
            def counted(*args, _call=getattr(_fft, name), **kwargs):
                calls.append(args[0].shape)
                return _call(*args, **kwargs)
            monkeypatch.setattr(_fft, name, counted)
        for shape in self.SHAPES:
            x, owner = rng.standard_normal(shape), self.owner(shape)
            forward, inverse = _transform(owner, x), _transform(owner, x, inverse=True)
            assert not calls, shape
            assert np.abs(forward - dctn(x, type=2, norm="ortho")).max() <= 1e-13, shape
            assert np.abs(inverse - idctn(x, type=2, norm="ortho")).max() <= 1e-13, shape
            assert forward.shape == inverse.shape == shape

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_rows_are_the_one_dimensional_transform(self, rng, n):
        x = rng.standard_normal(n)
        cosine = _cosine_matrix(n)
        assert np.abs(cosine @ x - _fft.dct(x, type=2, norm="ortho")).max() <= 1e-13
        assert np.abs(cosine.T @ x - _fft.idct(x, type=2, norm="ortho")).max() <= 1e-13

    @pytest.mark.parametrize("shape", [(65, 64), (64, 65), (129, 16), (400, 3)])
    def test_grids_above_the_bound_take_pocketfft(self, rng, monkeypatch, shape):
        def unused(*args):
            raise AssertionError("a cosine product above the bound")

        monkeypatch.setattr(np, "matmul", unused)
        x, owner = rng.standard_normal(shape), self.owner(shape)
        assert shape[0] * shape[1] * max(shape) > BLAS_SERIAL_MADDS
        assert _transform(owner, x).tobytes() == _fft.dctn(x, type=2, norm="ortho").tobytes()
        assert _transform(owner, x, inverse=True).tobytes() == _fft.idctn(
            x, type=2, norm="ortho").tobytes()

    def test_one_read_only_matrix_per_length_within_the_bound(self, rng):
        _cosine_matrix.cache_clear()
        for shape in [(9, 9), (9, 30), (65, 64)]:
            owner = self.owner(shape)
            _transform(owner, _transform(owner, rng.standard_normal(shape)), inverse=True)
        assert _cosine_matrix.cache_info().currsize == 2
        cosine = _cosine_matrix(9)
        assert cosine is _cosine_matrix(9) and not cosine.flags.writeable


class TestPlannerReuse:
    def test_planner_matches_one_shot_plans(self, rng):
        psf = gaussian_psf(5, 1.0)
        planner = SystemPlanner(psf, (12, 12), "reflective")
        for ratio in (0.5, 2.0, 8.0):
            a = planner.plan(ratio)
            b = SystemPlanner(psf, (12, 12), "reflective").plan(ratio)
            assert np.array_equal(a.eigenvalues, b.eigenvalues)


def zero_system(psf, ratio):
    """The zero model's normal-equations operator, from the image operators."""
    from tvdeblur.operators import adjoint_gradient, apply_blur, apply_correlation, gradient

    def apply(u):
        return (apply_correlation(apply_blur(u, psf, "zero"), psf, "zero")
                + ratio * adjoint_gradient(gradient(u, "zero"), "zero"))
    return apply


def relative_residual(apply, u, b):
    return np.linalg.norm(b - apply(u)) / np.linalg.norm(b)


def random_psf(shape, center, seed):
    return Psf(np.random.default_rng(seed).random(shape) + 0.05, center)


# Kernels that pin the crop offsets of the zero model's FFT matvec, per image side n.
CROP_CASES = {
    "centred-at-origin": lambda n: (random_psf((3, 4), (0, 0), n), "periodic"),
    "centred-at-far-corner": lambda n: (random_psf((4, 3), (3, 2), n), "periodic"),
    "n-by-1": lambda n: (random_psf((n, 1), (n // 2, 0), n), "periodic"),
    "n-by-n": lambda n: (random_psf((n, n), (n // 2, (n - 1) // 2), n), "periodic"),
    "delta": lambda n: (Psf.delta(), "reflective"),
}


def check_preconditioner_plan(psf, plan, basis):
    """A zero plan carries, bit for bit, the numerics of its basis's own plan."""
    assert plan.bc == "zero" and plan.basis == basis
    own = SystemPlanner(psf, plan.shape, basis).plan(plan.ratio)
    assert plan.eigenvalues.tobytes() == own.eigenvalues.tobytes()
    assert (plan.min_modulus, plan.clamp_count) == (own.min_modulus, own.clamp_count)


@pytest.mark.parametrize("bc", BCS)
def test_a_solve_builds_one_planner(monkeypatch, bc):
    built = []
    init = SystemPlanner.__init__

    def counted(self, *args):
        built.append(args[2])
        init(self, *args)

    monkeypatch.setattr(SystemPlanner, "__init__", counted)
    f = builtin_truth("cartoon", 12, 12)
    solve(f, gaussian_psf(3, 1.0), bc, SolveParams(alpha=100.0, beta_ladder=(4.0, 8.0),
                                                   inner_max=2))
    assert built == [bc]


class TestZeroPreconditionedCG:
    """The zero model's CG on inputs where plain CG was slow or untested."""

    # the first two ids predate the image side n and are kept as they were
    @pytest.mark.parametrize("n,psf,preconditioner", [
        pytest.param(24, gaussian_psf(6, 1.5), "reflective", id="even-extent-psf0-reflective"),
        pytest.param(24, Psf(np.random.default_rng(7).random((5, 4)) + 0.05, (2, 1)),
                     "periodic", id="nonsym5x4-psf1-periodic"),
    ] + [pytest.param(n, *case(n), id=f"{name}-{n}") for name, case in CROP_CASES.items()
         for n in (6, 9, 16)])
    def test_matches_dense_oracle(self, rng, n, psf, preconditioner):
        ratio = 0.3
        plan = SystemPlanner(psf, (n, n), "zero").plan(ratio)
        check_preconditioner_plan(psf, plan, preconditioner)
        b = rng.standard_normal((n, n))
        expected = dense.build_system(psf, (n, n), "zero", ratio).solve(b)
        u, (iterations, start_residual, residual), blurred = _solve_zero(plan, b)
        assert np.abs(u - expected).max() < 1e-8
        assert 1 <= iterations and start_residual == 1.0 and residual <= 1e-12
        assert blurred.tobytes() == plan.blur(u).tobytes()

    def test_plans_share_the_planners_fft_products(self, rng):
        psf = gaussian_psf(5, 1.0)
        planner = SystemPlanner(psf, (14, 12), "zero")
        a, b = planner.plan(0.3), planner.plan(3.0)
        assert a.basis == "reflective" and a.blur is b.blur and a.correlate is b.correlate
        u = rng.standard_normal((14, 12))
        assert np.abs(a.blur(u) - apply_blur(u, psf, "zero")).max() < 1e-12
        assert np.abs(a.correlate(u) - apply_correlation(u, psf, "zero")).max() < 1e-12
        assert np.abs(a.correlate(a.blur(u)) - zero_system(psf, 0.0)(u)).max() < 1e-12

    # a quadrantally symmetric kernel takes the DCT-II preconditioner wherever
    # it fits the image, though its composite stencil reaches past a side
    NINE_BY_THREE = gaussian_psf(9, 2.0).weights[:, 3:6]

    @pytest.mark.parametrize("psf, shape", [(Psf(NINE_BY_THREE / NINE_BY_THREE.sum(), (4, 1)),
                                             (20, 4)),
                                            (Psf(np.full((1, 9), 1 / 9), (0, 4)), (2, 9))],
                             ids=["9x3-on-20x4", "1x9-box-on-2x9"])
    def test_kernel_deeper_than_a_side_keeps_the_dct(self, rng, psf, shape):
        assert psf.quadrantally_symmetric
        plan = SystemPlanner(psf, shape, "zero").plan(0.5)
        check_preconditioner_plan(psf, plan, "reflective")
        b = rng.standard_normal(shape)
        system = dense.build_system(psf, shape, "zero", 0.5)
        assert relative_residual(system.apply, solve_system(plan, b), b) <= 1e-12

    def test_non_square_image_meets_the_tolerance(self, rng):
        psf = random_psf((5, 4), (1, 2), 11)
        plan = SystemPlanner(psf, (20, 13), "zero").plan(0.3)
        b = rng.standard_normal((20, 13))
        system = dense.build_system(psf, (20, 13), "zero", 0.3)
        assert relative_residual(system.apply, solve_system(plan, b), b) <= 1e-12

    @staticmethod
    def check_solve_above_the_oracle_cap(monkeypatch, forcing_bound, psf, preconditioner):
        # a cold solve of each update's right-hand side meets CG_RTOL, and
        # the loop's warm-started update its forcing bound
        from tvdeblur import solver
        n = 96
        truth = builtin_truth("cartoon", n + 2 * (psf.rows - 1), n + 2 * (psf.cols - 1))
        observed, _ = simulate(truth, psf, 1e-4, seed=2)
        cold, excess = [], []

        def checked(plan, rhs, *args):
            assert plan.basis == preconditioner
            u, fit, cg = solve_and_blur(plan, rhs, *args)
            system = zero_system(psf, plan.ratio)
            cold.append(relative_residual(system, solve_system(plan, rhs), rhs))
            excess.append(relative_residual(system, u, rhs) / forcing_bound(cg[1]))
            return u, fit, cg

        monkeypatch.setattr(solver, "solve_and_blur", checked)
        _, trace = solver.solve(observed, psf, "zero",
                                SolveParams(alpha=500.0, beta_ladder=(4.0, 64.0), inner_max=4))
        assert len(cold) == len(excess) == trace.total_inner_iterations > 0
        assert max(cold) <= 1e-12
        assert max(excess) <= 1.0

    def test_solve_above_the_oracle_cap_meets_the_tolerance(self, monkeypatch, forcing_bound):
        self.check_solve_above_the_oracle_cap(monkeypatch, forcing_bound, gaussian_psf(5, 1.0),
                                              "reflective")

    # an even kernel (half-sample centre) under the DCT preconditioner, and a
    # nonsymmetric one under the FFT preconditioner
    @pytest.mark.parametrize("psf,preconditioner", [
        (gaussian_psf(6, 1.5), "reflective"), (diagonal_motion_psf(7), "periodic")],
        ids=["gaussian-6-even", "diagonal-motion-7"])
    def test_other_kernels_above_the_oracle_cap_meet_the_tolerance(self, monkeypatch,
                                                                   forcing_bound, psf,
                                                                   preconditioner):
        self.check_solve_above_the_oracle_cap(monkeypatch, forcing_bound, psf, preconditioner)

    def test_huge_alpha_stays_under_the_cap(self, forcing_bound):
        from tvdeblur.transforms import CG_MAXITER
        psf = gaussian_psf(5, 1.0)
        truth = builtin_truth("cartoon", 40, 40)
        observed, _ = simulate(truth, psf, 1e-4, seed=3)
        u, trace = solve(observed, psf, "zero", SolveParams(alpha=1e6))
        assert np.all(np.isfinite(u))
        assert max(r.cg_iterations for r in trace.records) < CG_MAXITER
        assert all(r.cg_residual <= forcing_bound(r.cg_start_residual) for r in trace.records)


def separable_psf(rows, cols, center, seed):
    """A positive rank-1 kernel, the outer product of two random factors."""
    rng = np.random.default_rng(seed)
    return Psf(np.outer(rng.random(rows) + 0.1, rng.random(cols) + 0.1), center)


def record_products(monkeypatch):
    """Patch rfft2 and np.matmul to record, per call, the FFT's grid and the
    matmul's multiply-adds per BLAS call (m * k * n)."""
    ffts, madds = [], []
    rfft2, matmul = _fft.rfft2, np.matmul

    def fft(x, *args, **kwargs):
        ffts.append(x.shape)
        return rfft2(x, *args, **kwargs)

    def product(a, b, *args, **kwargs):
        madds.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(_fft, "rfft2", fft)
    monkeypatch.setattr(np, "matmul", product)
    return ffts, madds


class TestSeparableZeroProducts:
    """A rank-1 kernel's zero plan blurs by Kronecker products of Toeplitz
    matrices when both image sides are at most the cutoff. Bounds, fixed
    before the run: 1e-8 max-abs against the dense oracle's solve (its
    ``TOLERANCE``), and 1e-12 against ``apply_blur`` and
    ``apply_correlation``, for rounding in sums of at most 16 taps on
    unit-normal images."""

    # (psf, shape): off-centre and even-extent factors, a row, a column and
    # the delta, on non-square grids
    CASES = {
        "gaussian5-on-20x13": (gaussian_psf(5, 1.0), (20, 13)),
        "even-gaussian6-on-13x20": (gaussian_psf(6, 1.5), (13, 20)),
        "off-centre-3x4-on-20x13": (separable_psf(3, 4, (0, 3), 1), (20, 13)),
        "off-centre-4x2-on-9x16": (separable_psf(4, 2, (3, 0), 2), (9, 16)),
        "1x5-on-7x12": (separable_psf(1, 5, (0, 1), 3), (7, 12)),
        "6x1-on-12x7": (separable_psf(6, 1, (4, 0), 4), (12, 7)),
        "delta-on-5x8": (Psf.delta(), (5, 8)),
    }

    @pytest.mark.parametrize("psf, shape", CASES.values(), ids=CASES.keys())
    def test_matches_the_dense_oracle(self, rng, monkeypatch, psf, shape):
        ffts, madds = record_products(monkeypatch)
        plan = SystemPlanner(psf, shape, "zero").plan(0.3)
        u = rng.standard_normal(shape)
        assert np.abs(plan.blur(u) - apply_blur(u, psf, "zero")).max() <= 1e-12
        assert np.abs(plan.correlate(u) - apply_correlation(u, psf, "zero")).max() <= 1e-12
        expected = dense.build_system(psf, shape, "zero", 0.3).solve(u)
        assert np.abs(solve_system(plan, u) - expected).max() <= 1e-8
        assert plan.blur(u).flags.c_contiguous and plan.correlate(u).flags.c_contiguous
        ffts.clear()
        madds.clear()
        both = plan.correlate(plan.blur(u))
        assert not ffts and len(madds) == 4  # one per axis and product
        madds.clear()
        normal = plan.normal(u)
        assert not ffts and len(madds) == 2  # one per Gram matrix
        assert np.abs(normal - both).max() <= 1e-12 and normal.flags.c_contiguous

    # matrix_rank 2 and 5, and a side above the cutoff
    @pytest.mark.parametrize("psf, shape", [
        (NONSYM, (20, 13)), (diagonal_motion_psf(7), (20, 13)),
        (gaussian_psf(3, 0.8), (DENSE_AXIS_MAX + 1, 9)),
        (gaussian_psf(3, 0.8), (9, DENSE_AXIS_MAX + 1))],
        ids=["rank-2-nonsym3x2", "rank-5-diagonal-motion-7", "rows-above-the-cutoff",
             "cols-above-the-cutoff"])
    def test_other_kernels_and_sides_take_the_fft(self, rng, monkeypatch, psf, shape):
        ffts, madds = record_products(monkeypatch)
        plan = SystemPlanner(psf, shape, "zero").plan(0.3)
        u = rng.standard_normal(shape)
        ffts.clear()
        blurred, correlated = plan.blur(u), plan.correlate(u)
        assert len(ffts) == 2 and not madds
        assert np.abs(blurred - apply_blur(u, psf, "zero")).max() <= 1e-12
        assert np.abs(correlated - apply_correlation(u, psf, "zero")).max() <= 1e-12
        assert plan.normal(u).tobytes() == plan.correlate(blurred).tobytes()

    def test_every_blas_call_stays_on_one_thread(self, rng, monkeypatch):
        ffts, madds = record_products(monkeypatch)
        n = DENSE_AXIS_MAX
        for psf, shape in list(self.CASES.values()) + [
                (gaussian_psf(5, 1.0), (n, n)), (gaussian_psf(3, 0.8), (n, 3)),
                (gaussian_psf(3, 0.8), (3, n)), (gaussian_psf(16, 5.0), (97, n))]:
            plan = SystemPlanner(psf, shape, "zero").plan(0.3)
            u = rng.standard_normal(shape)
            ffts.clear()
            blurred = plan.blur(u)
            assert not ffts
            assert np.abs(blurred - apply_blur(u, psf, "zero")).max() <= 1e-12
        assert madds and max(madds) <= BLAS_SERIAL_MADDS
        # whole solves: a zero restore at the cutoff (Gram products, planner
        # set-up and the pocketfft DCT-II preconditioner) and a reflective
        # one at 64 x 64 (cosine products)
        psf, params = gaussian_psf(5, 1.0), SolveParams(alpha=500.0, beta_ladder=(4.0, 64.0),
                                                        inner_max=2)
        for bc, side in (("zero", n), ("reflective", 64)):
            observed, _ = simulate(builtin_truth("cartoon", side + 8, side + 8), psf, 1e-4,
                                   seed=3)
            assert observed.shape == (side, side)
            madds.clear()
            solve(observed, psf, bc, params)
            assert madds and max(madds) <= BLAS_SERIAL_MADDS, bc


FFT, DCT, TRUTH = {"rfft2": 1, "irfft2": 1}, {"dctn": 1, "idctn": 1}, (26, 25)


class TestSolveAndBlur:
    KERNELS = {"3x3": gaussian_psf(3, 0.8), "4x4": gaussian_psf(4, 1.0),
               "7x7": gaussian_psf(7, 1.5), "nonsymmetric": NONSYM}
    # the reflective models take quadrantally symmetric kernels only
    CASES = [(kernel, bc) for kernel in sorted(KERNELS) for bc in BCS
             if kernel != "nonsymmetric" or bc in ("zero", "periodic")]

    @pytest.mark.parametrize("kernel, bc", CASES)
    def test_blur_of_the_solution(self, rng, kernel, bc):
        psf = self.KERNELS[kernel]
        rhs, f = rng.standard_normal((2, 14, 11))
        planner = SystemPlanner(psf, rhs.shape, bc)
        plan = planner.plan(0.7)
        u, fit, cg = solve_and_blur(plan, rhs, planner.prepare(f)[1])
        assert u.tobytes() == solve_system(plan, rhs).tobytes()
        expected = np.sum((apply_blur(u, psf, bc) - f) ** 2)
        assert abs(fit - expected) <= 1e-12 * expected
        assert (cg is None) == (bc != "zero")

    @pytest.mark.parametrize("kernel, bc", CASES)
    def test_fidelity_of_the_data_itself(self, rng, kernel, bc):
        psf = self.KERNELS[kernel]
        f = rng.standard_normal((14, 11))
        _, fit = SystemPlanner(psf, f.shape, bc).prepare(f)[1:]
        expected = np.sum((apply_blur(f, psf, bc) - f) ** 2)
        assert abs(fit - expected) <= 1e-12 * expected

    # a 36-tap kernel takes apply_correlation's FFT convolver
    @pytest.mark.parametrize("kernel, bc", CASES + [("6x6", bc) for bc in BCS])
    def test_prepared_correlation_is_apply_correlation(self, rng, kernel, bc):
        psf = {**self.KERNELS, "6x6": gaussian_psf(6, 1.5)}[kernel]
        f = rng.standard_normal((14, 11))
        corr_f = SystemPlanner(psf, f.shape, bc).prepare(f)[0]
        assert corr_f.tobytes() == apply_correlation(f, psf, bc).tobytes()

    # the blur of a kernel of odd extent, centred on its middle sample, is
    # diagonal in the DCT-II basis and in the antireflective one
    @pytest.mark.parametrize("bc", ["reflective", "antireflective"])
    @pytest.mark.parametrize("kernel, symbol", [("3x3", True), ("7x7", True), ("4x4", False)])
    def test_blur_is_a_symbol_only_for_odd_kernels(self, bc, kernel, symbol):
        plan = SystemPlanner(self.KERNELS[kernel], (14, 11), bc).plan(0.7)
        assert (plan.blur_symbol is not None) is symbol

    @pytest.mark.parametrize("bc", ["reflective", "antireflective"])
    def test_symbol_needs_a_centered_kernel(self, rng, bc):
        # symmetric weights declared off their middle sample
        psf = Psf(gaussian_psf(3, 0.8).weights, (0, 0))
        rhs, f = rng.standard_normal((2, 10, 9))
        planner = SystemPlanner(psf, rhs.shape, bc)
        plan = planner.plan(0.7)
        assert plan.blur_symbol is None
        u, fit, _ = solve_and_blur(plan, rhs, planner.prepare(f)[1])
        expected = np.sum((apply_blur(u, psf, bc) - f) ** 2)
        assert abs(fit - expected) <= 1e-12 * expected

    # The antireflective fidelity from the coefficients against the blur in
    # space: an axis of two samples has only the ramps, one of at most
    # DENSE_AXIS_MAX sines takes the dense DST-I, and a longer one pocketfft's
    # (on one axis at 130 x 12, on both at 140 x 140). A two-sample axis
    # admits only kernels of one sample along it.
    ANTIREFLECTIVE_FIT_RTOL = 1e-12
    ANTIREFLECTIVE_FITS = [(Psf(np.array([[0.8]]), (0, 0)), (2, 9)),
                           (Psf(np.array([[0.8]]), (0, 0)), (9, 2)),
                           (ROW, (2, 9)), (COLUMN, (9, 2)),
                           (gaussian_psf(3, 0.8), (3, 3)),
                           (gaussian_psf(7, 1.5), (130, 12)),
                           (gaussian_psf(9, 2.0), (140, 140))]

    @pytest.mark.parametrize("psf, shape", ANTIREFLECTIVE_FITS,
                             ids=[f"{psf.rows}x{psf.cols}-on-{shape[0]}x{shape[1]}"
                                  for psf, shape in ANTIREFLECTIVE_FITS])
    def test_antireflective_fidelity_is_the_blur_in_space(self, rng, psf, shape):
        rhs, f = rng.standard_normal((2, *shape))
        planner = SystemPlanner(psf, shape, "antireflective")
        plan = planner.plan(0.7)
        assert plan.blur_symbol is not None
        _, target, data_fit = planner.prepare(f)
        u, fit, _ = solve_and_blur(plan, rhs, target)
        for image, value in ((u, fit), (f, data_fit)):
            expected = np.sum((apply_blur(image, psf, "antireflective") - f) ** 2)
            assert abs(value - expected) <= self.ANTIREFLECTIVE_FIT_RTOL * expected

    # (mode, psf, truth shape, scipy.fft calls per image update); enlarge:*
    # runs a periodic solve on the enlarged domain. The antireflective DST-I
    # of at most DENSE_AXIS_MAX sines is a dense product, and a kernel of odd
    # extent centred on its middle sample has a symbol, so only an even 6x6
    # kernel's blur (36 taps, an FFT product) or the pocketfft DST-I of a
    # longer axis, one dst each way, reaches scipy.fft there; the reflective
    # 4x4 kernel has no symbol, and its 16-tap blur is direct. With both axes
    # longer, the edges take a dst each and the interior a dstn, each way.
    # The DCT-II of an R x C image with R C max(R, C) <= BLAS_SERIAL_MADDS
    # is cosine products, so only a 65 x 64 image, just above that bound,
    # takes a dctn and an idctn.
    UPDATE_CASES = [("periodic", gaussian_psf(3, 0.8), TRUTH, FFT),
                    ("periodic", NONSYM, TRUTH, FFT)]
    UPDATE_CASES += [("reflective", psf, truth, expected)
                     for psf in (gaussian_psf(3, 0.8), gaussian_psf(7, 1.5), gaussian_psf(4, 1.0))
                     for truth, expected in ((TRUTH, {}),
                                             ((63 + 2 * psf.rows, 62 + 2 * psf.cols), DCT))]
    UPDATE_CASES += [("antireflective", gaussian_psf(3, 0.8), TRUTH, {}),
                     ("antireflective", gaussian_psf(7, 1.5), TRUTH, {}),
                     ("antireflective", gaussian_psf(6, 1.5), TRUTH, FFT),
                     # 22 x 136 and 136 x 21: 134 sines on one axis
                     ("antireflective", gaussian_psf(3, 0.8), (26, 140), {"dst": 2}),
                     ("antireflective", gaussian_psf(3, 0.8), (140, 25), {"dst": 2}),
                     ("antireflective", gaussian_psf(3, 0.8), (140, 140), {"dst": 4, "dstn": 2})]
    UPDATE_CASES += [(f"enlarge:{rule}", NONSYM, TRUTH, FFT) for rule in BCS]

    @pytest.mark.parametrize("mode, psf, truth, expected", UPDATE_CASES, ids=[
        f"{mode}-{psf.rows}x{psf.cols}-on-{truth[0]}x{truth[1]}"
        for mode, psf, truth, _ in UPDATE_CASES])
    def test_a_symbol_plan_update_makes_one_transform_each_way(self, monkeypatch, mode, psf,
                                                               truth, expected):
        from tvdeblur import solver
        calls = {}
        for name in ("rfft2", "irfft2", "dctn", "idctn", "dstn", "dst"):
            def counted(*args, _name=name, _call=getattr(_fft, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _call(*args, **kwargs)
            monkeypatch.setattr(_fft, name, counted)
        step, per_update = solver.solve_and_blur, []

        def recorded(*args):
            calls.clear()
            out = step(*args)
            per_update.append(dict(calls))
            return out

        monkeypatch.setattr(solver, "solve_and_blur", recorded)
        observed, _ = simulate(builtin_truth("cartoon", *truth), psf, 1e-4, seed=6)
        params = SolveParams(alpha=500.0, beta_ladder=(4.0, 64.0), inner_max=3)
        if mode.startswith("enlarge:"):
            solve_enlarged(observed, psf, mode.split(":")[1], params, 3)
        else:
            solve(observed, psf, mode, params)
        assert len(per_update) >= 4
        assert all(counts == expected for counts in per_update)

    # (psf, its plan's basis, whether its products are matrix products): a
    # quadrantally symmetric cross of rank 2 under the DCT-II, the oracle's
    # nonsymmetric 3x2 kernel under the FFT, and the separable Gaussian
    ZERO_ROUTES = {
        "fft-cross3x3": (Psf(np.array([[1.0, 2, 1], [2, 8, 2], [1, 2, 1]]) / 20, (1, 1)),
                         "reflective", False),
        "fft-nonsym3x2": (NONSYM, "periodic", False),
        "kronecker-gaussian5": (gaussian_psf(5, 1.0), "reflective", True),
    }

    @pytest.mark.parametrize("psf, basis, kronecker", ZERO_ROUTES.values(),
                             ids=ZERO_ROUTES.keys())
    def test_a_zero_update_blurs_only_inside_its_cg(self, monkeypatch, psf, basis, kronecker):
        # the CG's start residual and its final check, whose H x is the
        # fidelity's, each take H and then H'; each step takes H'H, on the
        # FFT route the same two products, on the Kronecker route its two
        # Gram products. An FFT product is one rfft2/irfft2 pair, a Kronecker
        # or Gram product two np.matmul calls (each axis in one batched call
        # up to this size). The DCT preconditioner on these grids (at most
        # 22 x 23) is two cosine products each way, the FFT one an
        # rfft2/irfft2 pair.
        from tvdeblur import solver
        names = ("rfft2", "irfft2", "dctn", "idctn")
        calls = dict.fromkeys(names + ("matmul",), 0)
        for module, name in [(_fft, name) for name in names] + [(np, "matmul")]:
            def counted(*args, _name=name, _call=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _call(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        step, per_update = solver.solve_and_blur, []

        def recorded(*args):
            calls.update(dict.fromkeys(calls, 0))
            out = step(*args)
            assert args[0].basis == basis
            per_update.append((dict(calls), out[2][0]))
            return out

        monkeypatch.setattr(solver, "solve_and_blur", recorded)
        observed, _ = simulate(builtin_truth("cartoon", 26, 25), psf, 1e-4, seed=6)
        solve(observed, psf, "zero", SolveParams(alpha=500.0, beta_ladder=(4.0, 64.0),
                                                 inner_max=3))
        assert len(per_update) >= 4
        for counts, steps in per_update:
            # FFT route: 2 products per H'H and per H then H'; Kronecker
            # route: 2 np.matmul per H'H, 4 per H then H'
            ffts = 0 if kronecker else 2 * steps + 4 + steps * (basis == "periodic")
            dct = 4 * steps * (basis == "reflective")
            assert counts == {"rfft2": ffts, "irfft2": ffts, "dctn": 0, "idctn": 0,
                              "matmul": (2 * steps + 8) * kronecker + dct}

    @pytest.mark.parametrize("shape", [(17, 18), (18, 17), (2, 2), (5, 3)])
    def test_half_spectrum_parseval_weights(self, rng, shape):
        plan = SystemPlanner(Psf.delta(), shape, "periodic").plan(0.0)
        x = rng.standard_normal(shape)
        assert _squared_norm(plan, _fft.rfft2(x)) == pytest.approx(np.sum(x * x), rel=1e-13)

    # two-sample axes (ramps only), short and long, dense and pocketfft sines
    @pytest.mark.parametrize("shape", [(2, 2), (2, 9), (9, 2), (3, 3), (17, 18), (131, 12),
                                       (200, 129)])
    def test_antireflective_frame_correction(self, rng, shape):
        plan = SystemPlanner(Psf.delta(), shape, "antireflective").plan(0.0)
        c = rng.standard_normal(shape)
        expected = _sum_of_squares(_transform(plan, c, inverse=True))
        assert _squared_norm(plan, c) == pytest.approx(expected, rel=1e-13)


class TestZeroWarmStart:
    PSF = gaussian_psf(5, 1.0)

    def plan(self):
        return SystemPlanner(self.PSF, (14, 12), "zero").plan(0.3)

    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_zero_rhs_returns_zeros_in_no_steps(self, rng, start):
        plan = self.plan()
        x0 = None if start == "cold" else rng.standard_normal(plan.shape)
        u, cg, blurred = _solve_zero(plan, np.zeros(plan.shape), x0)
        assert u.tobytes() == blurred.tobytes() == np.zeros(plan.shape).tobytes()
        assert cg == (0, 0.0, 0.0)

    def test_start_that_meets_the_tolerance_takes_no_steps(self, rng):
        plan = self.plan()
        b = rng.standard_normal(plan.shape)
        solution, (cold_steps, _, cold_residual), _ = _solve_zero(plan, b)
        u, (steps, start_residual, residual), _ = _solve_zero(plan, b, solution)
        assert cold_steps >= 1 and steps == 0 and u.tobytes() == solution.tobytes()
        # the true residual of the start, as the cold solve logged it for the same u
        assert residual == start_residual == cold_residual <= 1e-12
        assert residual == pytest.approx(
            relative_residual(zero_system(self.PSF, 0.3), solution, b), abs=1e-14)

    def test_warm_start_meets_the_tolerance_in_fewer_steps(self, rng, forcing_bound):
        plan = self.plan()
        b = rng.standard_normal(plan.shape)
        cold, (cold_steps, _, _), _ = _solve_zero(plan, b)
        _, (warm_steps, start_residual, warm_residual), _ = _solve_zero(
            plan, b, cold + 1e-6 * rng.standard_normal(plan.shape))
        assert 1 <= warm_steps < cold_steps
        assert warm_residual <= forcing_bound(start_residual)

    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_convergence_error_names_the_tolerance_it_used(self, rng, monkeypatch, start):
        plan = self.plan()
        b, x0 = rng.standard_normal((2,) + plan.shape)
        expected = 1e-12 if start == "cold" else 1e-5 * relative_residual(
            zero_system(self.PSF, 0.3), x0, b)
        monkeypatch.setattr("tvdeblur.transforms.CG_MAXITER", 1)
        with pytest.raises(ConvergenceError,
                           match=r"above its tolerance (\S+) \(info=1\)$") as caught:
            _solve_zero(plan, b, None if start == "cold" else x0)
        printed = float(re.search(r"tolerance (\S+)", str(caught.value)).group(1))
        assert printed == pytest.approx(expected, rel=1e-5)

    def test_solve_system_starts_cold(self, rng):
        plan = self.plan()
        b = rng.standard_normal(plan.shape)
        assert solve_system(plan, b).tobytes() == _solve_zero(plan, b)[0].tobytes()

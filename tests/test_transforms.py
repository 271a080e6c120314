import logging

import numpy as np
import pytest

from tvdeblur import (Psf, ShapeError, SingularPlanError, SolveParams, SymmetryError,
                      apply_blur, builtin_truth, gaussian_psf, simulate, solve)
from tvdeblur import dense
from tvdeblur.operators import apply_stencil
from tvdeblur.transforms import SystemPlanner, _banded_frame_load, solve_and_blur, solve_system

BCS = ("zero", "periodic", "reflective", "antireflective")
NONSYM = Psf(np.array([[0.50, 0.10], [0.20, 0.10], [0.05, 0.05]]), (1, 0))


class TestPlanSystem:
    @pytest.mark.parametrize("bc", ["periodic", "reflective", "antireflective"])
    def test_delta_ratio_zero_has_unit_eigenvalues(self, bc):
        plan = SystemPlanner(Psf.delta(), (8, 8), bc).plan(0.0)
        assert np.allclose(plan.eigenvalues, 1.0, atol=1e-12)
        if bc == "antireflective":
            assert np.allclose(plan.edge_row, 1.0, atol=1e-12)
            assert np.allclose(plan.edge_col, 1.0, atol=1e-12)
            assert plan.corner == pytest.approx(1.0, abs=1e-12)

    def test_periodic_dc_gain_of_unit_mass_kernel(self):
        plan = SystemPlanner(gaussian_psf(5, 1.3), (12, 12), "periodic").plan(0.0)
        assert plan.eigenvalues[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_reflective_solve_matches_dense_inverse(self, rng):
        n, ratio = 16, 4.0
        psf = gaussian_psf(5, 1.0)
        b = rng.standard_normal((n, n))
        expected = dense.build_system(psf, n, "reflective", ratio).solve(b)
        got = solve_system(SystemPlanner(psf, (n, n), "reflective").plan(ratio), b)
        assert np.abs(got - expected).max() < 1e-8

    def test_nonsymmetric_kernel_rejected_for_trig_models(self):
        for bc in ("reflective", "antireflective"):
            with pytest.raises(SymmetryError):
                SystemPlanner(NONSYM, (8, 8), bc).plan(1.0)

    def test_vanishing_mass_is_singular(self):
        tiny = Psf(np.array([[1e-12]]), (0, 0))
        with pytest.raises(SingularPlanError):
            SystemPlanner(tiny, (8, 8), "periodic").plan(1.0)

    def test_plans_are_deterministic(self):
        psf = gaussian_psf(5, 1.0)
        a = SystemPlanner(psf, (12, 10), "antireflective").plan(3.0)
        b = SystemPlanner(psf, (12, 10), "antireflective").plan(3.0)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.edge_row, b.edge_row)
        assert np.array_equal(a.edge_col, b.edge_col)
        assert a.corner == b.corner

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
        system = dense.build_system(psf, n, bc, ratio)
        x = rng.standard_normal((n, n))
        got = solve_system(SystemPlanner(psf, (n, n), bc).plan(ratio), system.apply(x))
        assert np.abs(got - x).max() < 1e-8

    def test_periodic_recovers_random_solution(self, rng):
        n = 16
        psf = gaussian_psf(5, 1.0)
        system = dense.build_system(psf, n, "periodic", 1.5)
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

    @pytest.mark.parametrize("bc", ["reflective", "antireflective"])
    def test_rectangular_solves(self, rng, bc):
        from tvdeblur.operators import apply_stencil
        psf = gaussian_psf(5, 1.0)
        plan = SystemPlanner(psf, (20, 14), bc).plan(1.5)
        x = rng.standard_normal((20, 14))
        c, cc = dense.system_stencil(psf, 1.5)
        b = apply_stencil(x, c, cc, bc)
        got = solve_system(plan, b)
        assert np.abs(got - x).max() < 1e-9

    def test_shape_mismatch(self, rng):
        plan = SystemPlanner(gaussian_psf(3, 1.0), (8, 8), "periodic").plan(1.0)
        with pytest.raises(ShapeError):
            solve_system(plan, rng.standard_normal((8, 9)))


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
        assert plan.preconditioner.bc == preconditioner
        b = rng.standard_normal((n, n))
        expected = dense.build_system(psf, n, "zero", ratio).solve(b)
        assert np.abs(solve_system(plan, b) - expected).max() < 1e-8
        iterations, residual = plan.cg_log[-1]
        assert 1 <= iterations and residual <= 1e-12

    def test_kernel_too_deep_for_the_dct_falls_back_to_the_fft(self, rng):
        psf = gaussian_psf(9, 2.0)
        psf = Psf(psf.weights[:, 3:6] / psf.weights[:, 3:6].sum(), (4, 1))  # 9x3
        assert psf.quadrantally_symmetric
        plan = SystemPlanner(psf, (20, 4), "zero").plan(0.5)
        assert plan.preconditioner.bc == "periodic"
        b = rng.standard_normal((20, 4))
        assert relative_residual(zero_system(psf, 0.5), solve_system(plan, b), b) <= 1e-12

    def test_non_square_image_meets_the_tolerance(self, rng):
        psf = random_psf((5, 4), (1, 2), 11)
        plan = SystemPlanner(psf, (20, 13), "zero").plan(0.3)
        b = rng.standard_normal((20, 13))
        assert relative_residual(zero_system(psf, 0.3), solve_system(plan, b), b) <= 1e-12

    def test_solve_above_the_oracle_cap_meets_the_tolerance(self, monkeypatch):
        from tvdeblur import solver
        psf, n = gaussian_psf(5, 1.0), 96
        truth = builtin_truth("cartoon", n + 8, n + 8)
        observed, _ = simulate(truth, psf, 1e-4, seed=2)
        residuals = []

        def checked(plan, rhs):
            u, hu = solve_and_blur(plan, rhs)
            residuals.append(relative_residual(zero_system(psf, plan.ratio), u, rhs))
            return u, hu

        monkeypatch.setattr(solver, "solve_and_blur", checked)
        _, trace = solver.solve(observed, psf, "zero",
                                SolveParams(alpha=500.0, beta_ladder=(4.0, 64.0), inner_max=4))
        assert len(residuals) == trace.total_inner_iterations > 0
        assert max(residuals) <= 1e-12

    def test_huge_alpha_stays_under_the_cap(self):
        from tvdeblur.transforms import CG_MAXITER
        psf = gaussian_psf(5, 1.0)
        truth = builtin_truth("cartoon", 40, 40)
        observed, _ = simulate(truth, psf, 1e-4, seed=3)
        u, trace = solve(observed, psf, "zero", SolveParams(alpha=1e6))
        assert np.all(np.isfinite(u))
        assert max(r.cg_iterations for r in trace.records) < CG_MAXITER
        assert max(r.cg_residual for r in trace.records) <= 1e-12


def framed(rng, shape):
    """Random values on the frame, zeros inside: what the frame load sees."""
    u = rng.standard_normal(shape)
    u[1:-1, 1:-1] = 0.0
    return u


class TestBandedFrameLoad:
    STENCILS = {
        "3x3 kernel": dense.system_stencil(gaussian_psf(3, 0.8), 2.5),
        "2x2 kernel": dense.system_stencil(gaussian_psf(2, 0.7), 0.5),
        "off-center 2x3": (np.arange(1.0, 7.0).reshape(2, 3), (0, 2)),
        "off-center 5x5": (np.linspace(-1.0, 1.5, 25).reshape(5, 5), (1, 3)),
        "column 3x1": (np.array([[0.25], [-1.0], [2.0]]), (2, 0)),
    }

    @pytest.mark.parametrize("name", sorted(STENCILS))
    @pytest.mark.parametrize("shape", [(12, 9), (9, 14), (5, 5), (6, 7)])
    def test_equals_the_whole_image_load_bit_for_bit(self, rng, name, shape):
        weights, center = self.STENCILS[name]
        assert weights.size <= 25
        u = framed(rng, shape)
        expected = apply_stencil(u, weights, center, "antireflective")
        assert _banded_frame_load(u, weights, center).tobytes() == expected.tobytes()

    def test_plans_band_only_stencils_of_at_most_25_taps(self):
        shape = (10, 12)
        narrow = SystemPlanner(gaussian_psf(3, 0.8), shape, "antireflective").plan(2.0)
        wide = SystemPlanner(gaussian_psf(4, 1.0), shape, "antireflective").plan(2.0)
        assert narrow.frame_load.func is _banded_frame_load
        assert not hasattr(wide.frame_load, "func")


class TestSolveAndBlur:
    KERNELS = {"3x3": gaussian_psf(3, 0.8), "4x4": gaussian_psf(4, 1.0),
               "7x7": gaussian_psf(7, 1.5), "nonsymmetric": NONSYM}
    # the reflective models take quadrantally symmetric kernels only
    CASES = [(kernel, bc) for kernel in sorted(KERNELS) for bc in BCS
             if kernel != "nonsymmetric" or bc in ("zero", "periodic")]

    @pytest.mark.parametrize("kernel, bc", CASES)
    def test_blur_of_the_solution(self, rng, kernel, bc):
        psf = self.KERNELS[kernel]
        rhs = rng.standard_normal((14, 11))
        plan = SystemPlanner(psf, rhs.shape, bc).plan(0.7)
        u, hu = solve_and_blur(plan, rhs)
        assert u.tobytes() == solve_system(plan, rhs).tobytes()
        expected = apply_blur(u, psf, bc)
        assert np.abs(hu - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("kernel, symbol", [("3x3", True), ("7x7", True), ("4x4", False)])
    def test_reflective_blur_is_a_dct_symbol_only_for_odd_kernels(self, kernel, symbol):
        plan = SystemPlanner(self.KERNELS[kernel], (14, 11), "reflective").plan(0.7)
        assert (plan.blur_symbol is not None) is symbol

    def test_reflective_symbol_needs_a_centered_kernel(self, rng):
        # symmetric weights declared off their middle sample
        psf = Psf(gaussian_psf(3, 0.8).weights, (0, 0))
        rhs = rng.standard_normal((10, 9))
        plan = SystemPlanner(psf, rhs.shape, "reflective").plan(0.7)
        assert plan.blur_symbol is None
        u, hu = solve_and_blur(plan, rhs)
        assert np.abs(hu - apply_blur(u, psf, "reflective")).max() <= 1e-12

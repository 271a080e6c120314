import logging

import numpy as np
import pytest

from tvdeblur import (Psf, ShapeError, SingularPlanError, SolveParams, SymmetryError,
                      UnsupportedError, apply_blur, builtin_truth, gaussian_psf, simulate, solve,
                      solve_enlarged)
from tvdeblur import dense
from tvdeblur.operators import (LAPLACIAN_CENTER, LAPLACIAN_STENCIL, apply_stencil,
                                autocorrelation, combine_stencils)
from tvdeblur.transforms import (SystemPlanner, _banded_frame_load, _fft, _solve_zero,
                                 _squared_norm, fidelity_target, solve_and_blur, solve_system)

BCS = ("zero", "periodic", "reflective", "antireflective")
NONSYM = Psf(np.array([[0.50, 0.10], [0.20, 0.10], [0.05, 0.05]]), (1, 0))


RECTANGULAR_KERNELS = {"delta": Psf.delta(), "g2": gaussian_psf(2, 0.7),
                       "g3": gaussian_psf(3, 0.8), "g5": gaussian_psf(5, 1.0)}


def _planner_accepts(psf, shape, bc):
    try:
        SystemPlanner(psf, shape, bc)
    except UnsupportedError:
        return False
    return True


class TestPlanSystem:
    @pytest.mark.parametrize("bc", ["periodic", "reflective", "antireflective"])
    def test_delta_ratio_zero_has_unit_eigenvalues(self, bc):
        plan = SystemPlanner(Psf.delta(), (8, 8), bc).plan(0.0)
        # antireflective: corner [0, 0], edges [1:, 0] and [0, 1:], interior [1:, 1:]
        assert np.allclose(plan.eigenvalues, 1.0, atol=1e-12)

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
        assert a.eigenvalues.shape == (11, 9)  # corner, edges and interior
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

    # On 2-row or 2-column grids the antireflective theta grid has one sample
    # along that axis, so its interior and one pair of edge slices are empty.
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
            b = zero_system(psf, ratio)(x)
        else:
            # H'H is the autocorrelation stencil for periodic and for reflective
            # with a quadrantally symmetric kernel, and antireflective solves it
            c, cc = combine_stencils(*autocorrelation(psf), LAPLACIAN_STENCIL,
                                     LAPLACIAN_CENTER, ratio)
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
        u, iterations, residual = _solve_zero(plan, b)
        assert np.abs(u - expected).max() < 1e-8
        assert 1 <= iterations and residual <= 1e-12

    def test_plans_share_the_planners_fft_products(self, rng):
        psf = gaussian_psf(5, 1.0)
        planner = SystemPlanner(psf, (14, 12), "zero")
        a, b = planner.plan(0.3), planner.plan(3.0)
        assert a.eigenvalues is None and a.blur is b.blur and a.normal is b.normal
        u = rng.standard_normal((14, 12))
        assert np.abs(a.normal(u) - zero_system(psf, 0.0)(u)).max() < 1e-12

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

        def checked(plan, rhs, *args):
            u, fit, cg = solve_and_blur(plan, rhs, *args)
            residuals.append(relative_residual(zero_system(psf, plan.ratio), u, rhs))
            return u, fit, cg

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
        "3x3 kernel": combine_stencils(*autocorrelation(gaussian_psf(3, 0.8)),
                                       LAPLACIAN_STENCIL, LAPLACIAN_CENTER, 2.5),
        "2x2 kernel": combine_stencils(*autocorrelation(gaussian_psf(2, 0.7)),
                                       LAPLACIAN_STENCIL, LAPLACIAN_CENTER, 0.5),
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
        rhs, f = rng.standard_normal((2, 14, 11))
        planner = SystemPlanner(psf, rhs.shape, bc)
        plan = planner.plan(0.7)
        u, fit, cg = solve_and_blur(plan, rhs, fidelity_target(planner, f)[0])
        assert u.tobytes() == solve_system(plan, rhs).tobytes()
        expected = np.sum((apply_blur(u, psf, bc) - f) ** 2)
        assert abs(fit - expected) <= 1e-12 * expected
        assert (cg is None) == (bc != "zero")

    @pytest.mark.parametrize("kernel, bc", CASES)
    def test_fidelity_of_the_data_itself(self, rng, kernel, bc):
        psf = self.KERNELS[kernel]
        f = rng.standard_normal((14, 11))
        _, fit = fidelity_target(SystemPlanner(psf, f.shape, bc), f)
        expected = np.sum((apply_blur(f, psf, bc) - f) ** 2)
        assert abs(fit - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("kernel, symbol", [("3x3", True), ("7x7", True), ("4x4", False)])
    def test_reflective_blur_is_a_dct_symbol_only_for_odd_kernels(self, kernel, symbol):
        plan = SystemPlanner(self.KERNELS[kernel], (14, 11), "reflective").plan(0.7)
        assert (plan.blur_symbol is not None) is symbol

    def test_reflective_symbol_needs_a_centered_kernel(self, rng):
        # symmetric weights declared off their middle sample
        psf = Psf(gaussian_psf(3, 0.8).weights, (0, 0))
        rhs, f = rng.standard_normal((2, 10, 9))
        planner = SystemPlanner(psf, rhs.shape, "reflective")
        plan = planner.plan(0.7)
        assert plan.blur_symbol is None
        u, fit, _ = solve_and_blur(plan, rhs, fidelity_target(planner, f)[0])
        expected = np.sum((apply_blur(u, psf, "reflective") - f) ** 2)
        assert abs(fit - expected) <= 1e-12 * expected

    # (mode, psf): enlarge:* runs a periodic solve on the enlarged domain
    SYMBOL_CASES = [("periodic", gaussian_psf(3, 0.8)), ("periodic", NONSYM),
                    ("reflective", gaussian_psf(3, 0.8)), ("reflective", gaussian_psf(7, 1.5))]
    SYMBOL_CASES += [(f"enlarge:{rule}", NONSYM) for rule in BCS]

    @pytest.mark.parametrize("mode, psf", SYMBOL_CASES)
    def test_a_symbol_plan_update_makes_one_transform_each_way(self, monkeypatch, mode, psf):
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
        observed, _ = simulate(builtin_truth("cartoon", 26, 25), psf, 1e-4, seed=6)
        params = SolveParams(alpha=500.0, beta_ladder=(4.0, 64.0), inner_max=3)
        if mode.startswith("enlarge:"):
            solve_enlarged(observed, psf, mode.split(":")[1], 3, params)
            pair = {"rfft2": 1, "irfft2": 1}
        else:
            solve(observed, psf, mode, params)
            pair = {"rfft2": 1, "irfft2": 1} if mode == "periodic" else {"dctn": 1, "idctn": 1}
        assert len(per_update) >= 4
        assert all(counts == pair for counts in per_update)

    @pytest.mark.parametrize("shape", [(17, 18), (18, 17), (2, 2), (5, 3)])
    def test_half_spectrum_parseval_weights(self, rng, shape):
        plan = SystemPlanner(Psf.delta(), shape, "periodic").plan(0.0)
        x = rng.standard_normal(shape)
        assert _squared_norm(plan, _fft.rfft2(x)) == pytest.approx(np.sum(x * x), rel=1e-13)


class TestZeroWarmStart:
    PSF = gaussian_psf(5, 1.0)

    def plan(self):
        return SystemPlanner(self.PSF, (14, 12), "zero").plan(0.3)

    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_zero_rhs_returns_zeros_in_no_steps(self, rng, start):
        plan = self.plan()
        x0 = None if start == "cold" else rng.standard_normal(plan.shape)
        u, steps, residual = _solve_zero(plan, np.zeros(plan.shape), x0)
        assert u.tobytes() == np.zeros(plan.shape).tobytes()
        assert (steps, residual) == (0, 0.0)

    def test_start_that_meets_the_tolerance_takes_no_steps(self, rng):
        plan = self.plan()
        b = rng.standard_normal(plan.shape)
        solution, cold_steps, cold_residual = _solve_zero(plan, b)
        u, steps, residual = _solve_zero(plan, b, solution)
        assert cold_steps >= 1 and steps == 0 and u.tobytes() == solution.tobytes()
        # the true residual of the start, as the cold solve logged it for the same u
        assert residual == cold_residual <= 1e-12
        assert residual == pytest.approx(
            relative_residual(zero_system(self.PSF, 0.3), solution, b), abs=1e-14)

    def test_warm_start_meets_the_tolerance_in_fewer_steps(self, rng):
        plan = self.plan()
        b = rng.standard_normal(plan.shape)
        cold, cold_steps, _ = _solve_zero(plan, b)
        _, warm_steps, warm_residual = _solve_zero(
            plan, b, cold + 1e-6 * rng.standard_normal(plan.shape))
        assert 1 <= warm_steps < cold_steps and warm_residual <= 1e-12

    def test_solve_system_starts_cold(self, rng):
        plan = self.plan()
        b = rng.standard_normal(plan.shape)
        assert solve_system(plan, b).tobytes() == _solve_zero(plan, b)[0].tobytes()

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvdeblur import (ConvergenceError, GradientField, PreconditionError, Psf, SolveParams,
                      SymmetryError, apply_blur, apply_correlation, builtin_truth, energy,
                      extend, gaussian_psf, gradient, shrink, simulate, snr, solve,
                      solve_enlarged)
from tvdeblur import dense
from tvdeblur.grid import DEFAULT_BETA_LADDER
from tvdeblur.solver import _soft_threshold, u_step
from tvdeblur.transforms import SystemPlanner, fidelity_target


class TestShrink:
    def test_closed_form_example(self):
        z = GradientField(np.full((2, 2), 0.5), np.zeros((2, 2)))
        out = shrink(z, beta=4.0)
        assert np.allclose(out.z1, 0.25) and np.allclose(out.z2, 0.0)

    def test_zero_stays_zero(self):
        out = shrink(GradientField.zeros((3, 3)), beta=10.0)
        assert np.array_equal(out.z1, 0.0 * out.z1) and not out.z1.any()

    def test_below_threshold_clamps_to_zero(self, rng):
        g1 = rng.uniform(-0.1, 0.1, (5, 5))
        g2 = rng.uniform(-0.1, 0.1, (5, 5))
        out = shrink(GradientField(g1, g2), beta=1.0)  # threshold 1 > sqrt(2)*0.1
        assert not out.z1.any() and not out.z2.any()

    @given(seed=st.integers(0, 10 ** 6), beta=st.floats(0.5, 200.0))
    def test_magnitude_never_grows(self, seed, beta):
        rng = np.random.default_rng(seed)
        g = GradientField(rng.standard_normal((6, 6)), rng.standard_normal((6, 6)))
        out = shrink(g, beta)
        assert np.all(out.magnitude() <= g.magnitude() + 1e-15)

    @given(seed=st.integers(0, 10 ** 6))
    def test_first_order_optimality(self, seed):
        rng = np.random.default_rng(seed)
        beta = float(rng.uniform(0.5, 64.0))
        g = GradientField(rng.standard_normal((8, 8)), rng.standard_normal((8, 8)))
        z = shrink(g, beta)
        mag = z.magnitude()
        active = mag > 0
        r1 = z.z1 / np.where(active, mag, 1.0) + beta * (z.z1 - g.z1)
        r2 = z.z2 / np.where(active, mag, 1.0) + beta * (z.z2 - g.z2)
        assert np.abs(np.where(active, r1, 0.0)).max() <= 1e-10
        assert np.abs(np.where(active, r2, 0.0)).max() <= 1e-10
        # inactive pixels sit exactly at zero
        assert np.array_equal(z.z1[~active], np.zeros(int((~active).sum())))

    MAGNITUDES = (0.0, 5e-324, 1e-170, 1.0, 1e170)

    # beta = 1e200 puts the threshold below magnitudes whose squares underflow
    @pytest.mark.parametrize("beta", [4.0, 1e200])
    @pytest.mark.parametrize("magnitude", [pytest.param(m, id=f"{m:g}") for m in MAGNITUDES]
                             + [pytest.param(MAGNITUDES, id="all")])
    def test_extreme_magnitudes_match_a_hypot_reference(self, magnitude, beta):
        angles = np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False) + 0.3
        mags = np.atleast_1d(magnitude)
        g1, g2 = np.outer(mags, np.cos(angles)), np.outer(mags, np.sin(angles))
        z1, z2, shrunk = _soft_threshold(g1, g2, beta)
        assert np.isfinite(z1).all() and np.isfinite(z2).all() and np.isfinite(shrunk).all()
        # the reference: |g| by np.hypot, zero pixels masked
        mag = np.hypot(g1, g2)
        ref_shrunk = np.maximum(mag - 1.0 / beta, 0.0)
        ref_scale = np.divide(ref_shrunk, mag, out=np.zeros_like(mag), where=mag > 0)
        tiny = np.broadcast_to((mags < 1e-300)[:, None], g1.shape)
        for got, ref in ((z1, g1 * ref_scale), (z2, g2 * ref_scale), (shrunk, ref_shrunk)):
            assert not got[tiny].any()
            assert np.all(np.abs(got - ref)[~tiny] <= 1e-15 * np.abs(ref)[~tiny])

    def test_ordinary_magnitudes_take_no_hypot(self, rng, monkeypatch):
        g1, g2 = rng.standard_normal((2, 6, 6))
        expected = _soft_threshold(g1, g2, 4.0)

        def no_hypot(*args, **kwargs):
            raise AssertionError("np.hypot called on finite squares")

        monkeypatch.setattr(np, "hypot", no_hypot)
        for got, ref in zip(_soft_threshold(g1, g2, 4.0), expected):
            assert got.tobytes() == ref.tobytes()


class TestUStep:
    @pytest.mark.parametrize("bc", ["zero", "periodic", "reflective"])
    def test_exact_gradient_of_data_is_fixed_point(self, rng, bc):
        # with the identity kernel and z = grad f, u = f solves the system
        f = rng.standard_normal((10, 10))
        z = gradient(f, bc)
        planner = SystemPlanner(Psf.delta(), f.shape, bc)
        u, fit, _ = u_step(planner.plan(8.0 / 2.0), apply_correlation(f, Psf.delta(), bc), z,
                           fidelity_target(planner, f)[0])
        assert np.abs(u - f).max() < 1e-10
        # ||H u - f||^2 with H u = u: every pixel within 1e-10 of f
        assert fit < f.size * 1e-20

    @pytest.mark.parametrize("bc", ["zero", "periodic", "reflective", "antireflective"])
    def test_matches_dense_solve(self, rng, bc):
        n, alpha, beta = 10, 2.0, 6.0
        psf = gaussian_psf(3, 1.0)
        f = rng.standard_normal((n, n))
        z = GradientField(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        planner = SystemPlanner(psf, (n, n), bc)
        u, fit, _ = u_step(planner.plan(beta / alpha), apply_correlation(f, psf, bc), z,
                           fidelity_target(planner, f)[0])
        expected_fit = np.sum((apply_blur(u, psf, bc) - f) ** 2)
        assert abs(fit - expected_fit) <= 1e-12 * expected_fit
        system = dense.build_system(psf, n, bc, beta / alpha)
        corr = dense.build_correlation(psf, n, bc)
        if bc == "reflective":
            d1 = dense.build_grad(n, 1, bc).matrix.T
            d2 = dense.build_grad(n, 2, bc).matrix.T
        else:
            d1 = dense.build_adjgrad(n, 1, bc).matrix
            d2 = dense.build_adjgrad(n, 2, bc).matrix
        rhs = corr.apply(f) + (beta / alpha) * (
            (d1 @ z.z1.ravel() + d2 @ z.z2.ravel()).reshape(n, n))
        expected = system.solve(rhs)
        assert np.abs(u - expected).max() < 1e-9

    def test_huge_alpha_returns_data(self, rng):
        f = rng.standard_normal((12, 12))
        z = GradientField(rng.standard_normal((12, 12)), rng.standard_normal((12, 12)))
        planner = SystemPlanner(Psf.delta(), f.shape, "periodic")
        u, _, _ = u_step(planner.plan(128.0 / 1e12),
                         apply_correlation(f, Psf.delta(), "periodic"), z,
                         fidelity_target(planner, f)[0])
        assert np.abs(u - f).max() < 1e-4


@pytest.fixture(scope="module")
def small_instance():
    psf = gaussian_psf(5, 1.2)
    truth = builtin_truth("cartoon", 44, 44)
    observed, fov = simulate(truth, psf, 1e-4, seed=7)
    return truth, psf, observed, fov


class TestSolve:
    def test_near_identity_problem_restores_well(self):
        truth = builtin_truth("cartoon", 40, 40)
        observed, fov = simulate(truth, Psf.delta(), 0.0, seed=0)
        u, trace = solve(observed, Psf.delta(), "periodic", SolveParams(alpha=1e6))
        assert snr(u, fov.crop(truth)) > 40.0

    def test_default_ladder_used(self, small_instance):
        _, psf, observed, _ = small_instance
        _, trace = solve(observed, psf, "periodic", SolveParams(alpha=500.0))
        assert tuple(trace.betas()) == DEFAULT_BETA_LADDER

    @pytest.mark.parametrize("bc", ["periodic", "reflective", "zero"])
    def test_energy_monotone_within_each_rung(self, small_instance, bc):
        _, psf, observed, _ = small_instance
        _, trace = solve(observed, psf, bc, SolveParams(alpha=1e3))
        assert trace.violations == ()
        assert trace.status == "ok"
        for beta in trace.betas():
            totals = [r.energy.total for r in trace.block(beta)]
            assert all(b <= a * (1 + 1e-12) for a, b in zip(totals, totals[1:]))

    def test_antireflective_flags_are_recorded_not_raised(self, small_instance):
        _, psf, observed, _ = small_instance
        u, trace = solve(observed, psf, "antireflective", SolveParams(alpha=1e3))
        assert np.all(np.isfinite(u))
        # reblurring trades exact descent for fast solvability; any energy
        # rise must be flagged in the trace rather than silently accepted
        for beta, iteration, rise in trace.violations:
            assert rise > 0
        if trace.violations:
            assert trace.status != "ok"

    def test_coupling_tightens_along_ladder(self, small_instance):
        _, psf, observed, _ = small_instance
        _, trace = solve(observed, psf, "periodic", SolveParams(alpha=1e3))
        finals = [trace.block(b)[-1].energy.coupling for b in trace.betas()]
        assert all(b <= a + 1e-12 for a, b in zip(finals, finals[1:]))

    def test_deterministic(self, small_instance):
        _, psf, observed, _ = small_instance
        params = SolveParams(alpha=750.0)
        u1, t1 = solve(observed, psf, "reflective", params)
        u2, t2 = solve(observed, psf, "reflective", params)
        assert u1.tobytes() == u2.tobytes()
        assert [r.energy.total for r in t1.records] == [r.energy.total for r in t2.records]

    def test_non_finite_iterate_is_convergence_error(self, small_instance, monkeypatch):
        _, psf, observed, _ = small_instance
        monkeypatch.setattr("tvdeblur.solver.solve_and_blur",
                            lambda plan, rhs, *_: (np.full(rhs.shape, np.nan), np.nan, None))
        with pytest.raises(ConvergenceError, match=r"beta=2\b.*iteration 0"):
            solve(observed, psf, "periodic", SolveParams(alpha=1e3))

    def test_nonsymmetric_kernel_needs_enlargement(self, small_instance):
        _, _, observed, _ = small_instance
        nonsym = Psf(np.array([[0.6, 0.2], [0.1, 0.1]]), (0, 0))
        with pytest.raises(SymmetryError, match="enlarged"):
            solve(observed, nonsym, "reflective", SolveParams(alpha=1.0))

    def test_step_norms_stay_off_blas(self, small_instance, monkeypatch):
        # np.linalg.norm is a BLAS dot, whose threads spin against sweep workers
        _, psf, observed, _ = small_instance

        def no_blas(*args, **kwargs):
            raise AssertionError("np.linalg.norm called in the solve loop")

        expected, _ = solve(observed, psf, "periodic", SolveParams(alpha=1e3))
        monkeypatch.setattr(np.linalg, "norm", no_blas)
        u, _ = solve(observed, psf, "periodic", SolveParams(alpha=1e3))
        assert u.tobytes() == expected.tobytes()

    def test_zero_model_cg_stays_off_blas(self, small_instance, monkeypatch):
        # BLAS dot products and norms thread above 10^4 elements and spin against sweep workers
        _, psf, observed, _ = small_instance

        def no_blas(*args, **kwargs):
            raise AssertionError("BLAS dot product or norm called in the zero model's CG")

        expected, _ = solve(observed, psf, "zero", SolveParams(alpha=1e3))
        for name in ("dot", "vdot", "inner"):
            monkeypatch.setattr(np, name, no_blas)
        monkeypatch.setattr(np.linalg, "norm", no_blas)
        u, _ = solve(observed, psf, "zero", SolveParams(alpha=1e3))
        assert u.tobytes() == expected.tobytes()

    def test_zero_model_trace_carries_cg_numerics(self):
        psf = gaussian_psf(5, 1.0)
        observed, _ = simulate(builtin_truth("cartoon", 24, 24), psf, 1e-4, seed=4)
        assert observed.shape == (16, 16)
        _, trace = solve(observed, psf, "zero", SolveParams(alpha=500.0))
        assert all(r.cg_iterations >= 1 for r in trace.records)
        assert all(0.0 <= r.cg_residual <= 1e-12 for r in trace.records)
        _, trace = solve(observed, psf, "periodic", SolveParams(alpha=500.0))
        assert {(r.cg_iterations, r.cg_residual) for r in trace.records} == {(None, None)}

    def test_cg_at_its_cap_is_convergence_error(self, small_instance, monkeypatch):
        _, psf, observed, _ = small_instance
        monkeypatch.setattr("tvdeblur.transforms.CG_MAXITER", 1)
        with pytest.raises(ConvergenceError,
                           match=r"after 1 iterations at relative residual \d\.\d+e[-+]\d+"):
            solve(observed, psf, "zero", SolveParams(alpha=1e3))


class TestFusedLoop:
    """The loop's own objective against energy() at every iterate."""

    KERNELS = {"3x3": gaussian_psf(3, 0.8), "4x4": gaussian_psf(4, 1.0),
               "7x7": gaussian_psf(7, 1.5),
               "nonsymmetric": Psf(np.array([[0.5, 0.2, 0.1], [0.1, 0.05, 0.05]]), (0, 1))}
    # the reflective models take quadrantally symmetric kernels only
    # observed shape: None for a 30x27 truth; an odd and an even number of
    # columns pin the real-FFT half-spectrum's Nyquist column
    CASES = [pytest.param(kernel, mode, None, id=f"{kernel}-{mode}") for kernel in sorted(KERNELS)
             for mode in ("zero", "periodic", "reflective", "antireflective", "enlarge:reflective")
             if kernel != "nonsymmetric" or mode not in ("reflective", "antireflective")]
    CASES += [pytest.param("3x3", mode, shape, id=f"3x3-{mode}-{shape[0]}x{shape[1]}")
              for mode in ("periodic", "reflective", "enlarge:reflective")
              for shape in ((17, 18), (18, 17))]
    PARAMS = SolveParams(alpha=500.0, beta_ladder=(4.0, 64.0), inner_max=4)

    @pytest.mark.parametrize("kernel, mode, shape", CASES)
    def test_trace_energies_match_energy_at_each_iterate(self, monkeypatch, kernel, mode, shape):
        from tvdeblur import solver
        psf = self.KERNELS[kernel]
        truth = (builtin_truth("cartoon", 30, 27) if shape is None else
                 builtin_truth("cartoon", shape[0] + 2 * (psf.rows - 1),
                               shape[1] + 2 * (psf.cols - 1)))
        observed, _ = simulate(truth, psf, 1e-4, seed=6)
        assert shape is None or observed.shape == shape
        iterates = []
        step = solver.solve_and_blur

        def recorded(plan, rhs, *args):
            u, fit, cg = step(plan, rhs, *args)
            iterates.append(u)
            return u, fit, cg

        monkeypatch.setattr(solver, "solve_and_blur", recorded)
        if mode == "enlarge:reflective":
            pads = ((4, 4), (4, 4))
            _, trace = solve_enlarged(observed, psf, "reflective", 4, self.PARAMS)
            f, bc = extend(observed, pads, "reflective"), "periodic"
        else:
            _, trace = solve(observed, psf, mode, self.PARAMS)
            f, bc = observed, mode
        assert len(iterates) == trace.total_inner_iterations >= 4
        for record, u in zip(trace.records, [f] + iterates):
            beta = record.beta
            expected = energy(u, shrink(gradient(u, bc), beta), f, psf, bc,
                              self.PARAMS.alpha, beta)
            assert record.energy.coupling == expected.coupling
            assert abs(record.energy.total - expected.total) <= 1e-12 * abs(expected.total)

    @pytest.mark.parametrize("bc", ["periodic", "zero"])
    def test_phase_seconds_fit_in_each_iteration(self, small_instance, bc):
        _, psf, observed, _ = small_instance
        _, trace = solve(observed, psf, bc, SolveParams(alpha=1e3, inner_max=4))
        previous = 0.0
        for r in trace.records:
            phases = (r.shrink_s, r.objective_s, r.update_s)
            assert min(phases) >= 0.0
            assert sum(phases) <= r.seconds - previous
            previous = r.seconds


class TestSolveEnlarged:
    def test_pad_zero_periodic_is_bitwise_plain_solve(self, small_instance):
        _, psf, observed, _ = small_instance
        params = SolveParams(alpha=1e3)
        direct, _ = solve(observed, psf, "periodic", params)
        enlarged, _ = solve_enlarged(observed, psf, "periodic", 0, params)
        assert direct.tobytes() == enlarged.tobytes()

    def test_nonsymmetric_kernel_runs(self, rng):
        truth = builtin_truth("ramp-disk", 36, 30)
        nonsym = Psf(np.array([[0.5, 0.2], [0.2, 0.1]]), (0, 0))
        observed, _ = simulate(truth, nonsym, 1e-6, seed=1)
        u, trace = solve_enlarged(observed, nonsym, "reflective", 4,
                                  SolveParams(alpha=100.0))
        assert u.shape == observed.shape and np.all(np.isfinite(u))

    def test_default_pad_is_kernel_extent(self, small_instance):
        _, psf, observed, _ = small_instance
        params = SolveParams(alpha=1e3)
        defaulted, _ = solve_enlarged(observed, psf, "reflective", params=params)
        explicit, _ = solve_enlarged(observed, psf, "reflective",
                                     max(psf.rows, psf.cols), params)
        assert defaulted.tobytes() == explicit.tobytes()

    def test_pad_below_kernel_support_rejected(self, small_instance):
        _, psf, observed, _ = small_instance
        with pytest.raises(PreconditionError):
            solve_enlarged(observed, psf, "reflective", 1, SolveParams(alpha=1.0))

    def test_mirror_doubled_domain_matches_reflective_solve(self):
        # low-contrast scene: the shrinkage stays inactive, where the
        # mirror-extension equivalence is exact rather than approximate
        rr, cc = np.meshgrid(np.arange(40.0), np.arange(40.0), indexing="ij")
        scene = (0.4 + 0.032 * (rr / 40 - 0.5)
                 + 0.04 * np.exp(-((rr - 17) ** 2 + (cc - 23) ** 2) / (2 * 81.0)))
        psf = gaussian_psf(5, 1.2)
        observed, _ = simulate(scene, psf, 1e-8, seed=3)
        params = SolveParams(alpha=50.0)
        direct, _ = solve(observed, psf, "reflective", params)
        doubled, _ = solve_enlarged(observed, psf, "reflective",
                                    observed.shape[0] // 2, params)
        assert np.abs(direct - doubled).max() < 1e-10

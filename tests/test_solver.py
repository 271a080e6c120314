import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvdeblur import (ConvergenceError, DataError, GradientField, PreconditionError, Psf,
                      SolveParams, SymmetryError, apply_blur, apply_correlation, builtin_truth,
                      extend, gaussian_psf, gradient, restore, shrink, simulate, snr, solve,
                      solve_enlarged)
from tvdeblur import dense, solver
from tvdeblur.energy import energy
from tvdeblur.grid import DEFAULT_BETA_LADDER
from tvdeblur.operators import adjoint_gradient, transpose_adjoint_gradient
from tvdeblur.solver import _soft_threshold
from tvdeblur.transforms import SystemPlanner, solve_and_blur


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

    def test_input_is_left_untouched(self, rng):
        g1, g2 = rng.standard_normal((2, 6, 7))
        g = GradientField(g1, g2)
        shrink(g, 4.0)
        assert g.z1.tobytes() == g1.tobytes() and g.z2.tobytes() == g2.tobytes()
        kept = g1.tobytes(), g2.tobytes()
        _soft_threshold(g1, g2, 4.0)
        assert (g1.tobytes(), g2.tobytes()) == kept

    def test_ordinary_magnitudes_take_no_hypot(self, rng, monkeypatch):
        g1, g2 = rng.standard_normal((2, 6, 6))
        expected = _soft_threshold(g1, g2, 4.0)

        def no_hypot(*args, **kwargs):
            raise AssertionError("np.hypot called on finite squares")

        monkeypatch.setattr(np, "hypot", no_hypot)
        for got, ref in zip(_soft_threshold(g1, g2, 4.0), expected):
            assert got.tobytes() == ref.tobytes()


def _update_rhs(plan, f, psf, z):
    """H'f + ratio D'z, with the divergence :func:`solve` pairs with the model."""
    divergence = transpose_adjoint_gradient if plan.bc == "reflective" else adjoint_gradient
    return apply_correlation(f, psf, plan.bc) + plan.ratio * divergence(z, plan.bc)


class TestUStep:
    @pytest.mark.parametrize("bc", ["zero", "periodic", "reflective"])
    def test_exact_gradient_of_data_is_fixed_point(self, rng, bc):
        # with the identity kernel and z = grad f, u = f solves the system
        f = rng.standard_normal((10, 10))
        z = gradient(f, bc)
        planner = SystemPlanner(Psf.delta(), f.shape, bc)
        plan = planner.plan(8.0 / 2.0)
        u, fit, _ = solve_and_blur(plan, _update_rhs(plan, f, Psf.delta(), z),
                                   planner.prepare(f)[1])
        assert np.abs(u - f).max() < 1e-10
        # ||H u - f||^2 with H u = u: every pixel within 1e-10 of f
        assert fit < f.size * 1e-20

    @pytest.mark.parametrize("bc", ["zero", "periodic", "reflective", "antireflective"])
    def test_matches_dense_solve(self, monkeypatch, rng, forcing_bound, bc):
        # one rung of one iteration from u = f: z = shrink(grad f), then the
        # update with the divergence solve pairs with the model
        n, alpha, beta = 10, 2.0, 6.0
        psf = gaussian_psf(3, 1.0)
        f = rng.standard_normal((n, n))
        step, fits = solver.solve_and_blur, []

        def recorded(*args):
            out = step(*args)
            fits.append(out[1])
            return out

        monkeypatch.setattr(solver, "solve_and_blur", recorded)
        u, _ = solve(f, psf, bc, SolveParams(alpha=alpha, beta_ladder=(beta,), inner_max=1))
        expected_fit = np.sum((apply_blur(u, psf, bc) - f) ** 2)
        assert abs(fits[0] - expected_fit) <= 1e-12 * expected_fit
        z = shrink(gradient(f, bc), beta)
        system = dense.build_system(psf, (n, n), bc, beta / alpha)
        corr = dense.build_correlation(psf, (n, n), bc)
        if bc == "reflective":
            d1 = dense.build_grad((n, n), 1, bc).matrix.T
            d2 = dense.build_grad((n, n), 2, bc).matrix.T
        else:
            d1 = dense.build_adjgrad((n, n), 1, bc).matrix
            d2 = dense.build_adjgrad((n, n), 2, bc).matrix
        rhs = corr.apply(f) + (beta / alpha) * (
            (d1 @ z.z1.ravel() + d2 @ z.z2.ravel()).reshape(n, n))
        if bc == "zero":
            # the update's CG starts from u = f and stops at its forcing bound
            def residual(x):
                return np.linalg.norm(rhs - system.apply(x)) / np.linalg.norm(rhs)
            assert residual(u) <= forcing_bound(residual(f))
        else:
            assert np.abs(u - system.solve(rhs)).max() < 1e-9

    def test_huge_alpha_returns_data(self, rng):
        f = rng.standard_normal((12, 12))
        z = GradientField(rng.standard_normal((12, 12)), rng.standard_normal((12, 12)))
        planner = SystemPlanner(Psf.delta(), f.shape, "periodic")
        plan = planner.plan(128.0 / 1e12)
        u, _, _ = solve_and_blur(plan, _update_rhs(plan, f, Psf.delta(), z),
                                 planner.prepare(f)[1])
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

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=str)
    def test_non_finite_iterate_raises_whatever_its_kind(self, small_instance, monkeypatch,
                                                         value):
        _, psf, observed, _ = small_instance
        monkeypatch.setattr(solver, "solve_and_blur",
                            lambda plan, rhs, *_: (np.full(rhs.shape, value), 0.0, None))
        with pytest.raises(ConvergenceError) as caught:
            solve(observed, psf, "periodic", SolveParams(alpha=1e3, beta_ladder=(4.0,)))
        assert str(caught.value) == "non-finite iterate at beta=4, inner iteration 0"

    def test_finite_iterate_whose_squared_step_overflows_does_not_raise(self, small_instance,
                                                                        monkeypatch):
        # finiteness is read from the step norm, and only an infinite norm
        # sends the loop to check the iterate itself
        _, psf, observed, _ = small_instance
        far = np.full(observed.shape, 1e200)
        monkeypatch.setattr(solver, "solve_and_blur", lambda plan, rhs, *_: (far, 0.0, None))
        u, trace = solve(observed, psf, "periodic",
                         SolveParams(alpha=1e3, beta_ladder=(4.0,), inner_max=1))
        assert u is far
        assert [r.rel_change for r in trace.records] == [np.inf]

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

    def test_zero_model_trace_carries_cg_numerics(self, forcing_bound):
        psf = gaussian_psf(5, 1.0)
        observed, _ = simulate(builtin_truth("cartoon", 24, 24), psf, 1e-4, seed=4)
        assert observed.shape == (16, 16)
        _, trace = solve(observed, psf, "zero", SolveParams(alpha=500.0))
        assert all(r.cg_iterations >= 1 for r in trace.records)
        assert all(0.0 <= r.cg_residual <= forcing_bound(r.cg_start_residual)
                   for r in trace.records)
        _, trace = solve(observed, psf, "periodic", SolveParams(alpha=500.0))
        assert ({(r.cg_iterations, r.cg_start_residual, r.cg_residual) for r in trace.records}
                == {(None, None, None)})

    def test_zero_updates_without_forcing_meet_the_cold_tolerance(self, small_instance,
                                                                 monkeypatch):
        # the forcing term is the only thing that stops a loop update early
        _, psf, observed, _ = small_instance
        monkeypatch.setattr("tvdeblur.transforms.CG_FORCING", 0.0)
        _, trace = solve(observed, psf, "zero", SolveParams(alpha=1e3, inner_max=4))
        assert all(r.cg_iterations >= 1 and r.cg_residual <= 1e-12 for r in trace.records)

    @pytest.mark.parametrize("alpha", [500.0, 1e6], ids=str)
    def test_forced_zero_updates_keep_descending(self, alpha):
        # each update is a CG from u^k on the u-subproblem, so a descent step
        psf = gaussian_psf(5, 1.0)
        observed, _ = simulate(builtin_truth("cartoon", 48, 48), psf, 1e-4, seed=3)
        assert observed.shape == (40, 40)
        _, trace = solve(observed, psf, "zero", SolveParams(alpha=alpha))
        assert trace.violations == () and trace.status == "ok"

    def test_cg_at_its_cap_is_convergence_error(self, small_instance, monkeypatch):
        _, psf, observed, _ = small_instance
        monkeypatch.setattr("tvdeblur.transforms.CG_MAXITER", 1)
        with pytest.raises(ConvergenceError,
                           match=r"after 1 iterations at relative residual \d\.\d+e[-+]\d+"):
            solve(observed, psf, "zero", SolveParams(alpha=1e3))


class TestObservedImageUntouched:
    PSFS = {"3x3": gaussian_psf(3, 0.8), "4x4": gaussian_psf(4, 1.0)}
    # every model; prepare() hands the caller's own f to the loop as its
    # target for antireflective, even-extent reflective and zero
    CASES = [pytest.param(mode, kernel, id=f"{mode}-{kernel}")
             for mode in ("zero", "periodic", "reflective", "antireflective",
                          "enlarge:periodic:3", "enlarge:reflective:3",
                          "enlarge:antireflective:3", "enlarge:zero:3")
             for kernel in ("3x3", "4x4")]
    PARAMS = SolveParams(alpha=500.0, beta_ladder=(4.0, 64.0), inner_max=3)

    @staticmethod
    def observed(psf):
        return simulate(builtin_truth("cartoon", 22 + 2 * (psf.rows - 1),
                                      21 + 2 * (psf.cols - 1)), psf, 1e-4, seed=5)[0]

    @pytest.mark.parametrize("mode, kernel", CASES)
    def test_restore_and_solve_leave_the_observed_image_untouched(self, mode, kernel):
        psf = self.PSFS[kernel]
        f = self.observed(psf)
        kept = f.tobytes()
        restore(f, psf, mode, self.PARAMS)
        assert f.tobytes() == kept
        if mode.startswith("enlarge:"):
            _, extension, pad = mode.split(":")
            solve_enlarged(f, psf, extension, self.PARAMS, int(pad))
        else:
            solve(f, psf, mode, self.PARAMS)
        assert f.tobytes() == kept


class TestLoopCoupling:
    """The loop's coupling, ``0.5 beta sum min(|grad u|, 1/beta)^2``, at the first iterate."""

    BETA = 128.0

    @staticmethod
    def columns(magnitude):
        # 4x4, columns alternating +-magnitude/2: under the periodic model
        # every horizontal difference is +-magnitude, every vertical one 0
        return np.tile([0.5, -0.5, 0.5, -0.5], (4, 1)) * magnitude

    def first_energy(self, monkeypatch, f):
        # the update hands back its start, so the rung stops after one record
        monkeypatch.setattr(solver, "solve_and_blur",
                            lambda plan, rhs, target, start: (start, 0.0, None))
        _, trace = solve(f, Psf.delta(), "periodic",
                         SolveParams(alpha=1.0, beta_ladder=(self.BETA,), inner_max=1))
        return trace.records[0].energy

    @pytest.mark.parametrize("magnitude", [1e100, 1e200], ids=str)
    def test_exact_far_past_the_threshold(self, monkeypatch, magnitude):
        # z - grad u cancels to 0 here, while |z - grad u| is 1/beta at every pixel
        report = self.first_energy(monkeypatch, self.columns(magnitude))
        assert report.coupling == 0.5 * self.BETA * 16 / self.BETA ** 2 == 0.0625

    @pytest.mark.parametrize("magnitude", [0.0, 1 / BETA, "ordinary"], ids=str)
    def test_matches_energy(self, monkeypatch, rng, magnitude):
        # "ordinary": magnitudes either side of the threshold 1/beta
        f = (0.01 * rng.standard_normal((4, 4)) if magnitude == "ordinary"
             else self.columns(magnitude))
        report = self.first_energy(monkeypatch, f)
        expected = energy(f, shrink(gradient(f, "periodic"), self.BETA), f, Psf.delta(),
                          "periodic", 1.0, self.BETA)
        assert abs(report.coupling - expected.coupling) <= 1e-12 * expected.coupling
        assert abs(report.total - expected.total) <= 1e-12 * expected.total
        if magnitude == 1 / self.BETA:
            assert report.coupling == 0.0625
        if magnitude == 0.0:
            assert report.total == 0.0


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
            _, trace = solve_enlarged(observed, psf, "reflective", self.PARAMS, 4)
            f, bc = extend(observed, pads, "reflective"), "periodic"
        else:
            _, trace = solve(observed, psf, mode, self.PARAMS)
            f, bc = observed, mode
        assert len(iterates) == trace.total_inner_iterations >= 4
        for record, u in zip(trace.records, [f] + iterates):
            beta = record.beta
            expected = energy(u, shrink(gradient(u, bc), beta), f, psf, bc,
                              self.PARAMS.alpha, beta)
            # the loop takes the coupling as 0.5 beta sum min(|grad u|, 1/beta)^2
            assert abs(record.energy.coupling - expected.coupling) <= 1e-12 * expected.coupling
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
        enlarged, _ = solve_enlarged(observed, psf, "periodic", params, 0)
        assert direct.tobytes() == enlarged.tobytes()

    def test_nonsymmetric_kernel_runs(self, rng):
        truth = builtin_truth("ramp-disk", 36, 30)
        nonsym = Psf(np.array([[0.5, 0.2], [0.2, 0.1]]), (0, 0))
        observed, _ = simulate(truth, nonsym, 1e-6, seed=1)
        u, trace = solve_enlarged(observed, nonsym, "reflective",
                                  SolveParams(alpha=100.0), 4)
        assert u.shape == observed.shape and np.all(np.isfinite(u))

    def test_default_pad_is_kernel_extent(self, small_instance):
        _, psf, observed, _ = small_instance
        params = SolveParams(alpha=1e3)
        defaulted, _ = solve_enlarged(observed, psf, "reflective", params)
        explicit, _ = solve_enlarged(observed, psf, "reflective", params,
                                     max(psf.rows, psf.cols))
        assert defaulted.tobytes() == explicit.tobytes()

    @pytest.mark.parametrize("pad", [2.5, "4"])
    def test_non_integral_pad_rejected(self, small_instance, pad):
        _, psf, observed, _ = small_instance
        with pytest.raises(DataError, match="pad"):
            solve_enlarged(observed, psf, "reflective", SolveParams(alpha=1.0), pad)

    def test_integral_float_pad_passes(self, small_instance):
        _, psf, observed, _ = small_instance
        params = SolveParams(alpha=1e3, inner_max=2)
        floated, _ = solve_enlarged(observed, psf, "reflective", params, 4.0)
        integral, _ = solve_enlarged(observed, psf, "reflective", params, 4)
        assert floated.tobytes() == integral.tobytes()

    def test_pad_below_kernel_support_rejected(self, small_instance):
        _, psf, observed, _ = small_instance
        with pytest.raises(PreconditionError):
            solve_enlarged(observed, psf, "reflective", SolveParams(alpha=1.0), 1)

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
        doubled, _ = solve_enlarged(observed, psf, "reflective", params,
                                    observed.shape[0] // 2)
        assert np.abs(direct - doubled).max() < 1e-10

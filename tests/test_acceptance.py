"""Acceptance suite: one test per release criterion, each printing a
pass line with the measured figure (run with ``pytest -s`` to see them).

The standard instance is the 128x128 cartoon scene blurred by the 9x9
Gaussian (spread 2) with noise variance 1e-4. Monotonicity (criterion 3)
is asserted for the boundary models whose image update lowers the discrete
objective: periodic and reflective, where it is the exact partial
minimizer, and zero, where it is a descent step (CG from the current
iterate, stopped at a forcing term). The antireflective model's reblurred
update trades that for fast solvability and flags any rise in its trace
instead.
"""

import math
import time

import numpy as np
import pytest

from tvdeblur import (Experiment, GradientField, SolveParams, builtin_truth,
                      diagonal_motion_psf, gaussian_psf, shrink, simulate,
                      solve, solve_enlarged, sweep, sweep_csv_text)
from tvdeblur.oracle import TOLERANCE, oracle_deviations

STANDARD_SEED = 11


def _report(name, detail):
    print(f"\nACCEPTANCE {name} PASS — {detail}")


@pytest.fixture(scope="module")
def standard_instance():
    truth = builtin_truth("cartoon", 128, 128)
    psf = gaussian_psf(9, 2.0)
    observed, fov = simulate(truth, psf, 1e-4, seed=STANDARD_SEED)
    return truth, psf, observed, fov


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for n in (8, 16, 32):
        devs = oracle_deviations(n, ratio=2.0)
        for (op, bc), dev in devs.items():
            assert dev <= TOLERANCE, f"{op}/{bc} deviates by {dev:.3e} at n={n}"
            worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle suite took {elapsed:.1f}s"
    _report("1 (oracle equivalence)",
            f"worst deviation {worst:.2e} <= {TOLERANCE:g}, {elapsed:.1f}s")


def test_criterion_2_shrink_optimality():
    rng = np.random.default_rng(2024)
    count = 100_000
    g1 = rng.standard_normal(count) * rng.choice([0.01, 1.0, 50.0], count)
    g2 = rng.standard_normal(count) * rng.choice([0.01, 1.0, 50.0], count)
    # force a block of exact zeros to exercise the degenerate branch
    g1[:1000] = 0.0
    g2[:1000] = 0.0
    beta = 16.0
    z = shrink(GradientField(g1.reshape(250, 400), g2.reshape(250, 400)), beta)
    mag = z.magnitude()
    active = mag > 0
    r1 = z.z1 / np.where(active, mag, 1.0) + beta * (z.z1 - g1.reshape(250, 400))
    r2 = z.z2 / np.where(active, mag, 1.0) + beta * (z.z2 - g2.reshape(250, 400))
    worst = max(np.abs(np.where(active, r1, 0.0)).max(),
                np.abs(np.where(active, r2, 0.0)).max())
    assert worst <= 1e-10
    assert not z.z1.ravel()[:1000].any() and not z.z2.ravel()[:1000].any()
    _report("2 (shrink optimality)",
            f"first-order residual {worst:.2e} <= 1e-10 on {count} samples, zero case exact")


def test_criterion_3_energy_monotonicity(standard_instance):
    _, psf, observed, _ = standard_instance
    params = SolveParams(alpha=0.05 / 1e-4)
    checked = 0
    for bc in ("periodic", "reflective"):
        _, trace = solve(observed, psf, bc, params)
        assert trace.violations == (), f"{bc}: {trace.violations}"
        for beta in trace.betas():
            totals = [r.energy.total for r in trace.block(beta)]
            for before, after in zip(totals, totals[1:]):
                assert after <= before * (1.0 + 1e-12)
                checked += 1
    _report("3 (energy monotonicity)",
            f"no rise beyond 1e-12 relative across {checked} steps of the "
            f"2..128 ladder (periodic, reflective)")


def test_criterion_4_reflective_equivalence():
    start = time.perf_counter()
    # low-contrast scene: gradients stay below 1/max(beta), so the shrinkage
    # is inactive and the mirror-doubling equivalence holds exactly
    rr, cc = np.meshgrid(np.arange(40.0), np.arange(40.0), indexing="ij")
    scene = (0.4 + 0.032 * (rr / 40 - 0.5)
             + 0.04 * np.exp(-((rr - 17) ** 2 + (cc - 23) ** 2) / (2 * 81.0)))
    psf = gaussian_psf(5, 1.2)
    observed, _ = simulate(scene, psf, 1e-8, seed=3)
    assert observed.shape == (32, 32)
    params = SolveParams(alpha=50.0)
    direct, _ = solve(observed, psf, "reflective", params)
    pad = observed.shape[0] // 2  # mirror-doubled domain, twice the image
    doubled, _ = solve_enlarged(observed, psf, "reflective", params, pad)
    diff = float(np.abs(direct - doubled).max())
    elapsed = time.perf_counter() - start
    assert diff <= 1e-6
    assert elapsed < 60.0
    _report("4 (reflective equivalence)",
            f"max-abs difference {diff:.2e} <= 1e-6 on the 32x32 instance, {elapsed:.1f}s")


def test_criterion_5_boundary_quality_ordering():
    start = time.perf_counter()
    truth = builtin_truth("cartoon", 128, 128)
    exp = Experiment(truth=truth, psf=gaussian_psf(9, 2.0), sigma2=1e-6,
                     modes=("periodic", "reflective", "antireflective"),
                     alphas=tuple(np.logspace(2, 7, 12)),
                     params=SolveParams(alpha=1.0), seed=STANDARD_SEED)
    result = sweep(exp, clock=None)
    best = {mode: result.best(mode).snr_db for mode in exp.modes}
    elapsed = time.perf_counter() - start
    assert best["antireflective"] >= best["reflective"] >= best["periodic"]
    assert best["antireflective"] - best["periodic"] >= 0.5
    assert elapsed < 300.0
    _report("5 (boundary quality ordering)",
            "best SNR dB: antireflective %.2f >= reflective %.2f >= periodic %.2f, %.0fs"
            % (best["antireflective"], best["reflective"], best["periodic"], elapsed))


def test_criterion_6_nonsymmetric_kernel_path():
    truth = builtin_truth("ramp-disk", 128, 96)
    psf = diagonal_motion_psf(7, 0.7)
    pad = 2 * max(psf.rows, psf.cols)
    modes = tuple(f"enlarge:{ext}:{pad}" for ext in
                  ("periodic", "reflective", "antireflective"))
    exp = Experiment(truth=truth, psf=psf, sigma2=1e-4, modes=modes,
                     alphas=tuple(np.logspace(1, 5, 8)),
                     params=SolveParams(alpha=1.0), seed=5)
    result = sweep(exp, clock=None)
    assert all(not r.failed and math.isfinite(r.snr_db) for r in result.rows)
    best = {mode: result.best(mode).snr_db for mode in modes}
    periodic = best[modes[0]]
    assert best[modes[1]] >= periodic
    assert best[modes[2]] >= periodic
    _report("6 (nonsymmetric kernel path)",
            "all extensions finished; best SNR dB: periodic %.2f, reflective %.2f, "
            "antireflective %.2f" % (periodic, best[modes[1]], best[modes[2]]))


def test_criterion_7_continuation_speedup(standard_instance):
    _, psf, observed, _ = standard_instance
    alpha = 0.05 / 1e-4
    ladder_u, ladder_trace = solve(observed, psf, "periodic", SolveParams(alpha=alpha))
    ladder_iters = ladder_trace.total_inner_iterations
    target_energy = ladder_trace.records[-1].energy.total
    target = target_energy + 1e-3 * abs(target_energy)
    cold_u, cold_trace = solve(observed, psf, "periodic",
                               SolveParams(alpha=alpha, beta_ladder=(128.0,),
                                           inner_tol=1e-12, inner_max=400))
    cold_iters = None
    for record in cold_trace.records:
        if record.energy.total <= target:
            cold_iters = record.iteration
            break
    assert cold_iters is not None, "cold start never reached the ladder energy"
    ratio = ladder_iters / cold_iters
    assert ratio <= 0.8
    _report("7 (continuation speed-up)",
            f"ladder used {ladder_iters} inner iterations vs {cold_iters} cold-start "
            f"iterations to the same energy (+0.1%): ratio {ratio:.2f} <= 0.8")


def test_criterion_8_sweep_determinism():
    truth = builtin_truth("cartoon", 64, 64)
    exp = Experiment(truth=truth, psf=gaussian_psf(5, 1.5), sigma2=1e-4,
                     modes=("periodic", "antireflective"),
                     alphas=(100.0, 1000.0),
                     params=SolveParams(alpha=1.0), seed=21)
    first = sweep_csv_text(sweep(exp, clock=None))
    second = sweep_csv_text(sweep(exp, clock=None))
    assert first.encode() == second.encode()
    _report("8 (sweep determinism)",
            f"two identical sweeps produced byte-identical CSVs ({len(first)} bytes)")

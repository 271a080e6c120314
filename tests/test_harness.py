import itertools
import math
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import convolve2d

from tvdeblur import (DataError, Experiment, Psf, ShapeError, SolveParams,
                      apply_blur, builtin_truth, diagonal_motion_psf,
                      gaussian_psf, parse_mode, restore, simulate, snr, sweep,
                      sweep_csv_text)
from tvdeblur.harness import CSV_HEADER, SweepResult, SweepRow

_TICKS = itertools.count()


def _ticks_in_workers() -> float:
    # stands still in the test process, advances by one per read in a pool worker
    return float(next(_TICKS)) if multiprocessing.parent_process() else 0.0


class TestGaussianPsf:
    def test_single_sample(self):
        p = gaussian_psf(1, 2.0)
        assert p.weights.shape == (1, 1) and p.weights[0, 0] == 1.0

    @pytest.mark.parametrize("hsize,delta", [(3, 0.7), (9, 2.0), (16, 5.0), (22, 7.0)])
    def test_unit_mass(self, hsize, delta):
        p = gaussian_psf(hsize, delta)
        assert p.mass == pytest.approx(1.0, abs=1e-12)

    def test_flat_limit(self):
        p = gaussian_psf(3, 1e9)
        assert np.allclose(p.weights, 1.0 / 9.0, atol=1e-6)

    def test_center_is_ceil_half(self):
        assert gaussian_psf(9, 2.0).center == (4, 4)
        assert gaussian_psf(16, 5.0).center == (7, 7)

    @pytest.mark.parametrize("hsize", [3, 4, 9, 16])
    def test_quadrantally_symmetric(self, hsize):
        assert gaussian_psf(hsize, 2.0).quadrantally_symmetric

    def test_motion_kernel_is_not(self):
        assert not diagonal_motion_psf().quadrantally_symmetric

    @pytest.mark.parametrize("hsize,delta,match", [
        (2.5, 1.0, "hsize"), ("3", 1.0, "hsize"), (0, 1.0, "hsize"), (True, 1.0, "hsize"),
        (3, math.inf, "delta"), (3, math.nan, "delta"), (3, 0.0, "delta"),
        (3, 1e155, "delta 1.000e"), (3, 1e308, "delta 1.000e")])
    def test_bad_gaussian_rejected(self, hsize, delta, match):
        with pytest.raises(DataError, match=match):
            gaussian_psf(hsize, delta)

    def test_weights_take_the_square_of_delta_as_pow(self):
        # here delta * delta rounds differently from delta ** 2, and moves the weights
        delta = 1.2909067530792377
        x = np.arange(3) - 1.0
        g = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / (2.0 * delta ** 2))
        assert gaussian_psf(3, delta).weights.tobytes() == (g / g.sum()).tobytes()

    @pytest.mark.parametrize("hsize", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("delta", [1e-2, 1e-150, 1e-160, 1e-200, 5e-324])
    def test_a_vanishing_delta_gives_the_limit(self, hsize, delta):
        # no sample off the nearest ones survives: the point kernel for an
        # odd hsize, the centre 2x2 block at 1/4 for an even one; the tests
        # turn a RuntimeWarning into an error
        nearest = slice(hsize // 2 - 1 + hsize % 2, hsize // 2 + 1)
        expected = np.zeros((hsize, hsize))
        expected[nearest, nearest] = 1.0 / expected[nearest, nearest].size
        psf = gaussian_psf(hsize, delta)
        assert psf.weights.tobytes() == expected.tobytes()
        assert psf.center == ((hsize + 1) // 2 - 1,) * 2

    @pytest.mark.parametrize("hsize", [3, 4, 5, 16])
    def test_weights_that_were_finite_without_a_warning_are_unchanged(self, hsize):
        # the plain sampling, wherever it gives finite weights without a
        # floating-point warning
        x = np.arange(hsize) - (hsize - 1) / 2.0
        checked = 0
        for delta in [0.8, 1.0, 2.0, 5.0, 1e9] + list(np.geomspace(1e-160, 10.0, 200)):
            try:
                with np.errstate(all="raise", under="ignore"):
                    g = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / (2.0 * float(delta) ** 2))
                    g /= g.sum()
            except FloatingPointError:
                continue
            if np.all(np.isfinite(g)):
                checked += 1
                assert gaussian_psf(hsize, delta).weights.tobytes() == g.tobytes(), delta
        assert checked >= 5

    @pytest.mark.parametrize("length,slant,match", [
        (7.5, 0.7, "length"), (1, 0.7, "length"), (7, math.nan, "slant"),
        (7, math.inf, "slant"), (5, -0.7, "slant")])
    def test_bad_motion_kernel_rejected(self, length, slant, match):
        with pytest.raises(DataError, match=match):
            diagonal_motion_psf(length, slant)

    def test_integral_sizes_pass(self):
        expected = gaussian_psf(3, 1.0)
        for hsize in (3.0, np.int64(3)):
            psf = gaussian_psf(hsize, 1.0)
            assert psf.center == (1, 1) and np.array_equal(psf.weights, expected.weights)
        motion = diagonal_motion_psf(5.0, 0.0)
        assert motion.weights.shape == (5, 5) and np.all(motion.weights[:, 0] > 0)


class TestBuiltinTruths:
    def test_shapes_and_ranges(self):
        for name in ("cartoon", "ramp-disk"):
            u = builtin_truth(name, 64, 48)
            assert u.shape == (64, 48)
            assert u.min() >= 0.0 and u.max() <= 1.0

    def test_unknown_name(self):
        with pytest.raises(DataError):
            builtin_truth("mona-lisa", 32, 32)

    @pytest.mark.parametrize("rows,cols,match", [(8.5, 8.5, "rows"), (12, 9.5, "cols")])
    def test_non_integral_size_rejected(self, rows, cols, match):
        with pytest.raises(DataError, match=match):
            builtin_truth("cartoon", rows, cols)

    @pytest.mark.parametrize("rows,cols", [(7, 8), (8, 7)])
    def test_below_eight_a_side_rejected(self, rows, cols):
        with pytest.raises(ShapeError, match="at least 8x8"):
            builtin_truth("cartoon", rows, cols)

    def test_integral_float_size_passes(self):
        assert np.array_equal(builtin_truth("cartoon", 12.0, 10.0),
                              builtin_truth("cartoon", 12, 10))


class TestSimulate:
    def test_noiseless_delta_is_exact_crop(self):
        truth = builtin_truth("cartoon", 24, 24)
        observed, fov = simulate(truth, Psf.delta(), 0.0, seed=5)
        assert (fov.row0, fov.col0) == (0, 0)
        assert np.array_equal(observed, truth)

    def test_margin_is_extent_minus_one(self):
        truth = builtin_truth("cartoon", 64, 64)
        observed, fov = simulate(truth, gaussian_psf(16, 5.0), 0.0, seed=0)
        assert (fov.row0, fov.col0) == (15, 15)
        assert observed.shape == (64 - 30, 64 - 30)

    @pytest.mark.parametrize("psf", [gaussian_psf(16, 5.0), diagonal_motion_psf(7)],
                             ids=["gauss16", "motion7"])
    def test_blur_keeps_convolve2d_bytes(self, psf):
        truth = builtin_truth("ramp-disk", 50, 44)
        observed, fov = simulate(truth, psf, 0.0, seed=0)
        full = convolve2d(truth, psf.weights, mode="valid")
        cr, cc = psf.center
        assert observed.tobytes() == full[cr:cr + fov.rows, cc:cc + fov.cols].tobytes()

    def test_seeded_noise_is_reproducible(self):
        truth = builtin_truth("cartoon", 32, 32)
        a, _ = simulate(truth, gaussian_psf(3, 1.0), 1e-4, seed=11)
        b, _ = simulate(truth, gaussian_psf(3, 1.0), 1e-4, seed=11)
        assert a.tobytes() == b.tobytes()
        c, _ = simulate(truth, gaussian_psf(3, 1.0), 1e-4, seed=12)
        assert a.tobytes() != c.tobytes()

    def test_field_of_view_is_extension_independent(self):
        truth = builtin_truth("ramp-disk", 30, 26)
        psf = gaussian_psf(5, 1.1)
        observed, fov = simulate(truth, psf, 0.0, seed=0)
        for bc in ("zero", "periodic", "reflective", "antireflective"):
            blurred = apply_blur(truth, psf, bc)
            window = blurred[fov.row0:fov.row0 + fov.rows,
                             fov.col0:fov.col0 + fov.cols]
            assert observed.tobytes() == window.tobytes()

    def test_noise_statistics(self):
        truth = np.full((140, 140), 0.5)
        sigma2 = 1e-4
        observed, fov = simulate(truth, Psf.delta(), sigma2, seed=99)
        noise = observed - 0.5
        n = noise.size
        assert abs(noise.mean()) < 3.0 * math.sqrt(sigma2) / math.sqrt(n)
        assert abs(noise.var() / sigma2 - 1.0) < 0.05

    def test_too_small_truth_rejected(self):
        with pytest.raises(ShapeError):
            simulate(builtin_truth("cartoon", 16, 16), gaussian_psf(9, 2.0), 0.0, 0)

    @pytest.mark.parametrize("sigma2", [math.nan, math.inf])
    def test_non_finite_noise_variance_rejected(self, sigma2):
        with pytest.raises(DataError, match="noise variance"):
            simulate(builtin_truth("cartoon", 16, 16), gaussian_psf(3, 1.0), sigma2, 0)

    @pytest.mark.parametrize("seed,sigma2", [(1.5, 1e-4), (-1, 1e-4), ("3", 1e-4), (-1, 0.0),
                                             (True, 1e-4), (False, 0.0)])
    def test_bad_seed_rejected(self, seed, sigma2):
        with pytest.raises(DataError, match="seed"):
            simulate(builtin_truth("cartoon", 16, 16), gaussian_psf(3, 1.0), sigma2, seed)

    def test_integral_seeds_agree(self):
        truth = builtin_truth("cartoon", 16, 16)
        runs = [simulate(truth, gaussian_psf(3, 1.0), 1e-4, seed)[0] for seed in
                (3, 3.0, np.int64(3))]
        assert all(run.tobytes() == runs[0].tobytes() for run in runs)


class TestSnr:
    def test_mean_image_scores_zero_db(self):
        truth = builtin_truth("cartoon", 16, 16)
        flat = np.full_like(truth, truth.mean())
        assert snr(flat, truth) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_restoration_is_infinite(self):
        truth = builtin_truth("cartoon", 16, 16)
        assert math.isinf(snr(truth.copy(), truth))

    def test_ten_db_example(self, rng):
        truth = rng.standard_normal((20, 20))
        direction = rng.standard_normal((20, 20))
        signal = np.sum((truth - truth.mean()) ** 2)
        direction *= math.sqrt(0.1 * signal) / np.linalg.norm(direction)
        assert snr(truth - direction, truth) == pytest.approx(10.0, abs=1e-9)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            snr(rng.standard_normal((4, 4)), rng.standard_normal((4, 5)))

    def test_inexact_restoration_of_a_flat_truth_is_minus_infinite(self):
        truth = np.full((8, 8), 0.5)
        assert snr(truth + 0.01, truth) == -math.inf

    @pytest.mark.parametrize("value", [0.2, 0.3, 0.4, 0.5])
    def test_flat_truth_with_an_inexact_mean_is_minus_infinite(self, value):
        # the mean of 576 samples of 0.2 or 0.4 rounds away from the samples
        truth = np.full((24, 24), value)
        assert snr(truth + 0.01, truth) == -math.inf


class TestParseMode:
    def test_boundary_models(self):
        assert parse_mode("periodic") == ("bc", "periodic")
        assert parse_mode("antireflective") == ("bc", "antireflective")

    def test_enlarge_spec(self):
        assert parse_mode("enlarge:reflective:12") == ("enlarge", "reflective", 12)

    def test_bad_specs(self):
        for bad in ("mirror", "enlarge:reflective", "enlarge:foo:3", "enlarge:zero:-1",
                    "enlarge:reflective:x"):
            with pytest.raises(DataError):
                parse_mode(bad)


@pytest.fixture(scope="module")
def small_experiment():
    truth = builtin_truth("cartoon", 40, 40)
    psf = gaussian_psf(3, 1.0)
    return Experiment(truth=truth, psf=psf, sigma2=1e-4,
                      modes=("periodic", "reflective"),
                      alphas=(50.0, 500.0, 500.0, 5000.0),
                      params=SolveParams(alpha=1.0, inner_max=6), seed=3)


class TestSweep:
    def test_duplicate_alphas_deduplicated(self, small_experiment):
        assert small_experiment.alphas == (50.0, 500.0, 5000.0)

    @pytest.mark.parametrize("change,match", [
        (dict(sigma2=math.nan), "sigma2"), (dict(sigma2=math.inf), "sigma2"),
        (dict(alphas=(100.0, math.nan)), "alpha"), (dict(alphas=(math.inf,)), "alpha"),
        (dict(seed=1.5), "seed"), (dict(seed=-1), "seed")])
    def test_non_finite_experiment_rejected(self, small_experiment, change, match):
        with pytest.raises(DataError, match=match):
            replace(small_experiment, **change)

    @pytest.mark.parametrize("change,match", [
        (dict(alphas="12"), "alpha grid"), (dict(alphas=5.0), "alpha grid"),
        (dict(modes="periodic"), "modes"), (dict(modes=None), "modes")], ids=str)
    def test_string_or_scalar_for_a_sequence_rejected(self, small_experiment, change, match):
        with pytest.raises(DataError, match=f"{match} must be a sequence"):
            replace(small_experiment, **change)

    def test_no_modes_rejected(self, small_experiment):
        with pytest.raises(DataError, match="at least one mode is required"):
            replace(small_experiment, modes=())

    def test_best_of_a_mode_whose_cells_all_failed_is_a_key_error(self):
        failed = SweepRow(mode="reflective", alpha=10.0, snr_db=math.nan, seconds=0.0,
                          iterations=0, is_best=False, is_reference=False,
                          message="SymmetryError: nonsymmetric")
        with pytest.raises(KeyError, match="no successful cell for mode 'reflective'"):
            SweepResult((failed,)).best("reflective")

    def test_rows_sorted_and_one_best_per_mode(self, small_experiment):
        result = sweep(small_experiment, clock=None)
        keys = [(r.mode, r.alpha) for r in result.rows]
        assert keys == sorted(keys)
        for mode in ("periodic", "reflective"):
            marks = [r for r in result.rows if r.mode == mode and r.is_best]
            assert len(marks) == 1

    def test_reference_alpha_marked(self):
        truth = builtin_truth("cartoon", 36, 36)
        exp = Experiment(truth=truth, psf=gaussian_psf(3, 1.0), sigma2=1e-4,
                         modes=("periodic",), alphas=(100.0, 0.05 / 1e-4),
                         params=SolveParams(alpha=1.0, inner_max=4), seed=0)
        result = sweep(exp, clock=None)
        marked = [r for r in result.rows if r.is_reference]
        assert len(marked) == 1 and marked[0].alpha == pytest.approx(500.0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_cells_recorded_and_sweep_continues(self, jobs):
        # with two jobs the failed cell comes back from a worker process
        truth = builtin_truth("cartoon", 40, 40)
        nonsym = Psf(np.array([[0.6, 0.2], [0.1, 0.1]]), (0, 0))
        exp = Experiment(truth=truth, psf=nonsym, sigma2=1e-4,
                         modes=("reflective", "periodic"), alphas=(100.0,),
                         params=SolveParams(alpha=1.0, inner_max=4), seed=0)
        result = sweep(exp, jobs=jobs, clock=None)
        serial = sweep(exp, jobs=1, clock=None)
        refl = [r for r in result.rows if r.mode == "reflective"][0]
        per = [r for r in result.rows if r.mode == "periodic"][0]
        assert refl.failed and math.isnan(refl.snr_db) and "Symmetry" in refl.message
        assert refl.restored is None and not refl.is_best
        assert not per.failed and math.isfinite(per.snr_db)
        assert refl.message == [r for r in serial.rows if r.failed][0].message
        assert sweep_csv_text(result) == sweep_csv_text(serial)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, small_experiment, jobs):
        with pytest.raises(DataError, match="jobs must be at least 1"):
            sweep(small_experiment, jobs=jobs, clock=None)

    @pytest.mark.parametrize("jobs", [2.5, True, "2"])
    def test_non_integral_jobs_rejected(self, small_experiment, jobs):
        with pytest.raises(DataError, match="jobs must be an integer"):
            sweep(small_experiment, jobs=jobs, clock=None)

    def test_the_pool_has_at_most_one_worker_per_cell(self, small_experiment, monkeypatch):
        # the pool forks every worker at its first task, so it is replaced by
        # a stand-in that records its size and runs the cells here
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr("tvdeblur.harness.ProcessPoolExecutor", RecordingPool)
        two = replace(small_experiment, modes=("periodic",), alphas=(50.0, 500.0))
        assert len(sweep(two, jobs=64, clock=None).rows) == 2
        assert sizes == [2]
        # a single cell runs in this process
        sweep(replace(two, alphas=(50.0,)), jobs=64, clock=None)
        assert sizes == [2]

    def test_programming_errors_raise(self, small_experiment, monkeypatch):
        def broken(*args):
            raise TypeError("bug in a cell")

        monkeypatch.setattr("tvdeblur.harness.restore", broken)
        with pytest.raises(TypeError, match="bug in a cell"):
            sweep(small_experiment, jobs=1, clock=None)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_keep_the_restorations_they_scored(self, small_experiment, jobs):
        exp = small_experiment
        observed, _ = simulate(exp.truth, exp.psf, exp.sigma2, exp.seed)
        result = sweep(exp, jobs=jobs, clock=None)
        for row in result.rows:
            expected, _ = restore(observed, exp.psf, row.mode,
                                  replace(exp.params, alpha=row.alpha))
            assert row.restored.tobytes() == expected.tobytes()

    def test_pooled_cells_are_timed_in_their_worker(self, small_experiment):
        # two reads per cell, both in the worker that ran it
        result = sweep(small_experiment, jobs=2, clock=_ticks_in_workers)
        assert [r.seconds for r in result.rows] == [1.0] * len(result.rows)

    def test_enlarge_mode_cells_run(self):
        truth = builtin_truth("ramp-disk", 36, 36)
        exp = Experiment(truth=truth, psf=diagonal_motion_psf(5, 0.5), sigma2=1e-4,
                         modes=("enlarge:reflective:5",), alphas=(100.0,),
                         params=SolveParams(alpha=1.0, inner_max=4), seed=0)
        result = sweep(exp, clock=None)
        assert len(result.rows) == 1 and not result.rows[0].failed
        assert result.rows[0].is_best  # a single-cell grid marks its only row

    def test_parallel_jobs_match_serial(self, small_experiment):
        serial = sweep(small_experiment, jobs=1, clock=None)
        parallel = sweep(small_experiment, jobs=2, clock=None)
        strip = lambda rows: [(r.mode, r.alpha, r.snr_db, r.iterations, r.is_best)
                              for r in rows]
        assert strip(serial.rows) == strip(parallel.rows)

    def test_null_clock_gives_reproducible_csv(self, small_experiment):
        a = sweep_csv_text(sweep(small_experiment, clock=None))
        b = sweep_csv_text(sweep(small_experiment, clock=None))
        assert a == b
        assert a.splitlines()[0] == CSV_HEADER

    def test_observed_image_scores_below_best_restoration(self, small_experiment):
        from tvdeblur.harness import simulate as sim
        result = sweep(small_experiment, clock=None)
        observed, fov = sim(small_experiment.truth, small_experiment.psf,
                            small_experiment.sigma2, small_experiment.seed)
        raw = snr(observed, fov.crop(small_experiment.truth))
        best = max(r.snr_db for r in result.rows if not r.failed)
        assert raw < best

    def test_csv_writes_non_finite_scores_as_python_spells_them(self):
        rows = tuple(SweepRow(mode="periodic", alpha=a, snr_db=s, seconds=0.0, iterations=3,
                              is_best=False, is_reference=False)
                     for a, s in ((1.0, math.nan), (2.0, math.inf), (3.0, -math.inf), (4.0, 12.5)))
        body = sweep_csv_text(SweepResult(rows)).splitlines()[1:]
        assert [line.split(",")[2] for line in body] == ["nan", "inf", "-inf", "12.5"]

import json
import re
from dataclasses import astuple, fields

import numpy as np
import pytest

from tvdeblur import SolveParams, builtin_truth, gaussian_psf, restore
from tvdeblur.cli import main
from tvdeblur.fileio import read_image, write_image
from tvdeblur.grid import EnergyReport
from tvdeblur.harness import CSV_HEADER
from tvdeblur.solver import TraceRecord


@pytest.fixture
def truth_file(tmp_path):
    path = tmp_path / "truth.f64"
    write_image(path, builtin_truth("cartoon", 36, 36))
    return path


def run(args):
    return main([str(a) for a in args])


class TestSimulate:
    def test_writes_image_and_metadata(self, tmp_path, truth_file):
        out = tmp_path / "obs.f64"
        code = run(["simulate", "--truth", truth_file,
                    "--psf", "gaussian:hsize=5,delta=1.2",
                    "--sigma2", "1e-6", "--seed", "7", "--out", out])
        assert code == 0
        meta = json.loads((tmp_path / "obs.meta.json").read_text())
        assert meta["fov"] == {"row0": 4, "col0": 4, "rows": 28, "cols": 28}
        assert meta["seed"] == 7 and meta["noiseless"] is False
        assert read_image(out).shape == (28, 28)

    def test_noiseless_flag(self, tmp_path, truth_file):
        out = tmp_path / "obs.f64"
        assert run(["simulate", "--truth", truth_file, "--psf",
                    "gaussian:hsize=3,delta=1", "--sigma2", "0", "--out", out]) == 0
        meta = json.loads((tmp_path / "obs.meta.json").read_text())
        assert meta["noiseless"] is True

    def test_rerun_is_byte_identical(self, tmp_path, truth_file):
        out1, out2 = tmp_path / "a.f64", tmp_path / "b.f64"
        for out in (out1, out2):
            run(["simulate", "--truth", truth_file, "--psf",
                 "gaussian:hsize=5,delta=1.2", "--sigma2", "1e-4",
                 "--seed", "3", "--out", out])
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_input_is_data_error(self, tmp_path):
        code = run(["simulate", "--truth", tmp_path / "nope.f64",
                    "--psf", "gaussian:hsize=3,delta=1", "--sigma2", "0",
                    "--out", tmp_path / "o.f64"])
        assert code == 2

    @pytest.mark.parametrize("spec", ["gaussian:hsize=3", "gaussian:hsize=3,delta=1e308"])
    def test_bad_psf_spec_is_usage_error(self, tmp_path, truth_file, spec):
        code = run(["simulate", "--truth", truth_file, "--psf", spec,
                    "--sigma2", "0", "--out", tmp_path / "o.f64"])
        assert code == 1

    @pytest.mark.parametrize("spec", ["gaussian:hsize=3,delta=1e-200",
                                      "gaussian:hsize=4,delta=1e-150"])
    def test_vanishing_delta_is_the_limit_kernel(self, tmp_path, truth_file, spec):
        # the noiseless observation of a point kernel is the truth's crop
        out = tmp_path / "o.f64"
        assert run(["simulate", "--truth", truth_file, "--psf", spec,
                    "--sigma2", "0", "--out", out]) == 0
        if spec.endswith("1e-200"):
            assert read_image(out).tobytes() == read_image(truth_file)[2:-2, 2:-2].tobytes()

    def test_psf_spec_item_without_a_value_is_usage_error(self, tmp_path, truth_file, capsys):
        code = run(["simulate", "--truth", truth_file, "--psf", "gaussian:hsize=3,delta",
                    "--sigma2", "0", "--out", tmp_path / "o.f64"])
        assert code == 1
        assert "bad psf spec item 'delta'" in capsys.readouterr().err

    def test_bad_psf_spec_is_reported_before_the_truth_is_read(self, tmp_path, capsys):
        code = run(["simulate", "--truth", tmp_path / "missing.pgm",
                    "--psf", "gaussian:hsize=0,delta=1", "--sigma2", "0",
                    "--out", tmp_path / "o.f64"])
        assert code == 1
        assert "missing.pgm" not in capsys.readouterr().err

    def test_nan_noise_variance_is_data_error(self, tmp_path, truth_file):
        out = tmp_path / "obs.f64"
        assert run(["simulate", "--truth", truth_file, "--psf", "gaussian:hsize=3,delta=1",
                    "--sigma2", "nan", "--out", out]) == 2
        assert not out.exists() and not (tmp_path / "obs.meta.json").exists()

    def test_negative_seed_is_a_data_error_naming_the_seed(self, tmp_path, truth_file, capsys):
        out = tmp_path / "obs.f64"
        assert run(["simulate", "--truth", truth_file, "--psf", "gaussian:hsize=3,delta=1",
                    "--sigma2", "1e-4", "--seed", "-1", "--out", out]) == 2
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("out", ["nodir/o.pgm", "o.png"], ids=["directory", "suffix"])
    def test_bad_output_fails_before_the_work(self, tmp_path, truth_file, monkeypatch,
                                              capsys, out):
        def unused(*args):
            raise AssertionError("simulate ran before checking --out")

        monkeypatch.setattr("tvdeblur.cli.simulate", unused)
        monkeypatch.setattr("tvdeblur.fileio.read_image", unused)
        out = tmp_path / out
        assert run(["simulate", "--truth", truth_file, "--psf", "gaussian:hsize=3,delta=1",
                    "--sigma2", "0", "--out", out]) == 2
        named = f"'{out}'" if out.suffix == ".pgm" else "unsupported image suffix '.png'"
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err


class TestDeblur:
    @pytest.fixture
    def observed_file(self, tmp_path, truth_file):
        out = tmp_path / "obs.f64"
        run(["simulate", "--truth", truth_file, "--psf",
             "gaussian:hsize=5,delta=1.2", "--sigma2", "1e-6", "--seed", "1",
             "--out", out])
        return out

    def test_restores_and_writes_trace(self, tmp_path, observed_file):
        out = tmp_path / "restored.f64"
        code = run(["deblur", "--in", observed_file,
                    "--psf", "gaussian:hsize=5,delta=1.2",
                    "--mode", "antireflective", "--alpha", "1e4", "--out", out])
        assert code == 0
        trace = json.loads((tmp_path / "restored.trace.json").read_text())
        assert trace["records"] and trace["total_inner_iterations"] > 0
        for r in trace["records"]:
            assert min(r["shrink_s"], r["objective_s"], r["update_s"]) >= 0.0
        betas = {r["beta"] for r in trace["records"]}
        assert betas == {2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0}
        assert read_image(out).shape == (28, 28)

    def test_enlarge_mode_routes(self, tmp_path, observed_file):
        out = tmp_path / "restored.f64"
        code = run(["deblur", "--in", observed_file,
                    "--psf", "gaussian:hsize=5,delta=1.2",
                    "--mode", "enlarge:antireflective:6", "--alpha", "1e3",
                    "--out", out])
        assert code == 0 and read_image(out).shape == (28, 28)

    def test_beta_ladder_override(self, tmp_path, observed_file):
        out = tmp_path / "restored.f64"
        code = run(["deblur", "--in", observed_file,
                    "--psf", "gaussian:hsize=5,delta=1.2", "--mode", "periodic",
                    "--alpha", "1e3", "--beta-ladder", "4,32", "--out", out])
        assert code == 0
        trace = json.loads((tmp_path / "restored.trace.json").read_text())
        assert {r["beta"] for r in trace["records"]} == {4.0, 32.0}

    def test_nonsymmetric_with_trig_mode_suggests_enlarge(self, tmp_path, truth_file, capsys):
        psf_path = tmp_path / "motion.txt"
        psf_path.write_text("# center 2 2\n0.2 0 0 0 0\n0.2 0 0 0 0\n0 0.2 0 0 0\n"
                            "0 0 0.2 0 0\n0 0 0.2 0 0\n")
        obs = tmp_path / "obs.f64"
        run(["simulate", "--truth", truth_file, "--psf", psf_path,
             "--sigma2", "0", "--out", obs])
        code = run(["deblur", "--in", obs, "--psf", psf_path,
                    "--mode", "reflective", "--alpha", "10", "--out", tmp_path / "r.f64"])
        assert code == 2
        assert "enlarged" in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar", [{"format": "raw-float64"},
                                         {"format": "raw-float64", "rows": "36", "cols": 36},
                                         ["raw-float64", 36, 36]],
                             ids=["no-dims", "string-rows", "list"])
    def test_malformed_raw_sidecar_is_data_error(self, tmp_path, observed_file, sidecar):
        (tmp_path / "obs.f64.json").write_text(json.dumps(sidecar))
        code = run(["deblur", "--in", observed_file, "--psf", "gaussian:hsize=5,delta=1.2",
                    "--mode", "periodic", "--alpha", "10", "--out", tmp_path / "r.f64"])
        assert code == 2

    def test_output_under_a_file_is_data_error(self, observed_file, capsys):
        code = run(["deblur", "--in", observed_file,
                    "--psf", "gaussian:hsize=5,delta=1.2", "--mode", "periodic",
                    "--alpha", "10", "--inner-max", "1", "--out", observed_file / "r.pgm"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unsupported_output_suffix_fails_before_the_restore(self, tmp_path, observed_file,
                                                               monkeypatch):
        def unused(*args):
            raise AssertionError("deblur restored before checking --out")

        monkeypatch.setattr("tvdeblur.cli.restore", unused)
        code = run(["deblur", "--in", observed_file,
                    "--psf", "gaussian:hsize=5,delta=1.2", "--mode", "periodic",
                    "--alpha", "10", "--out", tmp_path / "r.png"])
        assert code == 2

    @pytest.mark.parametrize("outputs", [("r.f64", "nodir/t.json"), ("nodir/r.f64", None)],
                             ids=["trace", "default-trace"])
    def test_missing_output_directory_fails_before_the_restore(self, tmp_path, observed_file,
                                                               monkeypatch, capsys, outputs):
        def unused(*args):
            raise AssertionError("deblur restored before checking its output directories")

        monkeypatch.setattr("tvdeblur.cli.restore", unused)
        out, trace = (None if name is None else tmp_path / name for name in outputs)
        argv = ["deblur", "--in", observed_file, "--psf", "gaussian:hsize=5,delta=1.2",
                "--mode", "periodic", "--alpha", "10", "--out", out]
        code = run(argv + (["--trace", trace] if trace else []))
        assert code == 2
        assert f"'{trace or out}'" in capsys.readouterr().err
        assert not (tmp_path / "r.f64").exists()

    def test_unknown_mode_is_data_error(self, tmp_path, observed_file):
        code = run(["deblur", "--in", observed_file,
                    "--psf", "gaussian:hsize=5,delta=1.2", "--mode", "mirror",
                    "--alpha", "10", "--out", tmp_path / "r.f64"])
        assert code == 2

    def test_bad_mode_is_reported_before_the_input_is_read(self, tmp_path, capsys):
        code = run(["deblur", "--in", tmp_path / "missing.pgm",
                    "--psf", "gaussian:hsize=5,delta=1.2", "--mode", "mirror",
                    "--alpha", "10", "--out", tmp_path / "r.f64"])
        assert code == 2
        assert "'mirror'" in capsys.readouterr().err

    def test_kernel_file_that_is_not_utf8_is_data_error(self, tmp_path, observed_file, capsys):
        psf_path = tmp_path / "latin1.txt"
        psf_path.write_bytes(b"# \xe9\n1\n")
        code = run(["deblur", "--in", observed_file, "--psf", psf_path,
                    "--mode", "periodic", "--alpha", "10", "--out", tmp_path / "r.f64"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {psf_path}: ")

    def test_programming_error_propagates(self, tmp_path, observed_file, monkeypatch):
        # a bare ValueError is a bug, not bad input: no exit code hides it
        def broken(*args):
            raise ValueError("bug")

        monkeypatch.setattr("tvdeblur.cli.restore", broken)
        with pytest.raises(ValueError, match="^bug$"):
            run(["deblur", "--in", observed_file, "--psf", "gaussian:hsize=5,delta=1.2",
                 "--mode", "periodic", "--alpha", "10", "--out", tmp_path / "r.f64"])

    def test_kernel_mass_whose_square_overflows_is_data_error(self, tmp_path, observed_file,
                                                              capsys):
        psf_path = tmp_path / "huge.txt"
        psf_path.write_text("1e200 1e200\n1e200 1e200\n")
        code = run(["deblur", "--in", observed_file, "--psf", psf_path,
                    "--mode", "periodic", "--alpha", "10", "--out", tmp_path / "r.f64"])
        assert code == 2
        assert "kernel mass 4.000e+200 is too large" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["periodic", "zero", "enlarge:reflective:3"])
    def test_kernel_spectrum_whose_square_overflows_is_data_error(self, tmp_path, observed_file,
                                                                  capsys, mode):
        psf_path = tmp_path / "signed.txt"
        psf_path.write_text("1.3e154 -2e153\n")
        code = run(["deblur", "--in", observed_file, "--psf", psf_path,
                    "--mode", mode, "--alpha", "10", "--out", tmp_path / "r.f64"])
        assert code == 2
        assert "kernel spectrum |h|^2 overflows" in capsys.readouterr().err

    def test_zero_cg_norm_that_overflows_is_numerical_failure(self, tmp_path, observed_file,
                                                             capsys):
        # a unit-mass 3x3 box scaled by 1e100: every start residual's sum of
        # squares overflows
        psf_path = tmp_path / "scaled.txt"
        psf_path.write_text("\n".join([" ".join([repr(1e100 / 9)] * 3)] * 3) + "\n")
        code = run(["deblur", "--in", observed_file, "--psf", psf_path,
                    "--mode", "zero", "--alpha", "500", "--out", tmp_path / "r.f64"])
        assert code == 3
        assert "the norm of the start residual is inf" in capsys.readouterr().err
        assert not (tmp_path / "r.f64").exists()

    def test_singular_kernel_is_numerical_failure(self, tmp_path, observed_file):
        psf_path = tmp_path / "tiny.txt"
        psf_path.write_text("1e-10 1e-10\n1e-10 1e-10\n")  # mass^2 below the floor
        code = run(["deblur", "--in", observed_file, "--psf", psf_path,
                    "--mode", "periodic", "--alpha", "10", "--out", tmp_path / "r.f64"])
        assert code == 3

    def test_non_finite_iterate_is_numerical_failure(self, tmp_path, observed_file,
                                                      monkeypatch):
        monkeypatch.setattr("tvdeblur.solver.solve_and_blur",
                            lambda plan, rhs, *_: (np.full(rhs.shape, np.inf), np.inf, None))
        code = run(["deblur", "--in", observed_file,
                    "--psf", "gaussian:hsize=5,delta=1.2", "--mode", "periodic",
                    "--alpha", "10", "--out", tmp_path / "r.f64"])
        assert code == 3

    def test_cg_at_its_cap_is_numerical_failure(self, tmp_path, observed_file, monkeypatch):
        monkeypatch.setattr("tvdeblur.transforms.CG_MAXITER", 1)
        code = run(["deblur", "--in", observed_file,
                    "--psf", "gaussian:hsize=5,delta=1.2", "--mode", "zero",
                    "--alpha", "10", "--out", tmp_path / "r.f64"])
        assert code == 3

    def test_trace_keys_are_the_trace_record_fields(self, tmp_path, observed_file):
        code = run(["deblur", "--in", observed_file, "--psf", "gaussian:hsize=5,delta=1.2",
                    "--mode", "periodic", "--alpha", "1e3", "--inner-max", "2",
                    "--out", tmp_path / "r.f64"])
        assert code == 0
        keys = []
        for f in fields(TraceRecord):
            keys += [e.name for e in fields(EnergyReport)] if f.name == "energy" else [f.name]
        records = json.loads((tmp_path / "r.trace.json").read_text())["records"]
        assert records and all(list(r) == keys for r in records)
        _, trace = restore(read_image(observed_file), gaussian_psf(5, 1.2), "periodic",
                           SolveParams(alpha=1e3, inner_max=2))
        assert [(r["beta"], r["iteration"], r["fidelity"], r["tv_z"], r["coupling"],
                 r["total"]) for r in records] == [
            (r.beta, r.iteration, *astuple(r.energy)) for r in trace.records]

    def test_zero_mode_trace_records_cg_numerics(self, tmp_path, observed_file, forcing_bound):
        code = run(["deblur", "--in", observed_file,
                    "--psf", "gaussian:hsize=5,delta=1.2", "--mode", "zero",
                    "--alpha", "1e3", "--inner-max", "2", "--out", tmp_path / "r.f64"])
        assert code == 0
        records = json.loads((tmp_path / "r.trace.json").read_text())["records"]
        assert all(r["cg_iterations"] >= 1
                   and r["cg_residual"] <= forcing_bound(r["cg_start_residual"])
                   for r in records)


class TestSweep:
    def test_csv_contract_and_determinism(self, tmp_path, truth_file):
        args = ["sweep", "--truth", truth_file,
                "--psf", "gaussian:hsize=3,delta=1.0", "--sigma2", "1e-4",
                "--modes", "periodic,reflective", "--alphas", "1e2,1e3",
                "--inner-max", "4", "--seed", "5", "--no-timing"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 4
        best = [line for line in lines[1:] if line.split(",")[5] == "1"]
        assert len(best) == 2

    def test_negative_seed_is_a_data_error_naming_the_seed(self, tmp_path, truth_file, capsys):
        out = tmp_path / "s.csv"
        assert run(["sweep", "--truth", truth_file, "--psf", "gaussian:hsize=3,delta=1.0",
                    "--sigma2", "1e-4", "--modes", "periodic", "--alphas", "1e2",
                    "--seed", "-1", "--out", out]) == 2
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not out.exists()

    def test_duplicate_modes_are_solved_once(self, tmp_path, truth_file, capsys):
        out = tmp_path / "dup.csv"
        assert run(["sweep", "--truth", truth_file,
                    "--psf", "gaussian:hsize=3,delta=1.0", "--sigma2", "1e-4",
                    "--modes", "periodic,periodic", "--alphas", "1e2,1e3",
                    "--inner-max", "3", "--no-timing", "--out", out,
                    "--save-restorations", tmp_path / "best"]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2
        assert sum(r.split(",")[5] == "1" for r in rows) == 1
        assert capsys.readouterr().out.count("best[periodic]") == 1

    def test_flat_truth_scores_minus_infinity(self, tmp_path):
        truth = tmp_path / "flat.f64"
        write_image(truth, np.full((24, 24), 0.5))
        out = tmp_path / "flat.csv"
        assert run(["sweep", "--truth", truth,
                    "--psf", "gaussian:hsize=3,delta=1.0", "--sigma2", "1e-4",
                    "--modes", "periodic", "--alphas", "1e2,1e3",
                    "--inner-max", "3", "--no-timing", "--out", out]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [r.split(",")[2] for r in rows] == ["-inf", "-inf"]

    @pytest.mark.parametrize("sigma2", ["nan", "inf"])
    def test_non_finite_noise_variance_is_data_error(self, tmp_path, truth_file, sigma2):
        out = tmp_path / "nan.csv"
        assert run(["sweep", "--truth", truth_file,
                    "--psf", "gaussian:hsize=3,delta=1.0", "--sigma2", sigma2,
                    "--modes", "periodic", "--alphas", "1e2", "--inner-max", "3",
                    "--no-timing", "--out", out]) == 2
        assert not out.exists()

    def test_alphas_that_are_not_numbers_are_usage_error(self, tmp_path, truth_file, capsys):
        out = tmp_path / "alphas.csv"
        assert run(["sweep", "--truth", truth_file,
                    "--psf", "gaussian:hsize=3,delta=1.0", "--sigma2", "1e-4",
                    "--modes", "periodic", "--alphas", "1,x", "--out", out]) == 1
        assert "expected comma-separated reals, got '1,x'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, truth_file, capsys, jobs):
        out = tmp_path / "jobs.csv"
        assert run(["sweep", "--truth", truth_file,
                    "--psf", "gaussian:hsize=3,delta=1.0", "--sigma2", "1e-4",
                    "--modes", "periodic", "--alphas", "1e2", "--inner-max", "3",
                    "--no-timing", "--jobs", jobs, "--out", out]) == 1
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    # each rejected argument is named, not the truth file that is never read
    @pytest.mark.parametrize("extra, code, message", [
        (["--modes", "mirror"], 2, "'mirror'"),
        (["--modes", "periodic", "--beta-ladder", "4,2"], 2, "strictly increasing"),
        (["--modes", "periodic", "--sigma2", "-1", "--reference-alpha"], 1,
         "--reference-alpha needs sigma2 > 0")], ids=["mode", "beta-ladder", "reference-alpha"])
    def test_bad_arguments_are_reported_before_the_truth_is_read(self, tmp_path, capsys,
                                                                 extra, code, message):
        assert run(["sweep", "--truth", tmp_path / "missing.pgm",
                    "--psf", "gaussian:hsize=3,delta=1.0", "--sigma2", "1e-4",
                    "--out", tmp_path / "s.csv"] + extra) == code
        err = capsys.readouterr().err
        assert message in err and "missing.pgm" not in err

    def test_reference_alpha_row(self, tmp_path, truth_file):
        out = tmp_path / "ref.csv"
        assert run(["sweep", "--truth", truth_file,
                    "--psf", "gaussian:hsize=3,delta=1.0", "--sigma2", "1e-4",
                    "--modes", "periodic", "--alphas", "1e2",
                    "--reference-alpha", "--inner-max", "3", "--no-timing",
                    "--out", out]) == 0
        rows = out.read_text().splitlines()[1:]
        refs = [r for r in rows if r.split(",")[6] == "1"]
        assert len(refs) == 1 and float(refs[0].split(",")[1]) == pytest.approx(500.0)

    def test_save_restorations(self, tmp_path, truth_file, monkeypatch):
        # the files come from the sweep's own cells: nothing is simulated or solved again
        def unused(*args):
            raise AssertionError("sweep re-ran a cell")

        monkeypatch.setattr("tvdeblur.cli.restore", unused)
        monkeypatch.setattr("tvdeblur.cli.simulate", unused)
        out = tmp_path / "s.csv"
        rdir = tmp_path / "best"
        cdir = tmp_path / "cells"
        assert run(["sweep", "--truth", truth_file,
                    "--psf", "gaussian:hsize=3,delta=1.0", "--sigma2", "1e-4",
                    "--modes", "periodic", "--alphas", "1e2,1e3",
                    "--inner-max", "3", "--no-timing", "--out", out,
                    "--save-restorations", rdir, "--save-cells", cdir]) == 0
        assert (rdir / "best_periodic.pgm").exists()
        assert len(list(cdir.glob("cell_periodic_alpha*.pgm"))) == 2

    @pytest.mark.parametrize("flag", ["--save-restorations", "--save-cells"])
    def test_save_directory_that_is_a_file_fails_before_the_sweep(
            self, tmp_path, truth_file, monkeypatch, capsys, flag):
        def unused(*args, **kwargs):
            raise AssertionError("sweep ran before creating its save directories")

        monkeypatch.setattr("tvdeblur.cli.sweep", unused)
        taken = tmp_path / "taken"
        taken.write_text("")
        out = tmp_path / "s.csv"
        assert run(["sweep", "--truth", truth_file,
                    "--psf", "gaussian:hsize=3,delta=1.0", "--sigma2", "1e-4",
                    "--modes", "periodic", "--alphas", "1e2", "--inner-max", "3",
                    "--no-timing", "--out", out, flag, taken]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_missing_csv_directory_fails_before_the_sweep(self, tmp_path, truth_file,
                                                          monkeypatch, capsys):
        def unused(*args, **kwargs):
            raise AssertionError("sweep ran before checking the CSV directory")

        monkeypatch.setattr("tvdeblur.cli.sweep", unused)
        out = tmp_path / "nodir" / "s.csv"
        assert run(["sweep", "--truth", truth_file,
                    "--psf", "gaussian:hsize=3,delta=1.0", "--sigma2", "1e-4",
                    "--modes", "periodic", "--alphas", "1e2", "--no-timing", "--out", out]) == 2
        assert f"'{out}'" in capsys.readouterr().err


class TestOracleCheck:
    def test_small_grid_passes(self, capsys):
        assert run(["oracle-check", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert "all fast paths match" in out

    def test_grid_smaller_than_a_kernel_skips_that_kernel(self, capsys):
        # gauss5 does not fit 3x3; gauss3 fits every model, and the
        # antireflective interior is one sample
        assert run(["oracle-check", "--n", "3"]) == 0
        assert re.search(r"^solve\s+antireflective\s", capsys.readouterr().out, re.M)

    @pytest.mark.parametrize("rows, cols", [(2, 9), (9, 2), (16, 5)])
    def test_non_square_grid_checks_every_fidelity(self, capsys, rows, cols):
        # a two-sample axis has only the antireflective ramps, and the 1x3
        # row (3x1 column) kernel fits it along its other axis
        assert run(["oracle-check", "--rows", str(rows), "--cols", str(cols)]) == 0
        out = capsys.readouterr().out
        assert f"grid {rows} x {cols}" in out
        for bc in ("zero", "periodic", "reflective", "antireflective"):
            assert re.search(rf"^fidelity\s+{bc}\s", out, re.M)

    def test_rows_and_cols_default_to_n(self, capsys):
        assert run(["oracle-check", "--n", "4", "--cols", "3", "--bc", "periodic"]) == 0
        assert "grid 4 x 3" in capsys.readouterr().out

    def test_cap_is_usage_error(self):
        assert run(["oracle-check", "--n", "70"]) == 1

    @pytest.mark.parametrize("flag, side, message", [
        ("--rows", "70", "oracle grid capped at rows <= 64"),
        ("--cols", "65", "oracle grid capped at cols <= 64"),
        ("--rows", "1", "oracle grid needs rows >= 2"),
        ("--cols", "0", "oracle grid needs cols >= 2")])
    def test_each_side_is_checked(self, capsys, flag, side, message):
        assert run(["oracle-check", flag, side]) == 1
        assert message in capsys.readouterr().err

    def test_grid_below_two_is_usage_error(self, capsys):
        assert run(["oracle-check", "--n", "1"]) == 1
        assert "oracle grid needs n >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("ratio", ["-1", "nan", "inf", "-inf"])
    def test_bad_ratio_is_usage_error(self, monkeypatch, capsys, ratio):
        def unused(*args, **kwargs):
            raise AssertionError("oracle-check built operators before checking --ratio")

        monkeypatch.setattr("tvdeblur.cli.oracle_deviations", unused)
        assert run(["oracle-check", "--n", "4", f"--ratio={ratio}"]) == 1
        assert "--ratio must be finite and non-negative" in capsys.readouterr().err

    def test_single_bc_selection(self):
        assert run(["oracle-check", "--n", "5", "--bc", "periodic"]) == 0
        assert run(["oracle-check", "--n", "5", "--bc", "moebius"]) == 1

    def test_missing_subcommand_is_usage_error(self):
        assert run([]) == 1

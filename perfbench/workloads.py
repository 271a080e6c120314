"""Workloads: inputs built from the seed, the operations of one pass, checks.

Every workload is a single closed-loop client: the next operation starts
only after the previous one returns. The scene is ``cartoon`` unless a case
says otherwise, with noise variance ``SIGMA2`` and ``alpha = 0.05 / SIGMA2``
under the default beta ladder.

The seed picks the noise realization ``seed % REALIZATIONS``; the SNR of
every case under every realization is recorded in ``reference.json`` (see
``record_reference.py``), and each restoration must match it within
``SNR_TOL_DB``. The package receives only the generated arrays, or files
and a noise seed for the CLI sweep.

Run as a script, this module performs one workload set-up and exits; the
benchmark times such runs to report ``setup_s``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SIGMA2 = 1e-4
ALPHA = 0.05 / SIGMA2
REALIZATIONS = 16
# An SNR shift this small is far beyond any 1e-12 reordering of the
# arithmetic, and far below what a wrong restoration produces.
SNR_TOL_DB = 1e-4

GAUSS_WIDE = ("gaussian", 16, 5.0)    # even extent: 31x31 composite stencil
GAUSS_NARROW = ("gaussian", 3, 0.8)
GAUSS_ZERO = ("gaussian", 5, 1.0)
MOTION = ("motion", 7)

# workload -> [(label, scene, field-of-view side, kernel, mode)]; why each
# workload loads a different layer is in BENCHMARK.json and README.md
LIBRARY = {
    "wide-kernel": [
        ("periodic", "cartoon", 128, GAUSS_WIDE, "periodic"),
        ("reflective", "cartoon", 128, GAUSS_WIDE, "reflective"),
        ("antireflective", "cartoon", 128, GAUSS_WIDE, "antireflective"),
    ],
    "small-kernels": [
        ("periodic", "cartoon", 256, GAUSS_NARROW, "periodic"),
        ("reflective", "cartoon", 256, GAUSS_NARROW, "reflective"),
        ("antireflective", "cartoon", 256, GAUSS_NARROW, "antireflective"),
        ("enlarge", "ramp-disk", 256, MOTION, "enlarge:reflective:14"),
        ("zero", "cartoon", 48, GAUSS_ZERO, "zero"),
    ],
}
MODES = ("periodic", "reflective", "antireflective", "enlarge", "zero")

SWEEP_MODES = ("periodic", "reflective", "antireflective")
SWEEP_ALPHAS = (2000.0,)   # plus the reference 0.05 / SIGMA2
# A 104x104 field of view: above the 10000-element size at which OpenBLAS
# threads its dot products, so the pool workers' spinning threads show.
SWEEP_TRUTH_SIDE = 120
SWEEP_PSF = "gaussian:hsize=9,delta=2"
SWEEP_FOV_SIDE = SWEEP_TRUTH_SIDE - 2 * (9 - 1)
SWEEP_JOBS = 2

WORKLOADS = tuple(LIBRARY) + ("sweep-cli",)


def make_psf(tv, kernel):
    if kernel[0] == "gaussian":
        return tv.gaussian_psf(kernel[1], kernel[2])
    return tv.diagonal_motion_psf(kernel[1])


@dataclass
class Outcome:
    ok: bool
    snr_db: float
    values: dict        # case -> SNR, as recorded in reference.json
    message: str = ""


@dataclass
class Operation:
    label: str
    run: object         # () -> result; the only timed part
    check: object       # result -> Outcome


def _check_snr(label, got, expected):
    if expected is None:
        return f"{label}: no reference SNR"
    if not abs(got - expected) <= SNR_TOL_DB:
        return f"{label}: SNR {got!r} dB, reference {expected!r} dB"
    return ""


class LibraryWorkload:
    """Back-to-back ``tvdeblur.restore()`` calls, one per case."""

    def __init__(self, name, seed, reference):
        import tvdeblur as tv
        self.tv = tv
        self.realization = seed % REALIZATIONS
        # None records the SNRs instead of checking them (record_reference.py)
        self.reference = None if reference is None else reference.get(str(self.realization), {})
        self.params = tv.SolveParams(alpha=ALPHA)
        self.cases = []
        for label, scene, side, kernel, mode in LIBRARY[name]:
            psf = make_psf(tv, kernel)
            truth = tv.builtin_truth(scene, side + 2 * (psf.rows - 1), side + 2 * (psf.cols - 1))
            observed, fov = tv.simulate(truth, psf, SIGMA2, self.realization)
            self.cases.append((label, mode, psf, observed, fov.crop(truth)))

    def operations(self):
        return [Operation(label, self._runner(mode, psf, observed),
                          self._checker(label, truth))
                for label, mode, psf, observed, truth in self.cases]

    def _runner(self, mode, psf, observed):
        restore, params = self.tv.restore, self.params
        return lambda: restore(observed, psf, mode, params)[0]

    def _checker(self, label, truth):
        def check(restored):
            if restored.shape != truth.shape or not np.all(np.isfinite(restored)):
                return Outcome(False, math.nan, {}, f"{label}: restoration not finite")
            value = self.tv.snr(restored, truth)
            if self.reference is None:
                return Outcome(True, value, {label: value})
            message = _check_snr(label, value, self.reference.get(label))
            return Outcome(not message, value, {label: value}, message)
        return check


class SweepWorkload:
    """``tvdeblur.cli.main(["sweep", ...])`` in process, on a truth file."""

    def __init__(self, seed, workdir, reference):
        import tvdeblur as tv
        from tvdeblur import cli, fileio
        self.main = cli.main
        self.realization = seed % REALIZATIONS
        self.reference = None if reference is None else reference.get(str(self.realization), {})
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.truth_path = self.workdir / "truth.f64"
        fileio.write_image(self.truth_path, tv.builtin_truth(
            "cartoon", SWEEP_TRUTH_SIDE, SWEEP_TRUTH_SIDE))

    def argv(self, jobs, tag):
        return ["sweep", "--truth", str(self.truth_path), "--psf", SWEEP_PSF,
                "--sigma2", repr(SIGMA2), "--seed", str(self.realization),
                "--modes", ",".join(SWEEP_MODES),
                "--alphas", ",".join(repr(a) for a in SWEEP_ALPHAS),
                "--reference-alpha", "--jobs", str(jobs),
                "--out", str(self.workdir / f"{tag}.csv"),
                "--save-restorations", str(self.workdir / tag)]

    def operations(self, jobs=SWEEP_JOBS, tag="sweep"):
        argv = self.argv(jobs, tag)

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(argv)
            return code, err.getvalue()

        return [Operation(f"sweep-jobs{jobs}", run, lambda result: self._check(result, tag))]

    def _check(self, result, tag):
        code, err = result
        if code != 0:
            return Outcome(False, math.nan, {}, f"sweep exited {code}: {err.strip()}")
        csv_path = self.workdir / f"{tag}.csv"
        lines = csv_path.read_text().splitlines()
        csv_path.unlink()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        if len(rows) != len(SWEEP_MODES) * (len(SWEEP_ALPHAS) + 1):
            return Outcome(False, math.nan, {}, f"sweep CSV has {len(rows)} rows")
        values, problems = {}, []
        for mode in SWEEP_MODES:
            best = [r for r in rows if r["mode"] == mode and r["is_best"] == "1"]
            if len(best) != 1:
                problems.append(f"{mode}: {len(best)} is_best rows")
                continue
            value = float(best[0]["snr_db"])
            values[mode] = value
            values[f"{mode}.alpha"] = float(best[0]["alpha"])
            if self.reference is not None:
                problems.append(_check_snr(mode, value, self.reference.get(mode)))
                if values[f"{mode}.alpha"] != self.reference.get(f"{mode}.alpha"):
                    problems.append(f"{mode}: best alpha {best[0]['alpha']}")
            if not _pgm_ok(self.workdir / tag / f"best_{mode}.pgm", SWEEP_FOV_SIDE):
                problems.append(f"{mode}: saved restoration missing or malformed")
        if any(not math.isfinite(float(r["snr_db"])) for r in rows):
            problems.append("failed sweep cell")
        message = "; ".join(p for p in problems if p)
        snrs = [v for k, v in values.items() if not k.endswith(".alpha")]
        return Outcome(not message, min(snrs) if snrs else math.nan, values, message)


def _pgm_ok(path, side) -> bool:
    """A binary 16-bit PGM of the field-of-view shape, read without package code.

    The file is removed, so the next pass must write it again.
    """
    try:
        data = path.read_bytes()
        path.unlink()
    except OSError:
        return False
    expected = f"P5\n{side} {side}\n65535\n".encode()
    return data.startswith(expected) and len(data) == len(expected) + 2 * side * side


def build(name, seed, workdir, reference=None):
    if name == "sweep-cli":
        return SweepWorkload(seed, workdir, reference)
    return LibraryWorkload(name, seed, reference)


def load_reference(name):
    path = HERE / "reference.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(name)


if __name__ == "__main__":
    # One set-up, as a fresh process pays it: import, scenes, simulate, files.
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, str(SRC))
    build(workload, seed, workdir)
    sys.stdout.flush()

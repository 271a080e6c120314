"""Reproducible simulate / restore / score experiment pipeline.

The protocol: blur a known truth image, keep only the field of view whose
pixels are unaffected by any extension rule (a margin of one kernel extent
minus one is discarded per side), add seeded Gaussian noise, restore under
each requested mode, and score with the signal-to-noise ratio

    SNR = 10 log10( ||u - mean(u)||^2 / ||u - restored||^2 )

computed on the field-of-view frame (the only region that is restored).

Modes are boundary-model names ("periodic", "reflective", "antireflective",
"zero") or enlarged-domain specs "enlarge:<extension>:<pad>". Sweeps are
deterministic given the seed; wall-clock capture is injectable so result
files can be made byte-reproducible.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.signal import convolve2d

from .errors import DataError, ShapeError, TvDeblurError
from .grid import BOUNDARY_MODELS, Psf, SolveParams, as_image
from .solver import solve, solve_enlarged

CSV_HEADER = "mode,alpha,snr_db,seconds,iterations,is_best,is_reference"


def gaussian_psf(hsize: int, delta: float) -> Psf:
    """Normalized Gaussian kernel sampled on the symmetric hsize grid.

    Samples exp(-(x^2+y^2)/(2 delta^2)) at x, y in {-(hsize-1)/2, ...,
    (hsize-1)/2}; even extents center between samples and declare the
    center index ceil(hsize/2) (1-based).
    """
    if hsize < 1:
        raise DataError(f"hsize must be >= 1, got {hsize}")
    if not (delta > 0):
        raise DataError(f"delta must be positive, got {delta}")
    x = np.arange(hsize) - (hsize - 1) / 2.0
    g = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / (2.0 * delta ** 2))
    g /= g.sum()
    c = (hsize + 1) // 2 - 1
    return Psf(g, (c, c))


def diagonal_motion_psf(length: int = 7, slant: float = 0.7, ramp: float = 0.35) -> Psf:
    """Nonsymmetric motion-like kernel: a slanted streak with growing weight."""
    if length < 2:
        raise DataError(f"length must be >= 2, got {length}")
    w = np.zeros((length, length))
    for k in range(length):
        w[k, min(length - 1, int(round(k * slant)))] = 1.0 + ramp * k
    w /= w.sum()
    return Psf(w, (length // 2, length // 2))


def builtin_truth(name: str, rows: int, cols: int) -> np.ndarray:
    """Built-in synthetic truth scenes so tests need no external assets.

    ``cartoon``: piecewise-constant regions with sharp edges crossing the
    frame. ``ramp-disk``: a smooth intensity ramp plus a Gaussian disk.
    """
    if rows < 8 or cols < 8:
        raise ShapeError(f"builtin truths need at least 8x8, got {(rows, cols)}")
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    if name == "cartoon":
        u = np.full((rows, cols), 0.2)
        u[(rr - 0.30 * rows) ** 2 + (cc - 0.33 * cols) ** 2 < (0.22 * rows) ** 2] = 0.85
        u[(rr > 0.55 * rows) & (rr < 0.80 * rows)
          & (cc > 0.50 * cols) & (cc < 0.92 * cols)] = 0.55
        diag = np.abs((rr - 0.15 * rows) - (cc - 0.70 * cols))
        u[(diag < 0.04 * rows) & (cc > 0.55 * cols)] = 0.95
        u[(rr > 0.82 * rows) & (rr < 0.94 * rows)
          & (cc > 0.08 * cols) & (cc < 0.35 * cols)] = 0.05
        return u
    if name == "ramp-disk":
        u = 0.15 + 0.55 * (0.6 * rr / rows + 0.4 * cc / cols)
        r2 = (rr - 0.42 * rows) ** 2 + (cc - 0.60 * cols) ** 2
        return u + 0.30 * np.exp(-r2 / (2.0 * (0.18 * rows) ** 2))
    raise DataError(f"unknown builtin truth {name!r}; expected 'cartoon' or 'ramp-disk'")


@dataclass(frozen=True)
class FieldOfView:
    """Placement of the observed window inside the truth frame."""

    row0: int
    col0: int
    rows: int
    cols: int

    def crop(self, truth: np.ndarray) -> np.ndarray:
        return truth[self.row0:self.row0 + self.rows,
                     self.col0:self.col0 + self.cols]


def simulate(truth: np.ndarray, psf: Psf, sigma2: float, seed: int):
    """Blur, cut the extension-independent field of view, add seeded noise.

    The margin removed per side is one kernel extent minus one, so every
    retained pixel is a combination of true interior pixels only; the
    result is therefore bit-identical whatever extension rule a blur
    implementation would use.
    """
    truth = as_image(truth, "truth")
    if not (sigma2 >= 0 and math.isfinite(sigma2)):
        raise DataError(f"noise variance must be non-negative and finite, got {sigma2}")
    mr, mc = psf.rows - 1, psf.cols - 1
    out_rows = truth.shape[0] - 2 * mr
    out_cols = truth.shape[1] - 2 * mc
    if out_rows < 2 or out_cols < 2:
        raise ShapeError(
            f"truth {truth.shape} too small for kernel {(psf.rows, psf.cols)}: "
            f"the field of view would be {(out_rows, out_cols)}")
    full = convolve2d(truth, psf.weights, mode="valid")
    cr, cc = psf.center
    observed = full[cr:cr + out_rows, cc:cc + out_cols].copy()
    if sigma2 > 0:
        rng = np.random.default_rng(seed)
        observed += rng.normal(0.0, math.sqrt(sigma2), observed.shape)
    return observed, FieldOfView(mr, mc, out_rows, out_cols)


def snr(restored: np.ndarray, truth: np.ndarray) -> float:
    """Signal-to-noise ratio in dB of a restoration against the truth.

    An exact restoration scores ``+inf``; an inexact one of a truth with no
    variation scores ``-inf``.
    """
    restored = as_image(restored, "restored")
    truth = as_image(truth, "truth")
    if restored.shape != truth.shape:
        raise ShapeError(f"shape mismatch: {restored.shape} vs {truth.shape}")
    err = float(np.sum((truth - restored) ** 2))
    if err == 0.0:
        return math.inf
    # not the signal sum below: truth - truth.mean() of a flat truth keeps
    # rounding residue whenever its mean is inexact
    if truth.max() == truth.min():
        return -math.inf
    signal = float(np.sum((truth - truth.mean()) ** 2))
    return 10.0 * math.log10(signal / err)


def parse_mode(mode: str):
    """Split a mode string into ("bc", model) or ("enlarge", extension, pad)."""
    if mode in BOUNDARY_MODELS:
        return ("bc", mode)
    parts = mode.split(":")
    if len(parts) == 3 and parts[0] == "enlarge":
        if parts[1] not in BOUNDARY_MODELS:
            raise DataError(f"unknown extension {parts[1]!r} in mode {mode!r}")
        try:
            pad = int(parts[2])
        except ValueError:
            raise DataError(f"bad pad in mode {mode!r}") from None
        if pad < 0:
            raise DataError(f"pad must be non-negative in mode {mode!r}")
        return ("enlarge", parts[1], pad)
    raise DataError(f"unknown mode {mode!r}; expected a boundary model or "
                    f"'enlarge:<extension>:<pad>'")


@dataclass(frozen=True)
class Experiment:
    """One sweep specification over (mode, alpha) cells."""

    truth: np.ndarray
    psf: Psf
    sigma2: float
    modes: tuple
    alphas: tuple
    params: SolveParams
    seed: int = 0

    def __post_init__(self):
        truth = as_image(self.truth, "truth").copy()
        truth.setflags(write=False)
        object.__setattr__(self, "truth", truth)
        if not (self.sigma2 >= 0 and math.isfinite(self.sigma2)):
            raise DataError(f"sigma2 must be non-negative and finite, got {self.sigma2}")
        alphas = tuple(dict.fromkeys(float(a) for a in self.alphas))
        if not alphas or not all(a > 0 and math.isfinite(a) for a in alphas):
            raise DataError(f"alpha grid must be non-empty, positive and finite, got {alphas}")
        object.__setattr__(self, "alphas", alphas)
        modes = tuple(dict.fromkeys(self.modes))
        for m in modes:
            parse_mode(m)
        if not modes:
            raise DataError("at least one mode is required")
        object.__setattr__(self, "modes", modes)

    @property
    def reference_alpha(self) -> float | None:
        return 0.05 / self.sigma2 if self.sigma2 > 0 else None


@dataclass(frozen=True)
class SweepRow:
    mode: str
    alpha: float
    snr_db: float
    seconds: float
    iterations: int
    is_best: bool
    is_reference: bool
    failed: bool = False
    message: str = ""
    restored: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SweepResult:
    rows: tuple

    def best(self, mode: str) -> SweepRow:
        for row in self.rows:
            if row.mode == mode and row.is_best:
                return row
        raise KeyError(f"no successful cell for mode {mode!r}")


def restore(observed: np.ndarray, psf: Psf, mode: str, params: SolveParams):
    """Dispatch one restoration cell to solve or solve_enlarged."""
    kind = parse_mode(mode)
    if kind[0] == "bc":
        return solve(observed, psf, kind[1], params)
    return solve_enlarged(observed, psf, kind[1], kind[2], params)


def _no_clock() -> float:
    return 0.0


def _run_cell(args):
    observed, psf, mode, alpha, params, truth_fov, clock = args
    cell_params = replace(params, alpha=alpha)
    t0 = clock()
    try:
        restored, trace = restore(observed, psf, mode, cell_params)
        seconds = clock() - t0
        return (snr(restored, truth_fov), seconds, trace.total_inner_iterations, "", restored)
    except (TvDeblurError, np.linalg.LinAlgError) as exc:
        # a failed cell is recorded, the sweep continues; programming errors raise
        return (math.nan, clock() - t0, 0, f"{type(exc).__name__}: {exc}", None)


def sweep(exp: Experiment, jobs: int = 1, clock=time.perf_counter) -> SweepResult:
    """Run every (mode, alpha) cell; solver failures are recorded, not raised.

    ``clock`` is the wall-time source for the seconds column, read around
    each cell's restore in the process that runs it, so the column means
    the same serially and with ``jobs > 1``; pass ``None`` to record zeros
    and make the output byte-reproducible across runs. Each successful row
    keeps its restoration in ``restored``, so the caller holds one image
    per successful cell (cells x rows x cols x 8 bytes).
    """
    if jobs < 1:
        raise DataError(f"jobs must be at least 1, got {jobs}")
    if clock is None:
        clock = _no_clock
    observed, fov = simulate(exp.truth, exp.psf, exp.sigma2, exp.seed)
    truth_fov = fov.crop(exp.truth)
    cells = [(mode, alpha) for mode in exp.modes for alpha in exp.alphas]
    tasks = [(observed, exp.psf, mode, alpha, exp.params, truth_fov, clock)
             for mode, alpha in cells]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_cell, tasks))
    else:
        outcomes = [_run_cell(task) for task in tasks]
    ref = exp.reference_alpha
    rows = []
    for (mode, alpha), (snr_db, seconds, iters, message, restored) in zip(cells, outcomes):
        failed = message != ""
        rows.append(SweepRow(mode=mode, alpha=alpha, snr_db=snr_db,
                             seconds=float(seconds), iterations=iters,
                             is_best=False, is_reference=bool(
                                 ref is not None and np.isclose(alpha, ref, rtol=1e-12, atol=0.0)),
                             failed=failed, message=message, restored=restored))
    rows.sort(key=lambda r: (r.mode, r.alpha))
    # exactly one best mark per mode among successful cells (first on ties)
    marked = []
    for mode in sorted(set(r.mode for r in rows)):
        group = [r for r in rows if r.mode == mode and not r.failed]
        if group:
            marked.append(max(group, key=lambda r: (r.snr_db, -r.alpha)))
    best_keys = {(r.mode, r.alpha) for r in marked}
    rows = [replace(r, is_best=(r.mode, r.alpha) in best_keys) for r in rows]
    return SweepResult(tuple(rows))


def _fmt(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(float(x))


def sweep_csv_text(result: SweepResult) -> str:
    lines = [CSV_HEADER]
    for r in result.rows:
        lines.append(",".join([
            r.mode, _fmt(r.alpha), _fmt(r.snr_db), _fmt(r.seconds),
            str(r.iterations), str(int(r.is_best)), str(int(r.is_reference)),
        ]))
    return "\n".join(lines) + "\n"


def write_sweep_csv(result: SweepResult, path) -> None:
    from .fileio import atomic_write_text
    atomic_write_text(path, sweep_csv_text(result))

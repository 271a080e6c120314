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

from .errors import DataError, ShapeError, TvDeblurError
from .fileio import atomic_write_text
from .grid import (BOUNDARY_MODELS, Psf, SolveParams, _integer, _real, _sequence, _square,
                   as_image)
from .operators import _sliding_sum
from .solver import solve, solve_enlarged

CSV_HEADER = "mode,alpha,snr_db,seconds,iterations,is_best,is_reference"


def gaussian_psf(hsize: int, delta: float) -> Psf:
    """Normalized Gaussian kernel sampled on the symmetric hsize grid.

    Samples exp(-(x^2+y^2)/(2 delta^2)) at x, y in {-(hsize-1)/2, ...,
    (hsize-1)/2}; even extents center between samples and declare the
    center index ceil(hsize/2) (1-based). A delta too small for any sample
    to survive gives the limit: the point kernel for odd hsize, the centre
    2x2 block at 1/4 for even.
    """
    hsize = _integer(hsize, "hsize", least=1)
    delta = _real(delta, "delta")
    x = np.arange(hsize) - (hsize - 1) / 2.0
    r2 = x[:, None] ** 2 + x[None, :] ** 2
    # a tiny delta divides by zero or overflows here, and every sample may
    # underflow (or the centre be 0/0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g = np.exp(-r2 / (2.0 * _square(delta, "delta")))
    if not g.sum() > 0:
        g = (r2 == r2.min()).astype(float)
    g /= g.sum()
    c = (hsize + 1) // 2 - 1
    return Psf(g, (c, c))


def diagonal_motion_psf(length: int = 7, slant: float = 0.7) -> Psf:
    """Nonsymmetric motion-like kernel: a slanted streak, row k weighing 1 + 0.35 k."""
    length = _integer(length, "length", least=2)
    slant = _real(slant, "slant", positive=False)
    w = np.zeros((length, length))
    for k in range(length):
        w[k, min(length - 1, int(round(k * slant)))] = 1.0 + 0.35 * k
    w /= w.sum()
    return Psf(w, (length // 2, length // 2))


def builtin_truth(name: str, rows: int, cols: int) -> np.ndarray:
    """Built-in synthetic truth scenes so tests need no external assets.

    ``cartoon``: piecewise-constant regions with sharp edges crossing the
    frame. ``ramp-disk``: a smooth intensity ramp plus a Gaussian disk.
    """
    rows, cols = _integer(rows, "rows"), _integer(cols, "cols")
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
    sigma2 = _real(sigma2, "noise variance", positive=False)
    seed = _integer(seed, "seed", least=0)
    mr, mc = psf.rows - 1, psf.cols - 1
    out_rows = truth.shape[0] - 2 * mr
    out_cols = truth.shape[1] - 2 * mc
    if out_rows < 2 or out_cols < 2:
        raise ShapeError(
            f"truth {truth.shape} too small for kernel {(psf.rows, psf.cols)}: "
            f"the field of view would be {(out_rows, out_cols)}")
    # only the samples kept: the "valid" convolution of the slice they read
    cr, cc = psf.center
    observed = _sliding_sum(truth[cr:cr + out_rows + mr, cc:cc + out_cols + mc], psf.weights)
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
    parts = str(mode).split(":")
    if len(parts) == 3 and parts[0] == "enlarge":
        if parts[1] not in BOUNDARY_MODELS:
            raise DataError(f"unknown extension {parts[1]!r} in mode {mode!r}")
        try:
            pad = int(parts[2])
        except ValueError:
            raise DataError(f"bad pad in mode {mode!r}") from None
        return ("enlarge", parts[1], _integer(pad, f"pad in mode {mode!r}", least=0))
    raise DataError(f"unknown mode {mode!r}; expected a boundary model or "
                    f"'enlarge:<extension>:<pad>'")


def reference_alpha(sigma2: float) -> float:
    """The fidelity weight a sweep marks as its reference for noise
    variance ``sigma2 > 0``: ``0.05 / sigma2``."""
    return 0.05 / sigma2


@dataclass(frozen=True)
class Experiment:
    """One sweep specification over (mode, alpha) cells.

    ``params`` supplies the beta ladder and the stopping rule; each cell's
    alpha replaces ``params.alpha``, so any positive placeholder will do.
    """

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
        object.__setattr__(self, "sigma2", _real(self.sigma2, "sigma2", positive=False))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", least=0))
        alphas = tuple(dict.fromkeys(_real(a, "alpha grid entry")
                                     for a in _sequence(self.alphas, "alpha grid")))
        if not alphas:
            raise DataError("alpha grid must not be empty")
        object.__setattr__(self, "alphas", alphas)
        modes = tuple(dict.fromkeys(_sequence(self.modes, "modes")))
        for m in modes:
            parse_mode(m)
        if not modes:
            raise DataError("at least one mode is required")
        object.__setattr__(self, "modes", modes)

    @property
    def reference_alpha(self) -> float | None:
        return reference_alpha(self.sigma2) if self.sigma2 > 0 else None


@dataclass(frozen=True)
class SweepRow:
    """One (mode, alpha) cell of a sweep. The fields :data:`CSV_HEADER`
    names are the CSV's columns. A failed cell scores NaN with zero
    iterations, keeps the error in ``message`` and has no ``restored``
    image; a successful one has an empty ``message``. :func:`sweep` sets
    ``is_best`` and ``is_reference``."""

    mode: str
    alpha: float
    snr_db: float
    seconds: float
    iterations: int
    is_best: bool = False
    is_reference: bool = False
    message: str = ""
    restored: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def failed(self) -> bool:
        return bool(self.message)


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
    return solve_enlarged(observed, psf, kind[1], params, kind[2])


def _no_clock() -> float:
    return 0.0


def _run_cell(args) -> SweepRow:
    observed, psf, mode, alpha, params, truth_fov, clock = args
    cell_params = replace(params, alpha=alpha)
    t0 = clock()
    try:
        restored, trace = restore(observed, psf, mode, cell_params)
        seconds = float(clock() - t0)
        return SweepRow(mode, alpha, snr(restored, truth_fov), seconds,
                        trace.total_inner_iterations, restored=restored)
    except TvDeblurError as exc:
        # a failed cell is recorded, the sweep continues; programming errors raise
        return SweepRow(mode, alpha, math.nan, float(clock() - t0), 0,
                        message=f"{type(exc).__name__}: {exc}")


def sweep(exp: Experiment, jobs: int = 1, clock=time.perf_counter) -> SweepResult:
    """Run every (mode, alpha) cell; solver failures are recorded, not raised.

    ``clock`` is the wall-time source for the seconds column, read around
    each cell's restore in the process that runs it, so the column means
    the same serially and with ``jobs > 1``; pass ``None`` to record zeros
    and make the output byte-reproducible across runs. Each successful row
    keeps its restoration in ``restored``, so the caller holds one image
    per successful cell (cells x rows x cols x 8 bytes). The pool has
    ``min(jobs, cells)`` workers, since it forks them all at its first
    task; one runs the cells in this process.
    """
    jobs = _integer(jobs, "jobs", least=1)
    if clock is None:
        clock = _no_clock
    observed, fov = simulate(exp.truth, exp.psf, exp.sigma2, exp.seed)
    truth_fov = fov.crop(exp.truth)
    tasks = [(observed, exp.psf, mode, alpha, exp.params, truth_fov, clock)
             for mode in exp.modes for alpha in exp.alphas]
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell, tasks))
    else:
        rows = [_run_cell(task) for task in tasks]
    rows.sort(key=lambda row: (row.mode, row.alpha))
    # exactly one best mark per mode among successful cells (first on ties)
    best = {mode: max((row for row in rows if row.mode == mode and not row.failed),
                      key=lambda row: row.snr_db, default=None) for mode in exp.modes}
    ref = exp.reference_alpha
    return SweepResult(tuple(replace(
        row, is_best=row is best[row.mode],
        is_reference=ref is not None and bool(np.isclose(row.alpha, ref, rtol=1e-12, atol=0.0)))
        for row in rows))


def _csv_field(value) -> str:
    """A flag as 0 or 1, a real as ``repr`` spells it (``nan``, ``inf``)."""
    if isinstance(value, float):
        return repr(float(value))
    return str(int(value) if isinstance(value, bool) else value)


def sweep_csv_text(result: SweepResult) -> str:
    lines = [CSV_HEADER] + [
        ",".join(_csv_field(getattr(row, name)) for name in CSV_HEADER.split(","))
        for row in result.rows]
    return "\n".join(lines) + "\n"


def write_sweep_csv(result: SweepResult, path) -> None:
    atomic_write_text(path, sweep_csv_text(result))

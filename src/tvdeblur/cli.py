"""Command-line surface: simulate, deblur, sweep, oracle-check.

Exit codes are a stable contract: 0 success, 1 usage error, 2 data error,
3 numerical failure. Any other exception is a programming error and raises
with its traceback.
"""

from __future__ import annotations

import argparse
import errno
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import fileio
from .errors import ConvergenceError, SingularPlanError, TvDeblurError
from .grid import DEFAULT_BETA_LADDER, BOUNDARY_MODELS, Psf, SolveParams
from .dense import ORACLE_CAP
from .harness import (Experiment, gaussian_psf, parse_mode, reference_alpha, restore,
                      simulate, sweep, write_sweep_csv)
from .oracle import TOLERANCE, oracle_deviations, worst_deviation

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def parse_psf_spec(spec: str) -> Psf:
    """'gaussian:hsize=H,delta=D' or a path to a kernel text file."""
    if spec.startswith("gaussian:"):
        fields = {}
        for item in spec[len("gaussian:"):].split(","):
            if "=" not in item:
                raise _UsageError(f"bad psf spec item {item!r}")
            key, value = item.split("=", 1)
            fields[key.strip()] = value.strip()
        if set(fields) != {"hsize", "delta"}:
            raise _UsageError(f"gaussian psf spec needs hsize and delta, got {spec!r}")
        try:
            return gaussian_psf(int(fields["hsize"]), float(fields["delta"]))
        except ValueError as exc:
            raise _UsageError(f"bad gaussian psf spec {spec!r}: {exc}") from None
    return fileio.read_psf_file(spec)


def _parse_floats(text: str):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise _UsageError(f"expected comma-separated reals, got {text!r}") from None


def _solve_params(args, alpha: float) -> SolveParams:
    ladder = _parse_floats(args.beta_ladder) if args.beta_ladder else DEFAULT_BETA_LADDER
    return SolveParams(alpha=alpha, beta_ladder=ladder,
                       inner_tol=args.inner_tol, inner_max=args.inner_max)


def _add_solver_flags(p):
    p.add_argument("--beta-ladder", default=None,
                   help="comma-separated increasing penalties (default 2,4,...,128)")
    p.add_argument("--inner-tol", type=float, default=SolveParams.inner_tol,
                   help="relative-change stop per ladder rung (default %(default)s)")
    p.add_argument("--inner-max", type=int, default=SolveParams.inner_max,
                   help="max iterations per ladder rung (default %(default)s)")


def build_parser() -> _Parser:
    parser = _Parser(prog="tvdeblur",
                     description="Total-variation deblurring without boundary artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="blur a truth image, crop the field of view, add noise")
    p.add_argument("--truth", required=True, help="truth image (.pgm or .f64)")
    p.add_argument("--psf", required=True, help="kernel spec or file")
    p.add_argument("--sigma2", type=float, required=True, help="noise variance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="observed image path (.pgm or .f64)")

    p = sub.add_parser("deblur", help="restore an observed image")
    p.add_argument("--in", dest="input", required=True, help="observed image")
    p.add_argument("--psf", required=True)
    p.add_argument("--mode", required=True,
                   help=f"{'|'.join(BOUNDARY_MODELS)} or enlarge:<extension>:<pad>")
    p.add_argument("--alpha", type=float, required=True, help="fidelity weight")
    _add_solver_flags(p)
    p.add_argument("--out", default="restored.pgm")
    p.add_argument("--trace", default=None, help="trace JSON path (default <out>.trace.json)")

    p = sub.add_parser("sweep", help="simulate then sweep (mode, alpha) cells to CSV")
    p.add_argument("--truth", required=True)
    p.add_argument("--psf", required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--modes", required=True, help="comma-separated mode list")
    p.add_argument("--alphas", default=None,
                   help="comma-separated fidelity weights (default: 12 log-spaced in [1e1, 1e7])")
    p.add_argument("--reference-alpha", action="store_true",
                   help="add the 0.05/sigma2 row to the grid and mark it")
    _add_solver_flags(p)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--no-timing", action="store_true",
                   help="record zero wall times so the CSV is byte-reproducible")
    p.add_argument("--out", required=True, help="CSV path")
    p.add_argument("--save-restorations", default=None, metavar="DIR",
                   help="also write the best restoration per mode into DIR")
    p.add_argument("--save-cells", default=None, metavar="DIR",
                   help="also write every successful cell's restoration into DIR")

    p = sub.add_parser("oracle-check", help="compare fast paths against the dense oracle")
    p.add_argument("--n", type=int, default=8, help=f"grid side (<= {ORACLE_CAP})")
    p.add_argument("--ratio", type=float, default=2.0)
    p.add_argument("--bc", default="all", help=f"all or one of {'|'.join(BOUNDARY_MODELS)}")
    return parser


def cmd_simulate(args) -> int:
    fileio._image_format(args.out)  # reject the output suffix before any work
    _require_directory(args.out)  # the metadata goes next to it
    psf = parse_psf_spec(args.psf)
    truth = fileio.read_image(args.truth)
    observed, fov = simulate(truth, psf, args.sigma2, args.seed)
    fileio.write_image(args.out, observed)
    meta = {
        "psf": args.psf,
        "sigma2": args.sigma2,
        "noiseless": args.sigma2 == 0.0,
        "seed": args.seed,
        "truth": str(args.truth),
        "observed": str(args.out),
        "fov": asdict(fov),
    }
    fileio.atomic_write_text(_meta_path(args.out), json.dumps(meta, indent=2) + "\n")
    print(f"wrote {args.out} and {_meta_path(args.out)} "
          f"(field of view {fov.rows}x{fov.cols} at +{fov.row0}+{fov.col0})")
    return EXIT_OK


def _meta_path(out) -> Path:
    out = Path(out)
    return out.with_name(out.stem + ".meta.json")


def _require_directory(path) -> None:
    """Fail before any work if the directory an output goes into is missing."""
    if not Path(path).parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, "no directory to write", str(path))


def cmd_deblur(args) -> int:
    fileio._image_format(args.out)  # reject the output suffix before any work
    trace_path = args.trace or str(Path(args.out).with_suffix("")) + ".trace.json"
    for path in (args.out, trace_path):
        _require_directory(path)
    psf = parse_psf_spec(args.psf)
    parse_mode(args.mode)
    params = _solve_params(args, args.alpha)
    observed = fileio.read_image(args.input)
    restored, trace = restore(observed, psf, args.mode, params)
    fileio.write_image(args.out, restored)
    payload = {
        "status": trace.status,
        "mode": args.mode,
        "alpha": args.alpha,
        "total_inner_iterations": trace.total_inner_iterations,
        "violations": [list(v) for v in trace.violations],
        "records": [
            {"beta": r.beta, "iteration": r.iteration,
             "fidelity": r.energy.fidelity, "tv": r.energy.tv_z,
             "coupling": r.energy.coupling, "total": r.energy.total,
             "rel_change": r.rel_change, "seconds": r.seconds,
             "shrink_s": r.shrink_s, "objective_s": r.objective_s, "update_s": r.update_s,
             "cg_iterations": r.cg_iterations, "cg_start_residual": r.cg_start_residual,
             "cg_residual": r.cg_residual}
            for r in trace.records
        ],
    }
    fileio.atomic_write_text(trace_path, json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out} and {trace_path} ({trace.total_inner_iterations} iterations)")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    _require_directory(args.out)
    psf = parse_psf_spec(args.psf)
    modes = tuple(m.strip() for m in args.modes.split(","))
    for mode in modes:
        parse_mode(mode)
    alphas = _parse_floats(args.alphas) if args.alphas else tuple(np.logspace(1, 7, 12))
    if args.reference_alpha:
        if args.sigma2 <= 0:
            raise _UsageError("--reference-alpha needs sigma2 > 0")
        alphas = alphas + (reference_alpha(args.sigma2),)
    params = _solve_params(args, alphas[0])
    truth = fileio.read_image(args.truth)
    exp = Experiment(truth=truth, psf=psf, sigma2=args.sigma2, modes=modes,
                     alphas=alphas, params=params, seed=args.seed)
    for dirname in (args.save_restorations, args.save_cells):
        if dirname:
            Path(dirname).mkdir(parents=True, exist_ok=True)
    clock = None if args.no_timing else time.perf_counter
    result = sweep(exp, jobs=args.jobs, clock=clock)
    write_sweep_csv(result, args.out)
    failed = sum(1 for r in result.rows if r.failed)
    print(f"wrote {args.out} ({len(result.rows)} rows, {failed} failed)")
    for row in result.rows:
        tag = row.mode.replace(":", "_")
        for dirname, kind, suffix in ((row.is_best and args.save_restorations, "best", ""),
                                      (not row.failed and args.save_cells, "cell",
                                       f"_alpha{row.alpha:g}")):
            if dirname:
                path = Path(dirname) / f"{kind}_{tag}{suffix}.pgm"
                fileio.write_image(path, row.restored)
                print(f"  {kind}[{row.mode}] alpha={row.alpha:g} "
                      f"snr={row.snr_db:.2f} dB -> {path}")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    if args.n > ORACLE_CAP:
        raise _UsageError(f"oracle grid capped at n <= {ORACLE_CAP}, got {args.n}")
    if args.n < 2:
        raise _UsageError("oracle grid needs n >= 2")
    if not (np.isfinite(args.ratio) and args.ratio >= 0):
        raise _UsageError(f"--ratio must be finite and non-negative, got {args.ratio}")
    if args.bc != "all" and args.bc not in BOUNDARY_MODELS:
        raise _UsageError(f"unknown boundary model {args.bc!r}")
    bcs = BOUNDARY_MODELS if args.bc == "all" else (args.bc,)
    devs = oracle_deviations(args.n, ratio=args.ratio, bcs=bcs)
    print(f"{'operator':<12} {'bc':<16} {'max-abs deviation':>18}")
    for (op, bc) in sorted(devs):
        print(f"{op:<12} {bc:<16} {devs[(op, bc)]:>18.3e}")
    worst = worst_deviation(devs)
    print(f"worst: {worst:.3e} (tolerance {TOLERANCE:g})")
    if worst > TOLERANCE:
        print("FAIL: fast paths deviate from the dense oracle", file=sys.stderr)
        return EXIT_NUMERIC
    print("all fast paths match the dense oracle")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "deblur": cmd_deblur,
    "sweep": cmd_sweep,
    "oracle-check": cmd_oracle_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, SingularPlanError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (TvDeblurError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

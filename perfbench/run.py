#!/usr/bin/env python3
"""The tvdeblur benchmark: one workload per call, untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --workload wide-kernel --seed 1 --seconds 44 --trace 0

The workload's passes run back to back (one closed-loop client) until
the process would outlive ``--seconds``, counted from its start, so set-up
and its measurement come out of the same budget; every operation's output
is checked. With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` traced and untraced passes alternate and the per-layer
metrics are reported instead. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give the environment and the metrics in readable form.

Times are reported twice: in seconds, and in units of a fixed reference
kernel timed in the same process just before and after each operation
(``pass_norm``, ``cpu_norm``). Set-up time is normalized the same way by a
reference process started after each set-up process (``setup_s``, rescaled
to seconds). On a shared virtual machine the effective CPU speed can drift
by up to 2x over seconds to minutes; the references drift with it, so the
normalized figures are the ones steady enough to bound.

The thread environment is left as found (OpenBLAS threads may spin) and is
printed with the library versions.
"""

from __future__ import annotations

import time

START = time.perf_counter()   # --seconds bounds the process from here

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import layers
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
# A fresh process that starts Python and imports what tvdeblur's import is
# mostly made of, but no package code; and its typical time, which turns
# normalized set-up time back into seconds.
REFERENCE_PROCESS = [sys.executable, "-c", "import numpy, scipy.fft"]
NOMINAL_REFERENCE_PROCESS_S = 0.45
MIN_PASSES = 3
# Time reserved for the set-up measurement, in multiples of this process's
# own set-up: each sample is a set-up process plus a reference process.
SETUP_RESERVE = 1.5 * SETUP_SAMPLES
# Left of --seconds after the last pass, for reporting and clean-up.
TAIL_S = 0.5
RESOURCE = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)


def _cpu_seconds() -> float:
    total = 0.0
    for who in RESOURCE:
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class ReferenceKernel:
    """A fixed mix of the work tvdeblur does, independent of the package.

    Direct 2-D convolution, a DCT, element-wise arithmetic and interpreter
    work, about 10 ms; it uses no BLAS call, so it starts no OpenBLAS thread.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.image, self.kernel = rng.random((96, 96)), rng.random((9, 9))
        self.field = rng.random((128, 128))

    def seconds(self) -> float:
        import numpy as np
        from scipy import fft
        from scipy.signal import convolve2d
        t0 = time.perf_counter()
        for _ in range(4):
            convolve2d(self.image, self.kernel, mode="same")
            spectrum = fft.dctn(self.field, norm="ortho")
            magnitude = np.hypot(spectrum, self.field)
            float(np.sum(magnitude * magnitude))
        total = 0
        for i in range(20000):
            total += i
        return time.perf_counter() - t0


class Runner:
    """Runs and checks operations; counts attempts and failures."""

    def __init__(self, root_name):
        self.reference = ReferenceKernel()
        self.root_name = root_name
        self.attempted = 0
        self.failures = []
        self.op_ids = []      # ids of the traced operations, in order

    def run(self, op, tracer=None):
        """Run one operation; returns (seconds, cpu seconds, outcome or None)."""
        self.attempted += 1
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.operation(self.root_name) as op_id:
                    self.op_ids.append(op_id)
                    result = op.run()
        except Exception as exc:  # a raised restore is a failed operation
            self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, _cpu_seconds() - cpu0, None
        seconds = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        try:
            outcome = op.check(result)
        except Exception as exc:  # an unreadable output fails the check
            self.failures.append(f"{op.label}: check raised {type(exc).__name__}: {exc}")
            return seconds, cpu, None
        if not outcome.ok:
            self.failures.append(outcome.message)
        return seconds, cpu, outcome

    def one_pass(self, ops, tracer=None):
        """Every operation once; returns a per-pass record."""
        record = {"seconds": 0.0, "cpu": 0.0, "norm": 0.0, "cpu_norm": 0.0,
                  "reference": [], "snr": [], "ops": {}}
        first = len(self.op_ids)
        before = self.reference.seconds()
        for op in ops:
            seconds, cpu, outcome = self.run(op, tracer)
            after = self.reference.seconds()
            # the machine's speed over the operation: the kernel on both sides
            reference, before = (before + after) / 2, after
            record["seconds"] += seconds
            record["cpu"] += cpu
            record["norm"] += seconds / reference
            record["cpu_norm"] += cpu / reference
            record["reference"].append(reference)
            record["ops"][op.label] = seconds
            if outcome is not None:
                record["snr"].append(outcome.snr_db)
        record["op_ids"] = self.op_ids[first:]
        return record


def environment() -> str:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{k}={os.environ.get(k, 'unset')}"
                       for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"))
    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} blas={blas.get('name')}-{blas.get('version')} "
            f"nproc={len(os.sched_getaffinity(0))} {threads}")


def _process_seconds(argv) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def measure_setup(workload, seed, workdir):
    """Set-up time of fresh processes: (median seconds, median normalized).

    Each set-up process imports tvdeblur, builds the scenes, runs
    ``simulate`` and writes the input file. It is followed by a reference
    process that only imports NumPy and ``scipy.fft``; the normalized figure
    is the median of set-up over reference time, times
    NOMINAL_REFERENCE_PROCESS_S, so seconds at a fixed machine speed.
    """
    seconds, normalized = [], []
    for k in range(SETUP_SAMPLES):
        seconds.append(_process_seconds([sys.executable, str(HERE / "workloads.py"),
                                         workload, str(seed), str(workdir / f"setup{k}")]))
        reference = _process_seconds(REFERENCE_PROCESS)
        normalized.append(seconds[-1] / reference * NOMINAL_REFERENCE_PROCESS_S)
    return statistics.median(seconds), statistics.median(normalized)


def traced_pass(runner, ops, tracer):
    layers.instrument(tracer)
    try:
        return runner.one_pass(ops, tracer)
    finally:
        tracer.unpatch()


def timed_passes(runner, ops, deadline, tracer=None):
    """Passes until the next one would end after ``deadline`` (at least MIN_PASSES).

    With a tracer, every other pass is traced. Returns the untraced and the
    traced pass records.
    """
    untraced, traced = [], []
    durations = []
    while True:
        done = len(untraced) + len(traced)
        if done >= MIN_PASSES * (2 if tracer else 1):
            estimate = statistics.median(durations)
            if time.perf_counter() + estimate > deadline:
                break
        t0 = time.perf_counter()
        if tracer is not None and done % 2 == 1:
            traced.append(traced_pass(runner, ops, tracer))
        else:
            untraced.append(runner.one_pass(ops))
        durations.append(time.perf_counter() - t0)
    return untraced, traced


def med(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tvdeblur" / "__init__.py").is_file():
        print(f"error: no tvdeblur sources under {SRC}", file=sys.stderr)
        return 2
    reference = workloads.load_reference(args.workload)
    if reference is None:
        print("error: no reference SNRs for this workload", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, reference, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, reference, workdir) -> int:
    workload = workloads.build(args.workload, args.seed, workdir, reference)
    # this process's own set-up; the set-up measurement after the passes
    # (SETUP_SAMPLES set-up and reference processes) is reserved time for it
    reserve = 0.0 if args.trace else SETUP_RESERVE * (time.perf_counter() - START)
    sweep = args.workload == "sweep-cli"
    runner = Runner("cli.main" if sweep else "restore")
    ops = workload.operations()
    print(f"tvdeblur benchmark: workload={args.workload} seed={args.seed} "
          f"(noise realization {workload.realization}) seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"env: {environment()}")
    tracer = tracing.Tracer() if args.trace else None
    serial = None
    if args.trace and sweep:
        # the serial sweep whose cell times give the parallel efficiency
        serial = traced_pass(runner, workload.operations(jobs=1, tag="serial"), tracer)
    untraced, traced = timed_passes(runner, ops, START + args.seconds - TAIL_S - reserve,
                                    tracer=tracer)
    print("untraced passes: " + " ".join(f"{r['seconds']:.3f}" for r in untraced) + " s")
    if traced:
        print("traced passes: " + " ".join(f"{r['seconds']:.3f}" for r in traced) + " s")
    timings = {
        "pass_s": (med([r["seconds"] for r in untraced]), "s"),
        "cpu_s": (med([r["cpu"] for r in untraced]), "s"),
        "reference_kernel_s": (med([t for r in untraced for t in r["reference"]]), "s"),
    }
    for mode in workloads.MODES:
        timings[f"solve_s.{mode}"] = (
            0.0 if sweep else med([r["ops"][mode] for r in untraced if mode in r["ops"]]), "s")
    timings["sweep_s"] = (timings["pass_s"][0] if sweep else 0.0, "s")
    if not args.trace:
        # read before the set-up processes, which are not the workload's
        usage = sum(resource.getrusage(w).ru_maxrss for w in RESOURCE)
        setup_wall, setup = measure_setup(args.workload, args.seed, workdir)
        timings["setup_wall_s"] = (setup_wall, "s")
        metrics = {
            "pass_norm": (med([r["norm"] for r in untraced]), "ref"),
            "cpu_norm": (med([r["cpu_norm"] for r in untraced]), "ref"),
            "snr_db": (med([min(r["snr"]) for r in untraced if r["snr"]]), "dB"),
            "peak_rss_mb": (usage / 1024.0, "MB"),
            "setup_s": (setup, "s"),
        }
        for name, (value, unit) in timings.items():
            if value:
                print(f"  {name:<40} {value:14.6f} {unit}")
    else:
        selfs = tracing.self_times(tracer.spans)
        metrics = traced_metrics(traced, tracer, selfs, serial)
        overhead = med([r["norm"] for r in traced]) / med([r["norm"] for r in untraced]) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "fraction")
        metrics.update(timings)
        print(f"{len(tracer.spans)} spans")
        for line in _reasons(args.workload, metrics, tracer, selfs, traced, ops):
            print(f"reason: {line}")

    failed = len(runner.failures)
    for message in runner.failures[:10]:
        print(f"FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:14.6f} {unit}")
    print(f"  {'error_rate':<40} {failed / runner.attempted:14.6f} fraction")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced_metrics(traced, tracer, selfs, serial) -> dict:
    """Per-layer metrics: medians over the traced passes."""
    spans = tracer.spans
    per_pass = [layers.pass_metrics(spans, selfs, tracer.extra, r["op_ids"]) for r in traced]
    metrics = {key: (med([p[key] for p in per_pass]), _unit(key)) for key in per_pass[0]}
    efficiency = 0.0
    if serial is not None:
        # the serial sweep's summed cell time over jobs x the parallel wall time
        cells = layers.pass_metrics(spans, selfs, tracer.extra, serial["op_ids"])
        efficiency = cells["harness.restore.dur_s"] / (
            workloads.SWEEP_JOBS * metrics["harness.sweep.wall_s"][0])
    metrics["harness.sweep.parallel_efficiency"] = (efficiency, "fraction")
    for helper in ("harness.sweep.wall_s", "harness.restore.dur_s"):
        del metrics[helper]
    return metrics


def _unit(key: str) -> str:
    parts = key.split(".")
    if "gflop" in parts:
        return "Gflop"
    if "s" in parts or any(p.endswith("_s") for p in parts):
        return "s"
    if key.endswith("min_modulus"):
        return "1"
    return "count"


def _reasons(workload, metrics, tracer, selfs, traced, ops):
    """Whether the traced passes show the layer each case was chosen for."""
    if workload == "sweep-cli":
        return [f"parallel efficiency {metrics['harness.sweep.parallel_efficiency'][0]:.3f}, "
                f"re-solves {metrics['cli.sweep.resolves'][0]:g} (want 3)"]

    def shares(labels):
        op_ids = [i for r in traced for i, op in zip(r["op_ids"], ops) if op.label in labels]
        m = layers.pass_metrics(tracer.spans, selfs, tracer.extra, op_ids)
        return {key: value / m["trace.pass_s"] for key, value in m.items()}

    stencil = "operators.apply_stencil.self_s"
    if workload == "wide-kernel":
        wide = shares({op.label for op in ops})
        return [f"wide kernel: apply_stencil self {wide[stencil]:.1%} of restore time "
                "(want >= 50%)"]
    narrow = shares({op.label for op in ops} - {"zero"})
    rest = sum(narrow[k] for k in ("transforms.solve_system.self_s", "solver.shrink.self_s",
                                   "operators.gradient.self_s", "operators.divergence.self_s"))
    zero = shares({"zero"})
    return [f"narrow kernel: solve_system+shrink+gradient+divergence self {rest:.1%} vs "
            f"apply_stencil self {narrow[stencil]:.1%} of restore time (want more)",
            f"zero: stencil in CG + validation "
            f"{zero[stencil + '.in_cg'] + zero['grid.validation.self_s']:.1%} of restore time "
            "(want >= 80%)"]


if __name__ == "__main__":
    sys.exit(main())

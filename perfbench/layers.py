"""Which tvdeblur names are traced, and the per-layer metrics of a pass.

Each patched name is the module-level name a caller looks up, so a call is
traced where it crosses into a layer: ``tvdeblur.energy.apply_blur`` is the
blur the objective evaluation makes, ``tvdeblur.transforms.apply_stencil``
the antireflective frame load (and the reflective planner's impulse
responses). ``dense`` and ``oracle`` are verification code and stay
untraced.
"""

from __future__ import annotations

import importlib
import statistics

from tracing import END, NAME, OP, PARENT, START, ancestors

STENCIL = "operators.apply_stencil"
STENCIL_PARTS = ("in_energy", "in_frame_load", "in_cg")
VALIDATION = ("grid.as_image", "grid.GradientField", "grid.Psf")
SELF_TIMED = ("operators.gradient", "operators.divergence", "operators.extend_crop",
              "transforms.solve_system", "solver.shrink", "energy.energy",
              "solver.solve")
FILE_OPS = ("fileio.read_image", "fileio.write_image", "fileio.atomic_write_text")


def instrument(tracer) -> None:
    # by module path: the package re-exports the function ``energy`` under
    # the name of its module
    cli, energy, fileio, grid, harness, operators, solver, transforms = (
        importlib.import_module(f"tvdeblur.{name}")
        for name in ("cli", "energy", "fileio", "grid", "harness", "operators", "solver",
                     "transforms"))

    def stencil_flop(args, _result):
        u, weights = args[0], args[1]
        return 2.0 * weights.size * u.size

    def solve_counts(_args, result):
        trace = result[1]
        return (trace.total_inner_iterations, len(trace.violations))

    def plan_numerics(_args, plan):
        return (plan.min_modulus, plan.clamp_count)

    def sweep_cells(_args, result):
        return (len(result.rows), sum(1 for r in result.rows if r.failed))

    for module in (solver, energy, operators, harness, fileio):
        tracer.patch(module, "as_image", "grid.as_image")
    tracer.patch(grid.GradientField, "__post_init__", "grid.GradientField")
    tracer.patch(grid.Psf, "__post_init__", "grid.Psf")
    for module in (operators, transforms):
        tracer.patch(module, "apply_stencil", STENCIL, stencil_flop)
    for module in (energy, transforms):
        tracer.patch(module, "apply_blur", "operators.apply_blur")
    for module in (solver, transforms):
        tracer.patch(module, "apply_correlation", "operators.apply_correlation")
    for module in (solver, energy, transforms):
        tracer.patch(module, "gradient", "operators.gradient")
    for module, name in ((solver, "adjoint_gradient"), (solver, "transpose_adjoint_gradient"),
                         (transforms, "transpose_adjoint_gradient")):
        tracer.patch(module, name, "operators.divergence")
    for name in ("extend", "crop"):
        tracer.patch(solver, name, "operators.extend_crop")
    tracer.patch(solver, "shrink", "solver.shrink")
    tracer.patch(solver, "energy", "energy.energy")
    tracer.patch(solver, "solve_system", "transforms.solve_system")
    tracer.patch(transforms.SystemPlanner, "__init__", "transforms.planner")
    tracer.patch(transforms.SystemPlanner, "plan", "transforms.planner", plan_numerics)
    for module in (solver, harness):
        tracer.patch(module, "solve", "solver.solve", solve_counts)
    tracer.patch(harness, "restore", "harness.restore")
    tracer.patch(cli, "sweep", "harness.sweep", sweep_cells)
    tracer.patch(cli, "simulate", "cli.sweep.resimulate")
    tracer.patch(cli, "restore", "cli.sweep.resolve")
    for name in FILE_OPS:
        tracer.patch(fileio, name.split(".")[1], name)


def _stencil_part(spans, index):
    """Which caller an apply_stencil span serves, or None."""
    if spans[spans[index][PARENT]][NAME] == "transforms.solve_system":
        return "in_frame_load"
    for name in ancestors(spans, index):
        if name == "energy.energy":
            return "in_energy"
        if name == "transforms.solve_system":
            return "in_cg"
    return None


def pass_metrics(spans, selfs, extra, ops) -> dict:
    """Per-layer metrics of the spans of one pass (the operations ``ops``)."""
    ops = set(ops)
    m = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    matvecs = {}
    for span in spans:
        if span[OP] in ops and span[NAME] == "operators.apply_blur":
            matvecs[span[PARENT]] = matvecs.get(span[PARENT], 0) + 1
    cg_iters, moduli = [], []
    for index, span in enumerate(spans):
        if span[OP] not in ops:
            continue
        name, duration = span[NAME], span[END] - span[START]
        add(f"{name}.self_s", selfs[index])
        add(f"{name}.calls", 1)
        add(f"{name}.dur_s", duration)
        if span[PARENT] < 0:
            add("trace.pass_s", duration)
        if name == STENCIL:
            add(f"{name}.gflop", extra[index] / 1e9)
            part = _stencil_part(spans, index)
            if part:
                add(f"{name}.self_s.{part}", selfs[index])
                add(f"{name}.calls.{part}", 1)
                add(f"{name}.gflop.{part}", extra[index] / 1e9)
        elif name == "transforms.solve_system" and index in matvecs:
            cg_iters.append(matvecs[index])
        elif name == "transforms.planner" and index in extra:
            modulus, clamps = extra[index]
            if modulus is not None:
                moduli.append(modulus)
            add("transforms.clamp_count", clamps)
        elif name == "solver.solve":
            iters, flags = extra[index]
            add("solver.inner_iters", iters)
            add("solver.monotonicity_flags", flags)
        elif name == "harness.sweep":
            cells, failed = extra[index]
            add("harness.sweep.cells", cells)
            add("harness.sweep.failed_cells", failed)
    out = {}
    for suffix in ("self_s", "calls", "gflop"):
        out[f"{STENCIL}.{suffix}"] = m.get(f"{STENCIL}.{suffix}", 0.0)
        for part in STENCIL_PARTS:
            out[f"{STENCIL}.{suffix}.{part}"] = m.get(f"{STENCIL}.{suffix}.{part}", 0.0)
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = m.get(f"{name}.self_s", 0.0)
    out["transforms.planner.build_s"] = m.get("transforms.planner.dur_s", 0.0)
    out["transforms.cg_iters.p50"] = statistics.median(cg_iters) if cg_iters else 0.0
    out["transforms.cg_iters.max"] = max(cg_iters, default=0.0)
    out["transforms.min_modulus"] = min(moduli, default=0.0)
    for key in ("transforms.clamp_count", "solver.inner_iters", "solver.monotonicity_flags",
                "harness.sweep.cells", "harness.sweep.failed_cells", "trace.pass_s"):
        out[key] = m.get(key, 0.0)
    out["grid.as_image.calls"] = m.get("grid.as_image.calls", 0.0)
    out["grid.GradientField.calls"] = m.get("grid.GradientField.calls", 0.0)
    out["grid.validation.self_s"] = sum(m.get(f"{n}.self_s", 0.0) for n in VALIDATION)
    out["cli.sweep.resolves"] = m.get("cli.sweep.resolve.calls", 0.0)
    out["cli.sweep.resolve_s"] = (m.get("cli.sweep.resolve.dur_s", 0.0)
                                  + m.get("cli.sweep.resimulate.dur_s", 0.0))
    for name in FILE_OPS:
        out[f"{name}.s"] = m.get(f"{name}.dur_s", 0.0)
    out["harness.sweep.wall_s"] = m.get("harness.sweep.dur_s", 0.0)
    out["harness.restore.dur_s"] = m.get("harness.restore.dur_s", 0.0)
    return out

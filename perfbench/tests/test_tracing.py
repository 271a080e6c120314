"""Self-time accounting of the benchmark's spans.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layers  # noqa: E402
import tracing  # noqa: E402
import tvdeblur as tv  # noqa: E402

# Largest share of a restore's wall time left as the root span's own time.
ROOT_SELF_SHARE = 0.1


def test_self_time_subtracts_the_union_of_children():
    spans = [["root", 0.0, 10.0, -1, 0],
             ["a", 1.0, 4.0, 0, 0],
             ["b", 5.0, 9.0, 0, 0],
             ["c", 2.0, 3.0, 1, 0]]
    assert tracing.self_times(spans) == [3.0, 2.0, 4.0, 1.0]


@pytest.mark.parametrize("mode", ["periodic", "antireflective", "zero",
                                  "enlarge:reflective:6"])
def test_self_times_of_a_restore_sum_to_its_wall_time(mode):
    psf = tv.gaussian_psf(4, 1.0) if mode != "enlarge:reflective:6" else tv.diagonal_motion_psf(5)
    truth = tv.builtin_truth("cartoon", 24 + 2 * (psf.rows - 1), 24 + 2 * (psf.cols - 1))
    observed, _ = tv.simulate(truth, psf, 1e-4, 0)
    params = tv.SolveParams(alpha=500.0, beta_ladder=(2.0, 8.0), inner_max=3)
    tracer = tracing.Tracer()
    layers.instrument(tracer)
    try:
        for _ in range(2):
            with tracer.operation("restore"):
                tv.restore(observed, psf, mode, params)
    finally:
        tracer.unpatch()
    selfs = tracing.self_times(tracer.spans)
    roots = [i for i, s in enumerate(tracer.spans) if s[tracing.PARENT] < 0]
    assert len(roots) == 2
    assert len(tracer.spans) > 20
    for root in roots:
        span = tracer.spans[root]
        wall = span[tracing.END] - span[tracing.START]
        total = sum(t for t, s in zip(selfs, tracer.spans) if s[tracing.OP] == span[tracing.OP])
        assert total == pytest.approx(wall, rel=0.01)
        # the wrapped layers cover the solve: little is left to the root
        assert selfs[root] < ROOT_SELF_SHARE * wall
    assert min(selfs) >= -1e-9
    for span in tracer.spans:
        if span[tracing.PARENT] >= 0:
            parent = tracer.spans[span[tracing.PARENT]]
            assert parent[tracing.OP] == span[tracing.OP]
            assert parent[tracing.START] <= span[tracing.START] <= span[tracing.END]
            assert span[tracing.END] <= parent[tracing.END]


def test_unpatch_restores_every_name():
    modules = [importlib.import_module(f"tvdeblur.{n}")
               for n in ("solver", "energy", "operators", "transforms", "harness", "cli")]
    before = [dict(vars(m)) for m in modules]
    init = tv.grid.GradientField.__post_init__
    tracer = tracing.Tracer()
    layers.instrument(tracer)
    assert importlib.import_module("tvdeblur.solver").shrink is not before[0]["shrink"]
    tracer.unpatch()
    assert [dict(vars(m)) for m in modules] == before
    assert tv.grid.GradientField.__post_init__ is init

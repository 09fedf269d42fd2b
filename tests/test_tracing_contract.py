"""The benchmark's tracer (perfbench/tracing.py) must keep working on strmv.

The tracer wraps module attributes by name and reads a few fields of their
arguments and results, such as ``solve``'s fourth positional parameter and
``ProjectionDiagnostics.bisection_iters``/``fallback_used``. A refactor that
renames any of them breaks ``perfbench/run.py --trace 1``; this test makes
that break show up in the unit suite. The tracer file is only read.
"""

import importlib.util
from pathlib import Path

import numpy as np

import strmv
import strmv.cli  # noqa: F401 - the full tracer level wraps strmv.cli.main
from strmv.panel import SyntheticSpec, center_and_factor
from strmv.projection import FeasibleSet
from strmv.solver import SolverConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_trace_of_projection_and_solve(monkeypatch):
    tracing = load_tracing()
    points = []  # per face solve that solve tries, whether it returned a point
    original_face_solve = strmv.solver.face_solve

    def recorded_face_solve(*args):
        x = original_face_solve(*args)
        points.append(x is not None)
        return x

    monkeypatch.setattr(strmv.solver, "face_solve", recorded_face_solve)
    original_solve = strmv.solver.solve
    tracer = tracing.Tracer(strmv)
    tracer.install("op", full=True)
    try:
        factor = center_and_factor(strmv.panel.generate_synthetic(
            SyntheticSpec(n=6, T=24, singular_decay=0.8, seed=0)))
        model = strmv.models.build_baseline(factor)
        mu = factor.mean
        fs = FeasibleSet(mu=mu, R_target=float(np.quantile(mu, 0.9)))
        _, diag = strmv.solver.project_feasible(np.full(6, 1.0 / 6), fs)
        # cfg goes fourth and positional: the tracer reads it from there.
        result = strmv.solver.solve(model, fs, None, SolverConfig(tol=1e-8))
    finally:
        tracer.uninstall()
    assert strmv.solver.solve is original_solve
    assert diag.constraint_active
    rec = tracing.layer_record(tracer, tracer.by_op()["op"], tracer.child_time())
    assert rec["projection.calls"] > 0
    assert rec["projection.simplex_calls"] >= rec["projection.calls"]
    assert rec["projection.active_share"] > 0
    assert rec["projection.fallback_calls"] == 0
    assert rec["solver.iterations"] == result.iterations > 0
    # One gradient per iterate, and one per face-solve point, for its residual test.
    assert len(points) == result.face_solves
    assert rec["solver.gradient_calls"] == result.iterations + 1 + sum(points)
    # The baseline carries the factor's spectrum: its curvature is one read of
    # the stored extremes, the one call that solver.curvature_s times.
    assert [span[tracing.NAME] for span in tracer.spans].count("solver.curvature") == 1
    assert rec["solver.curvature_s"] > 0

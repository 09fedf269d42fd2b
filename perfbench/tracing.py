"""Spans around calls into strmv's layers, recorded from outside the package.

A ``Tracer`` replaces module attributes such as ``strmv.solver.gradient`` with
wrappers that append one span per call: name, start, end, parent span and the
op it belongs to, plus a few attributes read from the call's arguments and
result. Callers inside strmv look these names up in their module globals at
call time, so the wrappers see every call. ``uninstall`` puts the original
functions back.

Two levels exist. The coarse level wraps only the top-level build and solve
calls, which is what an untraced op needs for ``build_s`` and ``solve_s``. The
full level adds every layer below them.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

# Span record layout: [name, start, end, parent index, op id, attrs].
NAME, START, END, PARENT, OP, ATTRS = range(6)


def _build_attrs(args, kwargs, model):
    return {"ell": model.provenance.get("ell")}


def _solve_attrs(args, kwargs, result):
    model = args[0]
    cfg = kwargs.get("cfg") if "cfg" in kwargs else (args[3] if len(args) > 3 else None)
    stride = cfg.residual_check_stride if cfg is not None else 1
    sketch = model.provenance.get("sketch")
    label = model.kind + (f"/{sketch['kind']}" if sketch else "")
    return {
        "model": label,
        "columns": model.columns,
        "iterations": result.iterations,
        "stride": stride,
    }


def _gradient_attrs(args, kwargs, g):
    model = args[0]
    return 4 * model.n * model.columns  # computed flops of the two matvecs


def _project_attrs(args, kwargs, out):
    diag = out[1]
    return (diag.constraint_active, diag.bisection_iters, diag.fallback_used)


def _sketch_attrs(args, kwargs, sk):
    return {"kind": sk.config.kind, "apply_ops": sk.apply_ops}


def _svd_attrs(args, kwargs, svd):
    return {"computed": min(args[0].shape)}


def _save_attrs(args, kwargs, _):
    import os

    return os.path.getsize(args[1])


def _coarse_targets(strmv):
    models, solver = strmv.models, strmv.solver
    return [
        (models, "build_baseline", "models.build", _build_attrs),
        (models, "build_sketch", "models.build", _build_attrs),
        (models, "build_str", "models.build", _build_attrs),
        (solver, "solve", "solver.solve", _solve_attrs),
    ]


def _full_targets(strmv):
    panel, models, solver = strmv.panel, strmv.models, strmv.solver
    return _coarse_targets(strmv) + [
        (panel, "generate_synthetic", "panel.generate", None),
        (panel, "save_panel", "panel.save", _save_attrs),
        (panel, "load_panel", "panel.load", None),
        (panel, "center_and_factor", "panel.center", None),
        (models, "apply_sketch", "sketch.apply", _sketch_attrs),
        (models, "thin_svd", "spectrum.svd", _svd_attrs),
        (solver, "gradient", "solver.gradient", _gradient_attrs),
        (solver, "estimate_spectral_norm", "solver.curvature", None),
        (solver, "project_feasible", "projection.project", _project_attrs),
        (strmv.projection, "project_simplex", "projection.simplex", None),
        (strmv.metrics, "relative_spectral_error", "metrics.spectral_error", None),
        (strmv.cli, "main", "cli.main", None),
    ]


class Tracer:
    """Keeps spans in memory; one instance per benchmark run."""

    def __init__(self, strmv):
        self._strmv = strmv
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self.op = None

    def install(self, op, full: bool) -> None:
        """Wrap the layer functions; spans recorded from now on carry ``op``."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        self.op = op
        targets = _full_targets(self._strmv) if full else _coarse_targets(self._strmv)
        for module, attr, name, probe in targets:
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, probe))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, fn, name, probe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if probe is not None:
                span[ATTRS] = probe(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def by_op(self) -> dict:
        """op id -> list of span indices, in recording order."""
        groups = defaultdict(list)
        for i, span in enumerate(self.spans):
            groups[span[OP]].append(i)
        return groups

    def child_time(self) -> list[float]:
        """Per span, the summed duration of its direct children."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        return covered


def op_totals(spans: list[list]) -> tuple[float, float]:
    """Summed wall time of the build and of the solve calls among ``spans``."""
    build = solve = 0.0
    for span in spans:
        if span[NAME] == "models.build":
            build += span[END] - span[START]
        elif span[NAME] == "solver.solve":
            solve += span[END] - span[START]
    return build, solve


def layer_record(tracer: Tracer, indices: list[int], covered: list[float]) -> dict:
    """Per-layer times and counts of one op (or one set-up), from its spans."""
    spans = tracer.spans
    t = defaultdict(float)  # inclusive time per name
    self_t = defaultdict(float)
    n = defaultdict(int)
    rec: dict = defaultdict(float, {k: 0.0 for k in (
        "solver.gradient_flops", "projection.bisection_iters", "projection.fallback_calls",
        "solver.iterations", "solver.residual_checks", "models.columns", "models.ell",
        "sketch.apply_ops", "sketch.apply_s.gaussian_jl", "sketch.apply_s.countsketch",
        "panel.csv_mb", "projection.active", "spectrum.computed")})
    grad_by_model: dict = defaultdict(lambda: [0.0, 0])
    for i in indices:
        name, start, end, parent, _, attrs = spans[i]
        dur = end - start
        t[name] += dur
        self_t[name] += dur - covered[i]
        n[name] += 1
        if name == "solver.gradient":
            rec["solver.gradient_flops"] += attrs
            owner = spans[parent][ATTRS] if parent >= 0 else None
            label = owner["model"] if owner else "?"
            grad_by_model[label][0] += dur
            grad_by_model[label][1] += 1
        elif name == "projection.project":
            active, bisections, fallback = attrs
            rec["projection.active"] += active
            rec["projection.bisection_iters"] += bisections
            rec["projection.fallback_calls"] += fallback
        elif name == "solver.solve":
            rec["solver.iterations"] += attrs["iterations"]
            rec["solver.residual_checks"] += 1 + attrs["iterations"] // attrs["stride"]
            rec["models.columns"] += attrs["columns"]
        elif name == "sketch.apply":
            rec[f"sketch.apply_s.{attrs['kind']}"] += dur
            rec["sketch.apply_ops"] += attrs["apply_ops"]
        elif name == "spectrum.svd":
            rec["spectrum.computed"] += attrs["computed"]
        elif name == "models.build" and attrs["ell"] is not None:
            rec["models.ell"] += attrs["ell"]
        elif name == "panel.save":
            rec["panel.csv_mb"] += attrs / 1e6

    calls = n["projection.project"]
    rec.update({
        "panel.generate_s": self_t["panel.generate"],
        "panel.save_s": self_t["panel.save"],
        "panel.load_s": self_t["panel.load"],
        "panel.center_s": self_t["panel.center"],
        "spectrum.svd_s": t["spectrum.svd"],
        "spectrum.kept_ratio": (rec["models.ell"] / rec["spectrum.computed"]
                                if rec["spectrum.computed"] else 0.0),
        "models.build_self_s": self_t["models.build"],
        "solver.gradient_calls": n["solver.gradient"],
        "solver.gradient_s": t["solver.gradient"],
        "solver.gradient_us": (1e6 * t["solver.gradient"] / n["solver.gradient"]
                               if n["solver.gradient"] else 0.0),
        "solver.curvature_s": t["solver.curvature"],
        "solver.solve_self_s": self_t["solver.solve"],
        "projection.calls": calls,
        "projection.s": t["projection.project"],
        "projection.simplex_calls": n["projection.simplex"],
        "projection.simplex_s": t["projection.simplex"],
        "projection.simplex_per_call": n["projection.simplex"] / calls if calls else 0.0,
        "projection.active_share": rec.pop("projection.active") / calls if calls else 0.0,
        "metrics.spectral_error_s": t["metrics.spectral_error"],
        "cli.self_s": self_t["cli.main"],
        "tracing.spans": len(indices),
    })
    for label, (secs, count) in grad_by_model.items():
        rec[f"solver.gradient_us[{label}]"] = 1e6 * secs / count
    del rec["spectrum.computed"]
    return dict(rec)


def median_records(records: list[dict]) -> dict:
    """Median of each key over the records that carry it."""
    keys = {k for r in records for k in r}
    return {k: statistics.median(r[k] for r in records if k in r) for k in sorted(keys)}

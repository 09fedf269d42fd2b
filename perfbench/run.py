"""strmv benchmark runner.

    python3 perfbench/run.py --workload desk_target --seed 0 --seconds 17 --trace 0

Runs one workload in this process as a closed loop: one client, one op in
flight. It sets up the workload several times (``setup_s`` is the median),
runs one warm-up op whose time is discarded, then runs ops until
``--seconds`` have passed. Every op's outputs are checked; an op that raises
or fails a check counts as failed and the run goes on. Human-readable report
lines come first; the last line of standard output is one JSON object.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates traced
and untraced ops and reports the per-layer metrics from the traced ones, plus
the tracing overhead (traced minus untraced op time). Spans are written to
``.perfbench/`` at exit.

``--workload all`` runs every workload, each in its own process.
The program is imported from ``src/`` next to this directory; without it the
runner exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import Tracer, layer_record, median_records, op_totals

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("desk_target", "csv_cli", "minvar_wide")

#: End-to-end metrics in the --trace 0 JSON line (name, unit). The report
#: lines also carry op_s.tail, build_s, solve_s, full_model_gap,
#: rel_spectral_error and failed_ops; perfbench/README.md says why they stay
#: out of this line.
END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB"))

#: Per-layer metrics in the --trace 1 JSON line: every one is measured on
#: every workload. Times of layers that only some workloads reach are
#: printed on the report lines (see LAYER_ONLY).
PER_LAYER = (
    ("panel.generate_s", "s"), ("panel.center_s", "s"), ("panel.csv_mb", "MB"),
    ("sketch.apply_s.gaussian_jl", "s"), ("sketch.apply_ops", "count"),
    ("spectrum.svd_s", "s"), ("spectrum.kept_ratio", "ratio"),
    ("models.build_self_s", "s"), ("models.ell", "count"), ("models.columns", "count"),
    ("solver.iterations", "count"), ("solver.gradient_calls", "count"),
    ("solver.gradient_s", "s"), ("solver.gradient_us", "us"),
    ("solver.gradient_flops", "flop"), ("solver.curvature_s", "s"),
    ("solver.residual_checks", "count"), ("solver.solve_self_s", "s"),
    ("projection.calls", "count"), ("projection.s", "s"),
    ("projection.simplex_calls", "count"), ("projection.simplex_s", "s"),
    ("projection.simplex_per_call", "ratio"), ("projection.active_share", "ratio"),
    ("projection.bisection_iters", "count"), ("projection.fallback_calls", "count"),
    ("tracing.overhead_s", "s"),
)
LAYER_ONLY = (
    ("panel.save_s", "s"), ("panel.load_s", "s"), ("sketch.apply_s.countsketch", "s"),
    ("metrics.spectral_error_s", "s"), ("cli.self_s", "s"), ("tracing.spans", "count"),
)

#: Counts that must repeat exactly between traced ops of one seed.
EXACT_COUNTS = (
    "solver.iterations", "solver.gradient_calls", "projection.calls",
    "projection.simplex_calls", "solver.residual_checks", "sketch.apply_ops", "models.ell",
)


def environment() -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "simd": ",".join(config["SIMD Extensions"]["found"]),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). Below twenty samples that
    percentile would not lie above the median, so the maximum (p100, none
    beyond) is returned instead.
    """
    ordered = sorted(values)
    if len(ordered) < 20:
        return ordered[-1], 100.0, 0
    k = len(ordered) - 11  # ten samples lie above index k
    return ordered[k], 100.0 * (k + 1) / len(ordered), 10


class Run:
    def __init__(self, args, strmv, workload, failures_counted):
        self.args = args
        self.wl = workload
        self.tracer = Tracer(strmv)
        self.failures_counted = failures_counted  # raised by a failing op, no traceback
        self.ops: list[dict] = []
        self.setup_s: list[float] = []
        self.records: dict = {}
        self.quality: dict = {}
        self.problems: list[str] = []

    def _setup(self, k: int):
        self.tracer.install(f"setup{k}", full=bool(self.args.trace))
        try:
            t0 = perf_counter()
            state = self.wl.setup(self.args.seed, self.args.scale)
            self.setup_s.append(perf_counter() - t0)
        finally:
            self.tracer.uninstall()
        return state

    def _op(self, state, index: int, traced: bool, measured: bool, infeasible=False) -> None:
        rec = {"index": index, "traced": traced, "measured": measured, "ok": False}
        mark = len(self.tracer.spans)
        self.tracer.install(index, full=traced)
        t0 = perf_counter()
        try:
            out = self.wl.op(state, infeasible=infeasible)
            rec.update(ok=True, digest=out.digest, output=out)
        except Exception as exc:  # noqa: BLE001 - any failure is counted, the run goes on
            rec["error"] = f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, self.failures_counted):
                traceback.print_exc(file=sys.stderr)
        finally:
            rec["seconds"] = perf_counter() - t0
            self.tracer.uninstall()
        rec["build_s"], rec["solve_s"] = op_totals(self.tracer.spans[mark:])
        if not traced:
            del self.tracer.spans[mark:]  # only needed for build_s and solve_s
        self.ops.append(rec)

    def execute(self, setup_repeats: int) -> None:
        state = None
        for k in range(setup_repeats):
            state = None  # free the previous set-up before building the next
            state = self._setup(k)
        trace = bool(self.args.trace)
        self._op(state, 0, traced=trace, measured=False)  # warm-up
        index = 1
        if self.args.inject_failure:
            self._op(state, index, traced=False, measured=False, infeasible=True)
            index += 1
        first_measured = index
        start = perf_counter()
        while True:
            # A traced run alternates traced and untraced ops, starting traced,
            # and always measures at least one of each.
            traced = trace and (index - first_measured) % 2 == 0
            self._op(state, index, traced=traced, measured=True)
            index += 1
            done = perf_counter() - start >= self.args.seconds
            if done and (not trace or index - first_measured >= 2):
                break
        covered = self.tracer.child_time()
        self.records = {op: layer_record(self.tracer, idx, covered)
                        for op, idx in self.tracer.by_op().items()}
        first = next((op for op in self.ops if op["ok"]), None)
        if first is not None and not trace:
            try:
                self.quality = self.wl.quality(state, first["output"])
            except self.failures_counted as exc:
                self.problems.append(f"quality evaluation: {type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    # Checks and metrics

    def failures(self) -> list[str]:
        """Failed ops, plus outputs or exact counts that differ from the first op.

        Marks each such op as not ok, so it counts as failed.
        """
        problems = list(self.problems)
        first = self.ops[0]
        for op in self.ops:
            if not op["ok"]:
                problems.append(f"op {op['index']}: {op['error']}")
            elif first["ok"] and op["digest"] != first["digest"]:
                op["ok"] = False
                problems.append(f"op {op['index']}: outputs differ from op 0")
        traced = [op for op in self.ops if op["traced"] and op["ok"]]
        counts = [{k: self.records[op["index"]][k] for k in EXACT_COUNTS} for op in traced]
        for op, c in zip(traced, counts):
            if c != counts[0]:
                op["ok"] = False
                problems.append(f"op {op['index']}: exact counts {c} != {counts[0]}")
        return problems

    def timed_ops(self) -> list[dict]:
        ops = [op for op in self.ops if op["measured"] and op["ok"]]
        return ops or [op for op in self.ops if op["measured"]]

    def end_to_end(self) -> dict:
        ops = [op for op in self.timed_ops() if not op["traced"]]
        secs = [op["seconds"] for op in ops]
        value, pct, beyond = tail(secs)
        failed = sum(not op["ok"] for op in self.ops)
        return {
            "setup_s": (statistics.median(self.setup_s), "s", f"median of {len(self.setup_s)}"),
            "op_s": (statistics.median(secs), "s", f"median of {len(secs)} ops"),
            "op_s.tail": (value, "s", f"p{pct:g}, {beyond} samples beyond, {len(secs)} ops"),
            "build_s": (statistics.median(op["build_s"] for op in ops), "s", "median per op"),
            "solve_s": (statistics.median(op["solve_s"] for op in ops), "s", "median per op"),
            "full_model_gap": (self.quality.get("full_model_gap"), "ratio",
                               "worst reduced model, first op"),
            "rel_spectral_error": (self.quality.get("rel_spectral_error"), "ratio",
                                   "worst STR, first op"),
            "failed_ops": (failed / len(self.ops), "share", f"{failed} of {len(self.ops)} ops"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                            "this process"),
        }

    def per_layer(self) -> dict:
        measured = {op["index"] for op in self.timed_ops() if op["traced"]}
        in_ops = median_records([r for i, r in self.records.items() if i in measured])
        in_setup = median_records([r for i, r in self.records.items()
                                   if str(i).startswith("setup")])
        # A layer that never runs inside an op (panel generation in most
        # workloads) is reported from the set-ups instead.
        values = {k: (v if v or not in_setup.get(k) else in_setup[k]) for k, v in in_ops.items()}
        untraced = [op["seconds"] for op in self.timed_ops() if not op["traced"]]
        traced = [op["seconds"] for op in self.timed_ops() if op["traced"]]
        values["tracing.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        return values

    def write_trace(self) -> Path:
        """Spans as arrays: name code, start, end, parent index, op id."""
        import numpy as np

        spans = self.tracer.spans
        names = sorted({s[0] for s in spans})
        code = {name: i for i, name in enumerate(names)}
        ops = sorted({str(s[4]) for s in spans})
        op_code = {op: i for i, op in enumerate(ops)}
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace_{self.wl.name}_seed{self.args.seed}.npz"
        np.savez_compressed(
            path,
            names=np.array(names), ops=np.array(ops),
            name=np.array([code[s[0]] for s in spans], dtype=np.int16),
            start=np.array([s[1] for s in spans]), end=np.array([s[2] for s in spans]),
            parent=np.array([s[3] for s in spans], dtype=np.int64),
            op=np.array([op_code[str(s[4])] for s in spans], dtype=np.int16),
            op_records=np.array(json.dumps(
                [{k: v for k, v in op.items() if k != "output"} for op in self.ops])),
        )
        return path


def _number(value: float, unit: str):
    """Counts print as integers when they are whole."""
    return int(value) if unit == "count" and float(value).is_integer() else value


def run_one(args) -> int:
    import strmv
    import strmv.cli  # noqa: F401 - the tracer wraps attributes of these modules
    import strmv.metrics  # noqa: F401
    import workloads

    run = Run(args, strmv, workloads.make(args.workload, str(OUT_DIR)),
              failures_counted=(strmv.StrmvError, workloads.CheckFailure))
    run.execute(workloads.SETUP_REPEATS[args.workload] if args.scale == "full" else 2)
    problems = run.failures()
    failed = sum(not op["ok"] for op in run.ops)
    env = environment()
    print(f"# workload {args.workload} seed {args.seed} scale {args.scale} trace {args.trace}: "
          f"{len(run.ops)} ops ({sum(op['measured'] for op in run.ops)} measured), "
          f"{failed} failed")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for problem in problems:
        print(f"# FAILED {problem}")
    print("# op seconds " + " ".join(
        f"{op['index']}:{op['seconds']:.3f}{'' if op['measured'] else '(unmeasured)'}"
        f"{'(traced)' if op['traced'] else ''}{'' if op['ok'] else '(failed)'}"
        for op in run.ops))

    if args.trace:
        values = run.per_layer()
        shown = PER_LAYER + LAYER_ONLY + tuple(
            (k, "us") for k in values if k.startswith("solver.gradient_us["))
        for name, unit in shown:
            print(f"layer {name} {_number(values.get(name, 0.0), unit)!r} {unit}")
        print(f"# spans written to {run.write_trace().relative_to(ROOT)}")
        metrics = {name: {"value": _number(values[name], unit), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values = run.end_to_end()
        for name, (value, unit, note) in values.items():
            shown = "n/a (not used by this workload)" if value is None else repr(value)
            print(f"metric {name} {shown} {unit} ({note})")
        metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": not problems, "attempted": len(run.ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        if args.inject_failure:
            cmd.append("--inject-failure")
        status |= subprocess.run(cmd).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy shapes, for perfbench/selftest.py")
    parser.add_argument("--inject-failure", action="store_true",
                        help="add one op whose return target exceeds max(mu)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "strmv" / "__init__.py").is_file():
        print(f"perfbench: no strmv sources under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # One BLAS thread, pinned before numpy is first imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

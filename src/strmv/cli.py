"""Command-line interface.

Subcommands: synth, spectrum, project, solve, bench {approx,rate,solver,real}.
Exit codes: 0 success, 1 usage error, 2 data error (a file that cannot be
opened, read or written is one), 3 numeric failure.
A reader that closes stdout early (``| head``) cuts the report short; the
command still exits 0, quietly.

numpy is imported lazily so that --threads can pin the BLAS thread count
before any linear algebra library initializes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; the CLI contract says 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _thread_count(text: str) -> int:
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if k < 1:
        raise argparse.ArgumentTypeError(f"needs at least 1 thread, got {k}")
    return k


def _build_parser() -> _Parser:
    parser = _Parser(prog="strmv", description=__doc__.splitlines()[0])
    threads_parent = argparse.ArgumentParser(add_help=False)
    threads_parent.add_argument(
        "--threads", type=_thread_count, default=None, help="pin BLAS/OpenMP thread count"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[threads_parent], **kw)

    p = add_parser("synth", help="write a synthetic panel as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--decay", type=float, default=0.5)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--floor", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add_parser("spectrum", help="spectral report of a panel's factor")
    p.add_argument("--panel", required=True)
    p.add_argument("--out")

    p = add_parser("project", help="project a point onto the feasible set")
    p.add_argument("--v", help="comma-separated point")
    p.add_argument("--mu", help="comma-separated expected returns")
    p.add_argument("--r-target", type=float, required=True)
    p.add_argument("--from-csv", help="CSV with header and columns v,mu")
    p.add_argument("--out")

    p = add_parser("solve", help="single mean-variance solve")
    p.add_argument("--panel", required=True)
    p.add_argument("--model", choices=["baseline", "sketch", "str"], default="str")
    p.add_argument("--sketch", choices=["gaussian_jl", "countsketch"], default="gaussian_jl")
    p.add_argument("--s", type=int, help="sketch width (default: rule-sized)")
    p.add_argument("--kappa-target", type=float, default=1e3)
    p.add_argument("--r-target", type=float)
    p.add_argument("--r-target-percentile", type=float, default=60.0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iters", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--residual-csv", help="write the residual trace as CSV")

    p = add_parser("bench", help="experiment harness")
    p.add_argument("experiment", choices=["approx", "rate", "solver", "real"])
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--out")
    p.add_argument("--csv-out", help="also write the rows as a flat CSV table")
    p.add_argument("--trace-out", help="rate experiment: per-iteration CSV traces")

    return parser


def _emit(payload: dict, out_path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text, flush=True)  # a closed pipe raises here, inside main's handlers


def _parse_vector(text: str):
    import numpy as np

    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError as exc:
        from .errors import ArgumentError

        raise ArgumentError(f"bad vector {text!r}: {exc}") from None


def _cmd_synth(args) -> int:
    from .panel import SyntheticSpec, generate_synthetic, save_panel

    spec = SyntheticSpec(
        n=args.n,
        T=args.T,
        singular_decay=args.decay,
        leading_scale=args.scale,
        noise_floor=args.floor,
        seed=args.seed,
    )
    save_panel(generate_synthetic(spec), args.out)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    from .panel import center_and_factor, load_panel
    from .spectrum import report_from_singular_values, singular_values

    factor = center_and_factor(load_panel(args.panel))
    _emit(report_from_singular_values(singular_values(factor.L)).to_dict(), args.out)
    return EXIT_OK


def _cmd_project(args) -> int:
    import csv as _csv

    from .errors import ArgumentError, DataFormatError
    from .projection import FeasibleSet, project_feasible

    if args.from_csv:
        import numpy as np

        try:
            with open(args.from_csv, newline="") as fh:
                rows = list(_csv.DictReader(fh))
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{args.from_csv}: {exc}") from None
        if not rows or "v" not in rows[0] or "mu" not in rows[0]:
            raise ArgumentError(f"{args.from_csv} needs columns v,mu")
        pairs = []
        for file_row, r in enumerate(rows, start=2):  # 1-based, counting the header
            try:
                pairs.append((float(r["v"]), float(r["mu"])))
            except (TypeError, ValueError):  # a short row reads None
                raise DataFormatError(
                    f"{args.from_csv}: row {file_row} needs numeric v and mu, "
                    f"got {r['v']!r}, {r['mu']!r}"
                ) from None
        v, mu = np.array(pairs).T
    elif args.v and args.mu:
        v = _parse_vector(args.v)
        mu = _parse_vector(args.mu)
    else:
        raise ArgumentError("provide --v and --mu, or --from-csv")
    fs = FeasibleSet(mu=mu, R_target=args.r_target)
    x, diag = project_feasible(v, fs)
    _emit({"x": x.tolist(), "diagnostics": diag.to_dict()}, args.out)
    return EXIT_OK


def _cmd_solve(args) -> int:
    import math

    from .bench import ModelSpec, _model_from_spec, feasible_from_factor, rows_to_csv
    from .errors import ArgumentError
    from .panel import center_and_factor, load_panel
    from .projection import FeasibleSet
    from .solver import SolverConfig, solve

    # Flags are checked before the panel is read, so a bad one is a usage error.
    # A finite target above max(mu) needs the data, so it stays a data error.
    spec = ModelSpec(
        kind=args.model, sketch_kind=args.sketch, s=args.s, kappa_target=args.kappa_target
    )
    scfg = SolverConfig(tol=args.tol, max_iters=args.max_iters)
    if args.r_target is not None and not math.isfinite(args.r_target):
        raise ArgumentError(f"--r-target must be finite, got R_target={args.r_target}")
    if args.r_target is None and not 0.0 <= args.r_target_percentile <= 100.0:
        raise ArgumentError(
            f"r_target_percentile must be in [0, 100], got {args.r_target_percentile}")
    if spec.kind != "baseline" and args.seed < 0:  # a baseline draws nothing
        raise ArgumentError(f"sketch seed must be nonnegative, got {args.seed}")
    factor = center_and_factor(load_panel(args.panel))
    if args.r_target is not None:
        fs = FeasibleSet(mu=factor.mean, R_target=args.r_target)
    else:
        fs = feasible_from_factor(factor, args.r_target_percentile)
    r_target = fs.R_target
    model = _model_from_spec(factor, spec, args.seed)
    result = solve(model, fs, cfg=scfg)
    if result.termination == "max_iters":
        print(
            f"strmv: warning: stopped at max_iters={args.max_iters} with residual "
            f"{result.residual_trace[-1]:.3g} > {args.tol:g}",
            file=sys.stderr,
        )
    payload = result.to_dict()
    payload["model"] = args.model
    payload["r_target"] = r_target
    payload["provenance"] = model.provenance
    sv = model.singular_values
    payload["singular_values"] = sv.tolist() if sv is not None else None
    if args.residual_csv:
        rows_to_csv([{"check": i, "residual": r}
                     for i, r in enumerate(result.residual_trace.tolist())], args.residual_csv)
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    from . import bench

    if args.config:
        cfg = bench.ExperimentConfig.from_json(args.config)
    else:
        cfg = bench.ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.tol is not None:
        cfg.solver = replace(cfg.solver, tol=args.tol)  # validates tol
    runners = {
        "approx": bench.run_approximation_sweep,
        "rate": lambda c: bench.run_rate_experiment(c, trace_path=args.trace_out),
        "solver": bench.run_solver_benchmark,
        "real": bench.run_real_panel,
    }
    report = runners[args.experiment](cfg)
    if args.csv_out:
        bench.rows_to_csv(report.rows, args.csv_out)
    _emit(report.to_dict(), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads is not None:
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)

    from .errors import (
        ArgumentError,
        DataFormatError,
        DimensionError,
        InfeasibleTargetError,
        NumericError,
    )

    handlers = {
        "synth": _cmd_synth,
        "spectrum": _cmd_spectrum,
        "project": _cmd_project,
        "solve": _cmd_solve,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:  # an OSError, so it comes before the data errors
        # The reader is gone. Point stdout's descriptor at devnull so that
        # the interpreter's flush at exit cannot raise a second time.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):  # not a real file
            return EXIT_OK
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_OK
    except ArgumentError as exc:
        print(f"strmv: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, DimensionError, InfeasibleTargetError, OSError) as exc:
        print(f"strmv: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"strmv: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

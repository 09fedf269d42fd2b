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
from dataclasses import asdict, fields, is_dataclass

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
    # A flag that sets a dataclass field passes a value only when given, so the
    # field's declared default is the only one (see _from_flags).
    given = dict(default=argparse.SUPPRESS)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[threads_parent], **kw)

    p = add_parser("synth", help="write a synthetic panel as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--decay", type=float, dest="singular_decay", **given)
    p.add_argument("--scale", type=float, dest="leading_scale", **given)
    p.add_argument("--floor", type=float, dest="noise_floor", **given)
    p.add_argument("--seed", type=int, **given)
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
    p.add_argument("--model", choices=["baseline", "sketch", "str"], dest="kind", **given)
    p.add_argument("--sketch", choices=["gaussian_jl", "countsketch"], dest="sketch_kind", **given)
    p.add_argument("--s", type=int, help="sketch width (default: rule-sized)", **given)
    p.add_argument("--kappa-target", type=float, **given)
    target = p.add_mutually_exclusive_group()
    target.add_argument("--r-target", type=float)
    target.add_argument("--r-target-percentile", type=float, **given)
    p.add_argument("--tol", type=float, **given)
    p.add_argument("--max-iters", type=int, **given)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = add_parser("bench", help="experiment harness")
    p.add_argument("experiment", choices=["approx", "rate", "solver", "real"])
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    return parser


def _json_value(obj):
    """A result dataclass as its fields; an ndarray or numpy scalar as a list
    or Python number."""
    if is_dataclass(obj):
        return asdict(obj)
    return obj.tolist()


def _emit(payload, out_path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_value)
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


def _from_flags(kind, args):
    """``kind`` from the fields ``args`` holds; a flag left out keeps the field's default."""
    return kind(**{f.name: getattr(args, f.name) for f in fields(kind) if hasattr(args, f.name)})


def _cmd_synth(args) -> int:
    from .panel import SyntheticSpec, generate_synthetic, save_panel

    save_panel(generate_synthetic(_from_flags(SyntheticSpec, args)), args.out)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    from .panel import center_and_factor, load_panel
    from .spectrum import report_from_singular_values

    factor = center_and_factor(load_panel(args.panel))
    _emit(report_from_singular_values(factor.singular_values), args.out)
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
    _emit({"x": x, "diagnostics": diag}, args.out)
    return EXIT_OK


def _cmd_solve(args) -> int:
    import math

    from .bench import ExperimentConfig, ModelSpec, _model_from_spec, feasible_from_factor
    from .errors import ArgumentError
    from .panel import center_and_factor, load_panel
    from .projection import FeasibleSet
    from .solver import SolverConfig, solve

    # Flags are checked before the panel is read, so a bad one is a usage error.
    # A finite target above max(mu) needs the data, so it stays a data error.
    spec = _from_flags(ModelSpec, args)
    scfg = _from_flags(SolverConfig, args)
    percentile = _from_flags(ExperimentConfig, args).r_target_percentile  # bench's default too
    if args.r_target is not None and not math.isfinite(args.r_target):
        raise ArgumentError(f"--r-target must be finite, got R_target={args.r_target}")
    if spec.kind != "baseline" and args.seed < 0:  # a baseline draws nothing
        raise ArgumentError(f"sketch seed must be nonnegative, got {args.seed}")
    factor = center_and_factor(load_panel(args.panel))
    if args.r_target is not None:
        fs = FeasibleSet(mu=factor.mean, R_target=args.r_target)
    else:
        fs = feasible_from_factor(factor, percentile)
    model = _model_from_spec(factor, spec, args.seed)
    result = solve(model, fs, cfg=scfg)
    if result.termination == "max_iters":
        print(
            f"strmv: warning: stopped at max_iters={scfg.max_iters} with residual "
            f"{result.residual_trace[-1]:.3g} > {scfg.tol:g}",
            file=sys.stderr,
        )
    _emit({**asdict(result), "model": spec.kind, "r_target": fs.R_target,
           "provenance": model.provenance, "singular_values": model.singular_values}, args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    from . import bench

    if args.config:
        cfg = bench.ExperimentConfig.from_json(args.config, args.experiment)
    else:
        cfg = bench.ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    runners = {
        "approx": bench.run_approximation_sweep,
        "rate": bench.run_rate_experiment,
        "solver": bench.run_solver_benchmark,
        "real": bench.run_real_panel,
    }
    _emit(runners[args.experiment](cfg), args.out)
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

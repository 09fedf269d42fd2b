#!/usr/bin/env python3
"""Desk-scale approximation-quality sweep.

Reproduces the synthetic sketch-quality table: for each sketch family and
each oversampling ratio, report the median relative spectral error and
median unreduced-objective gap of the sketch-truncate-ridge model across
seeds. Writes a JSON report and prints the summary table.
"""

import argparse
import json

from strmv.bench import ExperimentConfig, ModelSpec, run_approximation_sweep
from strmv.panel import SyntheticSpec
from strmv.solver import SolverConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=600)
    ap.add_argument("--T", type=int, default=2400)
    ap.add_argument("--decay", type=float, default=0.9)
    ap.add_argument("--floor", type=float, default=0.0316)
    ap.add_argument("--eta", type=float, nargs="+", default=[0.98])
    ap.add_argument("--ratios", type=float, nargs="+", default=[2.0, 4.0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--percentile", type=float, default=85.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="approx_report.json")
    args = ap.parse_args()

    cfg = ExperimentConfig(
        synthetic=SyntheticSpec(
            n=args.n, T=args.T, singular_decay=args.decay, noise_floor=args.floor, seed=0
        ),
        models=[
            ModelSpec(kind="str", sketch_kind="gaussian_jl"),
            ModelSpec(kind="str", sketch_kind="countsketch"),
        ],
        eta_grid=args.eta,
        s_over_ell_grid=args.ratios,
        solver=SolverConfig(tol=1e-7, max_iters=30_000, residual_check_stride=5),
        repetitions=args.seeds,
        seed=args.seed,
        r_target_percentile=args.percentile,
    )
    report = run_approximation_sweep(cfg)
    report.save(args.out)
    print(f"{'model':>18} {'eta':>6} {'s/ell':>6} {'med spec err':>13} {'med full gap':>13}")
    for row in report.summary:
        print(
            f"{row['model']:>18} {row['eta']:>6.3f} {row['s_over_ell']:>6.1f} "
            f"{row['median_rel_spectral_error']:>13.4f} "
            f"{row['median_full_model_gap']:>13.4f}"
        )
    print(f"report written to {args.out}")


if __name__ == "__main__":
    main()

"""Experiment harness: sweeps, rate traces, solver benchmarks, panel runs.

Every row of a report carries the derived seed it was produced from, so any
row can be reproduced exactly; wall-clock fields are the only ones excluded
from the reproducibility contract (their key names live in TIMING_KEYS).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import sys
import time
import typing
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import models
from .errors import ArgumentError, DimensionError, StrmvError
from .metrics import annualize, objective_gap, relative_spectral_error
from .models import DEFAULT_KAPPA_TARGET, MODEL_KINDS, FactorModel
from .oracle import MAX_ORACLE_DIM, QPInstance, solve_exact
from .panel import (
    CovarianceFactor,
    ReturnPanel,
    SyntheticSpec,
    center_and_factor,
    generate_synthetic,
    load_panel,
)
from .projection import FeasibleSet
from .sketch import SketchConfig, _splitmix64, recommended_sketch_size
from .solver import SolverConfig, objective, solve
from .spectrum import check_eta, cumulative_energy, energy_rank

#: Report fields that are wall-clock measurements and therefore not part of
#: the bit-reproducibility contract.
TIMING_KEYS = frozenset({"build_time_s", "solve_time_s", "total_time_s", "wall_time_s"})

#: Iterations of each fixed-step run in the rate experiment.
RATE_ITERS = 500

#: Share of a panel's columns, from the front, that the real-panel run trains on.
TRAIN_FRACTION = 2.0 / 3.0

def derive_seed(master: int, *parts: int) -> int:
    """Stable per-row seed derivation from the master seed."""
    state = np.array([master & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    for p in parts:
        state = _splitmix64(state + np.uint64(p & 0xFFFFFFFFFFFFFFFF))
    return int(state[0] & 0x7FFFFFFFFFFFFFFF)


def environment_metadata() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "threads": os.environ.get("OMP_NUM_THREADS"),
    }


@dataclass
class ModelSpec:
    """One model configuration inside an experiment."""

    kind: str = "str"  # one of MODEL_KINDS
    sketch_kind: str = "gaussian_jl"
    s: Optional[int] = None
    s_over_ell: Optional[float] = None
    eta: Optional[float] = None  # energy level mapped to ell on the dense spectrum
    kappa_target: float = DEFAULT_KAPPA_TARGET
    gamma: Optional[float] = None  # explicit ridge, in place of kappa_target

    def __post_init__(self):
        # Refuse, before any panel is read, a setting the kind never reads (any value but
        # the default) and what a builder would (SketchConfig checks the kind and a set s).
        if self.kind not in MODEL_KINDS:
            raise ArgumentError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        never_read = {
            "baseline": ("sketch_kind", "s", "s_over_ell", "eta", "kappa_target", "gamma"),
            "sketch": ("kappa_target", "gamma"),
            "str": ("kappa_target",) if self.gamma is not None else ()}[self.kind]
        unread = [f.name for f in dataclasses.fields(self)
                  if f.name in never_read and getattr(self, f.name) != f.default]
        if unread:
            holder = "str models with a gamma" if self.kind == "str" else f"{self.kind} models"
            raise ArgumentError(f"{holder} do not read {', '.join(unread)}")
        if self.s_over_ell is not None and self.eta is None:
            raise ArgumentError(f"model {self.label()} sets s_over_ell without eta")
        SketchConfig(kind=self.sketch_kind, s=1 if self.s is None else self.s)
        if self.s_over_ell is not None and not self.s_over_ell > 0.0:
            raise ArgumentError(f"s_over_ell must be > 0, got {self.s_over_ell}")
        if self.eta is not None:
            check_eta(self.eta)
        if self.gamma is not None:
            models.check_ridge(self.gamma)
        models.check_kappa_target(self.kappa_target)  # only a str model without gamma sets it

    def label(self) -> str:
        if self.kind == "baseline":
            return "baseline"
        return f"{self.kind}-{self.sketch_kind}"


#: Top-level config keys each experiment reads. A config file that sets any
#: other is refused, since the run would ignore it.
CONFIG_KEYS = {
    "approx": ("synthetic", "models", "eta_grid", "s_over_ell_grid", "solver", "repetitions",
               "r_target_percentile"),
    "rate": ("synthetic", "r_target_percentile"),
    "solver": ("synthetic", "models", "sizes", "solver", "repetitions", "r_target_percentile"),
    "real": ("panel_path", "models", "solver", "repetitions", "r_target_percentile"),
}


@dataclass
class ExperimentConfig:
    synthetic: Optional[SyntheticSpec] = None
    panel_path: Optional[str] = None
    models: list[ModelSpec] = field(default_factory=lambda: [ModelSpec()])
    eta_grid: list[float] = field(default_factory=lambda: [0.98])
    s_over_ell_grid: list[float] = field(default_factory=lambda: [2.0])
    sizes: list[int] = field(default_factory=lambda: [8, 10, 12])
    solver: SolverConfig = field(default_factory=SolverConfig)
    repetitions: int = 3
    seed: int = 0
    r_target_percentile: float = 60.0

    def __post_init__(self):
        if self.repetitions < 1:
            raise ArgumentError("repetitions must be >= 1")
        for key in ("models", "eta_grid", "s_over_ell_grid", "sizes"):
            if not getattr(self, key):
                raise ArgumentError(f"{key} must not be empty")
        if not all(n >= 2 for n in self.sizes):
            raise ArgumentError(f"sizes must be >= 2, got {self.sizes}")
        if not all(ratio > 0.0 for ratio in self.s_over_ell_grid):
            raise ArgumentError(f"s_over_ell_grid values must be > 0, got {self.s_over_ell_grid}")
        for eta in self.eta_grid:
            check_eta(eta)
        check_percentile(self.r_target_percentile)

    @classmethod
    def from_dict(cls, raw: dict, experiment: str) -> "ExperimentConfig":
        """The config ``raw`` describes for ``experiment``, which refuses a
        key it does not read (``CONFIG_KEYS``)."""
        if not isinstance(raw, dict):
            raise ArgumentError(f"config must be an object, got {raw!r}")
        fields = {f.name for f in dataclasses.fields(cls)}
        unread = sorted((set(raw) & fields) - set(CONFIG_KEYS[experiment]))
        if unread:
            raise ArgumentError(
                f"the {experiment} experiment does not read config keys {unread}; "
                f"it reads {list(CONFIG_KEYS[experiment])}"
            )
        raw = dict(raw)
        synth = raw.pop("synthetic", None)
        if synth is not None:
            synth = _from_keys(SyntheticSpec, synth, "synthetic")
            if synth.seed:  # 0, the default, stays accepted: acceptance criterion 10 sets it
                raise ArgumentError(f"config key synthetic.seed is not read, got {synth.seed}: "
                                    "every experiment derives its panel seeds from the master seed")
        models = [
            _from_keys(ModelSpec, m, f"models[{i}]")
            for i, m in enumerate(raw.pop("models", [{}]))
        ]
        solver = _from_keys(SolverConfig, raw.pop("solver", {}), "solver")
        return _from_keys(cls, raw, "top-level", synthetic=synth, models=models, solver=solver)

    @classmethod
    def from_json(cls, path, experiment: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ArgumentError(f"{path}: not a JSON config: {exc}") from None
        return cls.from_dict(raw, experiment)


def _from_keys(kind, raw: dict, section: str, **parsed):
    """``kind(**raw, **parsed)``, after rejecting keys ``kind`` has no field for
    and values that do not fit the field's annotation."""
    if not isinstance(raw, dict):
        raise ArgumentError(f"config section {section} must be an object, got {raw!r}")
    unknown = set(raw) - {f.name for f in dataclasses.fields(kind)}
    if unknown:
        raise ArgumentError(f"unknown config keys in {section}: {sorted(unknown)}")
    missing = [f.name for f in dataclasses.fields(kind) if f.name not in raw
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ArgumentError(f"config section {section} is missing required keys {missing}")
    hints = typing.get_type_hints(kind)
    for key, value in raw.items():
        if not _fits(value, hints[key]):
            raise ArgumentError(
                f"config key {section}.{key} must be {_type_name(hints[key])}, got {value!r}"
            )
    return kind(**raw, **parsed)


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a config annotation (an int fits a float field)."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Union:
        return any(_fits(value, arg) for arg in args)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(item, args[0]) for item in value)
    if isinstance(value, bool) and hint is not bool:
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def _type_name(hint) -> str:
    return hint.__name__ if isinstance(hint, type) else str(hint).replace("typing.", "")


@dataclass
class BenchReport:
    kind: str
    rows: list[dict]
    summary: list[dict]
    environment: dict
    seed_ledger: dict


def strip_timings(obj):
    """Recursively drop wall-clock fields; used for reproducibility checks."""
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def check_percentile(percentile: float) -> None:
    if not 0.0 <= percentile <= 100.0:
        raise ArgumentError(f"r_target_percentile must be in [0, 100], got {percentile}")


def feasible_from_factor(factor: CovarianceFactor, percentile: float) -> FeasibleSet:
    """Expected returns from the raw sample means; target at their percentile."""
    check_percentile(percentile)
    mu = factor.mean
    target = float(np.percentile(mu, percentile))
    return FeasibleSet(mu=mu, R_target=target)


def _model_from_spec(factor: CovarianceFactor, mspec: ModelSpec, seed: int) -> FactorModel:
    """Construct the model a ModelSpec describes.

    For sketch/str models the sketch width comes from, in order: the explicit
    ``s``, used as given; ``s_over_ell`` times the truncation level that eta
    maps to on the factor's dense spectrum, clipped into [1, T];
    otherwise the rule-sized width min(T, recommended_sketch_size(min(n, 50),
    0.5, 0.05)). A sketch model sized from eta records that level as
    ``provenance["ell"]``. The builders are looked up on ``strmv.models`` at
    call time, so a tracer that wraps them sees every build.
    """
    if mspec.kind == "baseline":
        return models.build_baseline(factor)

    ell = None
    if mspec.eta is not None:
        ell = energy_rank(cumulative_energy(factor.singular_values**2), mspec.eta)

    T = factor.columns
    if mspec.s is not None:
        s = mspec.s
    elif mspec.s_over_ell is not None:  # ModelSpec refuses it without eta
        s = min(max(math.ceil(mspec.s_over_ell * ell), 1), T)
    else:
        s = min(T, recommended_sketch_size(min(factor.n, 50), 0.5, 0.05))
    cfg = SketchConfig(kind=mspec.sketch_kind, s=s, seed=seed)

    if mspec.kind == "sketch":
        model = models.build_sketch(factor, cfg)
        if ell is not None:
            model.provenance["ell"] = ell
        return model
    return models.build_str(
        factor, cfg, ell=ell, kappa_target=mspec.kappa_target, gamma=mspec.gamma
    )


def _timed_solve(model, fs, cfg, repeats: Optional[int] = None):
    """One solve and its own ``wall_time_s``; with ``repeats``, one warm-up
    solve is discarded first and the median ``wall_time_s`` of ``repeats``
    solves is kept.

    The solve itself is deterministic, so metrics come from the last run.
    """
    if repeats is not None:
        solve(model, fs, cfg=cfg)
    times = []
    for _ in range(repeats or 1):
        result = solve(model, fs, cfg=cfg)
        times.append(result.wall_time_s)
    return result, float(np.median(times))


def _run_model(factor, mspec, seed, fs, baseline, f_ref, cfg, repeats=None):
    """Build ``mspec``'s model, time its solve (``_timed_solve``) and score the
    solution on the unreduced objective against the reference optimum
    ``f_ref``.

    Returns (model, result, score, times): ``score`` holds the gap, iteration
    count, termination, momentum and kappa fields of a row, ``times`` its
    wall-clock fields.
    """
    t0 = time.perf_counter()
    model = _model_from_spec(factor, mspec, seed)
    build_time = time.perf_counter() - t0
    result, solve_time = _timed_solve(model, fs, cfg, repeats)
    score = {
        "full_model_gap": objective_gap(objective(baseline, result.x), f_ref),
        "iterations": result.iterations,
        "termination": result.termination,
        "momentum": result.momentum,
        "restarts": result.restarts,
        "kappa": result.kappa,
    }
    times = {
        "build_time_s": build_time,
        "solve_time_s": solve_time,
        "total_time_s": build_time + solve_time,
    }
    return model, result, score, times


def _oracle_value(model: FactorModel, fs: FeasibleSet) -> float:
    """Exact optimum of the model's objective over ``fs`` (n <= MAX_ORACLE_DIM)."""
    inst = QPInstance(Q=2.0 * model.covariance(), c=np.zeros(fs.n), fs=fs)
    return solve_exact(inst).value


def _report(kind: str, cfg: ExperimentConfig, rows: list[dict], summary=()) -> BenchReport:
    return BenchReport(
        kind=kind,
        rows=rows,
        summary=list(summary),
        environment=environment_metadata(),
        seed_ledger={"master_seed": cfg.seed, "derivation": "splitmix64 chain"},
    )


# ---------------------------------------------------------------------------
# Approximation sweep
# ---------------------------------------------------------------------------


def run_approximation_sweep(cfg: ExperimentConfig) -> BenchReport:
    """Spectral error and full-objective gap across the sketch-size grid.

    Per (model, eta, s/ell, repetition): generate the controlled-spectrum
    panel, map eta to a truncation level on the dense spectrum, build the
    reduced model, and compare it to the unreduced reference both spectrally
    and through the unreduced objective at the reduced model's optimizer.
    Summary rows carry medians across repetitions.
    """
    if cfg.synthetic is None:
        raise ArgumentError("approximation sweep needs a synthetic instance")
    for mi, mspec in enumerate(cfg.models):
        if mspec.kind == "baseline":
            raise ArgumentError(f"models[{mi}] is a baseline, which the approximation sweep "
                                "solves on every panel as its reference and never sweeps")
        pinned = [k for k in ("s", "eta", "s_over_ell") if getattr(mspec, k) is not None]
        if pinned:
            raise ArgumentError(
                f"models[{mi}] sets {', '.join(pinned)}: the approximation sweep takes "
                "eta from eta_grid and s from s_over_ell_grid"
            )
    rows: list[dict] = []
    failures: list[dict] = []
    for rep in range(cfg.repetitions):
        panel_seed = derive_seed(cfg.seed, 101, rep)
        factor = center_and_factor(generate_synthetic(replace(cfg.synthetic, seed=panel_seed)))
        fs = feasible_from_factor(factor, cfg.r_target_percentile)
        baseline = models.build_baseline(factor)
        f_full_star = solve(baseline, fs, cfg=cfg.solver).objective
        for mi, mspec in enumerate(cfg.models):
            for ei, eta in enumerate(cfg.eta_grid):
                for ri, ratio in enumerate(cfg.s_over_ell_grid):
                    point = replace(mspec, eta=eta, s_over_ell=ratio, s=None)
                    sketch_seed = derive_seed(cfg.seed, 102, rep, mi, ei, ri)
                    key = {"model": point.label(), "eta": eta, "s_over_ell": ratio}
                    try:
                        model, _, score, times = _run_model(
                            factor, point, sketch_seed, fs, baseline, f_full_star, cfg.solver,
                        )
                        spec_err = relative_spectral_error(model.covariance(), factor.covariance)
                    except ArgumentError:  # a config error fails the run
                        raise
                    except StrmvError as exc:  # a failed row is recorded, not fatal
                        failures.append(
                            {**key, "seed": sketch_seed, "error": f"{type(exc).__name__}: {exc}"}
                        )
                        continue
                    rows.append(
                        {
                            **key,
                            "s": model.provenance["sketch"]["s"],
                            "ell": model.provenance.get("ell"),
                            "gamma": model.gamma,
                            "rep": rep,
                            "panel_seed": panel_seed,
                            "seed": sketch_seed,
                            "rel_spectral_error": spec_err,
                            **score,
                            **times,
                        }
                    )
    return _report("approx", cfg, rows + failures, _summarize_sweep(rows))


def _summarize_sweep(rows: list[dict]) -> list[dict]:
    keys = sorted({(r["model"], r["eta"], r["s_over_ell"]) for r in rows})
    summary = []
    for model, eta, ratio in keys:
        grp = [
            r
            for r in rows
            if (r["model"], r["eta"], r["s_over_ell"]) == (model, eta, ratio)
        ]
        summary.append(
            {
                "model": model,
                "eta": eta,
                "s_over_ell": ratio,
                "median_rel_spectral_error": float(
                    np.median([r["rel_spectral_error"] for r in grp])
                ),
                "median_full_model_gap": float(
                    np.median([r["full_model_gap"] for r in grp])
                ),
                "repetitions": len(grp),
            }
        )
    return summary


# ---------------------------------------------------------------------------
# Rate experiment
# ---------------------------------------------------------------------------


def _gap_trace(model, fs, momentum_mode: str):
    """``RATE_ITERS`` iterations at the solver's step 1/L_f, fewer if the
    residual reaches exactly 0; per-iteration gaps to the oracle optimum,
    floored at 1e-18 for the log fits."""
    run_cfg = SolverConfig(momentum_mode=momentum_mode, max_iters=RATE_ITERS, tol=1e-300)
    res = solve(model, fs, cfg=run_cfg)
    return res, np.maximum(res.objective_trace - _oracle_value(model, fs), 1e-18)


def run_rate_experiment(cfg: ExperimentConfig) -> BenchReport:
    """Per-iteration objective-gap traces for the two curvature regimes.

    Both run at the solver's exact fixed step 1/L_f, and each row carries
    its gap at every iterate k = 0..iterations as ``gap_trace``. The convex
    case runs the t_k momentum and fits a log-log slope; the ridge-stabilized
    case runs constant momentum and checks the geometric envelope C * theta^k
    over k = 5..200, C fitted on k <= 5 as acceptance criterion 4 fits it.
    Reference optima come from the enumeration oracle, so instances must
    stay small.
    The experiment fixes every solver setting itself, so a config that sets
    any is refused.
    """
    if cfg.solver != SolverConfig():
        raise ArgumentError(
            "the rate experiment fixes its own step, momentum, tolerance and length "
            f"({RATE_ITERS} iterations); it takes no solver settings"
        )
    spec = cfg.synthetic or SyntheticSpec(n=8, T=40, singular_decay=0.7)
    if spec.n > MAX_ORACLE_DIM:
        raise ArgumentError(f"rate experiment needs n <= {MAX_ORACLE_DIM} for the oracle")
    panel_seed = derive_seed(cfg.seed, 201)
    factor = center_and_factor(generate_synthetic(replace(spec, seed=panel_seed)))
    fs = feasible_from_factor(factor, cfg.r_target_percentile)
    s1 = float(factor.singular_values[0])

    res, convex_gaps = _gap_trace(models.build_baseline(factor), fs, "fista")
    ks = np.arange(10, min(200, convex_gaps.size - 1) + 1)
    if ks.size < 2:
        raise ArgumentError(
            f"the log-log fit over k = 10..200 needs a trace of at least 11 iterations, "
            f"got {convex_gaps.size - 1}"
        )
    slope = float(np.polyfit(np.log(ks), np.log(convex_gaps[ks]), 1)[0])
    rows = [
        {
            "model": "baseline",
            "case": "convex",
            "seed": panel_seed,
            "alpha": 1.0 / res.L_f,
            "loglog_slope": slope,
            "iterations": res.iterations,
            "final_gap": float(convex_gaps[-1]),
            "gap_trace": convex_gaps.tolist(),
        }
    ]

    # Strongly convex case: ridge large enough for a visible linear rate,
    # truncation below n so the curvature bound 2*gamma is exact.
    str_spec = ModelSpec(kind="str", s=factor.columns, eta=0.95, gamma=0.005 * s1**2)
    model = _model_from_spec(factor, str_spec, derive_seed(cfg.seed, 202))
    res, gaps = _gap_trace(model, fs, "auto")  # constant momentum
    alpha = 1.0 / res.L_f
    theta = 1.0 - math.sqrt(alpha * res.m_f)
    k_fit = 5
    envelope_ok = True
    if gaps.size > k_fit:
        # The smallest C that majorizes k <= 5: a pointwise fit at k = 5 is
        # ill-posed for the oscillating momentum trajectory.
        C = float(np.max(gaps[: k_fit + 1] / theta ** np.arange(k_fit + 1)))
        ks = np.arange(k_fit, min(200, gaps.size - 1) + 1)
        envelope_ok = bool(np.all(gaps[ks] <= C * theta**ks * (1 + 1e-9) + 1e-18))
    rows.append(
        {
            "model": str_spec.label(),
            "case": "strongly_convex",
            "seed": panel_seed,
            "alpha": alpha,
            "theta": theta,
            "envelope_ok": envelope_ok,
            "iterations": res.iterations,
            "final_gap": float(gaps[-1]),
            "gap_trace": gaps.tolist(),
        }
    )
    return _report("rate", cfg, rows)


# ---------------------------------------------------------------------------
# Solver benchmark
# ---------------------------------------------------------------------------


def run_solver_benchmark(cfg: ExperimentConfig) -> BenchReport:
    """Build/solve timings plus gap columns across problem sizes at the synthetic T/n.

    Same-model gaps against the enumeration oracle exist only for sizes the
    oracle can certify (n <= 14); larger rows are timing rows with the gap
    marked unavailable. The unreduced-objective gap is always reported,
    against the oracle optimum where possible and the unreduced solver
    otherwise.
    """
    base = cfg.synthetic or SyntheticSpec(n=8, T=32, singular_decay=0.7)
    rows = []
    for n in cfg.sizes:
        T = max(n * base.T // base.n, 4)
        panel_seed = derive_seed(cfg.seed, 301, n)
        factor = center_and_factor(
            generate_synthetic(replace(base, n=n, T=T, seed=panel_seed))
        )
        fs = feasible_from_factor(factor, cfg.r_target_percentile)
        baseline = models.build_baseline(factor)
        oracle = n <= MAX_ORACLE_DIM
        f_full_star = (
            _oracle_value(baseline, fs) if oracle
            else solve(baseline, fs, cfg=cfg.solver).objective
        )
        for mi, mspec in enumerate(cfg.models):
            model_seed = derive_seed(cfg.seed, 302, n, mi)
            model, result, score, times = _run_model(
                factor, mspec, model_seed, fs, baseline, f_full_star, cfg.solver,
                cfg.repetitions,
            )
            rows.append(
                {
                    "model": mspec.label(),
                    "n": n,
                    "T": T,
                    "columns": model.columns,
                    "seed": model_seed,
                    "panel_seed": panel_seed,
                    "model_gap": (
                        objective_gap(result.objective, _oracle_value(model, fs))
                        if oracle else None
                    ),
                    **score,
                    **times,
                }
            )
    return _report("solver", cfg, rows)


# ---------------------------------------------------------------------------
# Real-panel run
# ---------------------------------------------------------------------------


def run_real_panel(cfg: ExperimentConfig) -> BenchReport:
    """Train on the leading ``TRAIN_FRACTION`` of a CSV panel's columns,
    evaluate on the rest.

    The expected-return vector comes from the raw training means, the target
    from their configured percentile, and the reported statistics are the
    annualized mean and volatility of the fixed-weight portfolio's
    per-interval test returns.
    """
    if cfg.panel_path is None:
        raise ArgumentError("real-panel run needs panel_path")
    panel = load_panel(cfg.panel_path)
    split = int(panel.T * TRAIN_FRACTION)
    if split < 2 or panel.T - split < 2:
        raise DimensionError(
            f"split at {split} leaves too few columns (T={panel.T}); need >= 2 on each side"
        )
    train = panel.returns[:, :split]
    test = panel.returns[:, split:]
    factor = center_and_factor(ReturnPanel(asset_ids=panel.asset_ids, returns=train))
    fs = feasible_from_factor(factor, cfg.r_target_percentile)
    baseline = models.build_baseline(factor)
    f_full_star = solve(baseline, fs, cfg=cfg.solver).objective
    rows = []
    for mi, mspec in enumerate(cfg.models):
        model_seed = derive_seed(cfg.seed, 401, mi)
        model, result, score, times = _run_model(
            factor, mspec, model_seed, fs, baseline, f_full_star, cfg.solver, cfg.repetitions,
        )
        rows.append(
            {
                "model": mspec.label(),
                "n": panel.n,
                "T_train": split,
                "T_test": panel.T - split,
                "columns": model.columns,
                "seed": model_seed,
                "r_target": fs.R_target,
                "r_target_percentile": cfg.r_target_percentile,
                **score,
                "portfolio": dataclasses.asdict(annualize(result.x @ test)),
                **times,
            }
        )
    return _report("real", cfg, rows)

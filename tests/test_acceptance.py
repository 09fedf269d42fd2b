"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines
stream; the full suite stays within a desk-scale time budget.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from strmv.bench import strip_timings
from strmv.metrics import objective_gap, relative_spectral_error
from strmv.models import build_baseline, build_sketch, build_str
from strmv.oracle import QPInstance, solve_exact
from strmv.panel import CovarianceFactor, SyntheticSpec, center_and_factor, generate_synthetic
from strmv.projection import FeasibleSet, project_feasible
from strmv.sketch import SketchConfig, apply_sketch, recommended_sketch_size
from strmv.solver import SolverConfig, gradient, objective, solve
from strmv.spectrum import cumulative_energy, energy_rank

from reference import (
    dykstra_project,
    kappa_improvement_threshold,
    materialize_sketch_matrix,
    project_exact,
)


def report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line, flush=True)
    assert ok, line


def low_rank_factor(n, T, r, seed, sig=None):
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n, r)))[0]
    V = np.linalg.qr(rng.standard_normal((T, r)))[0]
    if sig is None:
        sig = 1.0 + rng.uniform(0.0, 1.0, r)
    L = (U * sig) @ V.T
    return CovarianceFactor(L=L, mean=np.zeros(n))


def measured_distortion(L, phi):
    """Exact subspace-embedding distortion of phi on Im(L^T)."""
    sv = np.linalg.svd(L, full_matrices=False)
    r = int((sv[1] > 1e-12 * sv[1][0]).sum())
    V = sv[2][:r].T
    G = (phi.T @ V).T @ (phi.T @ V)
    return float(np.linalg.norm(G - np.eye(r), 2))


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(42)
    t0 = time.time()
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(5, 11))
        T = int(rng.integers(20, 61))
        spec = SyntheticSpec(n=n, T=T, singular_decay=float(rng.uniform(0.75, 0.95)),
                             seed=int(rng.integers(0, 2**31)))
        factor = center_and_factor(generate_synthetic(spec))
        kind = ["baseline", "sketch", "str"][i % 3]
        if kind == "baseline":
            model = build_baseline(factor)
        elif kind == "sketch":
            s = int(rng.integers(n, T + 1))
            model = build_sketch(factor, SketchConfig(
                kind=["gaussian_jl", "countsketch"][i % 2], s=s, seed=i))
        else:
            model = build_str(factor, SketchConfig(kind="gaussian_jl", s=T, seed=i),
                              kappa_target=100.0)
        mu = rng.standard_normal(n)
        fs = FeasibleSet(mu=mu, R_target=float(np.quantile(mu, rng.uniform(0.2, 0.8))))
        mode = "auto" if model.gamma > 0 else "fista"
        cfg = SolverConfig(momentum_mode=mode, tol=5e-10, max_iters=20_000,
                           residual_check_stride=5)
        res = solve(model, fs, cfg=cfg)
        oracle = solve_exact(QPInstance(Q=2.0 * model.covariance(), c=np.zeros(n), fs=fs))
        worst = max(worst, objective_gap(res.objective, oracle.value))
    elapsed = time.time() - t0
    report(1, worst <= 1e-8 and elapsed < 30.0,
           f"worst same-model gap {worst:.2e} over 50 instances in {elapsed:.1f}s "
           f"(tolerance 1e-8, budget 30s)")


def test_criterion_2_projection_exactness():
    rng = np.random.default_rng(123)
    worst_scalar = 0.0
    worst_dyk = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 11))
        v = rng.standard_normal(n) * 2.0
        mu = rng.standard_normal(n)
        R = float(mu.min() + rng.uniform(0.1, 0.9) * (mu.max() - mu.min()))
        fs = FeasibleSet(mu=mu, R_target=R)
        xe = project_exact(v, fs)
        x, _ = project_feasible(v, fs)
        xd = dykstra_project(v, fs)
        worst_scalar = max(worst_scalar, float(np.linalg.norm(x - xe)))
        worst_dyk = max(worst_dyk, float(np.linalg.norm(xd - xe)))
    report(2, worst_scalar <= 1e-8 and worst_dyk <= 1e-6,
           f"scalar-search vs oracle {worst_scalar:.2e} (tol 1e-8), "
           f"Dykstra vs oracle {worst_dyk:.2e} (tol 1e-6), 200 triples")


def test_criterion_3_convex_rate():
    rng = np.random.default_rng(7)
    worst_excess = -np.inf
    for _ in range(10):
        n = int(rng.integers(5, 11))
        T = int(rng.integers(20, 61))
        spec = SyntheticSpec(n=n, T=T, singular_decay=float(rng.uniform(0.75, 0.95)),
                             seed=int(rng.integers(0, 2**31)))
        factor = center_and_factor(generate_synthetic(spec))
        model = build_baseline(factor)
        mu = rng.standard_normal(n)
        fs = FeasibleSet(mu=mu, R_target=float(np.quantile(mu, 0.5)))
        L_f = 2.0 * float(np.linalg.svd(model.L_eff, compute_uv=False)[0]) ** 2
        alpha = 1.0 / L_f
        x0 = np.zeros(n)
        x0[0] = 1.0
        cfg = SolverConfig(momentum_mode="fista", tol=1e-300, max_iters=500)
        res = solve(model, fs, x0=x0, cfg=cfg)
        assert 1.0 / res.L_f == pytest.approx(alpha, rel=1e-12)  # the solver's own step
        oracle = solve_exact(QPInstance(Q=2.0 * model.covariance(), c=np.zeros(n), fs=fs))
        x0p, _ = project_feasible(x0, fs)
        d0 = float(np.linalg.norm(x0p - oracle.x)) ** 2
        ks = np.arange(1, len(res.objective_trace))
        envelope = 2.0 * d0 / (alpha * (ks + 1.0) ** 2)
        gaps = res.objective_trace[ks] - oracle.value
        worst_excess = max(worst_excess, float((gaps - envelope).max()))
    report(3, worst_excess <= 1e-12,
           f"max envelope excess {worst_excess:.2e} over 10 instances, k <= 500 "
           f"(envelope 2||x0-x*||^2/(alpha (k+1)^2))")


def test_criterion_4_linear_rate():
    # C is fitted as the smallest constant majorizing the first five iterates
    # of the envelope; a pointwise fit at the k=5 value is ill-posed for the
    # oscillating momentum trajectory (see the decisions notes).
    rng = np.random.default_rng(2024)
    worst_ratio = 0.0
    roots = []
    for trial in range(10):
        n = int(rng.integers(5, 11))
        T = int(rng.integers(24, 61))
        spec = SyntheticSpec(n=n, T=T, singular_decay=float(rng.uniform(0.75, 0.95)),
                             seed=int(rng.integers(0, 2**31)))
        factor = center_and_factor(generate_synthetic(spec))
        probe = build_str(factor, SketchConfig(kind="gaussian_jl", s=T, seed=trial),
                          ell=n - 2,
                          gamma=1e-9)
        sig1 = float(np.linalg.svd(probe.L_eff, compute_uv=False)[0])
        t2 = 0.1**2  # target sqrt(alpha m_f) = 0.1 >= 0.05
        gamma = t2 / (1.0 - t2) * sig1**2
        model = build_str(factor, SketchConfig(kind="gaussian_jl", s=T, seed=trial),
                          ell=n - 2,
                          gamma=gamma)
        L_f = 2.0 * (sig1**2 + gamma)
        m_f = 2.0 * gamma  # exact: the truncated factor has fewer columns than n
        alpha = 1.0 / L_f
        root = math.sqrt(alpha * m_f)
        roots.append(root)
        theta = 1.0 - root
        mu = rng.standard_normal(n)
        fs = FeasibleSet(mu=mu, R_target=float(np.quantile(mu, rng.uniform(0.2, 0.8))))
        cfg = SolverConfig(tol=1e-300, max_iters=200)
        res = solve(model, fs, cfg=cfg)
        assert 1.0 / res.L_f == pytest.approx(alpha, rel=1e-12)  # the solver's own step
        fstar = solve_exact(QPInstance(Q=2.0 * model.covariance(), c=np.zeros(n), fs=fs)).value
        gaps = np.asarray(res.objective_trace) - fstar
        C = max(gaps[k] / theta**k for k in range(6))
        ks = np.arange(5, min(200, len(gaps) - 1) + 1)
        worst_ratio = max(worst_ratio, float(np.max(gaps[ks] / (C * theta**ks))))
    report(4, worst_ratio <= 1.0 + 1e-9 and min(roots) >= 0.05,
           f"geometric envelope held with max gap/envelope ratio {worst_ratio:.3f}, "
           f"sqrt(alpha m_f) in [{min(roots):.3f}, {max(roots):.3f}] (>= 0.05)")


def test_criterion_5_embedding_sandwich():
    eps, delta = 0.25, 0.05
    s = recommended_sketch_size(5, eps, delta)  # calibrated c = 4 -> s = 512
    results = {}
    for kind in ("gaussian_jl", "countsketch"):
        hits = 0
        for trial in range(100):
            factor = low_rank_factor(40, 600, 5, seed=10_000 + trial)
            sk = apply_sketch(factor, SketchConfig(kind=kind, s=s, seed=20_000 + trial))
            err = relative_spectral_error(sk.Ltilde @ sk.Ltilde.T, factor.L @ factor.L.T)
            hits += err <= eps
        results[kind] = hits
    ok = all(h >= 95 for h in results.values())
    report(5, ok,
           f"spectral error <= {eps} in {results['gaussian_jl']}/100 (JL) and "
           f"{results['countsketch']}/100 (CountSketch) trials at s={s} (need >= 95)")


def test_criterion_6_conditioning_identities():
    rng_master = np.random.default_rng(5)
    worst_rel = 0.0
    improved = 0
    trials = 100
    for trial in range(trials):
        seed = int(rng_master.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        kind = "gaussian_jl" if trial % 2 == 0 else "countsketch"
        n, T, s, ell = 60, 300, 240, 40
        U = np.linalg.qr(rng.standard_normal((n, n)))[0]
        V = np.linalg.qr(rng.standard_normal((T, n)))[0]
        sig = np.linspace(1.0, 0.3, n)
        L = (U * sig) @ V.T
        factor = CovarianceFactor(L=L, mean=np.zeros(n))
        lam = np.linalg.eigvalsh(L @ L.T)
        cfg = SketchConfig(kind=kind, s=s, seed=seed)
        m = build_str(factor, cfg, ell=ell, kappa_target=100.0)
        eig = np.linalg.eigvalsh(m.covariance())
        closed = (m.singular_values[0] ** 2 + m.gamma) / m.gamma
        worst_rel = max(worst_rel, abs(eig[-1] / eig[0] - closed) / closed)
        eps = measured_distortion(L, materialize_sketch_matrix(cfg, T))
        thr = kappa_improvement_threshold(lam[0], lam[-1], eps)
        m2 = build_str(factor, cfg, ell=ell,
                       gamma=thr * 1.0001)
        e2 = np.linalg.eigvalsh(m2.covariance())
        improved += e2[-1] / e2[0] < lam[-1] / lam[0]
    report(6, worst_rel <= 1e-10 and improved == trials,
           f"kappa identity worst relative error {worst_rel:.2e} (tol 1e-10); "
           f"conditioning improved in {improved}/{trials} trials above the threshold")


def test_criterion_7_stability_bound():
    rng_master = np.random.default_rng(99)
    held = 0
    trials = 100
    for trial in range(trials):
        seed = int(rng_master.integers(0, 2**31))
        kind = "gaussian_jl" if trial % 2 == 0 else "countsketch"
        n, T, r, s, ell = 100, 400, 20, 320, 12
        factor = low_rank_factor(n, T, r, seed, sig=0.85 ** np.arange(r))
        cfg = SketchConfig(kind=kind, s=s, seed=seed + 1)
        phi = materialize_sketch_matrix(cfg, T)
        eps = measured_distortion(factor.L, phi)
        if eps >= 1.0:
            continue
        m = build_str(factor, cfg, ell=ell, kappa_target=1000.0)
        Sigma = factor.L @ factor.L.T
        lam_sketched = np.linalg.svd(factor.L @ phi, compute_uv=False) ** 2
        lhs = np.linalg.norm(m.covariance() - Sigma, 2)
        rhs = (2.0 * eps * np.linalg.norm(Sigma, 2)
               + lam_sketched[ell] / (1.0 - eps) + m.gamma)
        held += lhs <= rhs
    report(7, held == trials,
           f"stability bound ||lifted - Sigma|| <= 2e||Sigma|| + lam~/(1-e) + gamma "
           f"held in {held}/{trials} trials at n=100")


def _table2_instance(seed, kind):
    spec = SyntheticSpec(n=600, T=2400, singular_decay=0.9, leading_scale=1.0,
                         noise_floor=0.0316, seed=seed)
    factor = center_and_factor(generate_synthetic(spec))
    singvals = np.linalg.svd(factor.L, compute_uv=False)
    ell = energy_rank(cumulative_energy(singvals**2), 0.98)
    s = min(2 * ell, factor.columns)
    # The generator has no mean structure, so a mid-80s percentile binds the
    # return constraint about as strongly as the real-data protocol's 60th
    # percentile does with genuine mean dispersion.
    fs = FeasibleSet(mu=factor.mean, R_target=float(np.percentile(factor.mean, 85)))
    return factor, fs, ell, s


@pytest.mark.slow
def test_criterion_8_table2_reproduction():
    t0 = time.time()
    solver_cfg = SolverConfig(tol=1e-7, max_iters=30_000, residual_check_stride=5)
    medians = {}
    for kind in ("gaussian_jl", "countsketch"):
        errs, gaps = [], []
        for seed in range(10):
            factor, fs, ell, s = _table2_instance(seed, kind)
            Sigma = factor.L @ factor.L.T
            baseline = build_baseline(factor)
            ref = solve(baseline, fs, cfg=solver_cfg)
            m = build_str(factor, SketchConfig(kind=kind, s=s, seed=seed + 77), ell=ell)
            errs.append(relative_spectral_error(m.covariance(), Sigma))
            res = solve(m, fs, cfg=solver_cfg)
            gaps.append(objective_gap(objective(baseline, res.x), ref.objective))
        medians[kind] = (float(np.median(errs)), float(np.median(gaps)))
    elapsed = time.time() - t0
    ok = elapsed <= 600.0
    for kind, (err, gap) in medians.items():
        ok = ok and 0.08 <= err <= 0.16 and 0.04 <= gap <= 0.11
    detail = ", ".join(
        f"{kind}: median err {err:.4f} (band [0.08,0.16]), median gap {gap:.4f} "
        f"(band [0.04,0.11])" for kind, (err, gap) in medians.items()
    )
    report(8, ok, f"{detail}; elapsed {elapsed:.0f}s (budget 600s)")


@pytest.mark.slow
def test_criterion_9_complexity_trend():
    spec = SyntheticSpec(n=600, T=2400, singular_decay=0.9, leading_scale=1.0,
                         noise_floor=0.0316, seed=3)
    factor = center_and_factor(generate_synthetic(spec))
    baseline = build_baseline(factor)
    m = build_str(factor, SketchConfig(kind="gaussian_jl", s=240, seed=1), ell=60)
    assert m.columns <= 60
    rng = np.random.default_rng(0)
    x = np.abs(rng.standard_normal(600))
    x /= x.sum()

    def med_time(model):
        times = np.empty(100)
        for i in range(100):
            t0 = time.perf_counter_ns()
            gradient(model, x)
            times[i] = time.perf_counter_ns() - t0
        return float(np.median(times))

    med_time(baseline)  # warm the BLAS path before measuring
    t_base = med_time(baseline)
    t_str = med_time(m)
    ratio = t_str / t_base
    report(9, ratio <= 0.25,
           f"median per-iteration gradient time ratio STR/baseline = {ratio:.3f} "
           f"(need <= 0.25; ell={m.columns}, T={factor.columns})")


def test_criterion_10_cli_determinism(tmp_path):
    cfg = {
        "synthetic": {"n": 10, "T": 60, "singular_decay": 0.7,
                      "noise_floor": 0.02, "seed": 0},
        "models": [
            {"kind": "str", "sketch_kind": "gaussian_jl"},
            {"kind": "str", "sketch_kind": "countsketch"},
        ],
        "eta_grid": [0.9],
        "s_over_ell_grid": [2.0],
        "solver": {"tol": 1e-8, "max_iters": 3000, "residual_check_stride": 5},
        "repetitions": 2,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    payloads = []
    for run in range(2):
        out = tmp_path / f"r{run}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "strmv.cli", "bench", "approx",
             "--config", str(cfg_path), "--seed", "17", "--threads", "2",
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        payloads.append(strip_timings(json.loads(out.read_text())))
    same = payloads[0] == payloads[1]
    report(10, same,
           "two CLI runs with --seed 17 --threads 2 reproduced every "
           "non-timing report field exactly" if same else
           "CLI reports differ across identical runs")

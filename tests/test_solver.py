import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strmv.errors import ArgumentError, DimensionError, InfeasibleTargetError, NumericError
from strmv.models import FactorModel, RidgePolicy, build_baseline, build_str
from strmv.oracle import QPInstance, solve_exact
from strmv.panel import CovarianceFactor, SyntheticSpec, center_and_factor, generate_synthetic
from strmv.projection import FeasibleSet
from strmv.sketch import SketchConfig
from strmv.solver import (
    SolverConfig,
    _power_sequence,
    curvature_constants,
    estimate_spectral_norm,
    gradient,
    objective,
    solve,
    solve_dense,
)


def factor_of(L):
    L = np.asarray(L, dtype=float)
    return CovarianceFactor(L=L, mean=np.zeros(L.shape[0]))


def str_model(L_eff, gamma):
    L_eff = np.asarray(L_eff, dtype=float)
    sv = np.linalg.svd(L_eff, compute_uv=False)
    return FactorModel(
        L_eff=L_eff, gamma=gamma, kind="str",
        provenance={"sigma1": float(sv[0]), "ell": L_eff.shape[1],
                    "singular_values": sv.tolist()},
    )


class TestGradient:
    def test_identity_factor(self):
        m = build_baseline(factor_of(np.eye(2)))
        np.testing.assert_allclose(gradient(m, np.array([1.0, 2.0])), [2.0, 4.0])

    def test_with_ridge(self):
        m = str_model(np.array([[1.0], [0.0]]), gamma=1.0)
        np.testing.assert_allclose(gradient(m, np.array([1.0, 1.0])), [4.0, 2.0])

    def test_zero_point(self):
        m = build_baseline(factor_of(np.random.default_rng(0).standard_normal((3, 5))))
        np.testing.assert_array_equal(gradient(m, np.zeros(3)), np.zeros(3))

    def test_dimension_mismatch(self):
        m = build_baseline(factor_of(np.eye(2)))
        with pytest.raises(DimensionError):
            gradient(m, np.zeros(3))

    def test_never_materializes_covariance(self):
        # n x m factor with m tiny: the gradient must cost O(n m), which we
        # check indirectly by matching the explicit covariance product.
        rng = np.random.default_rng(1)
        L = rng.standard_normal((50, 3))
        m = str_model(L, gamma=0.25)
        x = rng.standard_normal(50)
        expect = 2.0 * (L @ L.T + 0.25 * np.eye(50)) @ x
        np.testing.assert_allclose(gradient(m, x), expect, atol=1e-12)


class TestPowerMethod:
    def test_diagonal(self):
        m = build_baseline(factor_of(np.diag([3.0, 1.0])))
        assert estimate_spectral_norm(m, iters=20, seed=0) == pytest.approx(3.0, abs=1e-6)

    def test_isotropic_one_iteration(self):
        m = build_baseline(factor_of(2.5 * np.eye(3)))
        assert estimate_spectral_norm(m, iters=1, seed=0) == pytest.approx(2.5)

    def test_zero_factor(self):
        m = build_baseline(factor_of(np.zeros((3, 4))))
        assert estimate_spectral_norm(m, iters=5, seed=0) == 0.0

    def test_monotone_rayleigh_sequence(self):
        rng = np.random.default_rng(4)
        L = rng.standard_normal((8, 12))
        seq = _power_sequence(lambda u: L @ (L.T @ u), 8, 25, seed=1)
        assert (np.diff(seq) >= -1e-12).all()
        assert seq[-1] <= np.linalg.norm(L, 2) + 1e-10

    def test_accuracy_with_spectral_gap(self):
        # With a spectral gap >= 1.1, ten iterations land within 1% for
        # typical starts; a nearly-orthogonal random start can lag, which is
        # why the automatic step inflates the estimate by a safety factor.
        rng = np.random.default_rng(5)
        errs = []
        for seed in range(30):
            sig = np.array([2.0, 2.0 / 1.2, 1.0, 0.5])
            U = np.linalg.qr(rng.standard_normal((6, 4)))[0]
            V = np.linalg.qr(rng.standard_normal((9, 4)))[0]
            m = build_baseline(factor_of((U * sig) @ V.T))
            est = estimate_spectral_norm(m, iters=10, seed=seed)
            assert est <= 2.0 + 1e-9  # always a lower bound
            errs.append(abs(est - 2.0) / 2.0)
        assert np.median(errs) <= 0.01
        assert max(errs) <= 0.10


class TestCurvature:
    def test_str_wide_factor(self):
        m = str_model(np.random.default_rng(0).standard_normal((5, 2)), gamma=0.1)
        consts = curvature_constants(m)
        assert consts.m_f == pytest.approx(0.2)

    def test_baseline_with_hint(self):
        m = build_baseline(factor_of(np.diag([3.0, 1.0])))
        consts = curvature_constants(m, sigma_min_hint=1.0, power_iters=30)
        assert consts.L_f == pytest.approx(1.05 * 18.0, rel=1e-6)
        assert consts.m_f == pytest.approx(2.0)

    def test_rank_deficient_sketch(self):
        m = FactorModel(L_eff=np.random.default_rng(1).standard_normal((5, 3)),
                        gamma=0.0, kind="sketch")
        assert curvature_constants(m).m_f == 0.0


class TestSolve:
    def test_hand_instance_identity(self):
        m = build_baseline(factor_of(np.eye(2)))
        fs = FeasibleSet(mu=np.array([0.1, 0.2]), R_target=0.1)
        res = solve(m, fs, x0=np.array([1.0, 0.0]),
                    cfg=SolverConfig(tol=1e-12, max_iters=5000))
        np.testing.assert_allclose(res.x, [0.5, 0.5], atol=1e-8)
        assert res.objective == pytest.approx(0.5, abs=1e-10)
        assert fs.mu @ res.x == pytest.approx(0.15, abs=1e-8)  # slack constraint

    def test_hand_instance_diagonal(self):
        m = build_baseline(factor_of(np.diag([1.0, 2.0])))  # Sigma = diag(1,4)
        fs = FeasibleSet(mu=np.array([1.0, 1.0]), R_target=0.5)
        res = solve(m, fs, cfg=SolverConfig(tol=1e-12, max_iters=5000))
        np.testing.assert_allclose(res.x, [0.8, 0.2], atol=1e-8)
        assert res.objective == pytest.approx(0.8, abs=1e-10)

    def test_starts_at_optimum(self):
        m = build_baseline(factor_of(np.eye(2)))
        fs = FeasibleSet(mu=np.array([0.1, 0.2]), R_target=0.1)
        res = solve(m, fs, x0=np.array([0.5, 0.5]),
                    cfg=SolverConfig(tol=1e-8))
        assert res.iterations == 0
        assert res.termination == "tolerance"
        assert len(res.residual_trace) == 1

    def test_infeasible_errors_before_iterating(self):
        m = build_baseline(factor_of(np.eye(2)))
        with pytest.warns(UserWarning):
            fs = FeasibleSet(mu=np.array([0.1, 0.2]), R_target=0.9)
        with pytest.raises(InfeasibleTargetError):
            solve(m, fs)

    def test_every_iterate_feasible(self):
        rng = np.random.default_rng(8)
        spec = SyntheticSpec(n=6, T=24, singular_decay=0.8, seed=3)
        m = build_baseline(center_and_factor(generate_synthetic(spec)))
        mu = rng.standard_normal(6)
        fs = FeasibleSet(mu=mu, R_target=float(np.quantile(mu, 0.5)))
        cfg = SolverConfig(tol=1e-10, max_iters=300, record_objective=True)
        res = solve(m, fs, cfg=cfg)
        x = res.x
        assert x.min() >= -1e-12 and abs(x.sum() - 1) <= 1e-10
        assert fs.mu @ x >= fs.R_target - 1e-9

    def test_residual_trace_terminates_below_tol(self):
        m = build_baseline(factor_of(np.diag([1.0, 2.0])))
        fs = FeasibleSet(mu=np.array([1.0, 1.0]), R_target=0.5)
        res = solve(m, fs, cfg=SolverConfig(tol=1e-9, max_iters=10000))
        assert res.termination == "tolerance"
        assert res.residual_trace[-1] <= 1e-9

    def test_backtracking_matches_fixed(self):
        spec = SyntheticSpec(n=5, T=30, singular_decay=0.8, seed=9)
        m = build_baseline(center_and_factor(generate_synthetic(spec)))
        mu = np.linspace(-1, 1, 5)
        fs = FeasibleSet(mu=mu, R_target=0.0)
        fixed = solve(m, fs, cfg=SolverConfig(tol=1e-11, max_iters=20000))
        bt = solve(m, fs, cfg=SolverConfig(step_mode="backtracking", tol=1e-11,
                                           max_iters=20000))
        assert bt.objective == pytest.approx(fixed.objective, abs=1e-9)

    def test_strongly_convex_needs_curvature(self):
        m = build_baseline(factor_of(np.random.default_rng(0).standard_normal((4, 8))))
        fs = FeasibleSet(mu=np.linspace(0, 1, 4), R_target=0.2)
        with pytest.raises(ArgumentError):
            solve(m, fs, cfg=SolverConfig(momentum_mode="strongly_convex"))

    def test_objective_trace_recorded(self):
        m = build_baseline(factor_of(np.diag([1.0, 2.0])))
        fs = FeasibleSet(mu=np.array([1.0, 1.0]), R_target=0.5)
        res = solve(m, fs, cfg=SolverConfig(tol=1e-10, max_iters=50,
                                            record_objective=True))
        assert res.objective_trace is not None
        assert len(res.objective_trace) == res.iterations + 1


class TestSolveDense:
    def test_matches_factor_path(self):
        spec = SyntheticSpec(n=8, T=40, singular_decay=0.8, seed=5)
        factor = center_and_factor(generate_synthetic(spec))
        m = build_baseline(factor)
        Sigma = factor.L @ factor.L.T
        mu = np.linspace(-0.5, 0.5, 8)
        fs = FeasibleSet(mu=mu, R_target=0.0)
        cfg = SolverConfig(tol=1e-300, max_iters=50, record_objective=True)
        a = solve(m, fs, cfg=cfg)
        b = solve_dense(Sigma, fs, cfg=cfg)
        np.testing.assert_allclose(a.x, b.x, atol=1e-10)
        np.testing.assert_allclose(a.objective_trace, b.objective_trace, atol=1e-10)

    def test_zero_covariance_stops_immediately(self):
        fs = FeasibleSet(mu=np.array([1.0, 0.0]), R_target=0.2)
        res = solve_dense(np.zeros((2, 2)), fs)
        assert res.iterations == 0

    def test_simplex_only_symmetric(self):
        n = 5
        fs = FeasibleSet(mu=np.full(n, 1.0), R_target=0.5)  # slack for any x
        res = solve_dense(np.eye(n), fs, cfg=SolverConfig(tol=1e-11, max_iters=5000))
        np.testing.assert_allclose(res.x, np.full(n, 1.0 / n), atol=1e-8)

    def test_asymmetric_rejected(self):
        fs = FeasibleSet(mu=np.array([1.0, 0.0]), R_target=0.2)
        with pytest.raises(NumericError):
            solve_dense(np.array([[1.0, 0.5], [0.0, 1.0]]), fs)


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_solution_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n, T = 6, 30
        spec = SyntheticSpec(n=n, T=T, singular_decay=0.85, seed=seed)
        factor = center_and_factor(generate_synthetic(spec))
        m = build_str(factor, SketchConfig(kind="gaussian_jl", s=T, seed=seed),
                      ell=n - 2, ridge=RidgePolicy(kappa_target=50.0))
        mu = rng.standard_normal(n)
        fs = FeasibleSet(mu=mu, R_target=float(np.quantile(mu, 0.5)))
        res = solve(m, fs, cfg=SolverConfig(momentum_mode="strongly_convex",
                                            tol=1e-10, max_iters=20000))
        oracle = solve_exact(QPInstance(Q=2 * m.covariance(), c=np.zeros(n), fs=fs))
        assert res.objective - oracle.value <= 1e-8 * max(abs(oracle.value), 1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.floats(0.0, 2.0),
)
def test_objective_two_evaluations_agree(seed, gamma):
    rng = np.random.default_rng(seed)
    L = rng.standard_normal((4, 6))
    kind = "str" if gamma > 0 else "baseline"
    m = (str_model(L, gamma) if gamma > 0
         else build_baseline(factor_of(L)))
    x = rng.standard_normal(4)
    direct = objective(m, x)
    via_grad = float(x @ (m.L_eff @ (m.L_eff.T @ x))) + m.gamma * float(x @ x)
    assert direct == pytest.approx(via_grad, rel=1e-12, abs=1e-12)

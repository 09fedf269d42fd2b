import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strmv.cli import _json_value
from strmv.errors import ArgumentError, DimensionError, InfeasibleTargetError, NumericError
from strmv.metrics import objective_gap
from strmv.models import FactorModel, build_baseline, build_sketch, build_str
from strmv.oracle import MAX_ORACLE_DIM, QPInstance, solve_exact
from strmv.panel import CovarianceFactor, SyntheticSpec, center_and_factor, generate_synthetic
from strmv.projection import FeasibleSet, project_feasible
from strmv.sketch import SketchConfig
from strmv.solver import (
    FACE_WAIT,
    DenseHessian,
    SolverConfig,
    curvature_constants,
    estimate_spectral_norm,
    gradient,
    gradient_operator,
    objective,
    solve,
)
from strmv.spectrum import RANK_TOL


def factor_of(L):
    L = np.asarray(L, dtype=float)
    return CovarianceFactor(L=L, mean=np.zeros(L.shape[0]))


def as_json(result):
    """A solve result as the CLI writes it, read back."""
    return json.loads(json.dumps(result, default=_json_value))


def str_model(L_eff, gamma):
    L_eff = np.asarray(L_eff, dtype=float)
    return FactorModel(
        L_eff=L_eff, gamma=gamma, kind="str", provenance={"ell": L_eff.shape[1]},
        singular_values=np.linalg.svd(L_eff, compute_uv=False),  # min(n, columns)
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

    @pytest.mark.parametrize("shape", [(5,), (6, 2)])
    def test_objective_dimension_mismatch(self, shape):
        m = build_baseline(factor_of(np.random.default_rng(0).standard_normal((6, 8))))
        with pytest.raises(DimensionError):
            objective(m, np.ones(shape))

    def test_never_materializes_covariance(self):
        # n x m factor with m tiny: the gradient must cost O(n m), which we
        # check indirectly by matching the explicit covariance product.
        rng = np.random.default_rng(1)
        L = rng.standard_normal((50, 3))
        m = str_model(L, gamma=0.25)
        x = rng.standard_normal(50)
        expect = 2.0 * (L @ L.T + 0.25 * np.eye(50)) @ x
        np.testing.assert_allclose(gradient(m, x), expect, atol=1e-12)


class TestSpectralNorm:
    """Every model carries its spectrum, so the extreme singular values
    (sigma_1, sigma_n) of L_eff are exact on whichever operator ``solve``
    iterates on."""

    def test_diagonal(self):
        m = build_baseline(factor_of(np.diag([3.0, 1.0])))
        for op in (m, gradient_operator(m)):
            assert estimate_spectral_norm(op) == pytest.approx((3.0, 1.0), rel=1e-15)

    def test_isotropic(self):
        m = build_baseline(factor_of(2.5 * np.eye(3)))
        assert estimate_spectral_norm(m) == pytest.approx((2.5, 2.5), rel=1e-15)

    def test_zero_factor(self):
        m = build_baseline(factor_of(np.zeros((3, 4))))
        assert estimate_spectral_norm(m) == (0.0, 0.0)
        assert estimate_spectral_norm(gradient_operator(m)) == (0.0, 0.0)

    def test_fewer_columns_than_assets_has_no_sigma_n(self):
        m = build_sketch(factor_of(np.random.default_rng(2).standard_normal((6, 12))),
                         SketchConfig(kind="countsketch", s=3, seed=0))
        assert estimate_spectral_norm(m)[1] == 0.0

    @pytest.mark.parametrize("kind, path", [
        ("baseline", DenseHessian),  # 120 columns > n/2 = 15
        ("sketch", FactorModel),  # s = 12 <= n/2 = 15
    ])
    def test_curvature_is_exact_on_both_operator_paths(self, kind, path):
        factor, _ = _wide_instance(30, seed=3)
        m = (build_baseline(factor) if kind == "baseline"
             else build_sketch(factor, SketchConfig(kind="countsketch", s=12, seed=3)))
        op = gradient_operator(m)
        assert type(op) is path
        exact = 2.0 * np.linalg.norm(m.L_eff, 2) ** 2
        assert curvature_constants(op).L_f == pytest.approx(exact, rel=1e-12)
        assert estimate_spectral_norm(op)[0] == pytest.approx(np.linalg.norm(m.L_eff, 2),
                                                              rel=1e-12)

    def test_step_is_at_most_one_over_l(self):
        # A slowly decaying spectrum, on which a 10-step power estimate of the
        # curvature fell to 0.968 * 2 * sigma_1^2: even inflated by 1.05, its
        # step exceeded 1/L.
        spec = SyntheticSpec(n=400, T=1600, singular_decay=0.97, noise_floor=0.01, seed=0)
        factor = center_and_factor(generate_synthetic(spec))
        m = build_sketch(factor, SketchConfig("countsketch", 170, 0))
        fs = FeasibleSet(mu=factor.mean, R_target=float(np.percentile(factor.mean, 60)))
        res = solve(m, fs, cfg=SolverConfig(max_iters=1))
        sigma_1 = np.linalg.norm(m.L_eff, 2)
        assert 1.0 / res.L_f <= 1.0 / (2.0 * sigma_1**2) * (1.0 + 1e-12)
        assert res.L_f == pytest.approx(2.0 * sigma_1**2, rel=1e-12)


class TestCurvature:
    def test_str_wide_factor(self):
        m = str_model(np.random.default_rng(0).standard_normal((5, 2)), gamma=0.1)
        consts = curvature_constants(m)
        assert consts.m_f == pytest.approx(0.2)
        assert consts.kappa == consts.L_f / consts.m_f

    def test_full_rank_baseline_has_exact_strong_convexity(self):
        # A factor of full row rank has m_f = 2 * sigma_n^2 on both operators.
        m = build_baseline(factor_of(np.diag([3.0, 1.0])))
        for op in (m, gradient_operator(m)):
            consts = curvature_constants(op)
            assert (consts.L_f, consts.m_f) == pytest.approx((18.0, 2.0), rel=1e-15)
            assert consts.kappa == pytest.approx(9.0, rel=1e-15)

    def test_rank_deficient_sketch(self):
        m = FactorModel(L_eff=np.random.default_rng(1).standard_normal((5, 3)),
                        gamma=0.0, kind="sketch")
        assert curvature_constants(m).m_f == 0.0

    @pytest.mark.parametrize("T", [30, 40])
    def test_centered_panel_with_t_at_most_n_has_no_curvature(self, T):
        # Centering leaves rank T - 1 < n = 40, yet T > n/2 columns put the
        # solve on the dense Hessian, whose last eigenvalue is roundoff.
        spec = SyntheticSpec(n=40, T=T, singular_decay=0.9, noise_floor=0.03, seed=0)
        factor = center_and_factor(generate_synthetic(spec))
        m = build_baseline(factor)
        op = gradient_operator(m)
        assert isinstance(op, DenseHessian)
        assert np.linalg.eigvalsh(op.H)[0] != 0.0  # roundoff, not curvature
        consts = curvature_constants(op)
        assert consts.m_f == 0.0 and consts.kappa is None
        fs = FeasibleSet(mu=factor.mean, R_target=float(np.percentile(factor.mean, 60)))
        res = solve(m, fs, cfg=SolverConfig(tol=1e-8))
        assert res.m_f == 0.0 and res.kappa is None

    def test_str_with_ell_at_n_reads_sigma_n(self):
        m = str_model(np.diag([2.0, 1.0, 0.5]), gamma=0.25)
        consts = curvature_constants(m)
        assert consts.m_f == pytest.approx(2.0 * (0.25 + 0.25), rel=1e-15)
        assert consts.kappa == pytest.approx((4.0 + 0.25) / (0.25 + 0.25), rel=1e-15)


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
        with pytest.raises(InfeasibleTargetError, match="exceeds max"):
            FeasibleSet(mu=np.array([0.1, 0.2]), R_target=0.9)

    def test_every_iterate_feasible(self):
        rng = np.random.default_rng(8)
        spec = SyntheticSpec(n=6, T=24, singular_decay=0.8, seed=3)
        m = build_baseline(center_and_factor(generate_synthetic(spec)))
        mu = rng.standard_normal(6)
        fs = FeasibleSet(mu=mu, R_target=float(np.quantile(mu, 0.5)))
        cfg = SolverConfig(tol=1e-10, max_iters=300)
        res = solve(m, fs, cfg=cfg)
        x = res.x
        assert x.min() >= -1e-12 and abs(x.sum() - 1) <= 1e-10
        assert fs.mu @ x >= fs.R_target - 1e-9

    def test_warm_started_projection_matches_cold(self, monkeypatch):
        import strmv.projection as projection
        import strmv.solver as solver

        spec = SyntheticSpec(n=40, T=160, singular_decay=0.9, noise_floor=0.03, seed=2)
        factor = center_and_factor(generate_synthetic(spec))
        m = build_baseline(factor)
        fs = FeasibleSet(mu=factor.mean, R_target=float(np.quantile(factor.mean, 0.85)))
        cfg = SolverConfig(tol=1e-8, max_iters=20000)
        simplex_calls = []
        original = projection.project_simplex

        def counted(v):
            simplex_calls[-1] += 1
            return original(v)

        monkeypatch.setattr(projection, "project_simplex", counted)
        simplex_calls.append(0)
        warm = solve(m, fs, cfg=cfg)
        cold_project = lambda v, fs, support=None: projection.project_feasible(v, fs)
        monkeypatch.setattr(solver, "project_feasible", cold_project)
        simplex_calls.append(0)
        cold = solve(m, fs, cfg=cfg)
        assert warm.termination == cold.termination == "tolerance"
        assert warm.iterations == cold.iterations
        np.testing.assert_allclose(warm.x, cold.x, rtol=0, atol=1e-12)
        assert fs.mu @ warm.x >= fs.R_target - 1e-12  # the target binds
        assert simplex_calls[0] < simplex_calls[1]

    def test_residual_trace_terminates_below_tol(self):
        m = build_baseline(factor_of(np.diag([1.0, 2.0])))
        fs = FeasibleSet(mu=np.array([1.0, 1.0]), R_target=0.5)
        res = solve(m, fs, cfg=SolverConfig(tol=1e-9, max_iters=10000))
        assert res.termination == "tolerance"
        assert res.residual_trace[-1] <= 1e-9

    @staticmethod
    def _binding_baseline_solve(n, momentum_mode):
        # A binding target and a tight tol: near the optimum the residual must
        # still fall below tol rather than stall above it until max_iters.
        spec = SyntheticSpec(n=n, T=4 * n, singular_decay=0.9, noise_floor=0.03, seed=1)
        factor = center_and_factor(generate_synthetic(spec))
        m = build_baseline(factor)
        fs = FeasibleSet(mu=factor.mean, R_target=float(np.percentile(factor.mean, 85)))
        res = solve(m, fs, cfg=SolverConfig(tol=1e-9, momentum_mode=momentum_mode,
                                            max_iters=20000))
        assert res.termination == "tolerance"
        return res

    @pytest.mark.parametrize("n", [20, 30, 40])
    def test_fixed_step_stops_on_tolerance_near_the_optimum(self, n):
        assert self._binding_baseline_solve(n, "auto").momentum == "fista_restart"

    @pytest.mark.parametrize("n", [20, 30, 40])
    def test_fixed_step_without_restart_stops_on_tolerance(self, n):
        assert self._binding_baseline_solve(n, "fista").momentum == "fista"

    def test_fixed_step_evaluates_the_objective_once(self, monkeypatch):
        import strmv.solver as solver

        calls = []
        original = solver.objective
        monkeypatch.setattr(solver, "objective",
                            lambda model, x: calls.append(1) or original(model, x))
        spec = SyntheticSpec(n=5, T=30, singular_decay=0.8, seed=9)
        m = build_baseline(center_and_factor(generate_synthetic(spec)))
        fs = FeasibleSet(mu=np.linspace(-1, 1, 5), R_target=0.0)
        res = solve(m, fs, cfg=SolverConfig(tol=1e-11, max_iters=20000))
        assert res.iterations > 0
        assert len(calls) == 1  # the final result's objective only

    def test_constant_momentum_is_not_a_mode(self):
        # Constant momentum follows from the curvature (m_f > 0);
        # it cannot be pinned, so a model without curvature cannot ask for it.
        with pytest.raises(ArgumentError, match="unknown momentum mode 'strongly_convex'"):
            SolverConfig(momentum_mode="strongly_convex")

    def test_zero_factor_stops_immediately(self):
        m = build_baseline(factor_of(np.zeros((2, 3))))
        fs = FeasibleSet(mu=np.array([1.0, 0.0]), R_target=0.2)
        assert solve(m, fs).iterations == 0

    def test_identity_factor_slack_target_is_uniform(self):
        n = 5
        m = build_baseline(factor_of(np.eye(n)))
        fs = FeasibleSet(mu=np.full(n, 1.0), R_target=0.5)  # slack for any x
        res = solve(m, fs, cfg=SolverConfig(tol=1e-11, max_iters=5000))
        np.testing.assert_allclose(res.x, np.full(n, 1.0 / n), atol=1e-8)

    def test_objective_trace_recorded(self):
        m = build_baseline(factor_of(np.diag([1.0, 2.0])))
        fs = FeasibleSet(mu=np.array([1.0, 1.0]), R_target=0.5)
        res = solve(m, fs, cfg=SolverConfig(tol=1e-10, max_iters=50))
        assert isinstance(res.objective_trace, np.ndarray)
        assert len(res.objective_trace) == res.iterations + 1


def _str_desk_model(n, seed):
    spec = SyntheticSpec(n=n, T=4 * n, singular_decay=0.9, noise_floor=0.03, seed=seed)
    factor = center_and_factor(generate_synthetic(spec))
    m = build_str(factor, SketchConfig(kind="gaussian_jl", s=2 * n, seed=seed), ell=n // 4)
    fs = FeasibleSet(mu=factor.mean, R_target=float(np.percentile(factor.mean, 85)))
    return m, fs


class TestMomentumRegime:
    def test_default_str_solve_is_constant_momentum(self):
        m, fs = _str_desk_model(60, seed=3)
        default = solve(m, fs, cfg=SolverConfig(tol=1e-9))
        assert default.termination == "tolerance"
        assert default.momentum == "strongly_convex"
        assert default.restarts == 0

    def test_str_curvature_is_exact_without_power_method(self):
        m, fs = _str_desk_model(40, seed=4)
        consts = curvature_constants(m)
        assert consts.L_f == 2.0 * (m.singular_values[0] ** 2 + m.gamma)
        assert consts.m_f == 2.0 * m.gamma
        assert solve(m, fs, cfg=SolverConfig(tol=1e-8)).L_f == consts.L_f

    def test_default_str_solve_reports_its_kappa_target(self):
        m, fs = _str_desk_model(60, seed=3)
        res = solve(m, fs, cfg=SolverConfig(tol=1e-9))
        assert m.provenance["kappa_target"] == 1e3
        assert res.kappa == pytest.approx(1e3, rel=1e-12)
        assert res.m_f == 2.0 * m.gamma

    def test_full_rank_ridgeless_baseline_keeps_restart(self):
        # Exact m_f > 0, but kappa = 6.7e5: constant momentum from it took
        # 3180 iterations where restart takes 340 (solver module docstring).
        spec = SyntheticSpec(n=200, T=201, singular_decay=0.9, noise_floor=0.0316, seed=0)
        factor = center_and_factor(generate_synthetic(spec))
        fs = FeasibleSet(mu=factor.mean, R_target=float(np.percentile(factor.mean, 85)))
        res = solve(build_baseline(factor), fs,
                    cfg=SolverConfig(tol=1e-7, residual_check_stride=5))
        assert res.m_f > 0.0 and 1e5 < res.kappa < 1e6
        assert res.kappa == res.L_f / res.m_f
        assert res.momentum == "fista_restart" and res.termination == "tolerance"

    @pytest.mark.parametrize("kind", [
        "baseline",  # dense Hessian
        "sketch",  # s = 12 <= n/2: factor path
        "str",
    ])
    def test_no_eigensolve_inside_solve(self, monkeypatch, kind):
        factor, fs = _wide_instance(30, seed=3)
        cfg = SketchConfig(kind="countsketch", s=12, seed=3)
        m = {"baseline": lambda: build_baseline(factor),
             "sketch": lambda: build_sketch(factor, cfg),
             "str": lambda: build_str(factor, cfg)}[kind]()
        refuse_eigensolves(monkeypatch)
        res = solve(m, fs, cfg=SolverConfig(tol=1e-8))
        assert res.termination == "tolerance"
        assert res.L_f == 2.0 * (m.singular_values[0] ** 2 + m.gamma)

    def test_a_second_baseline_solve_forms_no_gram_and_no_spectrum(self, monkeypatch):
        # The desk_target pattern: every op builds and solves a baseline on
        # the same factor, whose Sigma and spectrum the first one formed.
        factor, fs = _wide_instance(30, seed=3)  # T = 4n: the baseline reads Sigma
        first = solve(build_baseline(factor), fs, cfg=SolverConfig(tol=1e-8))
        refuse_eigensolves(monkeypatch)
        second = build_baseline(factor)
        assert second.singular_values is factor.singular_values
        second.L_eff = second.L_eff.view(_NoGram)
        again = solve(second, fs, cfg=SolverConfig(tol=1e-8))
        assert again.iterations == first.iterations
        np.testing.assert_array_equal(again.x, first.x)

    def test_restart_beats_plain_fista_on_a_binding_baseline(self):
        spec = SyntheticSpec(n=200, T=800, singular_decay=0.9, noise_floor=0.03, seed=0)
        factor = center_and_factor(generate_synthetic(spec))
        m = build_baseline(factor)
        fs = FeasibleSet(mu=factor.mean, R_target=float(np.percentile(factor.mean, 85)))
        cfg = SolverConfig(tol=1e-8, max_iters=20000)
        default = solve(m, fs, cfg=cfg)
        fista = solve(m, fs, cfg=SolverConfig(momentum_mode="fista", tol=1e-8,
                                              max_iters=20000))
        assert fs.mu @ default.x == pytest.approx(fs.R_target, abs=1e-10)  # binding
        assert default.termination == fista.termination == "tolerance"
        assert default.iterations < fista.iterations
        assert (default.momentum, fista.momentum) == ("fista_restart", "fista")
        assert default.restarts > 0 and fista.restarts == 0
        assert default.objective == pytest.approx(fista.objective, rel=1e-7)


def refuse_eigensolves(monkeypatch):
    """Make every numpy eigensolve and SVD raise from here on."""
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolve ran")

    for name in ("eigvalsh", "eigh", "eig", "eigvals", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)


class _NoGram(np.ndarray):
    """A factor that refuses to be multiplied by its own transpose."""

    def __matmul__(self, other):
        if other.ndim == 2 and np.shares_memory(self, other):
            raise AssertionError("a Gram matrix of the factor was formed")
        return self.view(np.ndarray) @ other


def _wide_instance(n, seed):
    spec = SyntheticSpec(n=n, T=4 * n, singular_decay=0.9, noise_floor=0.03, seed=seed)
    factor = center_and_factor(generate_synthetic(spec))
    fs = FeasibleSet(mu=factor.mean, R_target=float(np.percentile(factor.mean, 85)))
    return factor, fs


class TestCompactFactor:
    """A factor with more than n/2 columns is solved on its dense Hessian,
    the compact n x n operator H = 2 * (L_eff @ L_eff.T + gamma * I); a
    narrower one keeps the factor path."""

    @pytest.mark.parametrize("kind", ["baseline", "sketch"])
    def test_wide_solve_matches_the_compacted_model(self, kind):
        factor, fs = _wide_instance(30, seed=2)
        if kind == "baseline":
            wide = build_baseline(factor)
        else:
            wide = build_sketch(factor, SketchConfig(kind="gaussian_jl", s=80, seed=5))
        assert wide.columns > wide.n
        compact = FactorModel(L_eff=np.linalg.qr(wide.L_eff.T, mode="r").T,
                              gamma=0.0, kind=kind)
        cfg = SolverConfig(tol=1e-10, max_iters=20_000)
        a, b = solve(wide, fs, cfg=cfg), solve(compact, fs, cfg=cfg)
        assert a.termination == b.termination == "tolerance"
        assert a.iterations == b.iterations
        np.testing.assert_allclose(a.x, b.x, rtol=0.0, atol=1e-12)
        assert a.objective == pytest.approx(b.objective, rel=1e-12)
        # The reported objective is the wide model's own at the solution.
        assert a.objective == objective(wide, a.x)

    def test_wide_solve_iterates_on_the_square_factor(self, monkeypatch):
        import strmv.solver as solver

        seen = []
        for name in ("gradient", "estimate_spectral_norm"):
            original = getattr(solver, name)

            def recording(model, *args, _original=original):
                seen.append((type(model), model.n, model.columns))
                return _original(model, *args)

            monkeypatch.setattr(solver, name, recording)
        factor, fs = _wide_instance(30, seed=2)
        solve(build_baseline(factor), fs, cfg=SolverConfig(tol=1e-8))
        assert len(seen) > 2 and set(seen) == {(DenseHessian, 30, 30)}

    @pytest.mark.parametrize("kind", ["baseline", "sketch", "str"])
    def test_hessian_is_twice_the_model_covariance(self, kind):
        # One place forms L_eff @ L_eff.T + gamma * I: the solver's Hessian is
        # exactly twice FactorModel.covariance, bit for bit.
        factor, _ = _wide_instance(30, seed=2)
        cfg = SketchConfig(kind="countsketch", s=80, seed=5)
        if kind == "baseline":
            m = build_baseline(factor)
        elif kind == "sketch":
            m = build_sketch(factor, cfg)
        else:
            m = build_str(factor, cfg, ell=20, gamma=0.05)  # ell > n/2: a dense Hessian
        sigma = m.covariance()
        H = gradient_operator(m).H
        assert m.gamma == (0.05 if kind == "str" else 0.0)
        np.testing.assert_array_equal(H.view(np.int64), (2.0 * sigma).view(np.int64))
        explicit = m.L_eff @ m.L_eff.T + m.gamma * np.eye(m.n)
        np.testing.assert_array_equal(sigma.view(np.int64), explicit.view(np.int64))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_compact_covariance_is_exact(self, data):
        # The solve's gradient is 2 * (L @ L.T + gamma * I) @ x for wide,
        # square, near-square (n/2 < columns < n) and rank-deficient factors.
        n = data.draw(st.integers(1, 12))
        columns = data.draw(st.integers(n // 2 + 1, 8 * n))
        rank = data.draw(st.integers(0, min(n, columns)))  # below that: rank-deficient
        gamma = data.draw(st.sampled_from([0.0, 0.3]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        L = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, columns))
        m = (str_model(L, gamma) if gamma
             else FactorModel(L_eff=L, gamma=0.0, kind="baseline"))
        op = gradient_operator(m)
        assert isinstance(op, DenseHessian) and op.H.shape == (n, n)
        x = rng.uniform(0.0, 1.0, n)
        x /= x.sum()
        cov = L @ L.T
        expect = 2.0 * (cov + gamma * np.eye(n)) @ x
        err = np.abs(gradient(op, x) - expect).max()
        assert err <= 1e-12 * max(np.abs(cov).max(), gamma)

    def test_wide_str_keeps_its_leading_spectrum(self):
        m = str_model(np.random.default_rng(0).standard_normal((4, 9)), gamma=0.1)
        op = gradient_operator(m)
        assert isinstance(op, DenseHessian) and op.H.shape == (4, 4)
        assert op.gamma == m.gamma and op.singular_values is m.singular_values
        assert curvature_constants(op).L_f == curvature_constants(m).L_f
        x = np.random.default_rng(1).standard_normal(4)
        np.testing.assert_allclose(gradient(op, x), gradient(m, x), rtol=0, atol=1e-12)

    def test_narrow_factors_keep_the_factor_path(self, monkeypatch):
        import strmv.solver as solver

        m, fs = _str_desk_model(40, seed=4)
        factor, _ = _wide_instance(40, seed=4)
        half = FactorModel(L_eff=factor.L[:, :20], gamma=0.0, kind="baseline")
        assert 2 * m.columns <= m.n and 2 * half.columns == half.n
        assert gradient_operator(m) is m and gradient_operator(half) is half
        above = FactorModel(L_eff=factor.L[:, :21], gamma=0.0, kind="baseline")
        assert isinstance(gradient_operator(above), DenseHessian)
        seen = set()
        original = solver.gradient
        monkeypatch.setattr(solver, "gradient",
                            lambda op, x: seen.add(id(op)) or original(op, x))
        assert solve(m, fs, cfg=SolverConfig(tol=1e-8)).termination == "tolerance"
        assert solve(half, fs, cfg=SolverConfig(tol=1e-8)).termination == "tolerance"
        assert seen == {id(m), id(half)}

    def test_wall_time_includes_the_compaction(self, monkeypatch):
        import time

        import strmv.solver as solver

        def slow_operator(model, _original=solver.gradient_operator):
            time.sleep(0.05)
            return _original(model)

        monkeypatch.setattr(solver, "gradient_operator", slow_operator)
        factor, fs = _wide_instance(6, seed=1)
        result = solve(build_baseline(factor), fs, cfg=SolverConfig(tol=1e-8))
        assert result.wall_time_s >= 0.05

    def test_nan_in_a_wide_factor_raises(self):
        factor, fs = _wide_instance(6, seed=1)
        L = factor.L.copy()
        L[2, 7] = np.nan
        with pytest.raises(NumericError):
            solve(FactorModel(L_eff=L, gamma=0.0, kind="baseline"), fs)
        # A factor of at most n/2 columns keeps the factor path; its exact
        # curvature must refuse the NaN as well.
        with pytest.raises(NumericError):
            solve(FactorModel(L_eff=L[:, 5:8], gamma=0.0, kind="baseline"), fs)


class _CountedProducts(np.ndarray):
    """An H that records how ``gradient`` reads it: the sizes of its row
    gathers and the number of full products. Both return plain arrays."""

    gathers: list = []
    full: list = []

    def __getitem__(self, key):
        if isinstance(key, np.ndarray):
            self.gathers.append(key.size)
        return self.view(np.ndarray)[key]

    def __matmul__(self, other):
        self.full.append(1)
        return self.view(np.ndarray) @ other


class TestHeldRows:
    """On a dense Hessian, an iterate holding at most n/4 assets is multiplied
    by its held rows alone: H[held].T @ x[held], which leaves out only terms
    H_ij * 0 of H @ x."""

    @pytest.mark.parametrize("n", [40, 600])
    def test_matches_the_full_product(self, n):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        H = A @ A.T + np.eye(n)  # symmetric positive definite
        sv = np.sqrt(np.linalg.eigvalsh(H / 2)[::-1])
        op = DenseHessian(H=H, gamma=0.0, singular_values=sv)
        for count in (0, 1, n // 4, n // 4 + 1, n):
            held = rng.choice(n, count, replace=False)
            x = np.zeros(n)
            x[held] = rng.standard_normal(count)  # negative weights as well
            x[np.setdiff1d(np.arange(n), held)[::2]] = -0.0
            g = gradient(op, x)
            assert g.shape == (n,)
            if count == 0:
                assert np.array_equal(g, np.zeros(n))
            err = np.abs(g - H @ x).max()
            assert err <= 1e-12 * np.abs(H).max() * np.abs(x).sum(), count

    def test_desk_solve_matches_the_full_product(self, monkeypatch):
        import strmv.solver as solver

        decline_face_solves(monkeypatch)  # both solves run the loop to tolerance
        factor, fs = _wide_instance(200, seed=2)  # 85th-percentile target, T = 4n
        baseline = build_baseline(factor)
        cfg = SolverConfig(tol=1e-7, residual_check_stride=5)

        def counted_operator(model, _original=solver.gradient_operator):
            op = _original(model)
            return dataclasses.replace(op, H=op.H.view(_CountedProducts))

        monkeypatch.setattr(solver, "gradient_operator", counted_operator)
        monkeypatch.setattr(_CountedProducts, "gathers", [])
        monkeypatch.setattr(_CountedProducts, "full", [])
        held_rows = solve(baseline, fs, cfg=cfg)
        gathers, full = _CountedProducts.gathers, _CountedProducts.full
        assert gathers and all(4 * size <= baseline.n for size in gathers)
        assert len(gathers) + len(full) == held_rows.iterations + 1

        original = solver.gradient
        monkeypatch.setattr(
            solver, "gradient",
            lambda op, x: op.H.view(np.ndarray) @ x if isinstance(op, DenseHessian)
            else original(op, x))
        full_product = solve(baseline, fs, cfg=cfg)
        assert held_rows.termination == full_product.termination == "tolerance"
        assert held_rows.iterations == full_product.iterations
        np.testing.assert_allclose(held_rows.x, full_product.x, rtol=0, atol=1e-12)


def decline_face_solves(monkeypatch):
    """Make every face solve that ``solve`` tries return no point, so that it
    runs the accelerated loop alone."""
    import strmv.solver as solver

    monkeypatch.setattr(solver, "face_solve", lambda *args: None)


def _beyond_rank_instance(case, binding):
    """A ridgeless sketch model whose solution holds more assets than its rank,
    its feasible set, and its rank (sigma^2 >= RANK_TOL * sigma_1^2). "dense20"
    (T = s = 12, rank 10) and "dense14" (T = s = 8, rank 6) run on the dense
    Hessian, "factor14" (s = 5 <= n/2) on the factor. The binding targets are
    ones at which points of f = 0 still meet the target."""
    n, T, decay, floor, s, seed, percentile = {
        ("dense20", False): (20, 12, 0.9, 0.02, 12, 0, 0),
        ("dense20", True): (20, 12, 0.9, 0.02, 12, 0, 41),
        ("dense14", False): (14, 8, 0.9, 0.02, 8, 1, 0),
        ("dense14", True): (14, 8, 0.9, 0.02, 8, 1, 70),
        ("factor14", False): (14, 70, 0.85, 0.05, 5, 1, 0),
        ("factor14", True): (14, 70, 0.85, 0.05, 5, 1, 50),
    }[case, binding]
    factor = center_and_factor(generate_synthetic(SyntheticSpec(
        n=n, T=T, singular_decay=decay, noise_floor=floor, seed=seed)))
    m = build_sketch(factor, SketchConfig(kind="countsketch", s=s, seed=seed))
    fs = FeasibleSet(mu=factor.mean, R_target=float(np.percentile(factor.mean, percentile)))
    sv = m.singular_values
    return m, fs, int(np.count_nonzero(sv**2 >= RANK_TOL * sv[0] ** 2))


def _reference_solve(model, fs, alpha, momentum, tol, max_iters):
    """The accelerated loop with no gradient reuse: a gradient on the dense
    covariance at every extrapolated point y and at every residual check."""
    hess = 2.0 * model.covariance()
    grad = lambda p: hess @ p
    project = lambda p: project_feasible(p, fs)[0]
    x = project(np.full(fs.n, 1.0 / fs.n))
    if np.linalg.norm(project(x - alpha * grad(x)) - x) <= tol:
        return x, 0
    if momentum == "strongly_convex":
        root = math.sqrt(alpha * 2.0 * model.gamma)
        beta_const = (1.0 - root) / (1.0 + root)
    y, t_k = x, 1.0
    for k in range(1, max_iters + 1):
        x_new = project(y - alpha * grad(y))
        if momentum == "strongly_convex":
            beta = beta_const
        elif momentum == "fista_restart" and float((y - x_new) @ (x_new - x)) > 0.0:
            t_k, beta = 1.0, 0.0
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k))
            beta = (t_k - 1.0) / t_next
            t_k = t_next
        y = x_new + beta * (x_new - x)
        x = x_new
        if np.linalg.norm(project(x - alpha * grad(x)) - x) <= tol:
            return x, k
    return x, max_iters


class TestGradientReuse:
    """One gradient per iterate: the step's gradient at y comes from the last
    two iterates' by linearity, and each residual check reuses its own. A
    face solve's point takes one more, for its residual test."""

    @staticmethod
    def _models(n=30, seed=2):
        factor, fs = _wide_instance(n, seed=seed)
        return fs, {
            "baseline": build_baseline(factor),
            "sketch": build_sketch(factor, SketchConfig(kind="countsketch", s=2 * n, seed=seed)),
            "str": build_str(factor, SketchConfig(kind="gaussian_jl", s=2 * n, seed=seed),
                             ell=n // 3),
        }

    @pytest.mark.parametrize("stride", [1, 5])
    def test_one_gradient_per_iteration(self, monkeypatch, stride):
        import strmv.solver as solver

        calls, points = [], []  # points: per face tried, whether it returned one
        original, original_face_solve = solver.gradient, solver.face_solve

        def recorded_face_solve(*args):
            x = original_face_solve(*args)
            points.append(x is not None)
            return x

        monkeypatch.setattr(solver, "gradient",
                            lambda op, x: calls.append(1) or original(op, x))
        monkeypatch.setattr(solver, "face_solve", recorded_face_solve)
        fs, built = self._models()
        for kind, m in built.items():
            calls.clear()
            points.clear()
            res = solve(m, fs, cfg=SolverConfig(tol=1e-9, residual_check_stride=stride))
            assert res.termination == "tolerance" and res.iterations > 0, kind
            assert any(points) and len(points) == res.face_solves, kind
            assert len(calls) == res.iterations + 1 + sum(points), kind

    @pytest.mark.parametrize("kind, mode, momentum", [
        ("baseline", "auto", "fista_restart"),
        ("baseline", "fista", "fista"),
        ("str", "auto", "strongly_convex"),
    ])
    def test_matches_a_loop_that_takes_the_gradient_at_y(self, monkeypatch, kind, mode,
                                                          momentum):
        decline_face_solves(monkeypatch)
        fs, built = self._models()
        m = built[kind]
        res = solve(m, fs, cfg=SolverConfig(tol=1e-9, momentum_mode=mode, max_iters=5000))
        assert res.momentum == momentum and res.termination == "tolerance"
        x, iterations = _reference_solve(m, fs, 1.0 / res.L_f, momentum, 1e-9, 5000)
        assert res.iterations == iterations
        np.testing.assert_allclose(res.x, x, rtol=0, atol=1e-12)


class TestObjectiveTrace:
    """Every solve records f(x_k) = x_k . grad f(x_k) / 2 for k = 0..iterations,
    from the gradient it already holds: f has no linear term."""

    @staticmethod
    def _models(n=30, seed=2):
        factor, fs = _wide_instance(n, seed=seed)
        return fs, {
            "baseline": build_baseline(factor),  # more than n/2 columns: DenseHessian
            "sketch": build_sketch(factor, SketchConfig(kind="countsketch", s=n // 2, seed=seed)),
            "str": build_str(factor, SketchConfig(kind="gaussian_jl", s=2 * n, seed=seed),
                             ell=n // 3),
        }

    @pytest.mark.parametrize("stride", [1, 5])
    def test_one_entry_per_iterate(self, stride):
        fs, built = self._models()
        for kind, m in built.items():
            res = solve(m, fs, cfg=SolverConfig(tol=1e-9, residual_check_stride=stride))
            assert res.termination == "tolerance" and res.iterations > 0, kind
            assert res.objective_trace.shape == (res.iterations + 1,), kind

    def test_one_entry_when_the_start_is_optimal(self):
        m = build_baseline(factor_of(np.eye(2)))
        fs = FeasibleSet(mu=np.array([0.1, 0.2]), R_target=0.1)
        res = solve(m, fs, x0=np.array([0.5, 0.5]), cfg=SolverConfig(tol=1e-8))
        assert res.iterations == 0
        np.testing.assert_allclose(res.objective_trace, [res.objective], rtol=1e-12)
        assert as_json(res)["objective_trace"] == res.objective_trace.tolist()

    @pytest.mark.parametrize("kind, dense", [
        ("baseline", True), ("sketch", False), ("str", False),
    ])
    def test_last_entry_is_the_objective(self, kind, dense):
        fs, built = self._models()
        m = built[kind]
        assert isinstance(gradient_operator(m), DenseHessian) == dense
        res = solve(m, fs, cfg=SolverConfig(tol=1e-9))
        assert res.iterations > 0
        assert res.objective_trace[-1] == pytest.approx(res.objective, rel=1e-12)
        assert as_json(res)["objective_trace"] == res.objective_trace.tolist()


class TestFaceSolve:
    """Once the support has held still for FACE_WAIT iterates, ``solve`` solves
    the KKT system of that face and returns its point when the point passes
    the residual test: the exact optimum, with exact zeros off its support."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("percentile, binding", [(0, False), (85, True)])
    @pytest.mark.parametrize("kind, dense", [
        ("baseline", True), ("sketch", True), ("str_dense", True), ("str_factor", False),
    ])
    def test_matches_enumeration(self, kind, dense, percentile, binding, seed):
        n = 8
        factor = center_and_factor(generate_synthetic(SyntheticSpec(
            n=n, T=5 * n, singular_decay=0.85, noise_floor=0.05, seed=seed)))
        jl = SketchConfig(kind="gaussian_jl", s=5 * n, seed=seed)
        m = {"baseline": lambda: build_baseline(factor),
             "sketch": lambda: build_sketch(factor, SketchConfig(kind="countsketch", s=3 * n,
                                                                 seed=seed)),
             "str_dense": lambda: build_str(factor, jl, ell=n - 1, kappa_target=100.0),
             "str_factor": lambda: build_str(factor, jl, ell=n // 3, kappa_target=100.0),
             }[kind]()
        fs = FeasibleSet(mu=factor.mean, R_target=float(np.percentile(factor.mean, percentile)))
        res = solve(m, fs, cfg=SolverConfig(tol=1e-10, max_iters=20000))
        assert isinstance(gradient_operator(m), DenseHessian) == dense  # str_factor: Woodbury
        oracle = solve_exact(QPInstance(Q=2.0 * m.covariance(), c=np.zeros(fs.n), fs=fs))
        assert oracle.return_active == binding
        # Stride 1: one residual per iterate, and one more for the face's point.
        assert res.termination == "tolerance" and res.face_solves >= 1
        assert res.residual_trace.size == res.iterations + 2
        assert res.residual_trace[-1] <= 1e-14
        np.testing.assert_allclose(res.x, oracle.x, rtol=0, atol=1e-12)
        assert res.x.min() >= 0.0
        assert np.array_equal(np.flatnonzero(res.x == 0.0), oracle.active_bounds)
        assert res.objective_trace.shape == (res.iterations + 1,)
        assert res.objective_trace[-1] == pytest.approx(res.objective, rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("percentile", [0, 85])
    def test_ridgeless_factor_path_matches_enumeration(self, percentile, seed):
        # A sketch model with n/2 columns runs on its factor and has no ridge:
        # its face solve is one on the block L_S @ L_S.T of a support that
        # fits under the rank.
        n = 14
        factor = center_and_factor(generate_synthetic(SyntheticSpec(
            n=n, T=5 * n, singular_decay=0.85, noise_floor=0.05, seed=seed)))
        m = build_sketch(factor, SketchConfig(kind="countsketch", s=n // 2, seed=seed))
        fs = FeasibleSet(mu=factor.mean, R_target=float(np.percentile(factor.mean, percentile)))
        assert gradient_operator(m) is m and m.gamma == 0.0
        res = solve(m, fs, cfg=SolverConfig(tol=1e-10, max_iters=20000))
        oracle = solve_exact(QPInstance(Q=2.0 * m.covariance(), c=np.zeros(n), fs=fs))
        assert res.termination == "tolerance" and res.face_solves >= 1
        assert res.residual_trace[-1] <= 1e-14
        assert np.count_nonzero(res.x) <= n // 2
        np.testing.assert_allclose(res.x, oracle.x, rtol=0, atol=1e-12)

    def test_zeros_off_the_support_are_exact(self, monkeypatch):
        # The face's point is not projected: it holds no weight of roundoff
        # size off its support, and the loop run to a tight tol holds the
        # same assets.
        m, fs = _str_desk_model(60, seed=3)
        face = solve(m, fs, cfg=SolverConfig(tol=1e-8))
        decline_face_solves(monkeypatch)
        loop = solve(m, fs, cfg=SolverConfig(tol=1e-12, max_iters=20000))
        assert face.residual_trace[-1] <= 1e-14 and face.iterations < loop.iterations
        assert face.x.min() == 0.0 and np.array_equal(face.x > 0.0, loop.x > 0.0)
        assert abs(face.x.sum() - 1.0) <= 60 * np.finfo(float).eps
        np.testing.assert_allclose(face.x, loop.x, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("case, binding", [
        ("dense20", False), ("dense20", True), ("dense14", False), ("dense14", True),
        ("factor14", False), ("factor14", True),
    ])
    def test_support_beyond_the_rank_ends_on_a_zero_objective_point(self, case, binding):
        # The solution holds more assets than the model's rank plus the face's
        # rows, so the face holds a whole set of points with f = 0, the global
        # minimum, and the solve ends on one at roundoff.
        m, fs, rank = _beyond_rank_instance(case, binding)
        assert m.gamma == 0.0
        assert isinstance(gradient_operator(m), DenseHessian) == case.startswith("dense")
        res = solve(m, fs, cfg=SolverConfig(tol=1e-8, max_iters=20000))
        assert res.termination == "tolerance" and res.face_solves >= 1
        # The face's point ends the trace: one residual per iterate, one for it.
        assert res.residual_trace.size == res.iterations + 2
        assert res.residual_trace[-1] <= 1e-14
        assert np.count_nonzero(res.x) > rank + 1 + binding
        # x >= 0, and its zeros are exact: no weight of roundoff size is left.
        assert res.x.min() >= 0.0 and res.x[res.x > 0.0].min() > 1e-9
        assert abs(res.x.sum() - 1.0) <= fs.n * np.finfo(float).eps
        assert (float(fs.mu @ res.x) - fs.R_target <= 1e-12) == binding
        assert float(fs.mu @ res.x) >= fs.R_target - 1e-15
        if fs.n <= MAX_ORACLE_DIM:
            oracle = solve_exact(QPInstance(Q=2.0 * m.covariance(), c=np.zeros(fs.n), fs=fs))
            assert abs(res.objective - oracle.value) <= 1e-12
        else:
            # f >= 0 everywhere, so an objective in [0, 1e-12] is within 1e-12 of
            # the optimum the enumeration oracle, limited to n <= 14, would find.
            assert 0.0 <= res.objective <= 1e-12

    def test_a_declined_wide_face_leaves_the_loop_unchanged(self, monkeypatch):
        import strmv.solver as solver

        m, fs, rank = _beyond_rank_instance("dense20", False)
        cfg = SolverConfig(tol=1e-8, max_iters=20000)
        supports = []

        def declined(L_eff, fs, idx, *args):
            supports.append(idx.size)
            return None

        monkeypatch.setattr(solver, "_zero_point", declined)
        res = solve(m, fs, cfg=cfg)
        monkeypatch.setattr(solver, "FACE_WAIT", cfg.max_iters + 1)  # no face is tried
        loop = solve(m, fs, cfg=cfg)
        assert supports and all(size > rank + 1 for size in supports)
        assert res.face_solves == len(supports) and loop.face_solves == 0
        assert res.termination == loop.termination == "tolerance"
        assert (res.iterations, res.restarts) == (loop.iterations, loop.restarts)
        np.testing.assert_array_equal(res.x, loop.x)
        np.testing.assert_array_equal(res.residual_trace, loop.residual_trace)
        np.testing.assert_array_equal(res.objective_trace, loop.objective_trace)

    @pytest.mark.parametrize("s, seed", [(24, 0), (27, 1)])
    def test_the_first_wide_face_ends_the_solve(self, s, seed):
        # The nearest points on these faces send assets negative 4 and 5 times
        # before every weight is >= 0; all of it fits in FACE_DROPS.
        factor = center_and_factor(generate_synthetic(SyntheticSpec(
            n=60, T=240, singular_decay=0.9, noise_floor=0.0316, seed=0)))
        m = build_sketch(factor, SketchConfig(kind="countsketch", s=s, seed=seed))
        fs = FeasibleSet(mu=factor.mean, R_target=float(factor.mean.min()))
        res = solve(m, fs, cfg=SolverConfig(tol=1e-8, max_iters=20000))
        assert res.termination == "tolerance" and res.iterations == FACE_WAIT
        assert res.face_solves == 1 and res.residual_trace[-1] <= 1e-14
        assert res.x.min() >= 0.0 and 0.0 <= res.objective <= 1e-30

    def test_each_failed_wide_face_doubles_the_wait(self, monkeypatch):
        # No point of f = 0 is >= 0 here (the optimum is 4.4e-6), yet the
        # support stays beyond the rank of 36 for hundreds of iterates. The
        # k-th wide face waits FACE_WAIT * 2**k stable iterates, so W of them
        # need FACE_WAIT * (2**W - 1) iterations; trying each new support
        # would make 16 of them.
        import strmv.solver as solver

        factor = center_and_factor(generate_synthetic(SyntheticSpec(
            n=60, T=240, singular_decay=0.9, noise_floor=0.0316, seed=0)))
        m = build_sketch(factor, SketchConfig(kind="countsketch", s=36, seed=0))
        fs = FeasibleSet(mu=factor.mean, R_target=float(factor.mean.min()))
        wide, original = [], solver._zero_point

        def recorded(*args):
            wide.append(original(*args))
            return wide[-1]

        monkeypatch.setattr(solver, "_zero_point", recorded)
        res = solve(m, fs, cfg=SolverConfig(tol=1e-8, max_iters=20000))
        assert res.termination == "tolerance" and res.objective > 1e-6
        assert len(wide) >= 2 and all(point is None for point in wide)
        assert len(wide) <= math.log2(res.iterations / FACE_WAIT + 1)

    @pytest.mark.parametrize("dependent", [False, True])
    def test_zero_point_is_the_nearest_point_of_the_affine_set(self, dependent):
        # With no asset sent negative, the point is x - M^+ (M x - b) for M =
        # [L.T; 1.T], also when L has a zero column and a repeated one, as a
        # CountSketch with an empty bucket or a sketch of a centered panel
        # has, which leaves L.T @ L singular.
        from strmv.solver import _zero_point

        rng = np.random.default_rng(4)
        n = 200
        L = rng.standard_normal((n, 4))
        if dependent:
            L = np.column_stack([L, np.zeros(n), L[:, 1]])
        x = rng.uniform(0.5, 1.5, n)
        x /= x.sum()
        M = np.vstack([L.T, np.ones(n)])
        want = x - np.linalg.lstsq(M, M @ x - np.append(np.zeros(L.shape[1]), 1.0),
                                   rcond=None)[0]
        assert want.min() > 0.0  # the premise: no drops
        fs = FeasibleSet(mu=rng.standard_normal(n), R_target=-10.0)
        idx, v = _zero_point(L, fs, np.arange(n), x, False, 4)
        assert np.array_equal(idx, np.arange(n))
        np.testing.assert_allclose(v, want, rtol=0, atol=1e-15)
        assert abs(v.sum() - 1.0) <= n * np.finfo(float).eps
        assert np.abs(L.T @ v).max() <= 1e-15

    def test_max_iters_exit_reports_the_residual_at_x(self, monkeypatch):
        # Stride 5 checks iterations 5 and 10; the exit at 13 appends the
        # residual of the x it returns, not iteration 10's.
        decline_face_solves(monkeypatch)
        factor, fs = _wide_instance(40, seed=0)
        m = build_baseline(factor)
        res = solve(m, fs, cfg=SolverConfig(tol=1e-7, residual_check_stride=5, max_iters=13))
        g = gradient(gradient_operator(m), res.x)
        at_x = np.linalg.norm(project_feasible(res.x - g / res.L_f, fs)[0] - res.x)
        assert res.termination == "max_iters" and res.residual_trace.size == 4
        assert res.residual_trace[-1] == pytest.approx(at_x, rel=1e-9)
        assert res.residual_trace[-2] > 1.2 * res.residual_trace[-1]
        stride_exit = solve(m, fs, cfg=SolverConfig(tol=1e-7, residual_check_stride=5,
                                                    max_iters=10))
        np.testing.assert_array_equal(stride_exit.residual_trace, res.residual_trace[:3])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(["baseline", "sketch", "str"]))
def test_default_solve_matches_oracle(seed, kind):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    T = int(rng.integers(4 * n, 6 * n + 1))
    spec = SyntheticSpec(n=n, T=T, singular_decay=float(rng.uniform(0.75, 0.95)), seed=seed)
    factor = center_and_factor(generate_synthetic(spec))
    if kind == "baseline":
        model = build_baseline(factor)
    elif kind == "sketch":
        model = build_sketch(factor, SketchConfig(kind="countsketch",
                                                  s=int(rng.integers(n, T + 1)), seed=seed))
    else:
        model = build_str(factor, SketchConfig(kind="gaussian_jl", s=T, seed=seed),
                          kappa_target=100.0)
    mu = rng.standard_normal(n)
    fs = FeasibleSet(mu=mu, R_target=float(np.quantile(mu, rng.uniform(0.2, 0.8))))
    res = solve(model, fs, cfg=SolverConfig(tol=5e-10, max_iters=20000,
                                            residual_check_stride=5))
    oracle = solve_exact(QPInstance(Q=2.0 * model.covariance(), c=np.zeros(n), fs=fs))
    assert res.termination == "tolerance"
    assert res.momentum == ("strongly_convex" if kind == "str" else "fista_restart")
    assert objective_gap(res.objective, oracle.value) <= 1e-8


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_solution_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n, T = 6, 30
        spec = SyntheticSpec(n=n, T=T, singular_decay=0.85, seed=seed)
        factor = center_and_factor(generate_synthetic(spec))
        m = build_str(factor, SketchConfig(kind="gaussian_jl", s=T, seed=seed),
                      ell=n - 2, kappa_target=50.0)
        mu = rng.standard_normal(n)
        fs = FeasibleSet(mu=mu, R_target=float(np.quantile(mu, 0.5)))
        res = solve(m, fs, cfg=SolverConfig(tol=1e-10, max_iters=20000))
        assert res.momentum == "strongly_convex"
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


class TestSolverConfig:
    # The cases keep the ids they had beside the three cases of the deleted
    # alpha option (kwargs0..2).
    @pytest.mark.parametrize("kwargs", [
        pytest.param({"max_iters": 0}, id="kwargs3"),
        pytest.param({"residual_check_stride": 0}, id="kwargs4"),
        pytest.param({"tol": float("nan")}, id="kwargs5"),
        pytest.param({"tol": 0.0}, id="kwargs6"),
        pytest.param({"tol": float("inf")}, id="kwargs7"),
    ])
    def test_bad_step_parameters_rejected(self, kwargs):
        with pytest.raises(ArgumentError):
            SolverConfig(**kwargs)

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "momentum_mode", "tol", "max_iters", "residual_check_stride"]


def _property_instance(seed):
    spec = SyntheticSpec(n=12, T=48, singular_decay=0.8, noise_floor=0.02, seed=seed)
    factor = center_and_factor(generate_synthetic(spec))
    mu = np.random.default_rng(seed).standard_normal(12)
    return factor.L, FeasibleSet(mu=mu, R_target=float(np.quantile(mu, 0.6)))


PROPERTY_CFG = SolverConfig(tol=1e-10, max_iters=20000)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 4), st.integers(-10, 10))
def test_power_of_two_scaling_is_exact(seed, k):
    # Scaling L by 2**k scales every gradient and curvature estimate by an
    # exact power of two, so the iterates are bit-identical.
    L, fs = _property_instance(seed)
    ref = solve(build_baseline(factor_of(L)), fs, cfg=PROPERTY_CFG)
    scaled = solve(build_baseline(factor_of(L * 2.0**k)), fs, cfg=PROPERTY_CFG)
    np.testing.assert_array_equal(scaled.x, ref.x)
    assert scaled.iterations == ref.iterations


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_asset_permutation_maps_through(seed, perm_seed):
    # x* and the exact curvature map through the permutation, so both solves
    # take the same step. Iteration counts are not compared: the permuted
    # products round differently, and a residual that ends near tol could
    # cross it one iteration apart.
    L, fs = _property_instance(seed)
    perm = np.random.default_rng(perm_seed).permutation(L.shape[0])
    ref = solve(build_baseline(factor_of(L)), fs, cfg=PROPERTY_CFG)
    permuted = solve(build_baseline(factor_of(L[perm])),
                     FeasibleSet(mu=fs.mu[perm], R_target=fs.R_target), cfg=PROPERTY_CFG)
    assert permuted.termination == ref.termination == "tolerance"
    np.testing.assert_allclose(permuted.x, ref.x[perm], atol=1e-7)
    assert permuted.L_f == pytest.approx(ref.L_f, rel=1e-12)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strmv.errors import ArgumentError, DimensionError, InfeasibleTargetError, NumericError
from strmv.metrics import objective_gap
from strmv.models import FactorModel, build_baseline, build_sketch, build_str
from strmv.oracle import QPInstance, solve_exact
from strmv.panel import CovarianceFactor, SyntheticSpec, center_and_factor, generate_synthetic
from strmv.projection import FeasibleSet, project_feasible
from strmv.sketch import SketchConfig
from strmv.solver import (
    POWER_ITERS,
    DenseHessian,
    SolverConfig,
    curvature_constants,
    estimate_spectral_norm,
    gradient,
    gradient_operator,
    objective,
    solve,
)
from strmv.spectrum import power_sequence


def factor_of(L):
    L = np.asarray(L, dtype=float)
    return CovarianceFactor(L=L, mean=np.zeros(L.shape[0]))


def str_model(L_eff, gamma):
    L_eff = np.asarray(L_eff, dtype=float)
    sv = np.linalg.svd(L_eff, compute_uv=False)
    sv = np.r_[sv, np.zeros(L_eff.shape[1] - sv.size)]  # one per column
    return FactorModel(
        L_eff=L_eff, gamma=gamma, kind="str",
        provenance={"ell": L_eff.shape[1]}, singular_values=sv,
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
        assert estimate_spectral_norm(m) == pytest.approx(3.0, abs=1e-6)

    def test_isotropic_one_iteration(self):
        m = build_baseline(factor_of(2.5 * np.eye(3)))
        seq = power_sequence(lambda u: m.L_eff @ (m.L_eff.T @ u), 3, 1, seed=0)
        assert seq[0] == pytest.approx(2.5)
        assert estimate_spectral_norm(m) == pytest.approx(2.5)

    def test_zero_factor(self):
        m = build_baseline(factor_of(np.zeros((3, 4))))
        assert estimate_spectral_norm(m) == 0.0

    def test_monotone_rayleigh_sequence(self):
        rng = np.random.default_rng(4)
        L = rng.standard_normal((8, 12))
        seq = power_sequence(lambda u: L @ (L.T @ u), 8, 25, seed=1)
        assert (np.diff(seq) >= -1e-12).all()
        assert seq[-1] <= np.linalg.norm(L, 2) + 1e-10

    def test_accuracy_with_spectral_gap(self):
        # With a spectral gap >= 1.1, ten iterations land within 1% for
        # typical starts; a nearly-orthogonal start can lag, which is why the
        # automatic step inflates the estimate by a safety factor. The start
        # is fixed, so the 30 draws vary the singular vectors instead.
        assert POWER_ITERS == 10
        rng = np.random.default_rng(5)
        errs = []
        for _ in range(30):
            sig = np.array([2.0, 2.0 / 1.2, 1.0, 0.5])
            U = np.linalg.qr(rng.standard_normal((6, 4)))[0]
            V = np.linalg.qr(rng.standard_normal((9, 4)))[0]
            m = build_baseline(factor_of((U * sig) @ V.T))
            est = estimate_spectral_norm(m)
            assert est <= 2.0 + 1e-9  # always a lower bound
            errs.append(abs(est - 2.0) / 2.0)
        assert np.median(errs) <= 0.01
        assert max(errs) <= 0.10


class TestCurvature:
    def test_str_wide_factor(self):
        m = str_model(np.random.default_rng(0).standard_normal((5, 2)), gamma=0.1)
        consts = curvature_constants(m)
        assert consts.m_f == pytest.approx(0.2)

    def test_full_rank_baseline_has_no_strong_convexity(self):
        # m_f is 2*gamma even when the factor has full row rank.
        m = build_baseline(factor_of(np.diag([3.0, 1.0])))
        consts = curvature_constants(m)
        assert consts.L_f == pytest.approx(1.05 * 18.0, rel=1e-6)
        assert consts.m_f == 0.0

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
        with pytest.raises(InfeasibleTargetError, match="exceeds max"):
            FeasibleSet(mu=np.array([0.1, 0.2]), R_target=0.9)

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
        cold_project = lambda v, fs, nu0=0.0, support=None: projection.project_feasible(v, fs)
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
        res = solve(m, fs, cfg=SolverConfig(tol=1e-10, max_iters=50,
                                            record_objective=True))
        assert res.objective_trace is not None
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
        given = solve(m, fs, cfg=SolverConfig(alpha=default.step_used, tol=1e-9))
        assert default.termination == "tolerance"
        assert default.momentum == given.momentum == "strongly_convex"
        assert default.step_used == 1.0 / default.L_f_estimate
        assert default.restarts == 0
        assert default.iterations == given.iterations
        np.testing.assert_array_equal(default.x, given.x)

    def test_str_curvature_is_exact_without_power_method(self, monkeypatch):
        import strmv.solver as solver

        def no_power(*args, **kwargs):
            raise AssertionError("str curvature needs no power method")

        monkeypatch.setattr(solver, "estimate_spectral_norm", no_power)
        m, fs = _str_desk_model(40, seed=4)
        consts = curvature_constants(m)
        assert consts.L_f == 2.0 * (m.singular_values[0] ** 2 + m.gamma)
        assert consts.m_f == 2.0 * m.gamma
        assert solve(m, fs, cfg=SolverConfig(tol=1e-8)).L_f_estimate == consts.L_f

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
        assert result.wall_time >= 0.05

    def test_nan_in_a_wide_factor_raises(self):
        factor, fs = _wide_instance(6, seed=1)
        L = factor.L.copy()
        L[2, 7] = np.nan
        with pytest.raises(NumericError):
            solve(FactorModel(L_eff=L, gamma=0.0, kind="baseline"), fs)


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
    two iterates' by linearity, and each residual check reuses its own."""

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

        calls = []
        original = solver.gradient
        monkeypatch.setattr(solver, "gradient",
                            lambda op, x: calls.append(1) or original(op, x))
        fs, built = self._models()
        for kind, m in built.items():
            calls.clear()
            res = solve(m, fs, cfg=SolverConfig(tol=1e-9, residual_check_stride=stride))
            assert res.termination == "tolerance" and res.iterations > 0, kind
            assert len(calls) == res.iterations + 1, kind

    @pytest.mark.parametrize("kind, mode, momentum", [
        ("baseline", "auto", "fista_restart"),
        ("baseline", "fista", "fista"),
        ("str", "auto", "strongly_convex"),
    ])
    def test_matches_a_loop_that_takes_the_gradient_at_y(self, kind, mode, momentum):
        fs, built = self._models()
        m = built[kind]
        res = solve(m, fs, cfg=SolverConfig(tol=1e-9, momentum_mode=mode, max_iters=5000))
        assert res.momentum == momentum and res.termination == "tolerance"
        x, iterations = _reference_solve(m, fs, res.step_used, momentum, 1e-9, 5000)
        assert res.iterations == iterations
        np.testing.assert_allclose(res.x, x, rtol=0, atol=1e-12)


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
    @pytest.mark.parametrize("kwargs", [
        {"alpha": float("nan")},
        {"alpha": float("inf")},
        {"alpha": -0.5},
        {"max_iters": 0},
        {"residual_check_stride": 0},
        {"tol": float("nan")},
        {"tol": 0.0},
    ])
    def test_bad_step_parameters_rejected(self, kwargs):
        with pytest.raises(ArgumentError):
            SolverConfig(**kwargs)


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
    # Only x* is compared: the power method's start vector is not permuted,
    # so iteration counts may differ.
    L, fs = _property_instance(seed)
    perm = np.random.default_rng(perm_seed).permutation(L.shape[0])
    ref = solve(build_baseline(factor_of(L)), fs, cfg=PROPERTY_CFG)
    permuted = solve(build_baseline(factor_of(L[perm])),
                     FeasibleSet(mu=fs.mu[perm], R_target=fs.R_target), cfg=PROPERTY_CFG)
    assert permuted.termination == ref.termination == "tolerance"
    np.testing.assert_allclose(permuted.x, ref.x[perm], atol=1e-7)

import numpy as np
import pytest

from strmv.errors import ArgumentError, InfeasibleTargetError, NumericError
from strmv.oracle import QPInstance, solve_exact
from strmv.projection import FeasibleSet, project_feasible, project_simplex

from reference import project_exact


class TestSolveExact:
    def test_hand_instance_slack_return(self):
        fs = FeasibleSet(mu=np.array([0.1, 0.2]), R_target=0.1)
        out = solve_exact(QPInstance(Q=2 * np.eye(2), c=np.zeros(2), fs=fs))
        np.testing.assert_allclose(out.x, [0.5, 0.5], atol=1e-10)
        assert out.value == pytest.approx(0.5)
        assert not out.return_active

    def test_hand_instance_diagonal(self):
        fs = FeasibleSet(mu=np.array([1.0, 1.0]), R_target=0.5)
        out = solve_exact(QPInstance(Q=np.diag([2.0, 8.0]), c=np.zeros(2), fs=fs))
        np.testing.assert_allclose(out.x, [0.8, 0.2], atol=1e-10)
        assert out.value == pytest.approx(0.8)

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleTargetError):
            FeasibleSet(mu=np.array([0.1, 0.2]), R_target=0.9)

    def test_vertex_at_the_top_return(self):
        # R_target = max(mu) with the return row active: the vertex's KKT
        # system is singular, and its min-norm multipliers fail the dual
        # sign check although valid ones exist on the multiplier line.
        fs = FeasibleSet(mu=np.array([1.65, 1.55]), R_target=1.65)
        v = np.array([0.0, 5.0])
        np.testing.assert_array_equal(project_exact(v, fs), [1.0, 0.0])
        np.testing.assert_array_equal(project_feasible(v, fs)[0], [1.0, 0.0])

    def test_return_target_met_to_roundoff(self):
        # lstsq meets the active branch's return equation only to 1e-8; the
        # vertex [0, 0, 1] misses this target by 1.2e-8 and must lose.
        fs = FeasibleSet(mu=np.array([0.8, -0.3, -0.35]), R_target=-0.349999988)
        v = np.array([0.0, 0.0, 1.0])
        x = project_exact(v, fs)
        assert fs.mu @ x >= fs.R_target - 1e-12
        np.testing.assert_allclose(x, project_feasible(v, fs)[0], rtol=0, atol=1e-14)

    def test_asymmetric_rejected(self):
        fs = FeasibleSet(mu=np.array([1.0, 0.0]), R_target=0.1)
        with pytest.raises(NumericError):
            QPInstance(Q=np.array([[1.0, 0.3], [0.0, 1.0]]), c=np.zeros(2), fs=fs)

    def test_dimension_cap(self):
        n = 15
        fs = FeasibleSet(mu=np.linspace(0, 1, n), R_target=0.1)
        with pytest.raises(ArgumentError):
            QPInstance(Q=np.eye(n), c=np.zeros(n), fs=fs)

    def test_optimality_certificate_random_probes(self):
        # the oracle value never exceeds the objective of any feasible point
        rng = np.random.default_rng(0)
        for trial in range(5):
            n = int(rng.integers(3, 8))
            A = rng.standard_normal((n, n + 3))
            Q = 2 * (A @ A.T) / n
            mu = rng.standard_normal(n)
            R = float(np.quantile(mu, 0.4))
            fs = FeasibleSet(mu=mu, R_target=R)
            out = solve_exact(QPInstance(Q=Q, c=np.zeros(n), fs=fs))
            probes = rng.dirichlet(np.ones(n), size=200)
            for p in probes:
                x, _ = project_feasible(p, fs)
                val = 0.5 * x @ Q @ x
                assert out.value <= val + 1e-10

    def test_kkt_residual_via_projection(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            n = int(rng.integers(3, 9))
            A = rng.standard_normal((n, n + 2))
            Q = 2 * (A @ A.T) / n
            mu = rng.standard_normal(n)
            fs = FeasibleSet(mu=mu, R_target=float(np.quantile(mu, 0.5)))
            out = solve_exact(QPInstance(Q=Q, c=np.zeros(n), fs=fs))
            grad = Q @ out.x
            alpha = 0.1
            moved, _ = project_feasible(out.x - alpha * grad, fs)
            assert np.linalg.norm(moved - out.x) <= 1e-10

    def test_singular_q_handled(self):
        # rank-1 PSD objective: the least-squares KKT path must still produce
        # the optimum
        fs = FeasibleSet(mu=np.array([1.0, 0.5, 0.0]), R_target=0.1)
        q = np.outer([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        out = solve_exact(QPInstance(Q=q, c=np.zeros(3), fs=fs))
        # any simplex point has the same objective 0.5; value must equal it
        assert out.value == pytest.approx(0.5)


class TestProjectExact:
    def test_feasible_point_fixed(self):
        fs = FeasibleSet(mu=np.array([1.0, 0.0]), R_target=0.2)
        v = np.array([0.6, 0.4])
        np.testing.assert_allclose(project_exact(v, fs), v, atol=1e-10)

    def test_matches_scalar_search_instance(self):
        fs = FeasibleSet(mu=np.array([1.0, 0.0]), R_target=0.9)
        np.testing.assert_allclose(
            project_exact(np.array([0.5, 0.5]), fs), [0.9, 0.1], atol=1e-10
        )

    def test_matches_simplex_projection_when_slack(self):
        fs = FeasibleSet(mu=np.array([1.0, 1.0, 1.0]), R_target=0.5)
        v = np.array([0.2, 0.1, 0.0])
        np.testing.assert_allclose(
            project_exact(v, fs), project_simplex(v), atol=1e-10
        )

    def test_tie_break_deterministic(self):
        fs = FeasibleSet(mu=np.array([1.0, 1.0]), R_target=0.5)
        a = solve_exact(QPInstance(Q=2 * np.eye(2), c=np.zeros(2), fs=fs))
        b = solve_exact(QPInstance(Q=2 * np.eye(2), c=np.zeros(2), fs=fs))
        assert a.active_bounds == b.active_bounds
        assert a.return_active == b.return_active

    def test_tie_break_prefers_the_feasible_vertex(self):
        # At R_target = max(mu) a full-support candidate with an entry of
        # about -1e-15 ties the vertex [0, 1] within the tie tolerance.
        fs = FeasibleSet(mu=np.array([-1.5, 1.6]), R_target=1.6)
        x = project_exact(np.array([2.75, 3.20]), fs)
        assert x.min() >= 0.0
        np.testing.assert_allclose(x, [0.0, 1.0], atol=1e-12)

    def test_target_at_max_mu_has_no_negative_entry(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            mu = np.round(rng.uniform(-2.0, 2.0, n), 1)
            if mu.min() == mu.max():
                continue
            v = np.round(rng.uniform(-4.0, 4.0, n), 2)
            x = project_exact(v, FeasibleSet(mu=mu, R_target=float(mu.max())))
            assert x.min() >= 0.0, (mu, v, x)

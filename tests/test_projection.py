import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strmv.errors import (
    ArgumentError,
    InfeasibleTargetError,
    NumericError,
    ProjectionFailureError,
)
from strmv.oracle import project_exact
from strmv.projection import (
    FeasibleSet,
    _flat_nu,
    dykstra_project,
    project_feasible,
    project_halfspace,
    project_simplex,
)


class TestSimplex:
    def test_already_feasible(self):
        np.testing.assert_allclose(project_simplex(np.array([0.5, 0.5])), [0.5, 0.5])

    def test_threshold_cases(self):
        np.testing.assert_allclose(project_simplex(np.array([1.5, 0.5])), [1.0, 0.0])
        np.testing.assert_allclose(
            project_simplex(np.array([0.2, 0.1, 0.0])), [13 / 30, 10 / 30, 7 / 30]
        )

    def test_non_finite(self):
        with pytest.raises(NumericError):
            project_simplex(np.array([np.inf, 0.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("v", [[1e308, -1e308, 1e308], [0.0, -1e308, -1e308]])
    def test_spread_beyond_float_range(self, v):
        # The shift by max(v), or the running sums after it, would overflow;
        # the second point used to come back as [inf, inf, inf].
        with pytest.raises(NumericError, match="span more than the float range"):
            project_simplex(np.array(v))

    def test_huge_entries(self):
        # At entries of about 1e16 and up, only the shift by max(v) keeps the
        # first threshold candidate.
        np.testing.assert_array_equal(project_simplex(np.array([1e17, 0.0])), [1.0, 0.0])
        np.testing.assert_array_equal(project_simplex(np.array([0.0, -1e300, 1e300])),
                                      [0.0, 0.0, 1.0])

    def test_matches_oracle_small(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            v = rng.standard_normal(n) * 3
            # simplex-only instance: return target below anything attainable
            fs = FeasibleSet(mu=np.zeros(n) + 1.0, R_target=0.5)
            xe = project_exact(v, fs)
            np.testing.assert_allclose(project_simplex(v), xe, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
    def test_output_in_simplex(self, vals):
        x = project_simplex(np.asarray(vals))
        assert x.min() >= -1e-12
        assert abs(x.sum() - 1.0) <= 1e-12 * len(vals) + 1e-12


class TestHalfspace:
    def test_cases(self):
        fs = FeasibleSet(mu=np.array([1.0, 0.0]), R_target=0.5)
        np.testing.assert_allclose(
            project_halfspace(np.array([0.6, 0.4]), fs), [0.6, 0.4]
        )
        np.testing.assert_allclose(project_halfspace(np.zeros(2), fs), [0.5, 0.0])
        # The halfspace leaves the simplex: its projection need not sum to 1.
        fs2 = FeasibleSet(mu=np.array([1.0, 1.0]), R_target=0.8)
        np.testing.assert_allclose(project_halfspace(np.zeros(2), fs2), [0.4, 0.4])
        fs3 = FeasibleSet(mu=np.zeros(2), R_target=0.0)  # every point is inside
        np.testing.assert_array_equal(project_halfspace(np.ones(2), fs3), [1.0, 1.0])

    def test_shifted_point_on_boundary(self):
        rng = np.random.default_rng(0)
        fs = FeasibleSet(mu=rng.standard_normal(5), R_target=0.4)
        y = rng.standard_normal(5) - 2.0
        out = project_halfspace(y, fs)
        if fs.mu @ y < fs.R_target:
            assert fs.mu @ out == pytest.approx(fs.R_target, abs=1e-12)


class TestProjectFeasible:
    def test_inactive_path(self):
        fs = FeasibleSet(mu=np.array([1.0, 0.0]), R_target=0.3)
        x, diag = project_feasible(np.array([0.5, 0.5]), fs)
        np.testing.assert_allclose(x, [0.5, 0.5])
        assert not diag.constraint_active

    def test_active_path_scalar_search(self):
        fs = FeasibleSet(mu=np.array([1.0, 0.0]), R_target=0.9)
        x, diag = project_feasible(np.array([0.5, 0.5]), fs)
        np.testing.assert_allclose(x, [0.9, 0.1], atol=1e-9)
        assert diag.constraint_active
        assert diag.nu_star == pytest.approx(0.8, abs=1e-6)

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleTargetError):
            FeasibleSet(mu=np.array([0.1, 0.2]), R_target=0.5)
        with pytest.raises(InfeasibleTargetError):
            FeasibleSet(mu=np.zeros(2), R_target=1e-300)

    def test_oracle_agreement(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            n = int(rng.integers(3, 11))
            v = rng.standard_normal(n) * 2
            mu = rng.standard_normal(n)
            R = float(mu.min() + rng.uniform(0.1, 0.9) * (mu.max() - mu.min()))
            fs = FeasibleSet(mu=mu, R_target=R)
            x, _ = project_feasible(v, fs)
            np.testing.assert_allclose(x, project_exact(v, fs), atol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mu = rng.standard_normal(6)
            fs = FeasibleSet(mu=mu, R_target=float(np.quantile(mu, 0.6)))
            v = rng.standard_normal(6) * 2
            x1, _ = project_feasible(v, fs)
            x2, _ = project_feasible(x1, fs)
            assert np.linalg.norm(x2 - x1) <= 1e-10

    def test_nonexpansive(self):
        rng = np.random.default_rng(4)
        mu = rng.standard_normal(8)
        fs = FeasibleSet(mu=mu, R_target=float(np.quantile(mu, 0.5)))
        for _ in range(200):
            u = rng.standard_normal(8) * 3
            v = rng.standard_normal(8) * 3
            xu, _ = project_feasible(u, fs)
            xv, _ = project_feasible(v, fs)
            assert np.linalg.norm(xu - xv) <= np.linalg.norm(u - v) + 1e-10

    def test_oracle_agreement_target_at_max_mu(self):
        # R_target == max(mu): phi reaches the target only once every asset
        # outside argmax(mu) has left the support, with ties in mu.
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(3, 11))
            mu = rng.integers(-2, 3, n) * 0.1
            mu[rng.integers(n)] = mu.max()
            v = rng.standard_normal(n) * 2
            fs = FeasibleSet(mu=mu, R_target=float(mu.max()))
            x, _ = project_feasible(v, fs)
            np.testing.assert_allclose(x, project_exact(v, fs), atol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-10, 10), min_size=3, max_size=10),
        st.floats(-100, 100),
        st.floats(0.05, 0.95),
        st.integers(0, 2**32 - 1),
    )
    def test_shift_invariance(self, vals, c, q, seed):
        v = np.asarray(vals)
        mu = np.random.default_rng(seed).standard_normal(v.size)
        fs = FeasibleSet(mu=mu, R_target=float(np.quantile(mu, q)))
        x, _ = project_feasible(v, fs)
        x_shift, _ = project_feasible(v + c, fs)
        np.testing.assert_allclose(x_shift, x, atol=1e-9)

    def test_phi_monotone_in_nu(self):
        rng = np.random.default_rng(5)
        mu = rng.standard_normal(7)
        v = rng.standard_normal(7)
        vals = [mu @ project_simplex(v + nu * mu) for nu in np.linspace(0, 20, 200)]
        diffs = np.diff(vals)
        assert diffs.min() >= -1e-12

    def test_output_feasibility(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            mu = rng.standard_normal(n)
            R = float(mu.min() + rng.uniform(0.2, 0.8) * (mu.max() - mu.min()))
            fs = FeasibleSet(mu=mu, R_target=R)
            x, _ = project_feasible(rng.standard_normal(n) * 2, fs)
            assert x.min() >= -1e-12
            assert abs(x.sum() - 1.0) <= 1e-12 * n
            assert mu @ x >= R - 1e-12 * max(1.0, abs(R))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_search_overflow_is_numeric_error(self):
        # The tiny gap in mu puts the bracket end nu_flat past the float range.
        fs = FeasibleSet(mu=np.array([1e-310, 0.0]), R_target=1e-311)
        with pytest.raises(NumericError, match="projection leaves the float range"):
            project_feasible(np.array([0.0, 1e10]), fs)

    def test_huge_point_missing_target_raises(self):
        # At |v| ~ 1e17, v + nu*mu keeps few digits of nu*mu; a point that
        # misses R_target must raise instead of being returned.
        rng = np.random.default_rng(0)
        raised = 0
        for _ in range(200):
            v = rng.normal(0.0, 1e17, 5)
            mu = rng.normal(0.0, 1.0, 5)
            fs = FeasibleSet(mu=mu, R_target=0.5 * (mu.min() + mu.max()))
            try:
                x, _ = project_feasible(v, fs)
            except ProjectionFailureError:
                raised += 1
                continue
            assert fs.R_target - mu @ x <= 1e-9 * np.abs(mu).max()
        assert raised > 0


class TestWarmStart:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=30),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
        st.sampled_from(("zero", "below", "at", "above", "above_flat")),
        st.floats(0.0, 1.0),
    )
    def test_matches_cold_start(self, vals, seed, q, where, frac):
        # mu lies on a 0.05 grid: ties occur, and nu* stays moderate, so the
        # roundoff of v + nu*mu stays far below the tolerance.
        v = np.asarray(vals)
        mu = np.random.default_rng(seed).integers(-40, 41, v.size) / 20.0
        if mu.min() == mu.max():
            mu[0] -= 0.05
        fs = FeasibleSet(mu=mu, R_target=float(np.quantile(mu, q)))
        x_cold, cold = project_feasible(v, fs)
        nu_flat = _flat_nu(v, fs.mu)
        nu0 = {
            "zero": 0.0,
            "below": frac * cold.nu_star,
            "at": cold.nu_star,
            "above": cold.nu_star + frac * (nu_flat - cold.nu_star) + frac,
            "above_flat": nu_flat * (1.0 + frac) + frac,
        }[where]
        x, diag = project_feasible(v, fs, nu0)
        np.testing.assert_allclose(x, x_cold, rtol=0, atol=1e-12)
        assert diag.constraint_active == cold.constraint_active
        if v.size <= 10:
            np.testing.assert_allclose(x, project_exact(v, fs), rtol=0, atol=1e-8)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=30),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
        st.sampled_from(("empty", "full", "random", "exact", "flat")),
    )
    def test_support_guess_matches_cold_start(self, vals, seed, q, guess):
        # The same mu grid as above, so ties occur; "flat" guesses a set of
        # assets with equal mu, whose piece has slope 0 and no root.
        v = np.asarray(vals)
        rng = np.random.default_rng(seed)
        mu = rng.integers(-40, 41, v.size) / 20.0
        if mu.min() == mu.max():
            mu[0] -= 0.05
        fs = FeasibleSet(mu=mu, R_target=float(np.quantile(mu, q)))
        x_cold, cold = project_feasible(v, fs)
        support = {
            "empty": np.zeros(v.size, dtype=bool),
            "full": np.ones(v.size, dtype=bool),
            "random": rng.random(v.size) < 0.5,
            "exact": x_cold > 0.0,
            "flat": mu == mu[rng.integers(v.size)],
        }[guess]
        # A tie: x(0) meets R_target to roundoff, so every nu from 0 up to
        # the guess's root is a multiplier of the same point, and the flag
        # says which one was found. Elsewhere the flags must agree.
        tie = abs(float(mu @ project_simplex(v)) - fs.R_target) <= 1e-12 * np.abs(mu).max()
        for nu0 in (0.0, cold.nu_star):
            x, diag = project_feasible(v, fs, nu0, support)
            np.testing.assert_allclose(x, x_cold, rtol=0, atol=1e-12)
            assert diag.constraint_active == cold.constraint_active or tie

    def test_exact_support_takes_one_simplex_projection(self, monkeypatch):
        import strmv.projection as projection

        rng = np.random.default_rng(3)
        mu = rng.standard_normal(50)
        fs = FeasibleSet(mu=mu, R_target=float(np.quantile(mu, 0.9)))
        calls = []
        original = projection.project_simplex
        monkeypatch.setattr(projection, "project_simplex",
                            lambda w: calls.append(1) or original(w))
        for _ in range(20):
            v = rng.standard_normal(50) / 10
            x_cold, cold = project_feasible(v, fs)
            assert cold.constraint_active
            calls.clear()
            x, diag = project_feasible(v, fs, support=x_cold > 0.0)
            assert len(calls) == 1 and diag.constraint_active
            assert diag.nu_star == pytest.approx(cold.nu_star, rel=1e-12)
            np.testing.assert_allclose(x, x_cold, rtol=0, atol=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_support_guess_with_a_root_beyond_the_float_range_is_ignored(self):
        # The guessed piece's slope is 5e-311, so its root overflows.
        fs = FeasibleSet(mu=np.array([0.0, 1e-155, 1.0]), R_target=0.5)
        v = np.array([0.4, 0.3, 0.3])
        x_cold, cold = project_feasible(v, fs)
        x, diag = project_feasible(v, fs, support=np.array([True, True, False]))
        np.testing.assert_array_equal(x, x_cold)
        assert diag.constraint_active == cold.constraint_active

    def test_support_of_the_wrong_shape_rejected(self):
        fs = FeasibleSet(mu=np.array([1.0, 0.0]), R_target=0.9)
        with pytest.raises(ArgumentError, match="support has shape"):
            project_feasible(np.array([0.5, 0.5]), fs, support=np.ones(3, dtype=bool))

    @pytest.mark.parametrize("nu0", [-1e-300, -1.0, np.nan, np.inf, -np.inf])
    def test_bad_start_rejected(self, nu0):
        fs = FeasibleSet(mu=np.array([1.0, 0.0]), R_target=0.9)
        with pytest.raises(ArgumentError):
            project_feasible(np.array([0.5, 0.5]), fs, nu0)


class TestDykstra:
    def test_feasible_point_one_sweep(self):
        fs = FeasibleSet(mu=np.array([1.0, 0.0]), R_target=0.3)
        v = np.array([0.5, 0.5])
        np.testing.assert_allclose(dykstra_project(v, fs), project_simplex(v))

    def test_matches_scalar_search(self):
        fs = FeasibleSet(mu=np.array([1.0, 0.0]), R_target=0.9)
        x = dykstra_project(np.array([0.5, 0.5]), fs)
        np.testing.assert_allclose(x, [0.9, 0.1], atol=1e-8)

    def test_matches_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            v = rng.standard_normal(5) * 4
            mu = rng.standard_normal(5)
            R = float(mu.min() + rng.uniform(0.2, 0.8) * (mu.max() - mu.min()))
            fs = FeasibleSet(mu=mu, R_target=R)
            np.testing.assert_allclose(
                dykstra_project(v, fs), project_exact(v, fs), atol=1e-8
            )

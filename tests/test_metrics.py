import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strmv.errors import ArgumentError, DimensionError, NumericError
from strmv.metrics import (
    INTERVALS_PER_YEAR,
    annualize,
    objective_gap,
    relative_spectral_error,
)
from strmv.models import FactorModel, build_str
from strmv.oracle import QPInstance, solve_exact
from strmv.panel import CovarianceFactor
from strmv.projection import FeasibleSet
from strmv.sketch import SketchConfig
from strmv.solver import curvature_constants


def factor_of(L):
    L = np.asarray(L, dtype=float)
    return CovarianceFactor(L=L, mean=np.zeros(L.shape[0]))


class TestSpectralError:
    def test_basic_cases(self):
        S = np.diag([4.0, 1.0])
        assert relative_spectral_error(S, S) == 0.0
        assert relative_spectral_error(2 * S, S) == pytest.approx(1.0)
        assert relative_spectral_error(np.diag([4.0, 2.0]), S) == pytest.approx(0.25)

    def test_zero_reference(self):
        with pytest.raises(NumericError):
            relative_spectral_error(np.eye(2), np.zeros((2, 2)))

    def test_exact_at_every_size(self):
        # No cutoff where the norm turns into a power-method lower bound.
        rng = np.random.default_rng(0)
        n = 1001
        d = rng.uniform(0.5, 2.0, n)
        S = np.diag(d)
        S2 = np.diag(d * 1.25)
        assert relative_spectral_error(S2, S) == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_two_norm_ratio(self, seed):
        # the eigvalsh norms agree with np.linalg.norm(., 2) on covariances
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((50, 80))
        B = rng.standard_normal((50, 20))
        S, S_hat = A @ A.T, B @ B.T + 0.1 * np.eye(50)
        ref = np.linalg.norm(S_hat - S, 2) / np.linalg.norm(S, 2)
        assert relative_spectral_error(S_hat, S) == pytest.approx(ref, rel=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(DimensionError):
            relative_spectral_error(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(NumericError):
            relative_spectral_error(np.full((2, 2), np.nan), np.eye(2))


class TestObjectiveGap:
    def test_formula(self):
        assert objective_gap(1.01, 1.0) == pytest.approx(0.01)
        assert objective_gap(0.5, 1.0) == 0.0
        assert objective_gap(1e-13, 0.0) == pytest.approx(0.1)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_nonnegative(self, f, ref):
        assert objective_gap(f, ref) >= 0.0


class TestAnnualize:
    def test_constant_returns(self):
        stats = annualize(np.full(100, 1e-5))
        assert stats.annualized_return_pct == pytest.approx(11.712)
        assert stats.annualized_vol_pct == 0.0
        assert stats.intervals_per_year == 11712

    def test_zero_returns(self):
        stats = annualize(np.zeros(10))
        assert stats.annualized_return_pct == 0.0
        assert stats.annualized_vol_pct == 0.0

    def test_two_point_series(self):
        a = 1e-4
        stats = annualize(np.array([a, -a]))
        assert stats.annualized_return_pct == pytest.approx(0.0, abs=1e-12)
        # sample std with ddof=1: sqrt(2) * a
        assert stats.annualized_vol_pct == pytest.approx(
            a * math.sqrt(2.0) * math.sqrt(11712) * 100.0
        )

    def test_too_short(self):
        with pytest.raises(ArgumentError):
            annualize(np.array([1e-4]))

    def test_interval_constant(self):
        assert INTERVALS_PER_YEAR == 48 * 244


class TestConditioningReport:
    """The model's conditioning as a solve reports it: L_f, m_f and kappa
    from ``curvature_constants``, on the Hessian 2 * covariance."""

    def test_str_closed_form(self, unsketched):
        rng = np.random.default_rng(3)
        L = rng.standard_normal((6, 12))
        f = factor_of(L)
        m = build_str(f, SketchConfig(kind="gaussian_jl", s=12, seed=0), ell=3, gamma=1.0)
        consts = curvature_constants(m)
        sigma1 = m.singular_values[0]
        assert consts.kappa == pytest.approx(sigma1**2 + 1.0)
        eig = np.linalg.eigvalsh(m.covariance())
        assert consts.kappa == pytest.approx(eig[-1] / eig[0], rel=1e-10)

    def test_target_kappa_is_exact(self, unsketched):
        rng = np.random.default_rng(4)
        f = factor_of(rng.standard_normal((5, 20)))
        m = build_str(f, SketchConfig(kind="gaussian_jl", s=20, seed=0), ell=3,
                      kappa_target=100.0)
        assert curvature_constants(m).kappa == pytest.approx(100.0)

    def test_rank_deficient_flags_infinite(self):
        m = FactorModel(L_eff=np.random.default_rng(5).standard_normal((6, 3)),
                        gamma=0.0, kind="sketch")
        consts = curvature_constants(m)
        assert consts.m_f == 0.0 and consts.kappa is None

    @pytest.mark.parametrize("shape", [(6, 6), (6, 10)])
    def test_full_rank_ridgeless_matches_dense(self, shape):
        m = FactorModel(L_eff=np.random.default_rng(6).standard_normal(shape),
                        gamma=0.0, kind="baseline")
        consts = curvature_constants(m)
        eig = np.linalg.eigvalsh(m.covariance())
        np.testing.assert_allclose(
            [consts.m_f / 2, consts.L_f / 2, consts.kappa],
            [eig[0], eig[-1], eig[-1] / eig[0]],
            rtol=1e-10,
        )

    def test_no_size_cap(self):
        # n > 1000, past the old dense-eigensolve limit; the spectrum is known.
        n = 1200
        s = 1.0 + np.arange(n) / n
        perm = np.random.default_rng(7).permutation(n)
        m = FactorModel(L_eff=np.diag(s)[:, perm], gamma=0.0, kind="sketch")
        consts = curvature_constants(m)
        np.testing.assert_allclose(
            [consts.m_f / 2, consts.L_f / 2, consts.kappa],
            [1.0, s[-1] ** 2, s[-1] ** 2],
            rtol=1e-10,
        )


class TestValueAndSolutionSensitivity:
    def test_sketched_value_and_solution_bounds(self):
        # |v~* - v*| <= ||Delta||_2 (weights live in the simplex), and
        # ||x~* - x*|| <= ||Delta||_2 / lambda_min on PD instances.
        rng = np.random.default_rng(11)
        for trial in range(10):
            n = int(rng.integers(3, 8))
            A = rng.standard_normal((n, n + 4))
            Sigma = A @ A.T / n
            E = rng.standard_normal((n, n))
            Delta = 0.05 * (E + E.T) / 2
            Sigma_t = Sigma + Delta
            if np.linalg.eigvalsh(Sigma_t)[0] <= 0:
                continue
            mu = rng.standard_normal(n)
            fs = FeasibleSet(mu=mu, R_target=float(np.quantile(mu, 0.4)))
            v_base = solve_exact(QPInstance(Q=2 * Sigma, c=np.zeros(n), fs=fs))
            v_pert = solve_exact(QPInstance(Q=2 * Sigma_t, c=np.zeros(n), fs=fs))
            norm_delta = np.linalg.norm(Delta, 2)
            assert abs(v_pert.value - v_base.value) <= norm_delta + 1e-12
            lam_min = np.linalg.eigvalsh(Sigma)[0]
            assert (np.linalg.norm(v_pert.x - v_base.x)
                    <= norm_delta / lam_min + 1e-10)

    def test_str_value_bound(self):
        # |v^* (lifted) - v*| <= ||lifted - Sigma||_2
        rng = np.random.default_rng(12)
        for trial in range(8):
            n, T = 6, 60
            A = rng.standard_normal((n, T)) / np.sqrt(T)
            f = factor_of(A)
            m = build_str(f, SketchConfig(kind="gaussian_jl", s=40, seed=trial),
                          ell=4, kappa_target=200.0)
            Sigma = A @ A.T
            mu = rng.standard_normal(n)
            fs = FeasibleSet(mu=mu, R_target=float(np.quantile(mu, 0.4)))
            base = solve_exact(QPInstance(Q=2 * Sigma, c=np.zeros(n), fs=fs))
            lifted = solve_exact(QPInstance(Q=2 * m.covariance(), c=np.zeros(n), fs=fs))
            assert (abs(lifted.value - base.value)
                    <= np.linalg.norm(m.covariance() - Sigma, 2) + 1e-12)

import numpy as np
import pytest

from strmv.errors import ArgumentError, DegenerateSpectrumError, DimensionError
from strmv.models import (
    FactorModel,
    build_baseline,
    build_sketch,
    build_str,
    ridge_for_target_kappa,
)
from strmv.panel import CovarianceFactor
from strmv.sketch import SketchConfig
from strmv.solver import gradient, objective
from strmv.spectrum import singular_values, thin_svd

from reference import kappa_improvement_threshold, materialize_sketch_matrix


def factor_of(L):
    L = np.asarray(L, dtype=float)
    return CovarianceFactor(L=L, mean=np.zeros(L.shape[0]))


def random_low_rank(n, T, r, seed, sig=None):
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n, r)))[0]
    V = np.linalg.qr(rng.standard_normal((T, r)))[0]
    if sig is None:
        sig = 1.0 + rng.uniform(0.0, 1.0, r)
    return (U * sig) @ V.T


class TestEveryModelCarriesItsSpectrum:
    @pytest.mark.parametrize("build", [
        pytest.param(lambda f: build_baseline(f), id="baseline"),
        pytest.param(lambda f: build_baseline(factor_of(f.L[:, :20])), id="baseline_T_lt_n"),
        pytest.param(lambda f: build_sketch(f, SketchConfig("gaussian_jl", 60, 1)),
                     id="wide_sketch"),
        pytest.param(lambda f: build_sketch(f, SketchConfig("countsketch", 12, 1)),
                     id="tall_sketch"),
        pytest.param(lambda f: build_str(f, SketchConfig("gaussian_jl", 60, 1)), id="str"),
        pytest.param(lambda f: build_str(f, SketchConfig("countsketch", 12, 1), ell=10),
                     id="str_tall_sketch"),
    ])
    def test_singular_values_are_the_factors(self, build):
        L = random_low_rank(30, 120, 30, seed=4, sig=0.9 ** np.arange(30))
        m = build(factor_of(L))
        expect = singular_values(m.L_eff)
        assert m.singular_values.shape == (min(m.n, m.columns),)
        np.testing.assert_allclose(m.singular_values, expect, rtol=0,
                                   atol=1e-12 * expect[0])

    def test_baseline_reads_the_factors_sigma_and_spectrum(self):
        f = factor_of(random_low_rank(6, 24, 6, seed=5))
        m = build_baseline(f)
        assert m.singular_values is f.singular_values and m.gram is f.covariance
        assert not f.covariance.flags.writeable
        np.testing.assert_array_equal(m.covariance(), f.L @ f.L.T)
        assert m.covariance() is not f.covariance  # a copy, which the solver may scale
        narrow = build_baseline(factor_of(f.L[:, :4]))  # T < n: Sigma is not formed
        assert narrow.gram is None and narrow.singular_values.shape == (4,)


class TestBaselineAndSketch:
    def test_baseline_wraps_factor(self):
        L = np.array([[-1.0, 1.0]])
        m = build_baseline(factor_of(L))
        assert m.kind == "baseline" and m.gamma == 0.0
        x = np.array([3.0])
        assert objective(m, x) == pytest.approx(2 * 9.0)  # f(x) = 2 x^2

    def test_zero_baseline(self):
        m = build_baseline(factor_of(np.zeros((3, 4))))
        assert objective(m, np.ones(3)) == 0.0

    def test_identity_sketch_reproduces_objective(self, unsketched):
        rng = np.random.default_rng(0)
        L = rng.standard_normal((4, 6))
        f = factor_of(L)
        m = build_sketch(f, SketchConfig(kind="gaussian_jl", s=6, seed=0))
        base = build_baseline(f)
        for _ in range(5):
            x = rng.standard_normal(4)
            assert objective(m, x) == pytest.approx(objective(base, x), rel=1e-14)

    def test_sketch_sandwich_against_measured_distortion(self):
        L = random_low_rank(12, 300, 4, seed=3)
        f = factor_of(L)
        cfg = SketchConfig(kind="gaussian_jl", s=200, seed=5)
        m = build_sketch(f, cfg)
        V = np.linalg.svd(L, full_matrices=False)[2][:4].T
        phi = materialize_sketch_matrix(cfg, 300)
        eps = np.linalg.norm((phi.T @ V).T @ (phi.T @ V) - np.eye(4), 2)
        Sigma = L @ L.T
        Sigma_t = m.L_eff @ m.L_eff.T
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.standard_normal(12)
            base = x @ Sigma @ x
            assert abs(x @ Sigma_t @ x - base) <= eps * base * (1 + 1e-12)


class TestRidgeFormulas:
    def test_target_kappa(self):
        gamma = ridge_for_target_kappa(2.0, 5.0)
        assert gamma == pytest.approx(1.0)
        assert (4.0 + gamma) / gamma == pytest.approx(5.0)

    def test_monotone_in_kappa(self):
        gammas = [ridge_for_target_kappa(2.0, k) for k in (5.0, 50.0, 500.0)]
        assert gammas == sorted(gammas, reverse=True)

    def test_degenerate_sigma(self):
        with pytest.raises(DegenerateSpectrumError):
            ridge_for_target_kappa(0.0, 5.0)
        with pytest.raises(ArgumentError):
            ridge_for_target_kappa(1.0, 1.0)

    def test_improvement_threshold(self):
        assert kappa_improvement_threshold(1.0, 100.0, 0.0) == pytest.approx(100.0 / 99.0)
        assert kappa_improvement_threshold(1.0, 100.0, 0.1) == pytest.approx(110.0 / 98.9)
        with pytest.raises(ArgumentError):
            kappa_improvement_threshold(1.0, 1.1, 0.1)  # lam_max = (1+eps)lam_min

    def test_nan_kappa_target_rejected(self):
        with pytest.raises(ArgumentError, match="kappa_target must exceed 1, got nan"):
            ridge_for_target_kappa(1.0, float("nan"))

    def test_infinite_kappa_target_rejected(self):
        # gamma would be 0, which the str model then refuses with a message
        # about a gamma the caller never set.
        with pytest.raises(ArgumentError, match="kappa_target must be finite, got inf"):
            ridge_for_target_kappa(1.0, float("inf"))

    def test_policy_validation(self, unsketched):
        L = random_low_rank(6, 10, 2, seed=0)
        cfg = SketchConfig(kind="gaussian_jl", s=10, seed=0)
        with pytest.raises(ArgumentError):
            build_str(factor_of(L), cfg, gamma=0.0)
        with pytest.raises(ArgumentError):
            build_str(factor_of(L), cfg, kappa_target=0.5)


class TestBuildStr:
    def test_exact_rank_recovery(self, unsketched):
        L = random_low_rank(6, 10, 2, seed=0, sig=np.array([3.0, 1.5]))
        f = factor_of(L)
        m = build_str(
            f,
            SketchConfig(kind="gaussian_jl", s=10, seed=0),
            gamma=0.1,
        )
        assert m.provenance["ell"] == 2
        sigma1 = np.linalg.norm(L, 2)
        assert np.linalg.norm(m.L_eff @ m.L_eff.T - L @ L.T, 2) <= 1e-8 * sigma1**2

    def test_lifted_eigenvalues(self, unsketched):
        L = random_low_rank(6, 10, 2, seed=1, sig=np.array([3.0, 1.5]))
        m = build_str(
            factor_of(L),
            SketchConfig(kind="gaussian_jl", s=10, seed=0),
            gamma=0.1,
        )
        eig = np.linalg.eigvalsh(m.covariance())
        expected = np.sort(np.r_[np.full(4, 0.1), 1.5**2 + 0.1, 3.0**2 + 0.1])
        np.testing.assert_allclose(eig, expected, rtol=1e-10)

    def test_kappa_identity(self, unsketched):
        L = random_low_rank(8, 16, 3, seed=2)
        m = build_str(factor_of(L), SketchConfig(kind="gaussian_jl", s=16, seed=0))
        eig = np.linalg.eigvalsh(m.covariance())
        kappa = eig[-1] / eig[0]
        closed = (m.singular_values[0] ** 2 + m.gamma) / m.gamma
        assert abs(kappa - closed) / closed <= 1e-10

    def test_gamma_zero_rejected(self):
        with pytest.raises(ArgumentError):
            FactorModel(L_eff=np.eye(2), gamma=0.0, kind="str")

    def test_nan_gamma_rejected(self):
        with pytest.raises(ArgumentError, match="gamma > 0, got nan"):
            FactorModel(L_eff=np.eye(2), gamma=float("nan"), kind="str",
                        singular_values=[1.0, 1.0])
        with pytest.raises(ArgumentError):
            FactorModel(L_eff=np.eye(2), gamma=float("nan"), kind="baseline")

    def test_inf_gamma_rejected(self):
        with pytest.raises(ArgumentError, match="gamma > 0, got inf; the ridge must be finite"):
            FactorModel(L_eff=np.eye(2), gamma=float("inf"), kind="str",
                        singular_values=[1.0, 1.0])
        f = CovarianceFactor(L=np.eye(3), mean=np.zeros(3))
        with pytest.raises(ArgumentError, match="must be finite"):
            build_str(f, SketchConfig(kind="gaussian_jl", s=3, seed=0), gamma=float("inf"))

    def test_singular_values_validated(self):
        # min(n, columns) values for every kind; computed when not given.
        m = FactorModel(L_eff=np.diag([2.0, 1.0]), gamma=0.1, kind="str")
        np.testing.assert_array_equal(m.singular_values, [2.0, 1.0])
        assert not m.singular_values.flags.writeable
        with pytest.raises(DimensionError):
            FactorModel(L_eff=np.eye(2), gamma=0.1, kind="str", singular_values=[1.0])
        with pytest.raises(DimensionError):
            FactorModel(L_eff=np.ones((2, 3)), gamma=0.0, kind="sketch",
                        singular_values=[1.0, 0.0, 0.0])
        wide = FactorModel(L_eff=np.ones((2, 3)), gamma=0.0, kind="baseline")
        np.testing.assert_allclose(wide.singular_values, [np.sqrt(6.0), 0.0], atol=1e-7)

    def test_kept_spectrum_is_typed(self, unsketched):
        L = random_low_rank(8, 20, 5, seed=3)
        m = build_str(factor_of(L), SketchConfig(kind="gaussian_jl", s=20, seed=0), ell=3)
        np.testing.assert_allclose(m.singular_values,
                                   np.linalg.svd(L, compute_uv=False)[:3], rtol=1e-12)
        assert not m.singular_values.flags.writeable
        assert set(m.provenance) == {"sketch", "ell", "gamma", "kappa_target"}
        assert m.provenance["kappa_target"] == 1e3
        pinned = build_str(factor_of(L), SketchConfig(kind="gaussian_jl", s=20, seed=0),
                           ell=3, gamma=0.5)
        assert (pinned.provenance["gamma"], pinned.provenance["kappa_target"]) == (0.5, None)

    def test_degenerate_spectrum(self, unsketched):
        with pytest.raises(DegenerateSpectrumError):
            build_str(factor_of(np.zeros((3, 5))), SketchConfig(kind="gaussian_jl", s=5, seed=0))

    def test_ell_override(self, unsketched):
        L = random_low_rank(8, 20, 5, seed=3)
        m = build_str(factor_of(L), SketchConfig(kind="gaussian_jl", s=20, seed=0), ell=2)
        assert m.columns == 2 and m.provenance["ell"] == 2
        assert "ell_requested" not in m.provenance

    def test_ell_above_rank_is_clamped_visibly(self, caplog, unsketched):
        L = random_low_rank(8, 20, 5, seed=3)
        with caplog.at_level("WARNING", logger="strmv.models"):
            m = build_str(factor_of(L), SketchConfig(kind="gaussian_jl", s=20, seed=0), ell=7)
        assert m.columns == 5 and m.provenance["ell"] == 5
        assert m.provenance["ell_requested"] == 7
        assert len(caplog.records) == 1 and "ell=7" in caplog.records[0].getMessage()


class TestFactorEquivalence:
    def test_dropping_right_factor_preserves_objective(self):
        # U_l S_l vs U_l S_l V_l^T: same induced covariance, objective,
        # and gradient, since the dropped factor has orthonormal columns.
        rng = np.random.default_rng(7)
        L = random_low_rank(7, 40, 4, seed=7)
        sk = L @ materialize_sketch_matrix(SketchConfig(kind="gaussian_jl", s=20, seed=1), 40)
        svd = thin_svd(sk)
        ell = 3
        US = svd.factor(ell)  # U_l S_l
        thin = FactorModel(L_eff=US, gamma=0.05, kind="str",
                           provenance={"ell": ell}, singular_values=svd.S[:ell])
        V = sk.T @ (US / svd.S[:ell]) / svd.S[:ell]  # right singular vectors
        wide_L = US @ V.T
        wide = FactorModel(
            L_eff=wide_L,
            gamma=0.05,
            kind="str",
            provenance=thin.provenance,
            singular_values=np.r_[svd.S[:ell], np.zeros(wide_L.shape[0] - ell)],
        )
        for _ in range(20):
            x = rng.standard_normal(7)
            assert objective(thin, x) == pytest.approx(objective(wide, x), abs=1e-10)
            np.testing.assert_allclose(gradient(thin, x), gradient(wide, x), atol=1e-10)

    def test_concatenated_factor_identity(self):
        # [ L Phi V_l , sqrt(gamma) I ] reproduces the lifted covariance.
        L = random_low_rank(6, 30, 4, seed=8)
        cfg = SketchConfig(kind="gaussian_jl", s=15, seed=2)
        phi = materialize_sketch_matrix(cfg, 30)
        svd = thin_svd(L @ phi)
        ell, gamma = 3, 0.2
        m = build_str(
            factor_of(L), cfg, ell=ell, gamma=gamma,
        )
        V = (L @ phi).T @ (svd.factor(ell) / svd.S[:ell]) / svd.S[:ell]  # right vectors
        Lhat = np.hstack([L @ phi @ V, np.sqrt(gamma) * np.eye(6)])
        np.testing.assert_allclose(Lhat @ Lhat.T, m.covariance(), atol=1e-10)


class TestStrBounds:
    def test_stability_bound_monte_carlo(self):
        # || lifted - Sigma || <= 2 eps ||Sigma|| + lam~_{l+1}/(1-eps) + gamma
        # with eps the measured subspace distortion.
        for trial in range(25):
            rng = np.random.default_rng(100 + trial)
            n, T, r, s, ell = 30, 200, 10, 160, 6
            L = random_low_rank(n, T, r, 100 + trial)
            cfg = SketchConfig(kind="gaussian_jl" if trial % 2 else "countsketch", s=s, seed=trial)
            phi = materialize_sketch_matrix(cfg, T)
            V = np.linalg.svd(L, full_matrices=False)[2][:r].T
            eps = np.linalg.norm((phi.T @ V).T @ (phi.T @ V) - np.eye(r), 2)
            assert eps < 1.0
            m = build_str(factor_of(L), cfg, ell=ell)
            Sigma = L @ L.T
            lam_t = np.linalg.svd(L @ phi, compute_uv=False) ** 2
            lhs = np.linalg.norm(m.covariance() - Sigma, 2)
            rhs = 2 * eps * np.linalg.norm(Sigma, 2) + lam_t[ell] / (1 - eps) + m.gamma
            assert lhs <= rhs

    def test_spectral_approximation_bound(self):
        # || Sigma - lifted || <= lam_{l+1} + 2 eps ||Sigma|| + gamma
        for trial in range(25):
            n, T, r, s, ell = 30, 200, 10, 160, 6
            L = random_low_rank(n, T, r, 200 + trial)
            cfg = SketchConfig(kind="gaussian_jl", s=s, seed=trial)
            phi = materialize_sketch_matrix(cfg, T)
            V = np.linalg.svd(L, full_matrices=False)[2][:r].T
            eps = np.linalg.norm((phi.T @ V).T @ (phi.T @ V) - np.eye(r), 2)
            m = build_str(factor_of(L), cfg, ell=ell)
            Sigma = L @ L.T
            lam = np.sort(np.linalg.eigvalsh(Sigma))[::-1]
            lhs = np.linalg.norm(m.covariance() - Sigma, 2)
            rhs = lam[ell] + 2 * eps * np.linalg.norm(Sigma, 2) + m.gamma
            assert lhs <= rhs

    def test_conditioning_improvement(self):
        for trial in range(25):
            rng = np.random.default_rng(300 + trial)
            n, T = 20, 200
            sig = np.linspace(1.0, 0.2, n)
            L = random_low_rank(n, T, n, 300 + trial, sig=sig)
            Sigma = L @ L.T
            lam = np.linalg.eigvalsh(Sigma)
            cfg = SketchConfig(kind="gaussian_jl", s=160, seed=trial)
            phi = materialize_sketch_matrix(cfg, T)
            V = np.linalg.svd(L, full_matrices=False)[2].T
            eps = np.linalg.norm((phi.T @ V).T @ (phi.T @ V) - np.eye(n), 2)
            if lam[-1] <= (1 + eps) * lam[0]:
                continue
            thr = kappa_improvement_threshold(lam[0], lam[-1], eps)
            m = build_str(
                factor_of(L), cfg, ell=n - 4, gamma=thr * 1.001,
            )
            lifted = np.linalg.eigvalsh(m.covariance())
            assert lifted[-1] / lifted[0] < lam[-1] / lam[0]

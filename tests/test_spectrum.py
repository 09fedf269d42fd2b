import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strmv.cli import _json_value
from strmv.errors import ArgumentError, DegenerateSpectrumError, NumericError
from strmv.spectrum import (
    cumulative_energy,
    energy_rank,
    report_from_singular_values,
    select_truncation_level,
    singular_values,
    symmetric_eigenvalues,
    thin_svd,
)

from reference import truncation_error_bound


def log_spaced(m, k, seed=0):
    """m x k matrix with random singular vectors and sigma log-spaced 1 to 1e-8."""
    rng = np.random.default_rng(seed)
    p = min(m, k)
    U, _ = np.linalg.qr(rng.standard_normal((m, p)))
    V, _ = np.linalg.qr(rng.standard_normal((k, p)))
    return (U * np.logspace(0, -8, p)) @ V.T


def left_vectors(out):
    """The (m, r) left singular vectors of a ``thin_svd`` result."""
    return out.factor(out.rank) / out.S


class TestThinSVD:
    def test_diagonal(self):
        out = thin_svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(out.S, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(left_vectors(out)), np.eye(2), atol=1e-12)

    def test_zero_matrix(self):
        out = thin_svd(np.zeros((4, 3)))
        assert out.rank == 0
        assert left_vectors(out).shape == (4, 0) and out.S.shape == (0,)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 4))
        out = thin_svd(A)
        U = left_vectors(out)
        recon = U @ (U.T @ A)
        assert np.linalg.norm(recon - A, 2) <= 1e-10 * out.S[0]
        assert np.abs(U.T @ U - np.eye(out.rank)).max() <= 1e-10
        # U.T @ A = S * V.T, so its rows are orthogonal with norms S.
        VS = A.T @ U
        assert np.abs(VS.T @ VS - np.diag(out.S**2)).max() <= 1e-10 * out.S[0] ** 2
        # cross-check singular values against a dense eigensolve of A^T A
        lam = np.linalg.eigvalsh(A.T @ A)[::-1]
        np.testing.assert_allclose(out.S**2, lam[: out.rank], rtol=1e-10)

    def test_rank_tolerance_discards(self):
        A = np.diag([1.0, 1e-14])
        out = thin_svd(A)  # 1e-14 is below the 1e-4 relative floor on sigma
        assert out.rank == 1

    @pytest.mark.parametrize("shape", [(300, 100), (100, 300), (80, 80)],
                             ids=["tall", "wide", "square"])
    def test_gram_route_at_the_rank_floor(self, shape):
        A = log_spaced(*shape)
        out = thin_svd(A)
        ref = np.linalg.svd(A, compute_uv=False)
        # the rank stops at the first sigma_i / sigma_1 < 1e-4
        assert out.rank == int(np.argmax(ref / ref[0] < 1e-4))
        np.testing.assert_allclose(out.S, ref[: out.rank], rtol=1e-8)
        U = left_vectors(out)
        assert np.abs(U.T @ U - np.eye(out.rank)).max() <= 1e-8

    def test_exact_low_rank_tall(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((300, 5)) @ rng.standard_normal((5, 100))
        assert thin_svd(A).rank == 5

    def test_non_finite_rejected(self):
        # Every eigensolve refuses NaN and inf itself; eigvalsh would raise
        # LinAlgError, which no exit code documents.
        for solve in (thin_svd, singular_values, symmetric_eigenvalues):
            for bad in (np.nan, np.inf):
                with pytest.raises(NumericError):
                    solve(np.array([[1.0, bad], [bad, 2.0]]))

    @pytest.mark.parametrize("shape,rank", [((300, 100), 100), ((100, 300), 100),
                                            ((300, 100), 5)],
                             ids=["tall", "wide", "rank-deficient"])
    def test_factor_is_the_leading_columns_of_U_times_S(self, shape, rank):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
        out = thin_svd(A)
        assert out.rank == rank
        U = left_vectors(out)
        for k in (1, rank // 2, rank):
            ref = U[:, :k] * out.S[:k]
            got = out.factor(k)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
            if shape[0] < shape[1]:  # U is the Gram eigenvectors Q
                np.testing.assert_array_equal(got, out.Q[:, :k] * out.S[:k])

    @pytest.mark.parametrize("shape", [(300, 100), (100, 300)], ids=["tall", "wide"])
    def test_factor_is_the_eigenvector_formula(self, shape):
        # U * S = A @ V for a tall A, and the Gram eigenvectors times S for a
        # wide one
        A = log_spaced(*shape)
        tall = shape[0] > shape[1]
        Q = np.linalg.eigh(A.T @ A if tall else A @ A.T)[1]
        out = thin_svd(A)
        r, Q = out.rank, Q[:, ::-1]
        np.testing.assert_array_equal(out.factor(r), A @ Q[:, :r] if tall else Q[:, :r] * out.S)

    def test_restricted_condition_number(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((5, 8))
        out = thin_svd(A)
        U = left_vectors(out)
        M = U.T @ (A @ A.T) @ U
        lam = np.linalg.eigvalsh(M)
        kappa = lam[-1] / lam[0]
        expect = (out.S[0] / out.S[-1]) ** 2
        assert abs(kappa - expect) / expect <= 1e-8


class TestEnergy:
    def test_examples(self):
        np.testing.assert_allclose(cumulative_energy([3.0, 1.0]), [0.75, 1.0])
        np.testing.assert_allclose(cumulative_energy([5.0]), [1.0])
        np.testing.assert_allclose(
            cumulative_energy([1.0, 1.0, 1.0, 1.0]), [0.25, 0.5, 0.75, 1.0]
        )

    def test_all_zero_flagged(self):
        energy = cumulative_energy([0.0, 0.0])
        np.testing.assert_array_equal(energy, [0.0, 0.0])
        report = report_from_singular_values([0.0, 0.0])
        assert report.numerical_rank == 0

    def test_report_and_thin_svd_share_the_rank_floor(self):
        # lam = 1e-6 clears the 1e-8 floor on eigenvalues; lam = 1e-10 does not
        s = [1.0, 1e-3, 1e-5]
        assert report_from_singular_values(s).numerical_rank == 2
        assert thin_svd(np.diag(s)).rank == 2

    def test_energy_rank(self):
        assert energy_rank([0.75, 1.0], 0.8) == 2
        assert energy_rank([0.75, 1.0], 0.7) == 1
        assert energy_rank([0.75, 1.0], 0.999) == 2

    def test_energy_rank_bad_eta(self):
        with pytest.raises(ArgumentError):
            energy_rank([0.5, 1.0], 1.0)
        with pytest.raises(ArgumentError):
            energy_rank([0.5, 1.0], 0.0)

    def test_report_serializable(self):
        import json

        report = report_from_singular_values([2.0, 1.0, 0.5])
        payload = json.dumps(report, default=_json_value)
        assert "numerical_rank" in payload


class TestTruncationRule:
    def test_hand_cases(self):
        # eigenvalue sequences from the rule's head/knee definition
        lam = np.array([1.0, 0.5, 0.4, 1e-5])
        assert select_truncation_level(np.sqrt(lam)) == 3
        lam = np.array([1.0, 0.99, 0.98])
        assert select_truncation_level(np.sqrt(lam)) == 3
        lam = np.array([1.0, 1e-6, 1e-7])
        assert select_truncation_level(np.sqrt(lam)) == 1

    def test_degenerate(self):
        with pytest.raises(DegenerateSpectrumError):
            select_truncation_level(np.zeros(3))

    def test_no_interior_knee_falls_back_to_head(self):
        # slow decay: the knee test never fires before the head runs out
        sig = 0.999 ** np.arange(5000)
        ell = select_truncation_level(sig)
        lam = sig**2
        assert lam[ell - 1] / lam[0] >= 1e-3
        assert ell == int(np.sum(lam / lam[0] >= 1e-3))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=12),
        st.floats(0.1, 100.0),
    )
    def test_scale_invariance(self, values, scale):
        sig = np.sort(np.asarray(values))[::-1]
        a = select_truncation_level(sig)
        b = select_truncation_level(sig * scale)
        assert a == b


class TestTruncationBound:
    def test_arithmetic(self):
        assert truncation_error_bound([4.0, 1.0, 0.1], ell=2, epsilon=0.5) == pytest.approx(0.2)
        assert truncation_error_bound([4.0, 1.0, 0.1], ell=3, epsilon=0.5) == 0.0
        assert truncation_error_bound([4.0, 1.0, 0.1], ell=1, epsilon=0.0) == pytest.approx(1.0)

    def test_epsilon_range(self):
        with pytest.raises(ArgumentError):
            truncation_error_bound([1.0], ell=0, epsilon=1.0)


def test_eckart_young_on_random_covariance():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((8, 8))
    Sigma = A @ A.T
    lam, Q = np.linalg.eigh(Sigma)
    lam, Q = lam[::-1], Q[:, ::-1]
    for ell in (1, 3, 6):
        Sl = (Q[:, :ell] * lam[:ell]) @ Q[:, :ell].T
        err = np.linalg.norm(Sigma - Sl, 2)
        assert abs(err - lam[ell]) <= 1e-8 * max(lam[ell], 1e-30)

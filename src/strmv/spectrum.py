"""Thin SVD, singular values and symmetric eigenvalues by one eigensolve each,
spectral diagnostics, and the truncation-level rule.

Singular values come from the smaller Gram matrix, by a checked
``eigvalsh``, so a non-finite input raises NumericError rather than LAPACK's
LinAlgError. Every model's spectrum, which the solver reads, comes from here.

The truncation rule works on covariance eigenvalues (squared singular
values): keep the largest index i whose eigenvalue still clears the head
threshold HEAD_TAU relative to the top one AND whose successor drops by at
least the knee ratio KNEE_RHO. The convention sigma_{r+1} := 0 makes the knee
test satisfiable at the last retained index, so spectra without an interior
knee are still handled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DegenerateSpectrumError, NumericError

#: Eigenvalues (squared singular values) below this fraction of lam_1 count
#: as numerically zero: sigma_i/sigma_1 < 1e-4, the floor of ``thin_svd``.
RANK_TOL = 1e-8

#: Head threshold of the truncation rule: the smallest kept eigenvalue, as a
#: fraction of the top one.
HEAD_TAU = 1e-3

#: Knee ratio of the truncation rule: the cut falls where the next eigenvalue
#: is at most this fraction of the current one.
KNEE_RHO = 0.9


@dataclass
class ThinSVD:
    """Singular values of a matrix down to the rank floor, and its leading
    scaled left singular vectors on demand (``factor``).

    Built by ``thin_svd`` from one eigensolve of the smaller Gram matrix: S
    is exact to machine precision at the head and to about 1e-9 relative at
    the RANK_TOL floor. The left vectors U are orthonormal to machine
    precision unless the matrix is tall; then U = A @ V / S, orthonormal to
    about 1e-9 at the floor. ``factor`` forms only the columns it returns.
    """

    S: np.ndarray  # (r,), descending positive
    A: np.ndarray  # the (m, k) matrix
    Q: np.ndarray  # (min(m, k), r) Gram eigenvectors: V when A is tall, else U
    tall: bool  # A has more rows than columns

    @property
    def rank(self) -> int:
        return self.S.shape[0]

    def factor(self, k: int) -> np.ndarray:
        """U[:, :k] * S[:k], without the other columns of U: A @ V[:, :k] when
        A is tall, which also skips the division by S and the product by it."""
        if self.tall:
            return self.A @ self.Q[:, :k]
        return self.Q[:, :k] * self.S[:k]


@dataclass
class SpectrumReport:
    singular_values: np.ndarray
    energy: np.ndarray
    numerical_rank: int  # 0 for an all-zero spectrum


def _numerical_rank(lam: np.ndarray) -> int:
    """Count of eigenvalues (descending) at or above RANK_TOL * lam_1;
    0 for an empty or all-zero spectrum."""
    if lam.size == 0 or lam[0] <= 0.0:
        return 0
    return int(np.count_nonzero(lam >= RANK_TOL * lam[0]))


def numerical_rank(singular_values: np.ndarray) -> int:
    """Count of singular values (descending) with sigma^2 >= RANK_TOL *
    sigma_1^2: the rank of a factor whose spectrum they are."""
    return _numerical_rank(np.asarray(singular_values, dtype=np.float64) ** 2)


def _finite(A: np.ndarray) -> np.ndarray:
    """A as float64, or NumericError if any entry is NaN or infinite."""
    A = np.asarray(A, dtype=np.float64)
    if not np.all(np.isfinite(A)):
        raise NumericError("matrix has non-finite entries")
    return A


def _gram(A: np.ndarray) -> tuple[np.ndarray, bool, np.ndarray]:
    """A as float64, whether it is tall, and its smaller Gram matrix:
    A.T @ A when A has more rows than columns, else A @ A.T."""
    A = _finite(A)
    tall = A.shape[0] > A.shape[1]
    return A, tall, (A.T @ A if tall else A @ A.T)


def symmetric_eigenvalues(M: np.ndarray) -> np.ndarray:
    """All eigenvalues of the symmetric matrix M, descending, from one
    ``eigvalsh`` (which reads only the lower triangle)."""
    return np.linalg.eigvalsh(_finite(M))[::-1]


def gram_singular_values(G: np.ndarray) -> np.ndarray:
    """The singular values of A, descending, from its Gram matrix G (A @ A.T
    or A.T @ A): the square roots of G's ``symmetric_eigenvalues``. Below the
    RANK_TOL floor they are roundoff, returned clipped at 0."""
    return np.sqrt(np.maximum(symmetric_eigenvalues(G), 0.0))


def singular_values(A: np.ndarray) -> np.ndarray:
    """All min(m, k) singular values of the (m, k) matrix A, descending, from
    the smaller Gram matrix; accurate as ``thin_svd``'s S."""
    return gram_singular_values(_gram(A)[2])


def thin_svd(A: np.ndarray) -> ThinSVD:
    """Left singular vectors and values of A, kept where lam >= RANK_TOL * lam_1.

    One symmetric eigensolve of the smaller Gram matrix replaces the SVD of
    the (m, k) matrix A. For m <= k, U and lam = S^2 are the eigenpairs of
    A @ A.T. For a tall A, V and lam come from A.T @ A, and U = A @ V / S,
    never formed whole. The Gram route resolves sigma_i to about
    eps * (sigma_1/sigma_i)^2 relative: machine precision at the head, about
    1e-9 at the floor. Below the floor it cannot resolve sigma, and a tall
    A's U stops being orthonormal, so the floor is the rank.
    """
    A, tall, G = _gram(A)
    lam, Q = np.linalg.eigh(G)
    lam, Q = lam[::-1], Q[:, ::-1]
    r = _numerical_rank(lam)
    return ThinSVD(S=np.sqrt(lam[:r]), A=A, Q=Q[:, :r], tall=tall)


def cumulative_energy(eigenvalues: np.ndarray) -> np.ndarray:
    """E(r) = sum of the leading r eigenvalues over the total.

    An all-zero spectrum yields all-zero energy.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    total = lam.sum()
    if total <= 0.0:
        return np.zeros_like(lam)
    return np.cumsum(lam) / total


def check_eta(eta: float) -> None:
    if not 0.0 < eta < 1.0:
        raise ArgumentError(f"eta must be in (0,1), got {eta}")


def energy_rank(energy: np.ndarray, eta: float) -> int:
    """Smallest r (1-based) with E(r) >= eta."""
    check_eta(eta)
    energy = np.asarray(energy, dtype=np.float64)
    hits = np.nonzero(energy >= eta)[0]
    if hits.size == 0:
        return energy.size
    return int(hits[0]) + 1


def report_from_singular_values(singular_values: np.ndarray) -> SpectrumReport:
    s = np.asarray(singular_values, dtype=np.float64)
    lam = s**2
    return SpectrumReport(singular_values=s, energy=cumulative_energy(lam),
                          numerical_rank=_numerical_rank(lam))


def select_truncation_level(singular_values: np.ndarray) -> int:
    """Largest index i (1-based) passing both the head and the knee test.

    Tests run on eigenvalues lam_i = sigma_i^2: head lam_i/lam_1 >= HEAD_TAU,
    knee lam_{i+1}/lam_i <= KNEE_RHO with lam_{r+1} := 0. Invariant under
    uniform positive scaling of the spectrum. If no index passes both (a slow
    decay that never drops by KNEE_RHO before falling under HEAD_TAU), the cut
    falls back to the last head-passing index.
    """
    s = np.asarray(singular_values, dtype=np.float64)
    if s.size == 0 or s[0] <= 0.0:
        raise DegenerateSpectrumError("leading singular value must be positive")
    lam = s**2
    lam_next = np.append(lam[1:], 0.0)
    head = lam / lam[0] >= HEAD_TAU
    knee = lam_next <= KNEE_RHO * lam
    both = head & knee
    if both.any():
        return int(np.nonzero(both)[0][-1]) + 1
    return int(np.nonzero(head)[0][-1]) + 1

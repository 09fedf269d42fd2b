"""Independent references and bounds the tests compare the package against.

``dykstra_project`` reaches the exact projection onto the feasible set by
alternating projections, a route that shares nothing with the package's
Newton search but ``project_simplex``; ``project_exact`` reaches it through
the enumeration oracle. ``materialize_sketch_matrix`` forms the dense Phi
that ``apply_sketch`` never forms, so a test can sketch by a plain product
and measure a sketch's subspace distortion. ``kappa_improvement_threshold``
and ``truncation_error_bound`` are the paper's bounds that the tests check
built models against. ``qr_synthetic_returns`` builds a synthetic panel's
returns through ``np.linalg.qr``, which ``generate_synthetic`` must match
bit for bit.
"""

import math

import numpy as np

from strmv.errors import ArgumentError, ProjectionFailureError
from strmv.oracle import QPInstance, solve_exact
from strmv.panel import SyntheticSpec
from strmv.projection import FeasibleSet, project_simplex
from strmv.sketch import SketchConfig, countsketch_arrays

#: Sweep budget and stopping tolerance of the Dykstra reference projection.
DYKSTRA_MAX_ITERS = 10_000
DYKSTRA_TOL = 1e-10


def materialize_sketch_matrix(cfg: SketchConfig, T: int) -> np.ndarray:
    """Dense T x s Phi, which ``apply_sketch`` never forms; refuses more than
    10^6 entries."""
    if T * cfg.s > 10**6:
        raise ArgumentError(f"refusing to materialize {T}x{cfg.s} sketch matrix")
    if cfg.kind == "gaussian_jl":
        rng = np.random.default_rng(cfg.seed)
        return rng.standard_normal((T, cfg.s)) / math.sqrt(cfg.s)
    h, signs = countsketch_arrays(T, cfg.s, cfg.seed)
    phi = np.zeros((T, cfg.s))
    phi[np.arange(T), h] = signs
    return phi


def qr_synthetic_returns(spec: SyntheticSpec) -> np.ndarray:
    """The returns of ``spec`` with both bases from ``np.linalg.qr``, which
    holds several copies of each draw at once."""
    rng = np.random.default_rng(spec.seed)
    k = min(spec.n, spec.T)
    qu, _ = np.linalg.qr(rng.standard_normal((spec.n, k)))
    qv, _ = np.linalg.qr(rng.standard_normal((spec.T, k)))
    sigma = spec.leading_scale * spec.singular_decay ** np.arange(k)
    sigma = np.maximum(sigma, spec.noise_floor)
    return (qu * sigma) @ qv.T * np.sqrt(spec.T - 1)


def project_halfspace(y: np.ndarray, fs: FeasibleSet) -> np.ndarray:
    """Closed-form projection onto the return halfspace."""
    y = np.asarray(y, dtype=np.float64)
    mu = fs.mu
    gap = fs.R_target - float(mu @ y)
    if gap <= 0.0:  # always so when mu = 0, since then R_target <= 0
        return y.copy()
    return y + (gap / float(mu @ mu)) * mu


def dykstra_project(v: np.ndarray, fs: FeasibleSet) -> np.ndarray:
    """Dykstra alternating projections between the simplex and the halfspace.

    Converges to the exact projection onto the intersection; stops when the
    simplex-side iterate moves less than DYKSTRA_TOL between sweeps. Kept as
    an independent reference for ``project_feasible``.
    """
    v = np.asarray(v, dtype=np.float64)
    x = v.copy()
    p = np.zeros_like(v)
    q = np.zeros_like(v)
    y_prev = None
    for _ in range(DYKSTRA_MAX_ITERS):
        y = project_simplex(x + p)
        p = x + p - y
        x = project_halfspace(y + q, fs)
        q = y + q - x
        # Both half-iterates converge to the projection; requiring them to
        # agree guards against stalls where the simplex side parks on a
        # vertex for several sweeps while the corrections still evolve.
        change = float(np.linalg.norm(y - y_prev)) if y_prev is not None else np.inf
        if change <= DYKSTRA_TOL and float(np.linalg.norm(y - x)) <= DYKSTRA_TOL:
            return y
        y_prev = y
    raise ProjectionFailureError(
        f"Dykstra did not converge within {DYKSTRA_MAX_ITERS} sweeps"
    )


def kappa_improvement_threshold(lambda_min: float, lambda_max: float, epsilon: float) -> float:
    """Smallest ridge guaranteeing a strict conditioning improvement.

    Any gamma strictly above (1+eps)*lam_min*lam_max / (lam_max - (1+eps)*lam_min)
    gives kappa(lifted) < kappa(original). The denominator is nonpositive when
    the original matrix is too well conditioned for the bound to bind.
    """
    if lambda_min <= 0.0 or lambda_max <= 0.0:
        raise ArgumentError("eigenvalues must be positive")
    denom = lambda_max - (1.0 + epsilon) * lambda_min
    if denom <= 0.0:
        raise ArgumentError(
            "threshold undefined: lambda_max must exceed (1+epsilon)*lambda_min"
        )
    return (1.0 + epsilon) * lambda_min * lambda_max / denom


def truncation_error_bound(
    sketched_eigs: np.ndarray, ell: int, epsilon: float
) -> float:
    """Computable bound on the (ell+1)-th true eigenvalue: lam~_{ell+1}/(1-eps)."""
    if not 0.0 <= epsilon < 1.0:
        raise ArgumentError(f"epsilon must be in [0,1), got {epsilon}")
    lam = np.asarray(sketched_eigs, dtype=np.float64)
    if ell < 0:
        raise ArgumentError(f"ell must be nonnegative, got {ell}")
    if ell >= lam.size:
        return 0.0
    return float(lam[ell] / (1.0 - epsilon))


def project_exact(v: np.ndarray, fs: FeasibleSet) -> np.ndarray:
    """Exact projection onto the feasible set: argmin ||x - v||^2 over F."""
    v = np.asarray(v, dtype=np.float64)
    inst = QPInstance(Q=2.0 * np.eye(v.size), c=-2.0 * v, fs=fs)
    return solve_exact(inst).x

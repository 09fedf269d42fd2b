"""Experiment metrics: spectral errors, objective gaps, and annualized
out-of-sample portfolio statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DimensionError, NumericError
from .spectrum import symmetric_eigenvalues

#: 5-minute intervals per trading year: 48 per day times 244 trading days.
INTERVALS_PER_YEAR = 48 * 244


@dataclass
class PortfolioStats:
    annualized_return_pct: float
    annualized_vol_pct: float
    intervals_per_year: int = INTERVALS_PER_YEAR


def _symmetric_norm(M: np.ndarray) -> float:
    """Spectral norm max|lam| of a symmetric matrix; reads the lower triangle
    and raises NumericError on a non-finite entry."""
    return float(np.abs(symmetric_eigenvalues(M)).max(initial=0.0))


def relative_spectral_error(Sigma_hat: np.ndarray, Sigma: np.ndarray) -> float:
    """||Sigma_hat - Sigma||_2 / ||Sigma||_2, both norms exact at every size.

    Both arguments are symmetric covariances, so each norm is the largest
    |eigenvalue| from ``spectrum.symmetric_eigenvalues``, which reads only the
    lower triangle of its matrix.
    """
    Sigma_hat = np.asarray(Sigma_hat, dtype=np.float64)
    Sigma = np.asarray(Sigma, dtype=np.float64)
    if Sigma_hat.shape != Sigma.shape or Sigma.ndim != 2 or Sigma.shape[0] != Sigma.shape[1]:
        raise DimensionError("matrices must be square and share a shape")
    denom = _symmetric_norm(Sigma)
    if denom <= 0.0:
        raise NumericError("reference covariance has zero spectral norm")
    return _symmetric_norm(Sigma_hat - Sigma) / denom


def objective_gap(f_hat: float, f_ref: float) -> float:
    """max(f_hat - f_ref, 0) / max(|f_ref|, 1e-12)."""
    if not (math.isfinite(f_hat) and math.isfinite(f_ref)):
        raise NumericError("gap inputs must be finite")
    return max(f_hat - f_ref, 0.0) / max(abs(f_ref), 1e-12)


def annualize(test_returns_per_interval: np.ndarray) -> PortfolioStats:
    """Annualized mean return and volatility, both in percent.

    Simple (non-compounded) scaling of the per-interval mean; volatility uses
    the sample standard deviation (ddof=1).
    """
    r = np.asarray(test_returns_per_interval, dtype=np.float64)
    if r.ndim != 1 or r.size == 0:
        raise ArgumentError("need a nonempty 1-D return series")
    if r.size < 2:
        raise ArgumentError("volatility needs at least 2 intervals")
    ann_ret = float(r.mean()) * INTERVALS_PER_YEAR * 100.0
    ann_vol = float(r.std(ddof=1)) * math.sqrt(INTERVALS_PER_YEAR) * 100.0
    return PortfolioStats(annualized_return_pct=ann_ret, annualized_vol_pct=ann_vol)


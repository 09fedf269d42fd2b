"""Exact Euclidean projection onto the portfolio feasible set.

The feasible set is the probability simplex intersected with a single
return halfspace. The projector first tries the simplex projection alone;
when the return constraint is violated there, the optimum is x(nu), the
simplex projection of v + nu*mu, at a root of phi(nu) = mu.T @ x(nu) =
R_target. phi is nondecreasing and piecewise linear, and it reaches max(mu)
at a finite nu, so one safeguarded Newton search over its pieces (the
breakpoint view of the continuous quadratic knapsack, on top of sorted
simplex thresholding) finds the root exactly up to roundoff. A guess of
the root's support, such as the previous solver iterate's, settles it in
closed form when the guess is right and otherwise starts the search from
a nearby point (Kiwiel 2008). There is no tolerance and no fallback. The
independent reference, Dykstra's alternating projections, lives in the tests
(tests/reference.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ArgumentError,
    InfeasibleTargetError,
    NumericError,
    ProjectionFailureError,
)


@dataclass
class FeasibleSet:
    """Simplex plus return constraint mu.T @ x >= R_target; never empty.

    A target above max(mu), which no portfolio attains, raises
    InfeasibleTargetError here, before any solve.
    """

    mu: np.ndarray
    R_target: float

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        if self.mu.ndim != 1 or self.mu.size < 2:
            raise ArgumentError("mu must be a vector of length >= 2")
        if not np.all(np.isfinite(self.mu)) or not np.isfinite(self.R_target):
            raise ArgumentError(
                f"mu and R_target must be finite, got R_target={self.R_target}"
            )
        if self.R_target > self.mu.max():
            raise InfeasibleTargetError(
                f"R_target={self.R_target} exceeds max(mu)={self.mu.max()}: "
                "no feasible portfolio"
            )
        self.mu.setflags(write=False)

    @property
    def n(self) -> int:
        return self.mu.size


@dataclass
class ProjectionDiagnostics:
    """What one ``project_feasible`` call did.

    ``bisection_iters`` counts safeguard bisection steps. ``fallback_used``
    is always False, since there is no fallback; perfbench/tracing.py still
    reads it.
    """

    constraint_active: bool = False
    nu_star: float = 0.0
    bisection_iters: int = 0
    fallback_used: bool = False
    return_residual: float = 0.0


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1} by sorted thresholding.

    Shift by max(v), sort descending, find the largest j with
    u_j - (cumsum_j - 1)/j > 0, and clip at that threshold. The projection is
    shift-invariant, and after the shift j = 1 always qualifies, however
    large the entries. The sort orders values only, so it need not be
    stable: tied values are interchangeable, and only where -0.0 and +0.0
    land can differ, which leaves the threshold unchanged.

    A point that is not finite, or whose spread max - min times 2n leaves
    the float range (so that the shift or the running sums would overflow),
    raises NumericError before any arithmetic on it.
    """
    v = np.asarray(v, dtype=np.float64)
    top = float(v.max())
    if not math.isfinite(2.0 * v.size * (top - float(v.min()))):  # NaN and inf fail too
        raise NumericError("cannot project a non-finite point or one whose entries span "
                           "more than the float range")
    v = v - top
    u = -np.sort(-v)
    cssv = np.cumsum(u) - 1.0
    j = np.arange(1, v.size + 1)
    cand = np.nonzero(u - cssv / j > 0.0)[0]
    rho = cand[-1]
    tau = cssv[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def _flat_nu(v: np.ndarray, mu: np.ndarray) -> float:
    """A nu >= 0 at which x(nu) is supported on argmax(mu), so phi = max(mu).

    The simplex threshold is at least max(w) - 1, so asset i leaves the
    support once v_i + nu*mu_i <= max over argmax(mu) of v_j + nu*max(mu) - 1.
    """
    top = mu == mu.max()
    gap = mu.max() - mu[~top]
    return float(np.max((v[~top] - v[top].max() + 1.0) / gap, initial=0.0))


def project_feasible(
    v: np.ndarray, fs: FeasibleSet, support: Optional[np.ndarray] = None
) -> tuple[np.ndarray, ProjectionDiagnostics]:
    """Exact projection onto simplex-cap-halfspace by a safeguarded Newton search.

    Returns the projected point and diagnostics. If the simplex projection
    already meets the return constraint it is returned unchanged. Otherwise
    the root of phi(nu) = R_target is searched in the bracket [0, nu_flat],
    where nu_flat is a finite point at which phi = max(mu) >= R_target. Each
    step is a Newton step on the current piece, cut off at the upper end of
    the bracket, or a bisection when that step does not move right of the
    lower end or the piece is flat. There is no tolerance; the search stops
    when one of these holds, each of which pins nu to the root:

    - a Newton step taken from piece S lands on a point whose support is S,
      or is shorter than one ulp of nu;
    - the piece is flat at the target (every mu on the support equals it);
    - no double lies strictly inside the bracket; its upper end is returned.

    The result is exact up to the roundoff of forming v + nu*mu. When |v| is
    so large (~1e15 and up) that this sum drops the digits of nu*mu, the
    point can miss the target; a miss of more than 1e-9 * max|mu| raises
    ProjectionFailureError. phi has at most 2n breakpoints (each asset
    enters and leaves the support at most once), so the search gets
    2n + 200 steps; if they run out it raises ProjectionFailureError too.
    There is no fallback method. Every trial point is projected through
    ``project_simplex``. Input so extreme that the search would overflow
    raises NumericError instead, with no NumPy warning. With finite v and mu,
    only an overflow can lead to an invalid value (inf - inf, 0 * inf).

    ``support``, a boolean mask such as the support of the previous solver
    iterate's projection, is a guess of the optimum's support S. On the piece
    of S, phi is linear, so the nu at which it meets R_target solves the
    piece's 2 x 2 KKT system in closed form (``_piece_root``). When that nu is
    positive and x(nu) has support S, x(nu) meets every optimality condition
    and is returned after one simplex projection: the Newton stopping rule
    above. When x(nu) has another support, the search starts at nu: as the
    lower end of the bracket, with the nu = 0 simplex projection skipped, if
    phi(nu) < R_target; otherwise, once x(0) has shown the constraint active,
    as its upper end if nu < nu_flat. A guess whose root is not positive or
    not finite, or that is empty or flat (no root), is ignored, and the
    search starts at nu = 0. In a tie, where x(0) meets R_target to roundoff,
    every nu from 0 to such a root is a multiplier of the same point: the
    guess may then report the constraint active at that root where the cold
    search reports it inactive at 0.
    """
    try:
        with np.errstate(over="raise"):
            return _project_feasible(np.asarray(v, dtype=np.float64), fs, support)
    except FloatingPointError as exc:
        raise NumericError(f"projection leaves the float range: {exc}") from None


def _piece_slope(mu_s):
    """d = mu_S - mu_S[0], sum(d) and the slope d @ d - sum(d)**2 / |S| of
    phi on the piece where x(nu) has support S. The shift makes the slope of
    a tied support exactly 0."""
    d = mu_s - mu_s[0]
    total = float(d.sum())  # squared by a product: ** raises on overflow
    return d, total, float(d @ d) - total * total / d.size


def _piece_root(v, mu, support, R):
    """The nu at which phi on the piece of ``support`` equals R: NaN for an
    empty or flat piece, and never an error (a root that leaves the float
    range is NaN or inf).

    On S, x = v + nu*mu - tau with sum(x) = 1, so
    phi(nu) = mu_S[0] + d @ v_S - sum(d) * (sum(v_S) - 1) / |S| + nu * slope.
    """
    mu_s, v_s = mu[support], v[support]
    if mu_s.size == 0:
        return math.nan
    with np.errstate(over="ignore", invalid="ignore"):
        d, total, slope = _piece_slope(mu_s)
        if not slope > 0.0:
            return math.nan
        phi0 = float(mu_s[0]) + float(d @ v_s) - total * (float(v_s.sum()) - 1.0) / d.size
    return (R - phi0) / slope


def _project_feasible(v, fs, support):
    mu = fs.mu
    R = fs.R_target
    if v.shape != mu.shape:
        raise ArgumentError(f"point has shape {v.shape}, mu has shape {mu.shape}")
    diag = ProjectionDiagnostics()
    root = None
    if support is not None:
        support = np.asarray(support, dtype=bool)
        if support.shape != mu.shape:
            raise ArgumentError(f"support has shape {support.shape}, mu has shape {mu.shape}")
        guess = _piece_root(v, mu, support, R)
        if 0.0 < guess < math.inf:
            root, x_root = guess, project_simplex(v + guess * mu)
            if np.array_equal(x_root > 0.0, support):
                return _settled(v, mu, R, root, x_root, diag)
            phi_root = float(mu @ x_root)
    root_below = root is not None and phi_root < R  # then phi(0) <= phi(root) < R_target
    if not root_below:
        x = project_simplex(v)
        phi = float(mu @ x)
        if phi >= R:
            return x, diag

    nu, lo, hi, x_hi = 0.0, 0.0, _flat_nu(v, mu), None
    if root_below:
        nu, lo, x, phi = root, root, x_root, phi_root
    elif root is not None and root < hi:  # phi(root) >= R_target: the root caps the bracket
        nu, hi, x_hi, x, phi = root, root, x_root, x_root, phi_root
    budget = 2 * mu.size + 200
    for _ in range(budget):
        support = x > 0.0
        mu_s = mu[support]
        slope = _piece_slope(mu_s)[2]
        if slope == 0.0 and mu_s[0] == R:
            break
        trial = nu + (R - phi) / slope if slope > 0.0 else np.nan
        if trial == nu:  # the Newton step is below one ulp of nu
            break
        newton = trial > lo
        if newton:
            trial = min(trial, hi)
        else:
            diag.bisection_iters += 1
            trial = 0.5 * (lo + hi)
            if not lo < trial < hi:
                nu, x = hi, x_hi if x_hi is not None else project_simplex(v + hi * mu)
                break
        nu, x = trial, project_simplex(v + trial * mu)
        if newton and np.array_equal(x > 0.0, support):
            break
        phi = float(mu @ x)
        if phi >= R:
            hi, x_hi = nu, x
        else:
            lo = nu
    else:
        raise ProjectionFailureError(
            f"exact projection search did not settle within {budget} steps"
        )
    return _settled(v, mu, R, nu, x, diag)


def _settled(v, mu, R, nu, x, diag):
    """x = x(nu) as the projection onto the binding constraint, unless it
    misses R_target by more than roundoff allows."""
    ret = float(mu @ x)
    if R - ret > 1e-9 * np.abs(mu).max():
        raise ProjectionFailureError(
            f"projection misses R_target={R} by {R - ret:.3g}: v + nu*mu kept too few "
            f"digits of nu*mu (max|v| = {np.abs(v).max():.3g})"
        )
    diag.constraint_active = True
    diag.nu_star = nu
    diag.return_residual = abs(ret - R)
    return x, diag

"""Exact small-scale reference solver by active-set enumeration.

Solves min 1/2 x.T Q x + c.T x over the portfolio feasible set by brute
force: every subset of zero-pinned coordinates is combined with both states
of the return constraint, each equality-constrained system is solved, and
candidates are kept only if they pass primal feasibility and the dual sign
conditions. With n <= 14 the 2^n * 2 systems stay cheap, and the winner is
a certified KKT point, which is what makes this usable as ground truth for
the iterative solver and the projection routines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DimensionError, InfeasibleTargetError, NumericError
from .projection import FeasibleSet

MAX_ORACLE_DIM = 14

_FEAS_TOL = 1e-9
_RETURN_TOL = 1e-12
_DUAL_TOL = 1e-9
_RESIDUAL_TOL = 1e-8
_TIE_TOL = 1e-12


@dataclass
class QPInstance:
    """min 1/2 x.T Q x + c.T x subject to the feasible set."""

    Q: np.ndarray
    c: np.ndarray
    fs: FeasibleSet

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=np.float64)
        self.c = np.asarray(self.c, dtype=np.float64)
        n = self.fs.n
        if self.Q.shape != (n, n):
            raise DimensionError(f"Q must be {n}x{n}, got {self.Q.shape}")
        if self.c.shape != (n,):
            raise DimensionError(f"c must have length {n}")
        if n > MAX_ORACLE_DIM:
            raise ArgumentError(f"enumeration oracle is limited to n <= {MAX_ORACLE_DIM}")
        scale = max(1.0, float(np.abs(self.Q).max()))
        if float(np.abs(self.Q - self.Q.T).max()) > 1e-10 * scale:
            raise NumericError("Q must be symmetric")


@dataclass
class OracleSolution:
    x: np.ndarray
    value: float
    active_bounds: tuple[int, ...]  # indices pinned at zero
    return_active: bool


def _candidate(
    Q: np.ndarray,
    c: np.ndarray,
    mu: np.ndarray,
    R: float,
    zero_set: tuple[int, ...],
    return_active: bool,
) -> tuple[np.ndarray, float, float] | None:
    """Solve the equality-constrained KKT system for one active-set guess.

    Returns (x, nu, scale) or None when the system has no usable
    least-squares solution; scale is the magnitude the solve's roundoff is
    relative to.
    """
    n = Q.shape[0]
    free = [i for i in range(n) if i not in zero_set]
    if not free:
        return None  # budget constraint cannot hold with every weight zero
    f = len(free)
    rows = f + 1 + (1 if return_active else 0)
    A = np.zeros((rows, f + 1 + (1 if return_active else 0)))
    b = np.zeros(rows)
    A[:f, :f] = Q[np.ix_(free, free)]
    A[:f, f] = -1.0  # budget multiplier column
    if return_active:
        A[:f, f + 1] = -mu[free]
    b[:f] = -c[free]
    A[f, :f] = 1.0
    b[f] = 1.0
    if return_active:
        A[f + 1, :f] = mu[free]
        b[f + 1] = R
    sol, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    resid = float(np.linalg.norm(A @ sol - b))
    scale = max(1.0, float(np.abs(b).max()), float(np.abs(sol).max()))
    if resid > _RESIDUAL_TOL * scale:
        return None
    x = np.zeros(n)
    x[free] = sol[:f]
    nu = float(sol[f + 1]) if return_active else 0.0
    lam = float(sol[f])
    eta = Q @ x + c - lam - nu * mu
    zeros = list(zero_set)
    m = mu[free[0]]
    if return_active and np.all(mu[free] == m):
        # The return row repeats the budget row, so (lam - m*t, nu + t) solves
        # the system for every t; lstsq returns only t = 0, the min-norm point.
        # The smallest t with nu >= 0 and eta >= 0 on every bound that rises
        # in t is valid whenever any t is.
        rate = m - mu[zeros]  # d eta_i / dt
        rising = rate > 0.0
        t = max([-nu, *(-eta[zeros][rising] / rate[rising])])
        nu += t
        eta += t * (m - mu)
    # Dual feasibility on the pinned bounds: eta_i >= 0.
    if zeros and float(eta[zeros].min()) < -_DUAL_TOL * scale:
        return None
    return x, nu, scale


def solve_exact(inst: QPInstance) -> OracleSolution:
    """Enumerate all active sets and return the best feasible KKT point.

    Ties within 1e-12 in value resolve to a candidate with no negative entry
    first, then to the lexicographically smallest (active bound set,
    return-active flag) pair so fixtures stay stable.
    """
    Q, c, fs = inst.Q, inst.c, inst.fs
    mu, R = fs.mu, fs.R_target
    n = fs.n
    best: OracleSolution | None = None
    for size in range(n + 1):
        for zero_set in itertools.combinations(range(n), size):
            for return_active in (False, True):
                got = _candidate(Q, c, mu, R, zero_set, return_active)
                if got is None:
                    continue
                x, nu, scale = got
                # The return target must hold to the solve's roundoff on both
                # branches: lstsq meets the active branch's return equation only
                # to _RESIDUAL_TOL, and a looser check admits points ~1e-8 from
                # the optimum near a degenerate target.
                short = R - float(mu @ x) > _RETURN_TOL * max(scale, abs(R))
                if float(x.min()) < -_FEAS_TOL or short:
                    continue
                if return_active and nu < -_DUAL_TOL:
                    continue
                value = 0.5 * float(x @ (Q @ x)) + float(c @ x)
                key = (bool(x.min() < 0.0), tuple(zero_set), return_active)
                if (
                    best is None
                    or value < best.value - _TIE_TOL
                    or (
                        abs(value - best.value) <= _TIE_TOL
                        and key < (bool(best.x.min() < 0.0), best.active_bounds,
                                   best.return_active)
                    )
                ):
                    best = OracleSolution(
                        x=x,
                        value=value,
                        active_bounds=tuple(zero_set),
                        return_active=return_active,
                    )
    if best is None:
        raise InfeasibleTargetError(
            "no feasible KKT point found; the return target is unattainable"
        )
    return best

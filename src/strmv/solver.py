"""Nesterov-accelerated projected gradient over an effective factor model.

Each iteration takes a gradient at the extrapolated point, a projected step
onto the feasible set, and a momentum update: the standard t_k sequence in
the convex regime, or a constant momentum built from the curvature bound in
the strongly convex regime. Termination uses the projected-gradient
residual ||P_F(x - alpha*grad f(x)) - x||, which vanishes exactly at KKT
points.

Gradients use only matrix-vector products with the factor, never the dense
covariance; a dense-covariance entry point exists for cross-checks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ArgumentError, DimensionError, InfeasibleTargetError, NumericError
from .models import FactorModel
from .projection import FeasibleSet, project_feasible

STEP_MODES = ("fixed_auto", "fixed_explicit", "backtracking")
MOMENTUM_MODES = ("fista", "strongly_convex")

#: Inflation applied to the power-method norm estimate when deriving the
#: automatic fixed step; the estimate is a lower bound on the true norm.
STEP_SAFETY = 1.05

_BACKTRACK_FLOOR = 1e-18


@dataclass
class SolverConfig:
    step_mode: str = "fixed_auto"
    alpha: Optional[float] = None  # fixed_explicit step
    alpha0: Optional[float] = None  # backtracking initial trial
    shrink: float = 0.5  # backtracking shrink factor
    momentum_mode: str = "fista"
    tol: float = 1e-8
    max_iters: int = 10_000
    residual_check_stride: int = 1
    power_iters: int = 10
    seed: int = 0
    record_objective: bool = False

    def __post_init__(self):
        if self.step_mode not in STEP_MODES:
            raise ArgumentError(f"unknown step mode {self.step_mode!r}")
        if self.momentum_mode not in MOMENTUM_MODES:
            raise ArgumentError(f"unknown momentum mode {self.momentum_mode!r}")
        if self.tol <= 0:
            raise ArgumentError("tol must be positive")
        if not 0.0 < self.shrink < 1.0:
            raise ArgumentError("shrink must be in (0,1)")
        if self.step_mode == "fixed_explicit" and (self.alpha is None or self.alpha <= 0):
            raise ArgumentError("fixed_explicit requires alpha > 0")
        if self.momentum_mode == "strongly_convex" and self.step_mode == "backtracking":
            raise ArgumentError("constant momentum requires a fixed step")
        if self.max_iters < 1 or self.residual_check_stride < 1 or self.power_iters < 1:
            raise ArgumentError("iteration counts must be positive")


@dataclass
class CurvatureConstants:
    L_f: float
    m_f: float


@dataclass
class SolveResult:
    x: np.ndarray
    objective: float
    iterations: int
    residual_trace: np.ndarray
    step_used: float
    L_f_estimate: float
    m_f: float
    wall_time: float
    termination: str  # "tolerance" | "max_iters"
    objective_trace: Optional[np.ndarray] = None

    def to_dict(self) -> dict:
        d = {
            "x": self.x.tolist(),
            "objective": self.objective,
            "iterations": self.iterations,
            "residual_trace": self.residual_trace.tolist(),
            "step_used": self.step_used,
            "L_f_estimate": self.L_f_estimate,
            "m_f": self.m_f,
            "wall_time_s": self.wall_time,
            "termination": self.termination,
        }
        if self.objective_trace is not None:
            d["objective_trace"] = self.objective_trace.tolist()
        return d


def gradient(model: FactorModel, x: np.ndarray) -> np.ndarray:
    """grad f(x) = 2 * L_eff @ (L_eff.T @ x) + 2 * gamma * x.

    Two matrix-vector products plus an axpy; the dense covariance is never
    formed.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.n,):
        raise DimensionError(f"x has shape {x.shape}, model is {model.n}-dimensional")
    g = 2.0 * (model.L_eff @ (model.L_eff.T @ x))
    if model.gamma:
        g += 2.0 * model.gamma * x
    return g


def objective(model: FactorModel, x: np.ndarray) -> float:
    z = model.L_eff.T @ x
    val = float(z @ z)
    if model.gamma:
        val += model.gamma * float(x @ x)
    return val


def _power_sequence(matvec: Callable[[np.ndarray], np.ndarray], n: int,
                    iters: int, seed: int) -> np.ndarray:
    """Rayleigh-quotient sequence sqrt(u.T M u) for the PSD operator M.

    The sequence is nondecreasing and converges to the top singular value of
    the factor (spectral norm of M is its square).
    """
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    norm = np.linalg.norm(u)
    if norm == 0.0:
        return np.zeros(iters)
    u /= norm
    vals = np.empty(iters)
    for t in range(iters):
        w = matvec(u)
        rayleigh = float(u @ w)
        vals[t] = math.sqrt(max(rayleigh, 0.0))
        wn = np.linalg.norm(w)
        if wn == 0.0:
            vals[t:] = 0.0
            break
        u = w / wn
    return vals


def estimate_spectral_norm(model: FactorModel, iters: int = 10, seed: int = 0) -> float:
    """Power-method estimate of ||L_eff||_2 (a lower bound on the true norm)."""
    if iters < 1:
        raise ArgumentError("iters must be >= 1")
    matvec = lambda u: model.L_eff @ (model.L_eff.T @ u)
    seq = _power_sequence(matvec, model.n, iters, seed)
    return float(seq[-1])


def curvature_constants(
    model: FactorModel,
    sigma_min_hint: Optional[float] = None,
    power_iters: int = 10,
    seed: int = 0,
    safety: float = STEP_SAFETY,
) -> CurvatureConstants:
    """Smoothness and strong-convexity constants from the factor spectrum.

    L_f = 2*(||L_eff||^2 + gamma), inflated by the safety factor because the
    power estimate is a lower bound. m_f defaults to 2*gamma: any factor
    with fewer columns than rows has a zero smallest covariance eigenvalue,
    and for the full baseline computing it is as hard as the problem itself.
    A known smallest singular value can be passed as a hint.
    """
    est = estimate_spectral_norm(model, iters=power_iters, seed=seed)
    L_f = safety * 2.0 * (est**2 + model.gamma)
    if sigma_min_hint is not None:
        m_f = 2.0 * (sigma_min_hint**2 + model.gamma)
    else:
        m_f = 2.0 * model.gamma
    return CurvatureConstants(L_f=L_f, m_f=m_f)


# ---------------------------------------------------------------------------
# Core loop shared by the factor and dense paths
# ---------------------------------------------------------------------------


def _accelerated_pg_loop(
    obj: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    L_f: float,
    m_f: float,
    fs: FeasibleSet,
    x0: Optional[np.ndarray],
    cfg: SolverConfig,
) -> SolveResult:
    n = fs.n
    if fs.R_target > fs.mu.max():
        raise InfeasibleTargetError("feasible set is empty: R_target > max(mu)")

    if x0 is None:
        x0 = np.full(n, 1.0 / n)
    x, _ = project_feasible(np.asarray(x0, dtype=np.float64), fs)

    if cfg.step_mode == "fixed_explicit":
        alpha = float(cfg.alpha)
    elif cfg.step_mode == "fixed_auto":
        alpha = 1.0 / L_f if L_f > 0 else 1.0
    else:
        alpha = cfg.alpha0 if cfg.alpha0 else (2.0 / L_f if L_f > 0 else 1.0)

    if cfg.momentum_mode == "strongly_convex":
        if m_f <= 0:
            raise ArgumentError(
                "strongly_convex momentum requires m_f > 0 (ridge or a spectrum hint)"
            )
        root = math.sqrt(alpha * m_f)
        beta_const = (1.0 - root) / (1.0 + root)

    start = time.perf_counter()
    residuals: list[float] = []
    obj_trace = [obj(x)] if cfg.record_objective else None

    def residual(point: np.ndarray, step: float) -> float:
        moved, _ = project_feasible(point - step * grad(point), fs)
        return float(np.linalg.norm(moved - point))

    r0 = residual(x, alpha)
    residuals.append(r0)
    if r0 <= cfg.tol:
        return SolveResult(
            x=x, objective=obj(x), iterations=0,
            residual_trace=np.asarray(residuals), step_used=alpha,
            L_f_estimate=L_f, m_f=m_f, wall_time=time.perf_counter() - start,
            termination="tolerance",
            objective_trace=np.asarray(obj_trace) if obj_trace is not None else None,
        )

    y = x.copy()
    t_k = 1.0
    termination = "max_iters"
    k = 0
    if cfg.step_mode == "backtracking":
        alpha *= 0.5  # so the first upward retry lands on the initial trial
    for k in range(1, cfg.max_iters + 1):
        g = grad(y)
        if cfg.step_mode == "backtracking":
            alpha = 2.0 * alpha  # retry upward from the last accepted step
            f_y = obj(y)
            while True:
                x_new, _ = project_feasible(y - alpha * g, fs)
                d = x_new - y
                model_val = f_y + float(g @ d) + float(d @ d) / (2.0 * alpha)
                f_new = obj(x_new)
                if f_new <= model_val + 1e-15 * max(1.0, abs(f_new)):
                    break
                alpha *= cfg.shrink
                if alpha < _BACKTRACK_FLOOR:
                    raise NumericError("backtracking step underflow")
        else:
            x_new, _ = project_feasible(y - alpha * g, fs)

        if cfg.momentum_mode == "fista":
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k))
            beta = (t_k - 1.0) / t_next
            t_k = t_next
        else:
            beta = beta_const
        y = x_new + beta * (x_new - x)
        x = x_new

        if obj_trace is not None:
            obj_trace.append(obj(x))
        if k % cfg.residual_check_stride == 0:
            r = residual(x, alpha)
            residuals.append(r)
            if r <= cfg.tol:
                termination = "tolerance"
                break

    return SolveResult(
        x=x, objective=obj(x), iterations=k,
        residual_trace=np.asarray(residuals), step_used=alpha,
        L_f_estimate=L_f, m_f=m_f, wall_time=time.perf_counter() - start,
        termination=termination,
        objective_trace=np.asarray(obj_trace) if obj_trace is not None else None,
    )


def solve(
    model: FactorModel,
    fs: FeasibleSet,
    x0: Optional[np.ndarray] = None,
    cfg: Optional[SolverConfig] = None,
    sigma_min_hint: Optional[float] = None,
) -> SolveResult:
    """Run the accelerated projected-gradient loop on a factor model.

    The default start is the uniform portfolio projected onto the feasible
    set; any supplied x0 is projected as well.
    """
    cfg = cfg or SolverConfig()
    if model.n != fs.n:
        raise DimensionError(f"model has {model.n} assets, feasible set {fs.n}")
    consts = curvature_constants(
        model, sigma_min_hint=sigma_min_hint, power_iters=cfg.power_iters, seed=cfg.seed
    )
    return _accelerated_pg_loop(
        obj=lambda x: objective(model, x),
        grad=lambda x: gradient(model, x),
        L_f=consts.L_f,
        m_f=consts.m_f,
        fs=fs,
        x0=x0,
        cfg=cfg,
    )


def solve_dense(
    Sigma: np.ndarray,
    fs: FeasibleSet,
    cfg: Optional[SolverConfig] = None,
    x0: Optional[np.ndarray] = None,
    m_hint: float = 0.0,
) -> SolveResult:
    """Same iteration with an explicit covariance: grad f = 2 * Sigma @ x.

    Used for cross-checks against the factor path.
    """
    cfg = cfg or SolverConfig()
    Sigma = np.asarray(Sigma, dtype=np.float64)
    if Sigma.ndim != 2 or Sigma.shape[0] != Sigma.shape[1]:
        raise DimensionError("Sigma must be square")
    scale = max(1.0, float(np.abs(Sigma).max()))
    if float(np.abs(Sigma - Sigma.T).max()) > 1e-8 * scale:
        raise NumericError("Sigma is not symmetric within tolerance")
    if Sigma.shape[0] != fs.n:
        raise DimensionError(f"Sigma is {Sigma.shape[0]}x{Sigma.shape[0]}, feasible set {fs.n}")

    seq = _power_sequence(lambda u: Sigma @ u, Sigma.shape[0], cfg.power_iters, cfg.seed)
    # For PSD Sigma the Rayleigh sequence estimates sqrt(lambda_max).
    L_f = STEP_SAFETY * 2.0 * float(seq[-1]) ** 2
    return _accelerated_pg_loop(
        obj=lambda x: float(x @ (Sigma @ x)),
        grad=lambda x: 2.0 * (Sigma @ x),
        L_f=L_f,
        m_f=m_hint,
        fs=fs,
        x0=x0,
        cfg=cfg,
    )

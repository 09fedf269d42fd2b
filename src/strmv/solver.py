"""Nesterov-accelerated projected gradient over an effective factor model.

Each iteration takes a gradient at the extrapolated point, a projected step
of fixed length alpha onto the feasible set, and a momentum update: the
standard t_k sequence in the convex regime, or a constant momentum built from
the curvature bound in the strongly convex regime. The step is a given alpha
or 1/L_f. The default momentum ("auto") picks the regime from m_f: constant
momentum when m_f > 0, otherwise the t_k sequence with gradient restart
(O'Donoghue & Candes 2015), which resets the momentum whenever the step and
the last move point against each other; "fista" runs the t_k sequence
without restart. Termination uses the projected-gradient residual
||P_F(x - alpha*grad f(x)) - x||, which vanishes exactly at KKT points.

Each iteration costs one gradient, taken at the new iterate x_k: f is
quadratic, so the gradient at the extrapolated point y = x_k + beta*(x_k -
x_{k-1}) is (1 + beta)*grad f(x_k) - beta*grad f(x_{k-1}), and the residual
check at x_k reuses grad f(x_k). A factor with at most n/2 columns is
multiplied as it is, by two matrix-vector products. A wider one costs less
as the dense Hessian H = 2*(L_eff @ L_eff.T + gamma*I), formed once per
solve, after which a gradient is the single pass H @ x.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ArgumentError, DimensionError
from .models import FactorModel
from .projection import FeasibleSet, project_feasible
from .spectrum import power_sequence

MOMENTUM_MODES = ("auto", "fista")

#: Inflation applied to the power-method norm estimate when deriving the
#: automatic fixed step; the estimate is a lower bound on the true norm.
STEP_SAFETY = 1.05

#: Power iterations behind the curvature estimate of models without a
#: stored spectrum (baseline and sketch).
POWER_ITERS = 10


@dataclass
class SolverConfig:
    alpha: Optional[float] = None  # the fixed step; None takes 1/L_f
    momentum_mode: str = "auto"
    tol: float = 1e-8
    max_iters: int = 10_000
    residual_check_stride: int = 1
    record_objective: bool = False

    def __post_init__(self):
        if self.momentum_mode not in MOMENTUM_MODES:
            raise ArgumentError(f"unknown momentum mode {self.momentum_mode!r}")
        if not self.tol > 0:
            raise ArgumentError("tol must be positive")
        if self.alpha is not None and not 0.0 < self.alpha < math.inf:
            raise ArgumentError(f"alpha must be positive and finite, got {self.alpha}")
        if self.max_iters < 1 or self.residual_check_stride < 1:
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
    momentum: str  # "strongly_convex" | "fista" | "fista_restart"
    restarts: int
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
            "momentum": self.momentum,
            "restarts": self.restarts,
        }
        if self.objective_trace is not None:
            d["objective_trace"] = self.objective_trace.tolist()
        return d


@dataclass(frozen=True)
class DenseHessian:
    """H = 2 * (L_eff @ L_eff.T + gamma * I) of a model, which ``solve``
    iterates on in place of a factor with more than n/2 columns.

    It reads as the model where the solver reads one: ``gamma`` and
    ``singular_values`` are the model's, and ``n`` = ``columns`` is H's order.
    """

    H: np.ndarray
    gamma: float
    singular_values: Optional[np.ndarray]

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def columns(self) -> int:
        return self.H.shape[1]


Operator = Union[FactorModel, DenseHessian]


def gradient(model: Operator, x: np.ndarray) -> np.ndarray:
    """grad f(x) = 2 * L_eff @ (L_eff.T @ x) + 2 * gamma * x.

    On a factor model: two matrix-vector products plus an axpy; the dense
    covariance is never formed. On a ``DenseHessian``: the one product H @ x.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.n,):
        raise DimensionError(f"x has shape {x.shape}, model is {model.n}-dimensional")
    if isinstance(model, DenseHessian):
        return model.H @ x
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


def estimate_spectral_norm(model: Operator) -> float:
    """Power-method estimate of ||L_eff||_2 (a lower bound on the true norm):
    ``POWER_ITERS`` steps from the start vector seeded with 0. On a
    ``DenseHessian`` each step is one product with H / 2 - gamma * I."""
    if isinstance(model, DenseHessian):
        matvec = lambda u: 0.5 * (model.H @ u) - model.gamma * u
    else:
        matvec = lambda u: model.L_eff @ (model.L_eff.T @ u)
    return float(power_sequence(matvec, model.n, POWER_ITERS, 0)[-1])


def curvature_constants(model: Operator) -> CurvatureConstants:
    """Smoothness and strong-convexity constants from the factor spectrum.

    L_f = 2*(||L_eff||^2 + gamma). A str model stores L_eff = U_ell * S_ell,
    so its norm is exactly the first stored singular value; other models get
    a power estimate, inflated by the safety factor because it is a lower
    bound. m_f = 2*gamma: any factor with fewer columns than rows has a zero
    smallest covariance eigenvalue, and for the full baseline computing it is
    as hard as the problem itself.
    """
    if model.singular_values is not None:
        L_f = 2.0 * (float(model.singular_values[0]) ** 2 + model.gamma)
    else:
        est = estimate_spectral_norm(model)
        L_f = STEP_SAFETY * 2.0 * (est**2 + model.gamma)
    return CurvatureConstants(L_f=L_f, m_f=2.0 * model.gamma)


def gradient_operator(model: FactorModel) -> Operator:
    """What ``solve`` takes gradients on: the model's ``DenseHessian`` when
    2 * columns > n, where one pass over the n x n matrix H reads less memory
    than two passes over the factor; the model itself otherwise.
    """
    if 2 * model.columns <= model.n:
        return model
    H = model.L_eff @ model.L_eff.T
    if model.gamma:
        H[np.diag_indices_from(H)] += model.gamma
    H *= 2.0
    return DenseHessian(H=H, gamma=model.gamma, singular_values=model.singular_values)


def solve(
    model: FactorModel,
    fs: FeasibleSet,
    x0: Optional[np.ndarray] = None,
    cfg: Optional[SolverConfig] = None,
) -> SolveResult:
    """Run the accelerated projected-gradient loop on a factor model.

    The default start is the uniform portfolio projected onto the feasible
    set; any supplied x0 is projected as well. While the return constraint
    binds, each projection starts from the previous projection's support,
    which moves little between iterates (``project_feasible``). Gradients
    are taken on ``gradient_operator(model)``, one per iterate, and the
    objective on the model's own factor. ``wall_time`` covers the whole
    call, the Hessian's formation and the curvature estimate included.
    """
    start = time.perf_counter()
    cfg = cfg or SolverConfig()
    n = fs.n
    if model.n != n:
        raise DimensionError(f"model has {model.n} assets, feasible set {n}")
    op = gradient_operator(model)
    consts = curvature_constants(op)
    L_f, m_f = consts.L_f, consts.m_f

    support = None  # the latest projection's support while the target binds

    def project(point: np.ndarray) -> np.ndarray:
        nonlocal support
        moved, diag = project_feasible(point, fs, support=support)
        support = moved > 0.0 if diag.constraint_active else None
        return moved

    if x0 is None:
        x0 = np.full(n, 1.0 / n)
    x = project(np.asarray(x0, dtype=np.float64))
    g = gradient(op, x)

    if cfg.alpha is not None:
        alpha = float(cfg.alpha)
    else:
        alpha = 1.0 / L_f if L_f > 0 else 1.0

    momentum = cfg.momentum_mode
    if momentum == "auto":
        momentum = "strongly_convex" if m_f > 0 else "fista_restart"
    if momentum == "strongly_convex":
        root = math.sqrt(alpha * m_f)
        beta_const = (1.0 - root) / (1.0 + root)

    restarts = 0
    residuals: list[float] = []
    obj_trace = [objective(model, x)] if cfg.record_objective else None

    def residual() -> float:
        return float(np.linalg.norm(project(x - alpha * g) - x))

    def result(iterations: int, termination: str) -> SolveResult:
        return SolveResult(
            x=x, objective=objective(model, x), iterations=iterations,
            residual_trace=np.asarray(residuals), step_used=alpha,
            L_f_estimate=L_f, m_f=m_f, wall_time=time.perf_counter() - start,
            termination=termination, momentum=momentum, restarts=restarts,
            objective_trace=np.asarray(obj_trace) if obj_trace is not None else None,
        )

    residuals.append(residual())
    if residuals[0] <= cfg.tol:
        return result(0, "tolerance")

    y, g_y = x, g
    t_k = 1.0
    for k in range(1, cfg.max_iters + 1):
        x_new = project(y - alpha * g_y)
        g_new = gradient(op, x_new)

        if momentum == "strongly_convex":
            beta = beta_const
        elif momentum == "fista_restart" and float((y - x_new) @ (x_new - x)) > 0.0:
            t_k, beta = 1.0, 0.0  # the step opposes the last move: restart
            restarts += 1
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k))
            beta = (t_k - 1.0) / t_next
            t_k = t_next
        y = x_new + beta * (x_new - x)
        g_y = (1.0 + beta) * g_new - beta * g  # grad f(y): f is quadratic
        x, g = x_new, g_new

        if obj_trace is not None:
            obj_trace.append(objective(model, x))
        if k % cfg.residual_check_stride == 0:
            residuals.append(residual())
            if residuals[-1] <= cfg.tol:
                return result(k, "tolerance")
    return result(cfg.max_iters, "max_iters")

"""Nesterov-accelerated projected gradient over an effective factor model.

Each iteration takes a gradient at the extrapolated point, a projected step
of fixed length alpha = 1/L_f onto the feasible set, and a momentum update:
the standard t_k sequence in the convex regime, or a constant momentum built
from the curvature bound in the strongly convex regime. The default momentum
("auto") picks the regime from the ridge: constant momentum when gamma > 0,
otherwise the t_k sequence with gradient restart (O'Donoghue & Candes 2015),
which resets the momentum whenever the step and the last move point against
each other; "fista" runs the t_k sequence without restart. Termination uses
the projected-gradient residual ||P_F(x - alpha*grad f(x)) - x||, which
vanishes exactly at KKT points.

A full-rank ridgeless model has an exact m_f > 0, yet "auto" keeps restart
for it. Constant momentum from the global m_f pays only near kappa <~ 2e3
and costs up to 9x beyond, while restart adapts to the curvature on the
active face. Baseline on a centered n = 200, T = 201 panel (decay 0.9,
floor 0.0316, 85th-percentile target, tol 1e-7, kappa = 6.7e5): the loop
alone, with no face finish, stops after 340 iterations with restart and
after 3180 with constant momentum.

Each iteration costs one gradient, taken at the new iterate x_k: f is
quadratic, so the gradient at the extrapolated point y = x_k + beta*(x_k -
x_{k-1}) is (1 + beta)*grad f(x_k) - beta*grad f(x_{k-1}), and the residual
check at x_k reuses grad f(x_k), as does the objective trace: f has no
linear term, so f(x_k) = x_k . grad f(x_k) / 2. A factor with at most n/2
columns is multiplied as it is, by two matrix-vector products. A wider one
costs less as the dense Hessian H = 2*(L_eff @ L_eff.T + gamma*I), formed
once per solve by ``FactorModel.covariance`` (a baseline copies the
factor's kept Sigma), after which a gradient is the single pass H @ x.
Iterates of a binding long-only problem are sparse, so when x holds at most
n/4 assets the product reads only their rows of the symmetric H:
H[held].T @ x[held] costs n*|held| reads instead of n^2, and leaves out only
terms H_ij * 0.

The loop finds which assets are held long before its residual reaches tol,
so it finishes on the face (More & Toraldo 1991). Once the support of x_k,
and whether the return target binds there, has held still for
``FACE_WAIT`` iterates, ``face_solve`` minimizes f exactly on that face:
zero weight off the support, the budget row, and mu.T @ x = R_target when
it binds. Its point x_f is >= 0 with exact zeros off the support and meets
the budget and the target to roundoff; ``solve`` accepts it only through
the loop's own test, ||P_F(x_f - alpha*grad f(x_f)) - x_f|| <= tol, and then
returns it at once, with that residual appended to the residual trace and
f(x_f) as the objective trace's last entry. A rejected point changes
nothing the loop holds, so the iterates up to an accepted finish are those
of the loop alone, and each face is solved at most once.

A ridgeless model whose support S holds more assets than its rank r plus
the face's m rows (the budget, and the target when it binds) has a whole
affine set of points on the face with L_S.T @ x_S = 0. Each has f = 0,
the global minimum; ``face_solve`` takes the one nearest x_k and, while it
sends assets negative, drops them and repeats. No such point need be
>= 0, and a face that returns none costs one Gram
matrix of the factor's columns and a few solves of its order, so each
failure doubles the wait before the next such face is tried. On the desk
panel (n = 600, seed 0) a CountSketch sketch model with s = 300 tries 69
such faces in 1860 iterations without the backoff, 0.32 s of a 0.51 s
solve, and 4 with it, 0.019 s of 0.21 s. A support with
r < |S| <= r + m gets no face solve: H_S is singular there, and the rows
leave the face at most one point of f = 0.
``SolveResult.face_solves`` counts the faces tried.
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
from .spectrum import RANK_TOL

MOMENTUM_MODES = ("auto", "fista")

#: Iterates over which the support must stay unchanged before ``solve``
#: tries a face solve on it. Measured on the three desk solves (n = 600,
#: seed 0, tol 1e-7), which take 335 / 240 / 240 iterations without one:
#: waits of 3, 5, 10, 20 and 30 stop them after 74 / 51 / 95, 76 / 78 / 97,
#: 81 / 102 / 102, 91 / 112 / 181 and 198 / 122 / 191 iterations. A wait of
#: 3 needs a second face solve on one of them, 5 and more never do.
FACE_WAIT = 5
#: Times ``face_solve`` drops the assets it sends negative and solves again.
#: Measured on the accepted points beyond a ridgeless model's rank: 4-5 drops
#: on the minvar_wide sketch model (n = 2000, rank 848, sketch seeds 0-4), and
#: 1-2, 2-3, 3-4, 4-5 and 5 on desk-panel sketch models at s = 100, 150,
#: 200, 250 and 300 (n = 600, seeds 0-1). At 3 every minvar_wide face ran out
#: of drops. Exact faces on the seed-0 desk_target and csv_cli ops return the
#: same points at 3 and 8.
FACE_DROPS = 8


@dataclass
class SolverConfig:
    momentum_mode: str = "auto"
    tol: float = 1e-8
    max_iters: int = 10_000
    residual_check_stride: int = 1

    def __post_init__(self):
        if self.momentum_mode not in MOMENTUM_MODES:
            raise ArgumentError(f"unknown momentum mode {self.momentum_mode!r}")
        if not 0.0 < self.tol < math.inf:
            raise ArgumentError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iters < 1 or self.residual_check_stride < 1:
            raise ArgumentError("iteration counts must be positive")


@dataclass
class CurvatureConstants:
    L_f: float
    m_f: float
    kappa: Optional[float]  # L_f / m_f; None when m_f = 0


@dataclass
class SolveResult:
    x: np.ndarray
    objective: float
    iterations: int
    residual_trace: np.ndarray
    L_f: float  # exact; the step is 1 / L_f (L_f = 0 stops at iteration 0)
    m_f: float
    kappa: Optional[float]  # L_f / m_f; None when m_f = 0
    wall_time_s: float
    termination: str  # "tolerance" | "max_iters"
    momentum: str  # "strongly_convex" | "fista" | "fista_restart"
    restarts: int
    objective_trace: np.ndarray  # f(x_k) for k = 0..iterations
    face_solves: int  # face solves tried (``face_solve``); at most the last is accepted


@dataclass(frozen=True)
class DenseHessian:
    """H = 2 * (L_eff @ L_eff.T + gamma * I) of a model, which ``solve``
    iterates on in place of a factor with more than n/2 columns.

    It reads as the model where the solver reads one: ``gamma`` and
    ``singular_values`` are the model's, and ``n`` = ``columns`` is H's order.
    H is symmetric and C-ordered, so ``gradient`` reads the rows of the
    assets an iterate holds, each a contiguous run, as their columns.
    """

    H: np.ndarray
    gamma: float
    singular_values: np.ndarray

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def columns(self) -> int:
        return self.H.shape[1]


Operator = Union[FactorModel, DenseHessian]


def _checked_point(model: Operator, x: np.ndarray) -> np.ndarray:
    """x as float64, or DimensionError unless it is one weight per asset."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.n,):
        raise DimensionError(f"x has shape {x.shape}, model is {model.n}-dimensional")
    return x


def gradient(model: Operator, x: np.ndarray) -> np.ndarray:
    """grad f(x) = 2 * L_eff @ (L_eff.T @ x) + 2 * gamma * x.

    On a factor model: two matrix-vector products plus an axpy; the dense
    covariance is never formed. On a ``DenseHessian``: the one product H @ x,
    or, when x holds at most n/4 nonzero weights, H[held].T @ x[held] over
    the held rows alone. That sum leaves out only terms H_ij * 0, so it
    differs from H @ x by summation order.
    """
    x = _checked_point(model, x)
    if isinstance(model, DenseHessian):
        held = np.flatnonzero(x)
        # Measured crossover, 1 BLAS thread, x86-64: at n/4 held, the gather
        # and product take 64 against 124 us (n = 600) and 1.17 against
        # 1.48 ms (n = 2000); at 0.4n the full product is faster.
        if 4 * held.size <= model.n:
            return model.H[held].T @ x[held]
        return model.H @ x
    g = 2.0 * (model.L_eff @ (model.L_eff.T @ x))
    if model.gamma:
        g += 2.0 * model.gamma * x
    return g


def objective(model: FactorModel, x: np.ndarray) -> float:
    x = _checked_point(model, x)
    z = model.L_eff.T @ x
    val = float(z @ z)
    if model.gamma:
        val += model.gamma * float(x @ x)
    return val


def estimate_spectral_norm(model: Operator) -> tuple[float, float]:
    """The extreme singular values (sigma_1, sigma_n) of L_eff, read from the
    spectrum the model carries; sigma_n = 0 when it holds fewer than n
    values, as a factor with fewer than n columns does."""
    sv, n = model.singular_values, model.n
    return (float(sv[0]) if sv.size else 0.0), (float(sv[n - 1]) if 0 < n <= sv.size else 0.0)


def curvature_constants(model: Operator) -> CurvatureConstants:
    """Smoothness and strong-convexity constants, and kappa = L_f/m_f, from
    the spectrum the model carries (``estimate_spectral_norm``): no eigensolve.

    L_f = 2*(sigma_1^2 + gamma). m_f = 2*(sigma_n^2 + gamma), where sigma_n
    counts only when the factor has at least n columns and sigma_n^2 >=
    RANK_TOL * sigma_1^2: below that floor it is roundoff (a centered panel
    with T <= n has rank below n). Otherwise m_f = 2*gamma exactly, as on the
    factor path and for every str model with ell < n.
    """
    sigma_1, sigma_n = estimate_spectral_norm(model)
    if sigma_n**2 < RANK_TOL * sigma_1**2:
        sigma_n = 0.0
    L_f, m_f = 2.0 * (sigma_1**2 + model.gamma), 2.0 * (sigma_n**2 + model.gamma)
    return CurvatureConstants(L_f=L_f, m_f=m_f, kappa=L_f / m_f if m_f > 0 else None)


def gradient_operator(model: FactorModel) -> Operator:
    """What ``solve`` takes gradients on: the model's ``DenseHessian`` when
    2 * columns > n, where one pass over the n x n matrix H reads less memory
    than two passes over the factor; the model itself otherwise.
    """
    if 2 * model.columns <= model.n:
        return model
    H = model.covariance()
    H *= 2.0
    return DenseHessian(H=H, gamma=model.gamma, singular_values=model.singular_values)


def face_solve(model: FactorModel, op: Operator, fs: FeasibleSet, x: np.ndarray,
               binding: bool, rank: int) -> Optional[np.ndarray]:
    """A minimizer of f on the face of x's support S: x = 0 off S, sum(x) = 1
    and, when ``binding``, mu.T @ x = R_target. None when that point is not
    feasible to roundoff, or none is found. ``rank`` is the model's rank (n
    when it has a ridge); ``solve`` asks for no S with rank < |S| <= rank +
    the number of rows.

    On a support no larger than the rank f has one minimizer on the face
    (``_face_minimizer``). A larger support holds a whole affine set of
    points with L_S.T @ x_S = 0 on the face's rows, each with f = 0, the
    global minimum; ``_zero_point`` finds the one nearest x. Either way,
    assets that x_S sends negative are dropped and the point is found again,
    up to ``FACE_DROPS`` times. The x returned is >= 0 with exact zeros off
    its support; its sum is within n ulps of 1 and its return at most n ulps
    of max|mu| short of R_target. It is not projected: a point whose sum is
    1 - eps projects to eps/n on every asset.
    """
    idx = np.flatnonzero(x)
    if idx.size > rank:
        found = _zero_point(model.L_eff, fs, idx, x[idx], binding, rank)
    else:
        found = _face_minimizer(op, fs, idx, binding)
    if found is None:
        return None
    x = np.zeros(fs.n)
    x[found[0]] = found[1]
    mu, ulps = fs.mu, fs.n * np.finfo(np.float64).eps
    if abs(float(x.sum()) - 1.0) > ulps or fs.R_target - float(mu @ x) > ulps * np.abs(mu).max():
        return None
    return x


def _face_rows(fs: FeasibleSet, idx: np.ndarray, binding: bool) -> tuple[np.ndarray, list]:
    """The rows B.T @ x_S = b of the face of ``idx``: the budget and, when
    ``binding`` and mu_S is not tied, the target, in the column d = mu_S -
    mu_S[0] (the shift that makes d of a tied support exactly 0, as in the
    projection), whose right-hand side is R_target - mu_S[0]."""
    d = fs.mu[idx] - fs.mu[idx[0]]
    if binding and d.any():
        return np.stack([np.ones(idx.size), d], axis=1), [1.0, fs.R_target - fs.mu[idx[0]]]
    return np.ones((idx.size, 1)), [1.0]


def _face_minimizer(op: Operator, fs: FeasibleSet, idx: np.ndarray,
                    binding: bool) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(support, x_S) for the minimizer of f on the face of ``idx``, or None
    when a system on the way is singular or the drops run out.

    x_S = H_S^{-1} B @ w for the w that meets the rows B of ``_face_rows``.
    H_S^{-1} B is a solve with the block H[S][:, S] of a ``DenseHessian``; on
    a factor with gamma > 0 it is Woodbury's (B - L_S (gamma*I + L_S.T
    L_S)^{-1} L_S.T B) / gamma, from one ell x ell system in O(|S| ell^2 +
    ell^3), never an |S| x |S| matrix; on a ridgeless factor it is a solve
    with the |S| x |S| block L_S L_S.T. The scalars 2 and 1/gamma cancel in
    x_S and are left out.
    """
    for _ in range(FACE_DROPS + 1):
        B, b = _face_rows(fs, idx, binding)
        try:
            if isinstance(op, DenseHessian):
                Z = np.linalg.solve(op.H[np.ix_(idx, idx)], B)
            else:
                L = op.L_eff[idx]
                if op.gamma:
                    K = L.T @ L
                    K[np.diag_indices_from(K)] += op.gamma
                    Z = B - L @ np.linalg.solve(K, L.T @ B)
                else:
                    Z = np.linalg.solve(L @ L.T, B)
            w = np.linalg.solve(B.T @ Z, b)
        except np.linalg.LinAlgError:
            return None
        x_s = Z @ w
        keep = x_s >= 0.0
        if keep.all():
            return idx, x_s
        idx = idx[keep]
        if idx.size == 0:
            return None
    return None


def _zero_point(L_eff: np.ndarray, fs: FeasibleSet, idx: np.ndarray, x_s: np.ndarray,
                binding: bool, rank: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(support, v) for the point v nearest x_s with L_S.T @ v = 0 and B.T @
    v = b, the rows of ``_face_rows``; None once the support falls to rank +
    rows or the drops run out.

    That point is x_s - M.T (M M.T)^{-1} (M x_s - b) for M = [L_S.T; B.T]. By
    block elimination it is v = P (x_s - B w), where P = I - L_S G^{-1} L_S.T
    projects onto the null space of L_S.T, G = L_S.T @ L_S is the Gram
    matrix of the factor's columns on S, and w solves the rows-by-rows
    system B.T P B w = B.T P x_s - b, so v meets B to roundoff. G is shifted
    by eps * trace(G): it is singular when the factor has more columns than
    its rank (a CountSketch bucket no column hashes to, or a sketch of a
    centered panel with s >= T), and the shift only leaves a share of about
    eps * trace(G) / sigma^2 of each direction of L_S with singular value
    sigma in v. The assets v sends negative are dropped, G is downdated by
    their rows, and the point is found again from v clipped at 0.
    """
    L = L_eff[idx]
    G = L.T @ L
    G[np.diag_indices_from(G)] += np.finfo(np.float64).eps * np.trace(G)
    for _ in range(FACE_DROPS + 1):
        B, b = _face_rows(fs, idx, binding)
        V = np.column_stack([x_s, B])
        try:
            V -= L @ np.linalg.solve(G, L.T @ V)
            w = np.linalg.solve(B.T @ V[:, 1:], B.T @ V[:, 0] - b)
        except np.linalg.LinAlgError:
            return None
        v = V[:, 0] - V[:, 1:] @ w
        keep = v >= 0.0
        if keep.all():
            return idx, v
        idx, x_s = idx[keep], v[keep]
        if idx.size <= rank + len(b):
            return None
        G -= L[~keep].T @ L[~keep]
        L = L[keep]
    return None


def solve(
    model: FactorModel,
    fs: FeasibleSet,
    x0: Optional[np.ndarray] = None,
    cfg: Optional[SolverConfig] = None,
) -> SolveResult:
    """Run the accelerated projected-gradient loop on a factor model, and
    finish on the face of its support once that settles (module docstring).

    The default start is the uniform portfolio projected onto the feasible
    set; any supplied x0 is projected as well. While the return constraint
    binds, each projection starts from the previous projection's support,
    which moves little between iterates (``project_feasible``). Gradients
    are taken on ``gradient_operator(model)``, one per iterate, and the
    objective on the model's own factor, plus one at each face-solve point
    for its residual test. A ``max_iters`` exit ends the residual trace with
    the residual at the x it returns. ``wall_time_s`` covers the whole call,
    the Hessian's formation included.
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
    alpha = 1.0 / L_f if L_f > 0 else 1.0

    momentum = cfg.momentum_mode
    if momentum == "auto":
        momentum = "strongly_convex" if model.gamma > 0 else "fista_restart"
    if momentum == "strongly_convex":
        root = math.sqrt(alpha * m_f)
        beta_const = (1.0 - root) / (1.0 + root)

    restarts = 0
    residuals: list[float] = []
    obj_trace = [0.5 * float(x @ g)]
    # The model's rank (module docstring): n for a ridged model.
    sv = op.singular_values
    if model.gamma > 0:
        rank = n
    elif sv.size:
        rank = int(np.count_nonzero(sv**2 >= RANK_TOL * sv[0] ** 2))
    else:
        rank = 0
    face_solves, stable, tried, missed = 0, 0, None, 0  # missed: wide faces that failed
    face = np.append(x > 0.0, support is not None)  # x's support, and whether R binds

    def residual() -> float:
        return float(np.linalg.norm(project(x - alpha * g) - x))

    def result(iterations: int, termination: str) -> SolveResult:
        return SolveResult(
            x=x, objective=objective(model, x), iterations=iterations,
            residual_trace=np.asarray(residuals), L_f=L_f, m_f=m_f, kappa=consts.kappa,
            wall_time_s=time.perf_counter() - start,
            termination=termination, momentum=momentum, restarts=restarts,
            objective_trace=np.asarray(obj_trace), face_solves=face_solves,
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

        obj_trace.append(0.5 * float(x @ g))
        if k % cfg.residual_check_stride == 0:
            residuals.append(residual())
            if residuals[-1] <= cfg.tol:
                return result(k, "tolerance")

        now = np.append(x > 0.0, support is not None)
        stable = stable + 1 if np.array_equal(now, face) else 0
        face = now
        # A face is solved once: a second solve on it would return the same point.
        if stable < FACE_WAIT or np.array_equal(face, tried):
            continue
        held = np.count_nonzero(face[:-1])
        wide = held > rank
        if wide and (held <= rank + 1 + face[-1] or stable < FACE_WAIT << missed):
            continue
        face_solves, tried = face_solves + 1, face
        x_f = face_solve(model, op, fs, x, bool(face[-1]), rank)
        if x_f is not None:
            g_f = gradient(op, x_f)
            # The support guess stays the loop's: a rejected point leaves no trace.
            moved = project_feasible(x_f - alpha * g_f, fs, support=support)[0]
            r = float(np.linalg.norm(moved - x_f))
            if r <= cfg.tol:
                x = x_f
                residuals.append(r)
                obj_trace[-1] = 0.5 * float(x_f @ g_f)
                return result(k, "tolerance")
        missed += wide
    if cfg.max_iters % cfg.residual_check_stride:
        residuals.append(residual())  # the last check was at an earlier iterate
    return result(cfg.max_iters, "max_iters")

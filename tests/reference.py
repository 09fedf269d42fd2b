"""Independent references the tests compare the package against.

``dykstra_project`` reaches the exact projection onto the feasible set by
alternating projections, a route that shares nothing with the package's
Newton search but ``project_simplex``. ``materialize_sketch_matrix`` forms
the dense Phi that ``apply_sketch`` never forms, so a test can sketch by a
plain product and measure a sketch's subspace distortion.
"""

import math

import numpy as np

from strmv.errors import ArgumentError, ProjectionFailureError
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

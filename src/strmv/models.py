"""Effective factor models: baseline, sketched, and sketch-truncate-ridge.

All three objectives share one parameterization: an effective factor and a
ridge, giving f(x) = ||L_eff.T @ x||^2 + gamma * ||x||^2. The STR factor is
stored as the n x ell matrix U_ell * S_ell; the dropped right factor has
orthonormal columns, so the induced covariance (and hence the objective and
gradient) is unchanged while the per-iteration cost falls to O(n * ell).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import spectrum
from .errors import ArgumentError, DegenerateSpectrumError, DimensionError
from .panel import CovarianceFactor
from .sketch import SketchConfig, apply_sketch
from .spectrum import select_truncation_level, thin_svd

MODEL_KINDS = ("baseline", "sketch", "str")

#: Practical default for the conditioning target of the ridge stage.
DEFAULT_KAPPA_TARGET = 1e3

logger = logging.getLogger(__name__)


@dataclass
class FactorModel:
    """Effective factor plus ridge; gamma > 0 exactly for the str kind.

    Every model carries ``singular_values``, its factor's min(n, columns)
    singular values, descending: a builder passes those it holds, else they
    are computed from L_eff here, once. ``gram`` is L_eff @ L_eff.T when a
    builder holds it (``build_baseline``); ``covariance`` then copies it.
    """

    L_eff: np.ndarray  # (n, m)
    gamma: float
    kind: str
    provenance: dict = field(default_factory=dict)
    singular_values: np.ndarray = None  # None: computed from L_eff
    gram: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ArgumentError(f"unknown model kind {self.kind!r}")
        self.L_eff = np.asarray(self.L_eff, dtype=np.float64)
        if self.L_eff.ndim != 2:
            raise DimensionError("L_eff must be a matrix")
        if self.kind == "str":
            check_ridge(self.gamma)
        elif self.gamma != 0.0:
            raise ArgumentError(f"{self.kind} models require gamma == 0")
        self.L_eff.setflags(write=False)
        sv = self.singular_values
        self.singular_values = np.asarray(
            spectrum.singular_values(self.L_eff) if sv is None else sv, dtype=np.float64)
        if self.singular_values.shape != (min(self.n, self.columns),):
            raise DimensionError(f"{self.singular_values.size} singular values for a "
                                 f"{self.n} x {self.columns} factor")
        self.singular_values.setflags(write=False)

    @property
    def n(self) -> int:
        return self.L_eff.shape[0]

    @property
    def columns(self) -> int:
        return self.L_eff.shape[1]

    def covariance(self) -> np.ndarray:
        """Dense induced covariance L_eff @ L_eff.T + gamma * I (n x n)."""
        sigma = self.L_eff @ self.L_eff.T if self.gram is None else self.gram.copy()
        if self.gamma:
            sigma[np.diag_indices_from(sigma)] += self.gamma
        return sigma


def build_baseline(factor: CovarianceFactor) -> FactorModel:
    return FactorModel(
        L_eff=factor.L,
        gamma=0.0,
        kind="baseline",
        singular_values=factor.singular_values,
        gram=factor.covariance if factor.columns >= factor.n else None,
    )


def build_sketch(factor: CovarianceFactor, cfg: SketchConfig) -> FactorModel:
    sk = apply_sketch(factor, cfg)
    return FactorModel(
        L_eff=sk.Ltilde,
        gamma=0.0,
        kind="sketch",
        provenance={"sketch": {"kind": cfg.kind, "s": cfg.s, "seed": cfg.seed}},
    )


def check_ridge(gamma: float) -> None:
    if not 0.0 < gamma < np.inf:
        raise ArgumentError(f"str models require gamma > 0, got {gamma}; the ridge must be finite")


def check_kappa_target(kappa_target: float) -> None:
    if not kappa_target > 1.0:
        raise ArgumentError(f"kappa_target must exceed 1, got {kappa_target}")
    if kappa_target == np.inf:
        raise ArgumentError("kappa_target must be finite, got inf: it would place no ridge")


def ridge_for_target_kappa(sigma1: float, kappa_target: float) -> float:
    """gamma = sigma_1^2 / (kappa_target - 1), so kappa of the lifted covariance
    is exactly kappa_target."""
    check_kappa_target(kappa_target)
    if sigma1 <= 0.0:
        raise DegenerateSpectrumError("sigma1 must be positive to place a ridge")
    return sigma1**2 / (kappa_target - 1.0)


def build_str(
    factor: CovarianceFactor,
    cfg: SketchConfig,
    ell: Optional[int] = None,
    kappa_target: float = DEFAULT_KAPPA_TARGET,
    gamma: Optional[float] = None,
) -> FactorModel:
    """Sketch, truncate, and ridge-lift the factor.

    The truncation level comes from ``select_truncation_level`` (the head/knee
    rule on the sketched eigenvalues) unless ``ell`` pins it directly, which is
    how energy-mapped sweeps parameterize the pipeline. A level outside
    [1, rank] is clamped into it; the model then records the requested value
    as ``provenance["ell_requested"]`` and one warning is logged. The ridge is
    ``gamma`` when given, else the one that puts the lifted condition number
    at ``kappa_target``.
    """
    sk = apply_sketch(factor, cfg)
    svd = thin_svd(sk.Ltilde)
    if svd.rank == 0:
        raise DegenerateSpectrumError("sketched factor is numerically zero")
    if ell is None:
        ell = select_truncation_level(svd.S)
    ell_requested = int(ell)
    ell = min(max(ell_requested, 1), svd.rank)
    if gamma is None:
        gamma = ridge_for_target_kappa(float(svd.S[0]), kappa_target)
    else:
        gamma, kappa_target = float(gamma), None
    model = FactorModel(
        L_eff=svd.factor(ell),
        gamma=gamma,
        kind="str",
        provenance={
            "sketch": {"kind": cfg.kind, "s": cfg.s, "seed": cfg.seed},
            "ell": int(ell),
            "gamma": gamma,
            "kappa_target": kappa_target,
        },
        singular_values=svd.S[:ell],
    )
    if ell != ell_requested:
        logger.warning(
            "requested ell=%d is outside [1, %d], the sketched rank; using ell=%d",
            ell_requested, svd.rank, ell,
        )
        model.provenance["ell_requested"] = ell_requested
    return model

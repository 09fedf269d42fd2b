"""Randomized sketching of the covariance factor: L -> L @ Phi.

``apply_sketch`` is the one entry point. Two embeddings are provided: a
dense Gaussian projection with entries N(0, 1/s), and CountSketch, where each
input column is scattered with a random sign into one of s output columns.
Both are fully deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DimensionError
from .panel import CovarianceFactor

SKETCH_KINDS = ("gaussian_jl", "countsketch")

#: Multiplier in the sketch-size rule s = ceil(c * (r + ln(1/delta)) / eps^2).
#: The underlying guarantee only fixes the rate; this constant was calibrated
#: once against the measured-distortion Monte Carlo in the test suite.
DEFAULT_SIZE_CONSTANT = 4.0

#: The Gaussian sketch draws Phi in row blocks of at most this many entries,
#: so the full T x s projection is never held when it is larger.
DENSE_PHI_ENTRY_CAP = 2**24


@dataclass
class SketchConfig:
    kind: str
    s: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SKETCH_KINDS:
            raise ArgumentError(
                f"unknown sketch kind {self.kind!r}; expected one of {SKETCH_KINDS}"
            )
        if self.s < 1:
            raise ArgumentError(f"sketch size must be >= 1, got {self.s}")
        if self.seed < 0:
            raise ArgumentError(f"sketch seed must be nonnegative, got {self.seed}")


@dataclass
class SketchedFactor:
    """Sketched factor Ltilde = L @ Phi plus provenance.

    ``apply_ops`` counts the scalar accumulations actually performed while
    applying Phi (n*T for CountSketch, n*T*s for the dense Gaussian path).
    """

    Ltilde: np.ndarray  # (n, s)
    config: SketchConfig
    apply_ops: int

    def __post_init__(self):
        self.Ltilde = np.asarray(self.Ltilde, dtype=np.float64)
        if self.Ltilde.shape[1] != self.config.s:
            raise DimensionError(
                f"sketched factor has {self.Ltilde.shape[1]} columns, config says {self.config.s}"
            )
        self.Ltilde.setflags(write=False)


# ---------------------------------------------------------------------------
# Deterministic hashing for CountSketch
# ---------------------------------------------------------------------------

_U64 = np.uint64


def _splitmix64(x: np.ndarray) -> np.ndarray:
    # Standard 64-bit finalizer; numpy uint64 arithmetic wraps mod 2^64.
    z = x + _U64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def countsketch_arrays(T: int, s: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Hash positions h(i) in [0, s) and signs in {-1, +1} for all T inputs.

    Positions and signs come from two independent seeded streams of a 64-bit
    mixing function, so they are reproducible without any RNG state.
    """
    idx = np.arange(T, dtype=np.uint64)
    key = _U64(seed & 0xFFFFFFFFFFFFFFFF)
    sign_key = _splitmix64(np.array([key], dtype=np.uint64))[0]
    h = _splitmix64(idx * _U64(0x9E3779B97F4A7C15) + key) % _U64(s)
    sign_bits = _splitmix64(idx * _U64(0xD1B54A32D192ED03) + sign_key)
    signs = np.where((sign_bits >> _U64(63)).astype(bool), -1.0, 1.0)
    return h.astype(np.int64), signs


def _apply_countsketch(L: np.ndarray, h: np.ndarray, signs: np.ndarray, s: int) -> np.ndarray:
    """Scatter sign[i] * L[:, i] into column h[i], one ``bincount`` per row.

    ``bincount`` adds its weights in input order, so every output sum is
    formed exactly as ``np.add.at`` forms it from (L * signs).T, without
    that n x T temporary; the result is F-ordered, as that one is.
    """
    out = np.empty((L.shape[0], s), order="F")
    for i, row in enumerate(L):
        out[i] = np.bincount(h, weights=signs * row, minlength=s)
    return out


def _gaussian_jl(L: np.ndarray, s: int, seed: int) -> np.ndarray:
    """L @ Phi with Phi_ij ~ N(0, 1/s).

    Phi is drawn in row blocks of at most ``DENSE_PHI_ENTRY_CAP`` entries, one
    block of columns of L at a time; the generator fills Phi row-major, so the
    blocks hold exactly the entries of the full draw, and a Phi under the cap
    is one block.
    """
    T = L.shape[1]
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(s)
    block = max(1, DENSE_PHI_ENTRY_CAP // s)
    for start in range(0, T, block):
        stop = min(start + block, T)
        part = L[:, start:stop] @ (rng.standard_normal((stop - start, s)) * scale)
        Ltilde = part if start == 0 else Ltilde + part
    return Ltilde


def apply_sketch(factor: CovarianceFactor, cfg: SketchConfig) -> SketchedFactor:
    """Ltilde = L @ Phi for the configured kind, without forming Phi.

    A sketch needs 1 <= s <= T. CountSketch applies in O(nnz(L)); the
    Gaussian projection costs n*T*s.
    """
    L = factor.L
    n, T = L.shape
    if not 1 <= cfg.s <= T:
        raise DimensionError(f"sketch size must satisfy 1 <= s <= T={T}, got s={cfg.s}")
    if cfg.kind == "gaussian_jl":
        Ltilde, ops = _gaussian_jl(L, cfg.s, cfg.seed), n * T * cfg.s
    else:
        h, signs = countsketch_arrays(T, cfg.s, cfg.seed)
        Ltilde, ops = _apply_countsketch(L, h, signs, cfg.s), n * T
    return SketchedFactor(Ltilde=Ltilde, config=cfg, apply_ops=ops)


def recommended_sketch_size(r_effective: int, epsilon: float, delta: float) -> int:
    """Sketch size ceil(c * (r + ln(1/delta)) / eps^2), c = DEFAULT_SIZE_CONSTANT.

    The caller clips the result to [1, T]; the rule itself only encodes the
    effective-rank and failure-probability dependence.
    """
    if not 0.0 < epsilon < 1.0:
        raise ArgumentError(f"epsilon must be in (0,1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ArgumentError(f"delta must be in (0,1), got {delta}")
    if r_effective < 0:
        raise ArgumentError(f"r_effective must be nonnegative, got {r_effective}")
    return math.ceil(DEFAULT_SIZE_CONSTANT * (r_effective + math.log(1.0 / delta)) / epsilon**2)

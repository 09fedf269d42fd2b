"""Return panels, the centered covariance factor, and synthetic panel generation.

A panel is an n x T matrix of per-period simple returns (assets in rows).
The covariance factor L is the centered panel scaled by 1/sqrt(T-1), so the
unbiased sample covariance is exactly L @ L.T without ever forming it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DataFormatError, DimensionError, NumericError


@dataclass
class ReturnPanel:
    """Balanced asset x time return matrix.

    Ingested panels satisfy n >= 2 and T >= 2 (enforced by ``load_panel`` and
    ``generate_synthetic``); directly constructed panels only need a finite,
    rectangular ``returns`` array.
    """

    asset_ids: list[str]
    returns: np.ndarray  # (n, T)

    def __post_init__(self):
        self.returns = np.asarray(self.returns, dtype=np.float64)
        if self.returns.ndim != 2:
            raise DimensionError(f"returns must be 2-D, got ndim={self.returns.ndim}")
        if len(self.asset_ids) != self.returns.shape[0]:
            raise DimensionError(
                f"{len(self.asset_ids)} asset ids for {self.returns.shape[0]} rows"
            )
        if not np.all(np.isfinite(self.returns)):
            raise NumericError("panel contains non-finite entries")
        self.returns.setflags(write=False)

    @property
    def n(self) -> int:
        return self.returns.shape[0]

    @property
    def T(self) -> int:
        return self.returns.shape[1]


@dataclass
class CovarianceFactor:
    """Centered return factor L with Sigma = L @ L.T, plus the row means."""

    L: np.ndarray  # (n, T)
    mean: np.ndarray  # (n,)

    def __post_init__(self):
        self.L = np.asarray(self.L, dtype=np.float64)
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.L.setflags(write=False)
        self.mean.setflags(write=False)

    @property
    def n(self) -> int:
        return self.L.shape[0]

    @property
    def columns(self) -> int:
        return self.L.shape[1]


@dataclass
class SyntheticSpec:
    """Controlled-spectrum synthetic panel: geometric singular decay.

    ``singular_decay`` is the ratio of consecutive factor singular values,
    ``leading_scale`` the largest one, and ``noise_floor`` a lower clip that
    produces a flat spectral tail.
    """

    n: int
    T: int
    singular_decay: float = 0.5
    leading_scale: float = 1.0
    noise_floor: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.T < 2:
            raise DimensionError(f"need n, T >= 2, got n={self.n}, T={self.T}")
        if not 0.0 < self.singular_decay < 1.0:
            raise DataFormatError(f"singular_decay must be in (0,1), got {self.singular_decay}")
        if not 0.0 < self.leading_scale < np.inf:
            raise DataFormatError(f"leading_scale must be finite and > 0, got {self.leading_scale}")
        if not 0.0 <= self.noise_floor < np.inf:
            raise DataFormatError(f"noise_floor must be finite and >= 0, got {self.noise_floor}")
        if self.seed < 0:
            raise ArgumentError(f"seed must be nonnegative, got {self.seed}")


def load_panel(path) -> ReturnPanel:
    """Parse a return panel from CSV.

    Layout: one header row (content ignored), first column asset id, remaining
    columns per-period returns. Asset ids may be quoted as ``csv.writer``
    quotes them; ``#`` is not a comment character, and blank lines are
    skipped. Empty cells are filled with 0.0; any other unparseable cell is an
    error (silent coercion hides data problems).

    One ``np.loadtxt`` call parses a well-formed file. When it rejects the
    file (an empty cell, a bad cell, a ragged row), the per-cell parse reads
    it again to fill empty cells or to name the offending row and column.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader, None)  # the header
            header_lines = reader.line_num
            first = next((row for row in reader if row), None)
            if first is None:
                raise DataFormatError(f"{path}: expected a header row plus data rows")
            width = len(first)
            fh.seek(0)
            try:
                table = np.loadtxt(
                    fh, delimiter=",", skiprows=header_lines, quotechar='"',
                    comments=None, ndmin=1,
                    dtype=[("id", object), ("r", np.float64, (width - 1,))],
                )
            except ValueError:
                fh.seek(0)
                asset_ids, returns = _parse_cells(path, csv.reader(fh), width)
            else:
                asset_ids, returns = table["id"].tolist(), np.ascontiguousarray(table["r"])
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    if returns.shape[0] < 2 or returns.shape[1] < 2:
        raise DimensionError(
            f"{path}: panel must be at least 2x2, got {returns.shape[0]}x{returns.shape[1]}"
        )
    return ReturnPanel(asset_ids=asset_ids, returns=returns)


def _parse_cells(path, reader, width: int) -> tuple[list[str], np.ndarray]:
    """Parse the rows after the header cell by cell, naming any bad cell."""
    next(reader)  # the header
    asset_ids: list[str] = []
    values: list[list[float]] = []
    for file_row, row in enumerate(reader, start=2):  # 1-based, counting the header
        if not row:
            continue
        if len(row) != width:
            raise DataFormatError(
                f"{path}: row {file_row} has {len(row)} columns, expected {width}"
            )
        asset_ids.append(row[0])
        parsed = []
        for j, cell in enumerate(row[1:], start=2):
            text = cell.strip()
            if text == "":
                parsed.append(0.0)
                continue
            try:
                parsed.append(float(text))
            except ValueError:
                raise DataFormatError(
                    f"{path}: non-numeric cell {cell!r} at row {file_row}, column {j}"
                ) from None
        values.append(parsed)
    return asset_ids, np.asarray(values, dtype=np.float64)


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes a field: quoted when it holds ``,``,
    ``"``, CR or LF, with inner quotes doubled."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def save_panel(panel: ReturnPanel, path) -> None:
    """Write a panel in the CSV layout that ``load_panel`` reads.

    Byte for byte what ``csv.writer`` writes for the header plus one
    ``[asset_id, repr(value), ...]`` row per asset.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["asset"] + [f"p{t + 1}" for t in range(panel.T)])
        for aid, row in zip(panel.asset_ids, panel.returns):
            fh.write(",".join([_csv_field(aid), *map(repr, row.tolist())]) + "\r\n")


def center_and_factor(panel: ReturnPanel) -> CovarianceFactor:
    """Center the panel rows and scale by 1/sqrt(T-1).

    The result satisfies L @ L.T == unbiased sample covariance exactly, and
    the columns of L sum to zero.
    """
    T = panel.T
    if T < 2:
        raise DimensionError(f"need T >= 2 to form the factor, got T={T}")
    mean = panel.returns.mean(axis=1)
    L = (panel.returns - mean[:, None]) / np.sqrt(T - 1)
    return CovarianceFactor(L=L, mean=mean)


def generate_synthetic(spec: SyntheticSpec) -> ReturnPanel:
    """Generate a panel whose sample factor has a controlled spectrum.

    Draws orthonormal left/right bases from seeded Gaussian QR, sets singular
    values leading_scale * decay**i clipped below at noise_floor, and scales
    by sqrt(T-1) so that centering recovers (approximately) that spectrum.
    Pure function of the spec: identical specs give bit-identical panels.
    """
    rng = np.random.default_rng(spec.seed)
    k = min(spec.n, spec.T)
    qu, _ = np.linalg.qr(rng.standard_normal((spec.n, k)))
    qv, _ = np.linalg.qr(rng.standard_normal((spec.T, k)))
    sigma = spec.leading_scale * spec.singular_decay ** np.arange(k)
    sigma = np.maximum(sigma, spec.noise_floor)
    returns = (qu * sigma) @ qv.T * np.sqrt(spec.T - 1)
    asset_ids = [f"A{i:04d}" for i in range(spec.n)]
    return ReturnPanel(asset_ids=asset_ids, returns=returns)

"""Return panels, the centered covariance factor, and synthetic panel generation.

A panel is an n x T matrix of per-period simple returns (assets in rows).
The covariance factor L is the centered panel scaled by 1/sqrt(T-1), so the
unbiased sample covariance is exactly L @ L.T without ever forming it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import pickle
import shutil
import tempfile
import warnings
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

    CSV I/O uses one process per CPU this process may run on, so ``taskset``
    limits it (``strmv --threads`` pins BLAS only). A file without a ``"``
    byte is cut at line breaks into one byte range per process: this process
    parses the first range and a forked child each other one, with the same
    ``np.loadtxt`` call reading straight from the file. A file with a quote
    is one range, since a quoted asset id can hold a line break. When any
    range fails, this process parses the whole file with that call; when it
    rejects the file (an empty cell, a bad cell, a ragged row), the per-cell
    parse reads it again to fill empty cells or to name the offending row and
    column. So every fill and every message is the one-range one.
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

            def read(span):
                return _read_rows(path, span, header_lines, width, fh.encoding)

            try:
                blocks = _read_blocks(read, _row_spans(path, _process_count()))
            except ValueError:
                fh.seek(0)
                asset_ids, returns = _parse_cells(path, csv.reader(fh), width)
            else:
                asset_ids = [aid for ids, _ in blocks for aid in ids]
                returns = np.concatenate([rows for _, rows in blocks])
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    if returns.shape[0] < 2 or returns.shape[1] < 2:
        raise DimensionError(
            f"{path}: panel must be at least 2x2, got {returns.shape[0]}x{returns.shape[1]}"
        )
    return ReturnPanel(asset_ids=asset_ids, returns=returns)


def _process_count() -> int:
    """Processes for CSV I/O: the CPUs this process may run on, or 1 where the
    platform cannot report them or cannot fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return max(1, len(os.sched_getaffinity(0)))


def _fork_map(fn, items: list) -> list:
    """``[fn(item) for item in items]``: the first item here, each other one in
    a forked child that sends back its result or its exception through a pipe.

    Every child is waited for on every path. Then the first exception in item
    order is raised.
    """
    if len(items) == 1:
        return [fn(items[0])]
    import multiprocessing  # here, so that a process without CSV I/O does not load it

    ctx = multiprocessing.get_context("fork")  # no Pool: it starts threads here
    children = []
    try:
        for item in items[1:]:
            read_fd, write_fd = os.pipe()
            child = ctx.Process(target=_send_outcome, args=(fn, item, write_fd))
            try:
                child.start()
            except BaseException:
                os.close(read_fd)
                raise
            finally:
                os.close(write_fd)
            children.append((child, read_fd))
        results = [fn(items[0])]
    finally:
        outcomes = [_receive_outcome(child, read_fd) for child, read_fd in children]
    for ok, value in outcomes:
        if not ok:
            raise value
        results.append(value)
    return results


def _send_outcome(fn, item, write_fd: int) -> None:
    """A child's body. multiprocessing ends a forked child with ``os._exit``,
    so no atexit handler of the parent runs in it."""
    try:
        outcome = (True, fn(item))
    except Exception as exc:
        outcome = (False, exc)
    with open(write_fd, "wb") as out:
        pickle.dump(outcome, out, protocol=pickle.HIGHEST_PROTOCOL)


def _receive_outcome(child, read_fd: int) -> tuple:
    """A child's ``(ok, result or exception)``, after the child has ended.

    ``pickle.load`` from the pipe reads a large array straight into its
    buffer; ``multiprocessing.Connection`` would grow a copy chunk by chunk.
    """
    with open(read_fd, "rb") as pipe:
        try:
            return pickle.load(pipe)
        except Exception as exc:  # nothing usable came: fail this part, wait for the rest
            problem = f"{type(exc).__name__}: {exc}"
        finally:
            child.join()
    return False, ChildProcessError(
        f"CSV worker {child.pid} exited with code {child.exitcode} ({problem})")


def _row_spans(path, parts: int) -> list[tuple[int, int]]:
    """Byte ranges that cut a CSV file into at most ``parts`` runs of whole
    lines, the first one holding the header; one range when it holds ``"``."""
    with open(path, "rb") as fh:
        size = fh.seek(0, os.SEEK_END)
        fh.seek(0)
        if parts == 1 or any(b'"' in chunk for chunk in iter(lambda: fh.read(1 << 20), b"")):
            return [(0, size)]
        data = _past_line_break(fh, 0)
        cuts = [_past_line_break(fh, data + i * (size - data) // parts) for i in range(1, parts)]
    bounds = [0, *cuts, size]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


def _past_line_break(fh, pos: int) -> int:
    """The offset just past the first CR, LF or CRLF at or after ``pos``, or
    the end of the file."""
    fh.seek(pos)
    while chunk := fh.read(1 << 16):
        breaks = [i for i in (chunk.find(b"\n"), chunk.find(b"\r")) if i >= 0]
        if breaks:
            end = pos + min(breaks) + 1
            if chunk[min(breaks)] == ord("\r"):  # a LF right after belongs to it
                fh.seek(end)
                end += fh.read(1) == b"\n"
            return end
        pos += len(chunk)
    return pos


class _Span(io.RawIOBase):
    """The next ``size`` bytes of an unbuffered binary file."""

    def __init__(self, raw, size: int):
        self._raw, self._left = raw, size

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = self._raw.readinto(memoryview(buf)[: self._left])
        self._left -= n
        return n


def _read_rows(path, span, header_lines: int, width: int, encoding: str):
    """``(asset ids, returns)`` of the rows in one byte range, by one
    ``np.loadtxt`` call that reads the file; ValueError if it rejects them."""
    start, end = span
    with open(path, "rb", buffering=0) as raw:
        raw.seek(start)
        text = io.TextIOWrapper(io.BufferedReader(_Span(raw, end - start)),
                                encoding=encoding, newline="")
        with text, warnings.catch_warnings():
            # A range of blank lines holds no rows; that is not worth a warning.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(
                text, delimiter=",", skiprows=header_lines if start == 0 else 0,
                quotechar='"', comments=None, ndmin=1,
                dtype=[("id", object), ("r", np.float64, (width - 1,))],
            )
    return table["id"].tolist(), table["r"]


def _read_blocks(read, spans: list) -> list:
    """``read`` of every span, each in its own process; if any fails, ``read``
    of the whole file here, which raises what the one-range read raises."""
    if len(spans) > 1:
        with contextlib.suppress(Exception):
            return _fork_map(read, spans)
    return [read((0, spans[-1][1]))]


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

    CSV I/O uses one process per CPU this process may run on, at most one per
    asset, so ``taskset`` limits it (``strmv --threads`` pins BLAS only). The
    rows are cut into that many contiguous parts: this process writes the
    header and the first part, and a forked child formats each other part
    into an anonymous temporary file, appended here in order. The whole file
    is written under a temporary name in the target's directory and renamed
    onto ``path`` once complete, so a failed save leaves any earlier file at
    ``path`` as it was. ``path`` resolves through symlinks and must not name
    anything but a regular file.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        raise OSError(f"{path}: not a regular file")
    directory, name = os.path.split(target)
    parts = max(1, min(_process_count(), panel.n))
    bounds = [i * panel.n // parts for i in range(parts + 1)]
    partial = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    fh = open(partial, "x", newline="")
    try:
        with fh, contextlib.ExitStack() as stack:
            outs = [fh] + [
                stack.enter_context(tempfile.TemporaryFile(
                    "w+", encoding=fh.encoding, newline="", dir=directory))
                for _ in range(1, parts)
            ]

            def write_rows(i):
                out, lo, hi = outs[i], bounds[i], bounds[i + 1]
                for aid, row in zip(panel.asset_ids[lo:hi], panel.returns[lo:hi]):
                    out.write(",".join([_csv_field(aid), *map(repr, row.tolist())]) + "\r\n")
                out.flush()

            csv.writer(fh).writerow(["asset"] + [f"p{t + 1}" for t in range(panel.T)])
            fh.flush()  # so that no child holds a copy of unwritten bytes
            _fork_map(write_rows, list(range(parts)))
            for out in outs[1:]:
                out.seek(0)
                shutil.copyfileobj(out.buffer, fh.buffer)
        os.replace(partial, target)
    except BaseException:
        os.unlink(partial)
        raise


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

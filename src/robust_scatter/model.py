"""Core data model: datasets, symmetric matrices, covariances and norms.

Conventions used throughout the package: a dataset is an n-by-p real matrix
whose rows are observations, the sample covariance keeps the 1/n
normalization (also for leave-one-out versions), and indices are zero-based.
`require_count` is the one rule for every count, size, seed and index the
package takes.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .errors import CsvFormatError

__all__ = [
    "Dataset",
    "ScatterMatrix",
    "NormReport",
    "require_count",
    "sample_covariance",
    "leave_one_out_covariance",
    "matrix_norms",
    "load_dataset_csv",
    "matrix_csv_text",
    "save_matrix_csv",
    "write_text_atomic",
]


def require_count(name: str, value, minimum: int = 1) -> int:
    """`value` as an int, or `ValueError` naming `name`: an integer (numpy
    integers pass) of at least `minimum`."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be integral, got {value!r}") from None
    if count < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
    return count


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable n x p sample matrix, one observation per row."""

    samples: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.samples, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"samples must be a 2-d array, got ndim={a.ndim}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"samples must be at least 1x1, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("samples must contain only finite values")
        object.__setattr__(self, "samples", _readonly(a))

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def p(self) -> int:
        return self.samples.shape[1]

    def row(self, i: int) -> np.ndarray:
        return self.samples[i]


@dataclass(frozen=True, eq=False)
class ScatterMatrix:
    """Symmetric p x p matrix, stored fully and symmetrized on construction."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"entries must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("entries must contain only finite values")
        # symmetrize on write so downstream solves never see drift
        object.__setattr__(self, "entries", _readonly((a + a.T) / 2.0))

    @property
    def p(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries))


@dataclass(frozen=True)
class NormReport:
    """Entrywise max, entrywise l1 and operator (spectral) norms of a matrix."""

    max_norm: float
    l1_norm: float
    operator_norm: float


def sample_covariance(data: Dataset) -> ScatterMatrix:
    """Sample covariance (1/n) * sum_i x_i x_i^T of the rows of `data`."""
    x = data.samples
    return ScatterMatrix(x.T @ x / data.n)


def leave_one_out_covariance(data: Dataset, j: int) -> ScatterMatrix:
    """Sample covariance with row j removed, keeping the 1/n normalization.

    Equals sample_covariance(data) - (1/n) x_j x_j^T, so the n-1 remaining
    rows are still divided by n (not n-1).
    """
    if not 0 <= j < data.n:
        raise IndexError(f"row index {j} out of range for n={data.n}")
    x = data.samples
    xj = x[j]
    s = x.T @ x / data.n - np.outer(xj, xj) / data.n
    return ScatterMatrix(s)


def matrix_norms(m: np.ndarray) -> NormReport:
    """Entrywise max / entrywise l1 / largest-singular-value norms of `m`."""
    a = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix must contain only finite values")
    return NormReport(
        max_norm=float(np.max(np.abs(a))),
        l1_norm=float(np.sum(np.abs(a))),
        operator_norm=float(np.linalg.norm(a, 2)),
    )


def load_dataset_csv(path) -> Dataset:
    """Read a dataset CSV: one row per line, comma-separated decimal fields,
    no header, '.' decimal separator. Errors report the offending line and
    column (both 1-based)."""
    rows = []
    width = None
    with open(path, "r", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if line == "" and width is not None:
                # blank lines after the first row are skipped, wherever they are
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise CsvFormatError(
                    f"line {lineno}: expected {width} fields, found {len(fields)}",
                    line=lineno,
                )
            parsed = []
            for colno, tok in enumerate(fields, start=1):
                try:
                    v = float(tok)
                except ValueError:
                    raise CsvFormatError(
                        f"line {lineno}, column {colno}: cannot parse {tok!r} as a number",
                        line=lineno,
                        column=colno,
                    ) from None
                if not math.isfinite(v):
                    raise CsvFormatError(
                        f"line {lineno}, column {colno}: non-finite value {tok!r}",
                        line=lineno,
                        column=colno,
                    )
                parsed.append(v)
            rows.append(parsed)
    if not rows:
        raise CsvFormatError("empty file: expected at least one data row", line=1)
    return Dataset(np.array(rows, dtype=float))


def write_text_atomic(path, text: str) -> None:
    """Write `text` to ``<path>.tmp`` and rename it onto `path`, so `path`
    never holds a partially written file."""
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def matrix_csv_text(m: np.ndarray, digits: int = 10) -> str:
    """A matrix in the dataset CSV format with `digits` significant digits."""
    rows = np.atleast_2d(np.asarray(m, dtype=float))
    return "".join(",".join(f"{v:.{digits}g}" for v in row) + "\n" for row in rows)


def save_matrix_csv(m: np.ndarray, path, digits: int = 10) -> None:
    """Write `matrix_csv_text(m, digits)` atomically (see `write_text_atomic`)."""
    write_text_atomic(path, matrix_csv_text(m, digits))

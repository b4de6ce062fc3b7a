"""Time-series ingestion, windowing, normalization, and evaluation metrics.

Discontinuities are rectified by segmentation, never interpolation: a
timestamp gap beyond 1.5x the nominal sampling period, or any row with a
missing value, starts a new segment, and sliding windows never cross segment
boundaries. MinMax scaling is fitted on training rows only.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import read_utf8

GAP_FACTOR = 1.5


@dataclass
class TimeSeries:
    """Equal-length named columns, split into gap-free segments."""

    columns: list[str]
    target_column: str
    segments: list[np.ndarray]  # each (rows, len(columns)), float64, no NaN

    def __post_init__(self) -> None:
        if self.target_column not in self.columns:
            raise ValueError(f"unknown target column {self.target_column!r}")
        for seg in self.segments:
            if seg.ndim != 2 or seg.shape[1] != len(self.columns):
                raise ValueError("segment width disagrees with column count")
            if not np.all(np.isfinite(seg)):
                raise ValueError("segments must be finite after ingestion")

    @property
    def target_index(self) -> int:
        return self.columns.index(self.target_column)

    @property
    def total_rows(self) -> int:
        return sum(len(s) for s in self.segments)


class MinMaxScaler:
    """Per-column affine map onto [0, 1]; exact affine inverse.

    A degenerate column (min == max) normalizes to 0 and inverse-transforms
    back to its minimum.
    """

    def __init__(self):
        self.mins: np.ndarray | None = None
        self.maxs: np.ndarray | None = None

    def fit(self, rows: np.ndarray) -> "MinMaxScaler":
        if rows.size == 0:
            raise ValueError("cannot fit scaler on empty data")
        self.mins = rows.min(axis=0)
        self.maxs = rows.max(axis=0)
        return self

    def _check(self) -> None:
        if self.mins is None:
            raise ValueError("scaler is not fitted")

    @property
    def spans(self) -> np.ndarray:
        self._check()
        return self.maxs - self.mins

    def transform(self, rows: np.ndarray) -> np.ndarray:
        self._check()
        span = self.spans
        safe = np.where(span == 0, 1.0, span)
        out = (rows - self.mins) / safe
        return np.where(span == 0, 0.0, out)

    def inverse_transform(self, rows: np.ndarray) -> np.ndarray:
        self._check()
        return rows * self.spans + self.mins

    def transform_column(self, values: np.ndarray, column: int) -> np.ndarray:
        self._check()
        span = self.spans[column]
        if span == 0:
            return np.zeros_like(np.asarray(values, dtype=np.float64))
        return (np.asarray(values, dtype=np.float64) - self.mins[column]) / span

    def inverse_column(self, values: np.ndarray, column: int) -> np.ndarray:
        self._check()
        return np.asarray(values, dtype=np.float64) * self.spans[column] + self.mins[column]


@dataclass
class WindowedDataset:
    """Normalized (window, next-step target) pairs with a chronological split."""

    X: np.ndarray  # (pairs, seq_len, features), normalized
    y: np.ndarray  # (pairs,), normalized target
    train_count: int
    scaler: MinMaxScaler
    feature_columns: list[str]
    target_column: str

    @property
    def target_index(self) -> int:
        return self.feature_columns.index(self.target_column)

    @property
    def train_X(self) -> np.ndarray:
        return self.X[: self.train_count]

    @property
    def train_y(self) -> np.ndarray:
        return self.y[: self.train_count]

    @property
    def test_X(self) -> np.ndarray:
        return self.X[self.train_count :]

    @property
    def test_y(self) -> np.ndarray:
        return self.y[self.train_count :]


def _parse_timestamp(text: str, where: str) -> float:
    try:
        return datetime.fromisoformat(text).timestamp()
    except ValueError:
        try:
            return float(text)
        except ValueError as e:
            raise ValueError(f"{where}: bad timestamp {text!r}") from e


def _first_bad_cell(rows: list[list[str]], header: list[str], ts_idx: int | None) -> ValueError:
    """The error for the first offending row, in file order: a row with the
    wrong cell count, or the first cell of a complete row that does not parse."""
    for lineno, raw in enumerate(rows, start=2):
        if not any(map(str.strip, raw)):
            continue
        if len(raw) != len(header):
            return ValueError(f"row {lineno}: expected {len(header)} cells, got {len(raw)}")
        if not all(map(str.strip, raw)):
            continue
        for i, (col, cell) in enumerate(zip(header, raw)):
            cell = cell.strip()
            where = f"row {lineno}, column {col!r}"
            if i == ts_idx:
                try:
                    _parse_timestamp(cell, where)
                except ValueError as e:
                    return e
                continue
            try:
                float(cell)
            except ValueError:
                return ValueError(f"{where}: non-numeric {cell!r}")
    raise AssertionError("no offending cell")  # pragma: no cover - callers found one


def ingest(
    source: str | Path,
    target_column: str | None = None,
    timestamp_column: str | None = None,
) -> TimeSeries:
    """Read a CSV into gap-free segments.

    ``source`` is a path or raw CSV text. The target column defaults to the
    header's last column other than the timestamp. Rows with empty cells
    split the series; with a timestamp column, gaps above 1.5x the nominal
    (median) sampling period split it too. Non-numeric cells are an error.

    The csv module splits the rows; NumPy parses the complete rows' numbers
    in one call, with Python's ``float`` rules, and segments them. Read
    from a path, every error message starts with that path.
    """
    if isinstance(source, Path) or (isinstance(source, str) and "\n" not in source):
        text = read_utf8(source)
        try:
            return _parse_csv(text, target_column, timestamp_column)
        except ValueError as e:
            raise ValueError(f"{source}: {e}") from None
    return _parse_csv(source, target_column, timestamp_column)


def _parse_csv(
    text: str, target_column: str | None, timestamp_column: str | None
) -> TimeSeries:
    reader = csv.reader(io.StringIO(text))
    try:
        header = [h.strip() for h in next(reader)]
        if target_column is None:
            data_columns = [h for h in header if h != timestamp_column]
            if not data_columns:
                raise ValueError("the CSV header names no data column")
            target_column = data_columns[-1]
        if target_column not in header:
            raise ValueError(f"unknown target column {target_column!r}; columns: {header}")
        if timestamp_column is not None and timestamp_column not in header:
            raise ValueError(f"unknown timestamp column {timestamp_column!r}")
        if timestamp_column and header.count(timestamp_column) > 1:
            raise ValueError(f"timestamp column {timestamp_column!r} appears more than once")
        rows = list(reader)
    except StopIteration:
        raise ValueError("CSV has no header row") from None
    except csv.Error as e:  # a cell over csv.field_size_limit(), a bare \r in text
        raise ValueError(f"row {reader.line_num}: {e}") from None

    ts_idx = header.index(timestamp_column) if timestamp_column else None
    feature_cols = [h for i, h in enumerate(header) if i != ts_idx]

    # a complete row has every cell; any other row is a gap unless it has
    # content but the wrong cell count, which is an error
    complete = [len(raw) == len(header) and all(map(str.strip, raw)) for raw in rows]
    kept = np.flatnonzero(complete)
    try:
        if any(len(raw) != len(header) and any(map(str.strip, raw)) for raw in rows):
            raise ValueError
        body = [rows[i] for i in kept]
        if ts_idx is None:
            values = np.array(body, dtype=np.float64).reshape(len(kept), len(header))
        else:
            values = np.array(
                [raw[:ts_idx] + raw[ts_idx + 1:] for raw in body], dtype=np.float64
            ).reshape(len(kept), len(feature_cols))
            stamps = np.array([_parse_timestamp(raw[ts_idx].strip(), "") for raw in body])
    except ValueError:
        raise _first_bad_cell(rows, header, ts_idx) from None

    if not len(kept):
        raise ValueError("no usable rows in CSV")
    # a new segment after every dropped row and, with timestamps, after every
    # step above GAP_FACTOR times the median positive step
    split = np.diff(kept) > 1
    if ts_idx is not None and len(stamps) > 2:
        diffs = np.diff(stamps)
        positive = diffs[diffs > 0]
        if positive.size:
            split |= diffs > GAP_FACTOR * float(np.median(positive))
    segments = np.split(values, np.flatnonzero(split) + 1)
    return TimeSeries(columns=feature_cols, target_column=target_column, segments=segments)


def window(series: TimeSeries, n: int, split: float | int = 0.1) -> WindowedDataset:
    """Build (n-row window, next-step target) pairs and split chronologically.

    ``split`` is a test fraction in (0, 1) or an absolute test pair count.
    The scaler is fitted on exactly the rows reachable from training pairs.
    """
    if n <= 0:
        raise ValueError("window length must be positive")
    usable = [seg for seg in series.segments if len(seg) > n]
    if not usable:
        raise ValueError(f"every segment is shorter than n+1 = {n + 1}; no pairs")

    pairs = [len(seg) - n for seg in usable]  # targets are rows n .. len - 1
    total = sum(pairs)

    if isinstance(split, float):
        if not 0 <= split < 1:
            raise ValueError("test fraction must be in [0, 1)")
        test_count = int(round(total * split))
    else:
        test_count = int(split)
    test_count = min(test_count, total)
    train_count = total - test_count
    if train_count <= 0:
        raise ValueError("split leaves no training pairs")

    # rows visible to training pairs: per segment, everything up to and
    # including the last training target
    fit_rows = []
    seen = 0
    for seg, count in zip(usable, pairs):
        in_train = min(max(train_count - seen, 0), count)
        if in_train > 0:
            fit_rows.append(seg[: n + in_train])
        seen += count
    scaler = MinMaxScaler().fit(np.concatenate(fit_rows))

    # per segment, the window of target row t is rows t-n .. t-1: every
    # n-row view but the last, as (pairs, n, features)
    X_parts, y_parts = [], []
    t_idx = series.target_index
    for seg in usable:
        norm = scaler.transform(seg)
        X_parts.append(sliding_window_view(norm, n, axis=0)[:-1].transpose(0, 2, 1))
        y_parts.append(norm[n:, t_idx])
    X = np.concatenate(X_parts)
    y = np.concatenate(y_parts)
    return WindowedDataset(
        X=X,
        y=y,
        train_count=train_count,
        scaler=scaler,
        feature_columns=list(series.columns),
        target_column=series.target_column,
    )


def inverse_transform(dataset: WindowedDataset, y_norm: np.ndarray) -> np.ndarray:
    """Map normalized target values back to real units."""
    return dataset.scaler.inverse_column(np.asarray(y_norm), dataset.target_index)


def rmse(predictions: np.ndarray, targets: np.ndarray, dataset: WindowedDataset) -> float:
    """Root mean squared error in real target units."""
    p = inverse_transform(dataset, predictions)
    t = inverse_transform(dataset, targets)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def make_synthetic(rows: int = 2000, seed: int = 7) -> str:
    """Deterministic synthetic multivariate series as CSV text.

    The target mixes two periodic components and a slow drift plus mild noise,
    so a short window carries enough signal for single-step forecasting.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(rows, dtype=np.float64)
    daily = np.sin(2 * np.pi * t / 48.0)
    weekly = np.cos(2 * np.pi * t / 336.0)
    drift = 0.0005 * t
    noise = rng.normal(0, 0.05, size=rows)
    target = 10.0 + 3.0 * daily + 1.5 * weekly + drift + noise
    f0 = daily + rng.normal(0, 0.02, size=rows)
    f1 = weekly + rng.normal(0, 0.02, size=rows)
    lines = ["f0,f1,target"]
    for i in range(rows):
        lines.append(f"{f0[i]:.6f},{f1[i]:.6f},{target[i]:.6f}")
    return "\n".join(lines) + "\n"


def bundled_synthetic_csv() -> str:
    from importlib import resources

    return resources.files("mixprec").joinpath("assets/synthetic_2000.csv").read_text()

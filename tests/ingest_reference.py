"""Test-only reference: the row-by-row CSV ingest that ``mixprec.data.ingest``
replaced.

It parses every cell with ``float`` in a Python loop and builds the segments
one row at a time. The library splits the rows with the csv module and
parses the numbers with NumPy in one call; on any input it must return the
same columns and bit-identical segments, or raise the same ValueError.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

from mixprec.data import GAP_FACTOR, TimeSeries, _parse_timestamp


def ingest(
    source: str | Path,
    target_column: str,
    timestamp_column: str | None = None,
) -> TimeSeries:
    """Read a CSV into gap-free segments.

    ``source`` is a path or raw CSV text. Rows with empty cells split the
    series; with a timestamp column, gaps above 1.5x the nominal (median)
    sampling period split it too. Non-numeric cells are an error.
    """
    if isinstance(source, Path) or (isinstance(source, str) and "\n" not in source):
        text = Path(source).read_text()
    else:
        text = source
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("CSV has no header row") from None
    header = [h.strip() for h in header]
    if target_column not in header:
        raise ValueError(f"unknown target column {target_column!r}; columns: {header}")
    if timestamp_column is not None and timestamp_column not in header:
        raise ValueError(f"unknown timestamp column {timestamp_column!r}")

    ts_idx = header.index(timestamp_column) if timestamp_column else None
    feature_cols = [h for i, h in enumerate(header) if i != ts_idx]

    rows: list[np.ndarray | None] = []  # None marks a dropped (gappy) row
    stamps: list[float] = []
    for lineno, raw in enumerate(reader, start=2):
        if not raw or all(not c.strip() for c in raw):
            rows.append(None)
            continue
        if len(raw) != len(header):
            raise ValueError(f"row {lineno}: expected {len(header)} cells, got {len(raw)}")
        if any(not c.strip() for c in raw):
            rows.append(None)
            continue
        values = []
        stamp = math.nan
        for col, cell in zip(header, raw):
            cell = cell.strip()
            if ts_idx is not None and col == timestamp_column:
                stamp = _parse_timestamp(cell, f"row {lineno}, column {col!r}")
                continue
            try:
                values.append(float(cell))
            except ValueError as e:
                raise ValueError(f"row {lineno}, column {col!r}: non-numeric {cell!r}") from e
        rows.append(np.array(values))
        stamps.append(stamp)

    # nominal sampling period from the median of consecutive-stamp diffs
    gap_after: set[int] = set()
    if ts_idx is not None and len(stamps) > 2:
        diffs = np.diff(stamps)
        positive = diffs[diffs > 0]
        if positive.size:
            nominal = float(np.median(positive))
            for i in range(1, len(stamps)):
                if stamps[i] - stamps[i - 1] > GAP_FACTOR * nominal:
                    gap_after.add(i - 1)

    segments: list[np.ndarray] = []
    current: list[np.ndarray] = []
    kept_i = 0
    for row in rows:
        if row is None:
            if current:
                segments.append(np.stack(current))
                current = []
            continue
        if kept_i - 1 in gap_after and current:
            segments.append(np.stack(current))
            current = []
        current.append(row)
        kept_i += 1
    if current:
        segments.append(np.stack(current))
    if not segments:
        raise ValueError("no usable rows in CSV")
    return TimeSeries(columns=feature_cols, target_column=target_column, segments=segments)

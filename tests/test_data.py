"""Dataset: ingestion with segmentation, windowing, scaling, RMSE."""

from __future__ import annotations

import numpy as np
import pytest
from synthetic import make_synthetic

from mixprec.data import (
    MinMaxScaler,
    TimeSeries,
    bundled_synthetic_csv,
    ingest,
    inverse_transform,
    rmse,
    window,
)


def csv_of(rows: list[str], header="a,b,target") -> str:
    return "\n".join([header] + rows) + "\n"


class TestIngest:
    def test_gapless_single_segment(self):
        rows = [f"{i},{i * 2},{i * 3}" for i in range(100)]
        ts = ingest(csv_of(rows), target_column="target")
        assert len(ts.segments) == 1
        assert ts.segments[0].shape == (100, 3)
        assert ts.columns == ["a", "b", "target"]

    def test_missing_value_row_splits(self):
        rows = ["1,1,1", "2,2,2", "3,,3", "4,4,4", "5,5,5"]
        ts = ingest(csv_of(rows), target_column="target")
        assert [len(s) for s in ts.segments] == [2, 2]

    def test_non_numeric_cell_is_error(self):
        rows = ["1,1,1", "2,oops,2"]
        with pytest.raises(ValueError, match="row 3, column 'b'"):
            ingest(csv_of(rows), target_column="target")

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown target"):
            ingest(csv_of(["1,1,1"]), target_column="nope")

    def test_timestamp_gap_splits(self):
        header = "ts,a,target"
        rows = [f"2024-01-01T00:{m:02d}:00,{m},{m}" for m in range(5)]
        rows += [f"2024-01-01T00:{m:02d}:00,{m},{m}" for m in range(10, 15)]
        ts = ingest(csv_of(rows, header), target_column="target", timestamp_column="ts")
        assert [len(s) for s in ts.segments] == [5, 5]
        assert ts.columns == ["a", "target"]

    def test_numeric_timestamps(self):
        header = "ts,a,target"
        rows = [f"{t},{t},{t}" for t in (0, 1, 2, 3, 10, 11, 12)]
        ts = ingest(csv_of(rows, header), target_column="target", timestamp_column="ts")
        assert [len(s) for s in ts.segments] == [4, 3]

    def test_ragged_row_is_error(self):
        with pytest.raises(ValueError, match="expected 3 cells"):
            ingest(csv_of(["1,1,1", "2,2"]), target_column="target")

    def test_target_defaults_to_the_last_data_column(self, tmp_path):
        rows = ["1,2,3", "4,5,6"]
        assert ingest(csv_of(rows)).target_column == "target"
        stamped = ingest(csv_of(rows, "a,target,ts"), timestamp_column="ts")
        assert stamped.target_column == "target" and stamped.columns == ["a", "target"]
        p = tmp_path / "stamps.csv"
        p.write_text("ts\n1\n2\n")
        with pytest.raises(ValueError, match=f"^{p}: the CSV header names no data column$"):
            ingest(p, timestamp_column="ts")

    def test_path_source(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text(csv_of(["1,2,3", "4,5,6"]))
        ts = ingest(p, target_column="target")
        assert sum(len(seg) for seg in ts.segments) == 2


class TestWindow:
    def make_series(self, lengths, m=2):
        rng = np.random.default_rng(0)
        cols = [f"c{i}" for i in range(m - 1)] + ["target"]
        segments = [rng.uniform(0, 10, size=(length, m)) for length in lengths]
        return TimeSeries(columns=cols, target_column="target", segments=segments)

    def test_single_pair_when_length_is_n_plus_1(self):
        ds = window(self.make_series([13]), n=12, split=0)
        assert len(ds.X) == 1
        assert ds.X.shape == (1, 12, 2)

    def test_pair_count_formula(self):
        for L in (8, 20, 45):
            n = 5
            ds = window(self.make_series([L]), n=n, split=0)
            assert len(ds.X) == L - n

    def test_pairs_per_segment_sum(self):
        ds = window(self.make_series([20, 9, 30]), n=6, split=0)
        assert len(ds.X) == (20 - 6) + (9 - 6) + (30 - 6)

    def test_short_segments_skipped(self):
        ds = window(self.make_series([4, 20]), n=6, split=0)
        assert len(ds.X) == 14

    def test_all_segments_too_short(self):
        with pytest.raises(ValueError, match="no pairs"):
            window(self.make_series([5, 6]), n=6)

    def test_minmax_midpoint(self):
        seg = np.array([[10.0], [30.0], [20.0], [15.0]])
        series = TimeSeries(columns=["target"], target_column="target", segments=[seg])
        ds = window(series, n=1, split=0)
        scaled = ds.scaler.transform(np.array([[20.0]]))
        assert scaled[0, 0] == pytest.approx(0.5)

    def test_split_fraction_and_count(self):
        series = self.make_series([106])
        ds_frac = window(series, n=6, split=0.1)
        assert len(ds_frac.test_X) == 10
        ds_count = window(series, n=6, split=25)
        assert len(ds_count.test_X) == 25
        assert len(ds_count.train_X) == 75

    def test_chronological_split(self):
        seg = np.arange(40, dtype=np.float64).reshape(-1, 1)
        series = TimeSeries(columns=["target"], target_column="target", segments=[seg])
        ds = window(series, n=3, split=0.25)
        train_targets = inverse_transform(ds, ds.train_y)
        test_targets = inverse_transform(ds, ds.test_y)
        assert train_targets.max() < test_targets.min()

    def test_scaler_sees_only_training_rows(self):
        seg = np.arange(40, dtype=np.float64).reshape(-1, 1)
        series = TimeSeries(columns=["target"], target_column="target", segments=[seg])
        ds = window(series, n=3, split=0.25)
        mutated = seg.copy()
        mutated[-5:] = 1e9  # test-only rows
        series2 = TimeSeries(columns=["target"], target_column="target", segments=[mutated])
        ds2 = window(series2, n=3, split=0.25)
        assert np.array_equal(ds.scaler.mins, ds2.scaler.mins)
        assert np.array_equal(ds.scaler.maxs, ds2.scaler.maxs)

    def test_windows_never_cross_segments(self):
        # constant-per-segment values: a crossing window would mix them
        segs = [np.full((10, 1), 1.0), np.full((10, 1), 2.0)]
        series = TimeSeries(columns=["target"], target_column="target", segments=segs)
        ds = window(series, n=4, split=0)
        raw = ds.scaler.inverse_transform(ds.X.reshape(-1, 1)).reshape(ds.X.shape)
        for w in raw:
            assert len(np.unique(w)) == 1


def window_by_slices(series: TimeSeries, n: int, split: float | int):
    """(X, y, train_count, scaler) as ``window`` built them before it used one
    strided copy: every target index, then one slice per pair, stacked."""
    pair_segments = [(seg, np.arange(n, len(seg))) for seg in series.segments if len(seg) > n]
    total = sum(len(idx) for _, idx in pair_segments)
    test_count = int(round(total * split)) if isinstance(split, float) else int(split)
    train_count = total - min(test_count, total)
    fit_rows, seen = [], 0
    for seg, idx in pair_segments:
        in_train = min(max(train_count - seen, 0), len(idx))
        if in_train > 0:
            fit_rows.append(seg[: idx[in_train - 1] + 1])
        seen += len(idx)
    scaler = MinMaxScaler().fit(np.concatenate(fit_rows))
    X_parts, y_parts = [], []
    for seg, idx in pair_segments:
        norm = scaler.transform(seg)
        X_parts.extend(norm[t - n : t] for t in idx)
        y_parts.extend(norm[t, series.target_index] for t in idx)
    return np.stack(X_parts), np.array(y_parts), train_count, scaler


GAPPED = [30, 4, 6, 5, 25]  # a segment of exactly n+1 = 6 rows, and two too short


@pytest.mark.parametrize("lengths, split", [
    (GAPPED, 0), (GAPPED, 0.1), (GAPPED, 0.5), (GAPPED, 17), ([6], 0),
], ids=["gapped-0", "gapped-0.1", "gapped-0.5", "gapped-17", "n-plus-1"])
def test_window_equals_the_slice_by_slice_construction(lengths, split):
    # rows with an empty cell end each segment; the target is not the last column
    rng = np.random.default_rng(len(lengths))
    rows = []
    for length in lengths:
        rows += [",".join(f"{v:.4f}" for v in rng.normal(size=3)) for _ in range(length)]
        rows.append("1,,2")
    series = ingest(csv_of(rows[:-1], header="a,target,b"), target_column="target")
    assert [len(seg) for seg in series.segments] == lengths
    n = 5
    ds = window(series, n, split)
    X, y, train_count, scaler = window_by_slices(series, n, split)
    assert ds.X.flags.c_contiguous and ds.X.dtype == X.dtype and ds.y.dtype == y.dtype
    assert np.array_equal(ds.X, X) and np.array_equal(ds.y, y)
    assert ds.train_count == train_count
    assert np.array_equal(ds.scaler.mins, scaler.mins)
    assert np.array_equal(ds.scaler.maxs, scaler.maxs)


class TestScalerAndRmse:
    def dataset(self):
        seg = np.linspace(10, 30, 50).reshape(-1, 1)
        series = TimeSeries(columns=["target"], target_column="target", segments=[seg])
        return window(series, n=4, split=0.2)

    def test_inverse_round_trip(self):
        ds = self.dataset()
        values = np.array([0.1, 0.5, 0.93])
        raw = inverse_transform(ds, values)
        again = ds.scaler.transform(raw[:, None])[:, ds.target_index]
        assert np.allclose(again, values, atol=1e-12)

    def test_rmse_zero_on_equal(self):
        ds = self.dataset()
        assert rmse(ds.test_y, ds.test_y, ds) == 0.0

    def test_rmse_constant_offset(self):
        ds = self.dataset()
        span = ds.scaler.spans[ds.target_index]
        delta_norm = 1.5 / span  # +1.5 real units
        assert rmse(ds.test_y + delta_norm, ds.test_y, ds) == pytest.approx(1.5)

    def test_rmse_shape_mismatch(self):
        ds = self.dataset()
        with pytest.raises(ValueError, match="shape"):
            rmse(ds.test_y[:3], ds.test_y, ds)

    def test_degenerate_column(self):
        scaler = MinMaxScaler().fit(np.full((5, 2), 7.0))
        out = scaler.transform(np.full((3, 2), 7.0))
        assert np.all(out == 0.0)
        back = scaler.inverse_transform(out)
        assert np.all(back == 7.0)

    def test_unfitted_scaler(self):
        with pytest.raises(ValueError, match="not fitted"):
            MinMaxScaler().transform(np.zeros((2, 2)))


class TestSynthetic:
    def test_deterministic(self):
        assert make_synthetic(rows=100, seed=7) == make_synthetic(rows=100, seed=7)
        assert make_synthetic(rows=100, seed=7) != make_synthetic(rows=100, seed=8)

    def test_bundled_asset_matches_generator(self):
        assert bundled_synthetic_csv() == make_synthetic(rows=2000, seed=7)

    def test_usable_for_windowing(self):
        ts = ingest(bundled_synthetic_csv(), target_column="target")
        ds = window(ts, n=12, split=0.1)
        assert len(ts.segments) == 1
        assert len(ds.X) == 2000 - 12
        assert ds.X.shape[2] == 3


# cell replacements a mutation may write: blanks, padding, tokens float()
# accepts or rejects, quoting
CELLS = [
    "", "  ", " 2.5 ", "abc", "1.2.3", "0x10", "1_000", "+7", "-0", "1e3", "inf",
    "nan", "\t4\t", '"3.25"', '"1,5"', '" 6 "', "٣",
]
STAMPS = ["yesterday", "2024-01-01", "", "17", "2024-01-01T00:00:00+01:00"]


def mutated_csv(rng: np.random.Generator, timestamps: bool) -> str:
    """A small valid CSV, then one to four random edits of its lines."""
    rows = 30
    base = make_synthetic(rows=rows, seed=int(rng.integers(1000))).splitlines()
    if timestamps:
        step = rng.choice([60, 1])
        stamps = [f"2024-01-01T00:{m:02d}:00" if step == 60 else str(m) for m in range(rows)]
        base = ["ts," + base[0]] + [f"{s},{line}" for s, line in zip(stamps, base[1:])]
    lines = [line.split(",") for line in base]
    for _ in range(rng.integers(1, 5)):
        r = int(rng.integers(1, len(lines))) if len(lines) > 1 else 0
        kind = rng.choice(9, p=[0.3, 0.15, 0.05, 0.05, 0.15, 0.1, 0.1, 0.02, 0.08])
        if kind == 0 and lines[r]:
            lines[r][int(rng.integers(len(lines[r])))] = str(rng.choice(CELLS))
        elif kind == 1:
            lines.insert(r, [] if rng.random() < 0.5 else [""] * int(rng.integers(1, 5)))
        elif kind == 2:
            lines[r] = lines[r][:-1]
        elif kind == 3:
            lines[r] = lines[r] + ["1"]
        elif kind == 4 and timestamps and lines[r]:
            lines[r][0] = str(rng.choice(STAMPS))
        elif kind == 5 and timestamps and r + 1 < len(lines):
            del lines[r:r + int(rng.integers(1, 4))]  # a gap in time
        elif kind == 6:
            lines[0] = [f'"{h}"' if rng.random() < 0.5 else f" {h} " for h in lines[0]]
        elif kind == 7:
            del lines[1:]
        elif kind == 8:
            lines[r], lines[-1] = lines[-1], lines[r]  # stamps out of order
    ending = str(rng.choice(["\n", "\r\n"]))
    text = ending.join(",".join(cells) for cells in lines)
    return text + (ending if rng.random() < 0.8 else "")


# the error messages the edits must reach
OUTCOMES = ["expected", "non-numeric", "bad timestamp", "no usable rows", "must be finite",
            "unknown target"]


def outcome(ingest_fn, text: str, timestamp_column: str | None):
    try:
        series = ingest_fn(text, "target", timestamp_column)
    except ValueError as e:
        return "error", str(e)
    segments = [(s.shape, s.dtype.str, s.tobytes()) for s in series.segments]
    return series.columns, series.target_column, segments


@pytest.mark.parametrize("timestamps", [False, True], ids=["plain", "timestamped"])
def test_ingest_matches_the_row_by_row_parser(timestamps):
    ingest_reference = pytest.importorskip("ingest_reference")
    rng = np.random.default_rng(11 + timestamps)
    seen = set()
    for case in range(300):
        text = mutated_csv(rng, timestamps)
        if "\n" not in text:
            continue  # a one-line string is read as a path
        ts = "ts" if timestamps else None
        expected = outcome(ingest_reference.ingest, text, ts)
        assert outcome(ingest, text, ts) == expected, f"case {case}:\n{text}"
        if expected[0] == "error":
            seen |= {phrase for phrase in OUTCOMES if phrase in expected[1]}
        else:
            seen.add("segments" if len(expected[2]) > 1 else "one segment")
    wanted = set(OUTCOMES) - (set() if timestamps else {"bad timestamp"})
    assert seen == wanted | {"segments", "one segment"}


def test_csv_level_error_is_a_value_error(tmp_path):
    with pytest.raises(ValueError, match="row 3: "):
        ingest("a,target\n1,2\n3,4\r5\n", "target")
    huge = tmp_path / "huge.csv"
    huge.write_text("a,target\n1,2\n" + "9" * 200_000 + ",4\n")
    with pytest.raises(ValueError, match="row 3: field larger than field limit"):
        ingest(huge, "target")
    with pytest.raises(ValueError, match="appears more than once"):
        ingest("ts,ts,target\n1,1,2\n", "target", timestamp_column="ts")

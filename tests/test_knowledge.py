"""Knowledge database: report parsing, median aggregation, persistence."""

from __future__ import annotations

import json
import random
from decimal import Decimal
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixprec.components import (
    ALL_COMPONENTS,
    RESOURCE_ORDER,
    VALID_BITWIDTHS,
    ComponentId,
    ResourceKind,
)
from mixprec.knowledge import (
    CoverageError,
    DatabaseFormatError,
    KnowledgeDatabase,
    ReportError,
    ResourceVector,
    SynthesisReport,
    aggregate,
    bundled_database,
    format_value,
    load,
    parse_report,
    save,
)


def make_report(seq_len=12, bitwidth=4, fill="1.0", overrides=None) -> SynthesisReport:
    entries = {}
    for comp in ALL_COMPONENTS:
        v = (overrides or {}).get(comp, fill)
        entries[comp] = ResourceVector.of(v, v, v, v)
    return SynthesisReport(seq_len=seq_len, bitwidth=bitwidth, entries=entries)


def same_tables(a: KnowledgeDatabase, b: KnowledgeDatabase) -> bool:
    return a.tables.keys() == b.tables.keys() and all(
        np.array_equal(a.tables[n], b.tables[n]) for n in a.tables
    )


def report_csv(seq_len=12, bitwidth=4, rows=None) -> str:
    if rows is None:
        rows = [f"{comp.value},1.0,1.0,1.0,1.0" for comp in ALL_COMPONENTS]
    return "\n".join([f"# n={seq_len} b={bitwidth}", "component,luts,dram,bram,dsps"] + rows)


class TestParseReport:
    def test_parses_full_report(self):
        rows = [f"{comp.value},1.0,2.0,3.0,4.0" for comp in ALL_COMPONENTS]
        rows[2] = "MHA,30.8,14.3,15.0,30.0"
        rep = parse_report(report_csv(rows=rows))
        assert rep.seq_len == 12 and rep.bitwidth == 4
        assert rep.entries[ComponentId.MHA].luts == Decimal("30.8")
        assert rep.entries[ComponentId.MHA].dsps == Decimal("30.0")

    def test_component_names_case_insensitive(self):
        rows = [f"{comp.value.upper()},1.0,1.0,1.0,1.0" for comp in ALL_COMPONENTS]
        rep = parse_report(report_csv(rows=rows))
        assert len(rep.entries) == 13

    def test_missing_component_is_error(self):
        rows = [
            f"{comp.value},1.0,1.0,1.0,1.0"
            for comp in ALL_COMPONENTS
            if comp is not ComponentId.GAP
        ]
        with pytest.raises(ReportError, match="gap"):
            parse_report(report_csv(rows=rows))

    def test_negative_value_rejected(self):
        rows = [f"{comp.value},1.0,1.0,1.0,1.0" for comp in ALL_COMPONENTS]
        rows[0] = "l_input,-1.0,1.0,1.0,1.0"
        with pytest.raises(ReportError, match=">= 0"):
            parse_report(report_csv(rows=rows))

    def test_malformed_row_reports_line_number(self):
        rows = [f"{comp.value},1.0,1.0,1.0,1.0" for comp in ALL_COMPONENTS]
        rows[4] = "bn_mha,1.0,1.0"
        with pytest.raises(ReportError, match="line 7"):
            parse_report(report_csv(rows=rows))

    def test_unknown_component(self):
        rows = [f"{comp.value},1.0,1.0,1.0,1.0" for comp in ALL_COMPONENTS]
        rows.append("mystery,1.0,1.0,1.0,1.0")
        with pytest.raises(ReportError, match="unknown component"):
            parse_report(report_csv(rows=rows))

    def test_duplicate_component(self):
        rows = [f"{comp.value},1.0,1.0,1.0,1.0" for comp in ALL_COMPONENTS]
        rows.append("gap,1.0,1.0,1.0,1.0")
        with pytest.raises(ReportError, match="duplicate"):
            parse_report(report_csv(rows=rows))

    def test_bad_metadata(self):
        text = "component,luts,dram,bram,dsps\nl_input,1,1,1,1"
        with pytest.raises(ReportError, match="metadata"):
            parse_report(text)

    def test_sanity_bound(self):
        rows = [f"{comp.value},1.0,1.0,1.0,1.0" for comp in ALL_COMPONENTS]
        rows[0] = "l_input,250.0,1.0,1.0,1.0"
        with pytest.raises(ReportError, match="sanity"):
            parse_report(report_csv(rows=rows))


class TestAggregate:
    def _reports_with_mha_luts(self, values):
        reports = []
        for v in values:
            rep = make_report(overrides={ComponentId.MHA: "1.0"})
            entries = dict(rep.entries)
            entries[ComponentId.MHA] = ResourceVector.of(v, 1, 1, 1)
            reports.append(SynthesisReport(12, 4, entries))
        # cover the other bitwidths so the multiset is complete
        reports += [make_report(bitwidth=6), make_report(bitwidth=8)]
        return reports

    def test_odd_count_median(self):
        db = aggregate(self._reports_with_mha_luts(["30.1", "30.8", "30.8", "31.0", "34.9"]))
        assert db.lookup(12, ComponentId.MHA, ResourceKind.LUTS, 4) == Decimal("30.8")

    def test_even_count_mean_of_middle(self):
        db = aggregate(self._reports_with_mha_luts(["1.0", "3.0"]))
        assert db.lookup(12, ComponentId.MHA, ResourceKind.LUTS, 4) == Decimal("2.0")

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate([])

    def test_incomplete_bitwidth_coverage(self):
        with pytest.raises(ValueError, match="n=12/b=8"):
            aggregate([make_report(bitwidth=4), make_report(bitwidth=6)])

    def test_metadata_counts(self):
        db = aggregate(self._reports_with_mha_luts(["1.0", "3.0"]))
        assert db.metadata["report_counts"]["12/4"] == 2

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.decimals(min_value=0, max_value=150, places=1, allow_nan=False),
            min_size=1,
            max_size=9,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_median_properties(self, values, seed):
        reports = self._reports_with_mha_luts([str(v) for v in values])
        db = aggregate(reports)
        entry = db.lookup(12, ComponentId.MHA, ResourceKind.LUTS, 4)
        assert min(values) <= entry <= max(values)
        shuffled = reports[:]
        random.Random(seed).shuffle(shuffled)
        db2 = aggregate(shuffled)
        assert same_tables(db2, db)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        db = aggregate([make_report(bitwidth=b, fill="2.5") for b in VALID_BITWIDTHS])
        path = tmp_path / "kb.json"
        save(db, path)
        db2 = load(path)
        assert same_tables(db2, db)
        assert db2.seq_lens == db.seq_lens

    def test_save_load_save_is_byte_identical(self, tmp_path):
        db = aggregate([make_report(bitwidth=b) for b in VALID_BITWIDTHS])
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save(db, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_even_median_with_extra_digit_round_trips(self, tmp_path):
        reports = []
        for v in ("1.0", "1.1"):
            rep = make_report()
            entries = dict(rep.entries)
            entries[ComponentId.MHA] = ResourceVector.of(v, 1, 1, 1)
            reports.append(SynthesisReport(12, 4, entries))
        reports += [make_report(bitwidth=6), make_report(bitwidth=8)]
        db = aggregate(reports)
        assert db.lookup(12, ComponentId.MHA, ResourceKind.LUTS, 4) == Decimal("1.05")
        path = tmp_path / "kb.json"
        save(db, path)
        assert same_tables(load(path), db)

    def test_truncated_file_is_parse_error(self, tmp_path):
        db = aggregate([make_report(bitwidth=b) for b in VALID_BITWIDTHS])
        path = tmp_path / "kb.json"
        save(db, path)
        path.write_text(path.read_text()[: 200])
        with pytest.raises(DatabaseFormatError, match="not valid JSON"):
            load(path)

    def test_version_mismatch(self, tmp_path):
        db = aggregate([make_report(bitwidth=b) for b in VALID_BITWIDTHS])
        path = tmp_path / "kb.json"
        save(db, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DatabaseFormatError, match="version"):
            load(path)

    def test_schema_violation_names_field_path(self, tmp_path):
        db = aggregate([make_report(bitwidth=b) for b in VALID_BITWIDTHS])
        path = tmp_path / "kb.json"
        save(db, path)
        doc = json.loads(path.read_text())
        del doc["entries"]["12"]["mha"]["bram"]["6"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DatabaseFormatError, match="entries.12.mha.bram.6"):
            load(path)


ASSET = resources.files("mixprec").joinpath("assets/table2.json")


class TestBundledAsset:
    def test_completeness(self):
        db = bundled_database()
        db.validate()
        assert db.seq_lens == frozenset({12, 18, 24})
        assert [t.shape for t in db.tables.values()] == [(13, 4, 3)] * 3

    def test_save_writes_the_asset_byte_for_byte(self, tmp_path):
        path = tmp_path / "table2.json"
        save(bundled_database(), path)
        assert path.read_bytes() == ASSET.read_bytes()

    def test_every_asset_leaf_equals_lookup(self):
        db = bundled_database()
        leaves = [
            (int(n), ComponentId(comp), ResourceKind(kind), int(b), value)
            for n, comps in json.loads(ASSET.read_text())["entries"].items()
            for comp, kinds in comps.items()
            for kind, by_bits in kinds.items()
            for b, value in by_bits.items()
        ]
        assert len(leaves) == 468
        for n, comp, kind, b, value in leaves:
            assert db.lookup(n, comp, kind, b) == Decimal(value)

    @pytest.mark.parametrize(
        "n,comp,kind,bw,expected",
        [
            (12, ComponentId.FFN, ResourceKind.BRAM, 4, "55.0"),
            (12, ComponentId.MHA, ResourceKind.LUTS, 6, "35.6"),
            (24, ComponentId.FFN, ResourceKind.BRAM, 8, "100.0"),
            (18, ComponentId.O_MODEL, ResourceKind.DSPS, 4, "0.0"),
            # source data kept verbatim, anomalies included
            (12, ComponentId.O_MIDDLEWARE, ResourceKind.DRAM, 8, "0.0"),
            (12, ComponentId.O_MIDDLEWARE, ResourceKind.DRAM, 6, "0.7"),
            (12, ComponentId.O_MIDDLEWARE, ResourceKind.BRAM, 8, "1.0"),
        ],
    )
    def test_spot_values(self, n, comp, kind, bw, expected):
        db = bundled_database()
        assert db.lookup(n, comp, kind, bw) == Decimal(expected)

    def test_lookup_uncovered_seq_len(self):
        db = bundled_database()
        with pytest.raises(CoverageError, match="12, 18, 24"):
            db.lookup(6, ComponentId.MHA, ResourceKind.LUTS, 4)

    def test_lookup_bad_bitwidth(self):
        db = bundled_database()
        with pytest.raises(ValueError, match="bitwidth"):
            db.lookup(12, ComponentId.MHA, ResourceKind.LUTS, 5)


def test_format_value():
    assert format_value(Decimal("55")) == "55.0"
    assert format_value(Decimal("30.80")) == "30.8"
    assert format_value(Decimal("1.05")) == "1.05"
    assert format_value(Decimal("0")) == "0.0"

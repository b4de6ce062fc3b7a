"""CLI: exit codes, JSON schemas, determinism, end-to-end pipeline."""

from __future__ import annotations

import base64
import collections
import itertools
import json
import sys
import threading
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mixprec import cli
from mixprec.cli import USAGE_ERROR, _emit, run
from mixprec.components import ALL_COMPONENTS, BitwidthCombination
from mixprec.data import make_synthetic
from mixprec.estimator import EstimateOptions, estimate
from mixprec.knowledge import bundled_database, load, save
from mixprec.model import JUNCTION_COMPONENT, ModelConfig, init, load_model, save_model
from mixprec.search import Thresholds, search


@pytest.fixture(scope="module")
def kb_path(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("kb") / "table2.json"
    save(bundled_database(), path)
    return str(path)


@pytest.fixture(scope="module")
def data_path(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    path.write_text(make_synthetic(rows=400, seed=3))
    return str(path)


def run_json(capsys, argv: list[str]) -> dict:
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["estimate", "--frobnicate"]) == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(["transmogrify"]) == 1

    def test_missing_file_is_data_error(self, capsys):
        code = run(["estimate", "--kb", "/nonexistent.json", "--n", "12",
                    "--combo", "4,4,4,4,4,4,4,4,4,4"])
        assert code == 2

    @pytest.mark.parametrize("command", ["eval", "eval-target", "search", "kb-build"])
    def test_input_not_utf8_names_the_file(self, kb_path, tmp_path, capsys, command):
        bad = tmp_path / "reports" / "bad.csv"
        bad.parent.mkdir()
        bad.write_bytes(b"\xffvalue\n1\n")
        model = tmp_path / "model.json"
        save_model(init(ModelConfig(seq_len=8, input_dim=1, d_model=8), 0), model)
        argv = {
            "eval": ["eval", "--model", str(model), "--data", str(bad)],
            "eval-target": ["eval", "--model", str(model), "--data", str(bad),
                            "--target", "value"],
            "search": ["search", "--kb", kb_path, "--n", "12", "--t-luts", "80",
                       "--t-dram", "100", "--t-bram", "100", "--t-dsps", "100",
                       "--combos", str(bad)],
            "kb-build": ["kb", "build", "--reports", str(bad.parent),
                         "--out", str(tmp_path / "kb.json")],
        }[command]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: not UTF-8 text (byte 0xff at position 0)\n"
        )

    @pytest.mark.parametrize("text, named", [
        ("target\n1\nx\n", "row 3, column 'target': non-numeric 'x'"),
        ("a,target\n1,2\n3\n", "row 3: expected 2 cells, got 1"),
        ("", "CSV has no header row"),
    ], ids=["non-numeric", "cell-count", "empty"])
    def test_csv_error_names_the_file(self, tmp_path, capsys, text, named):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        model = tmp_path / "model.json"
        save_model(init(ModelConfig(seq_len=8, input_dim=1, d_model=8), 0), model)
        assert run(["eval", "--model", str(model), "--data", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {named}\n"

    def test_bad_combo_is_data_error(self, kb_path, capsys):
        code = run(["estimate", "--kb", kb_path, "--n", "12", "--combo", "4,4"])
        assert code == 2

    def test_uncovered_seq_len_is_data_error(self, kb_path, capsys):
        code = run(["estimate", "--kb", kb_path, "--n", "6",
                    "--combo", "4,4,4,4,4,4,4,4,4,4"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["kb", "show", "KB"],
        ["kb", "show", "KB", "--json"],
        ["search", "--kb", "KB", "--t-luts", "80", "--t-dram", "100", "--t-bram", "100",
         "--t-dsps", "100"],
        ["estimate", "--kb", "KB", "--combo", "4,4,4,4,4,4,4,4,4,4"],
    ], ids=["kb-show", "kb-show-json", "search", "estimate"])
    def test_uncovered_seq_len_prints_nothing_to_stdout(self, kb_path, capsys, argv):
        assert run([kb_path if a == "KB" else a for a in argv] + ["--n", "6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seq_len 6 not covered; covered lengths: 12, 18, 24" in captured.err

    @pytest.mark.parametrize("argv", [
        ["search", "--threads", "2"],
        ["estimate", "--seed", "1"],
        ["train", "--m", "3"],
        ["train", "--json"],
        ["quantize", "--json"],
        ["eval", "--json"],
        ["infer", "--json"],
        ["pipeline", "--json"],
    ])
    def test_options_a_command_does_not_read_are_usage_errors(
        self, kb_path, data_path, argv, capsys
    ):
        thresholds = ["--t-luts", "80", "--t-dram", "100", "--t-bram", "100", "--t-dsps", "100"]
        combo = ["--combo", "8,8,8,8,8,8,8,8,8,8"]
        # every required option of the command, so the one refused is the flag under test
        required = {
            "search": ["--kb", kb_path, "--n", "12", *thresholds],
            "estimate": ["--kb", kb_path, "--n", "12", *combo],
            "train": ["--data", data_path, "--n", "8", "--out", "m.json"],
            "quantize": ["--model", "m.json", *combo, "--out", "q.json"],
            "eval": ["--model", "m.json", "--data", data_path],
            "infer": ["--model", "m.json", "--data", data_path],
            "pipeline": ["--kb", kb_path, "--data", data_path, "--n", "12", *thresholds],
        }
        assert run([argv[0], *required[argv[0]], *argv[1:]]) == USAGE_ERROR
        err = capsys.readouterr().err.strip()
        assert err.endswith(f"unrecognized arguments: {' '.join(argv[1:])}")

    def test_version(self, capsys):
        assert run(["--version"]) == 0
        out = capsys.readouterr().out
        assert "mixprec" in out and "kb schema 1" in out


class TestParserReuse:
    """``run`` parses every call with one parser per process."""

    def test_back_to_back_runs_leak_no_state(self, kb_path, capsys):
        argv = ["search", "--kb", kb_path, "--n", "18", "--t-luts", "80", "--t-dram", "100",
                "--t-bram", "100", "--t-dsps", "100", "--json"]
        expected = search(load(kb_path), 18, Thresholds.of(80, 100, 100, 100)).to_dict()
        with_overhead = run_json(capsys, [*argv, "--overhead", "--top", "3"])
        plain = run_json(capsys, argv)
        with_overhead.pop("runtime_seconds"), plain.pop("runtime_seconds")
        assert with_overhead != plain
        assert plain == json.loads(json.dumps(expected))

        assert run(["search", "--kb", kb_path, "--frobnicate"]) == USAGE_ERROR
        assert run(["estimate", "--help"]) == 0
        assert "--combo" in capsys.readouterr().out
        again = run_json(capsys, argv)
        again.pop("runtime_seconds")
        assert again == plain


class TestKb:
    def test_validate(self, kb_path, capsys):
        doc = run_json(capsys, ["kb", "validate", kb_path, "--json"])
        assert doc["valid"] is True
        assert doc["seq_lens"] == [12, 18, 24]
        assert doc["entries"] == 468

    def test_show_component(self, kb_path, capsys):
        doc = run_json(capsys, ["kb", "show", kb_path, "--n", "12",
                                "--component", "mha", "--json"])
        assert doc["mha"]["luts"]["6"] == "35.6"

    def test_show_all_components(self, kb_path, capsys):
        doc = run_json(capsys, ["kb", "show", kb_path, "--n", "24", "--json"])
        assert set(doc) == {c.value for c in ALL_COMPONENTS}

    def test_build_round_trip(self, tmp_path, capsys):
        reports = tmp_path / "reports"
        reports.mkdir()
        for b in (4, 6, 8):
            rows = [f"{c.value},{1.0 + i * 0.1},{2.0},{3.0},{4.0}"
                    for i, c in enumerate(ALL_COMPONENTS)]
            (reports / f"n12_b{b}.csv").write_text(
                "\n".join([f"# n=12 b={b}", "component,luts,dram,bram,dsps"] + rows)
            )
        out = tmp_path / "kb.json"
        assert run(["kb", "build", "--reports", str(reports), "--out", str(out)]) == 0
        capsys.readouterr()
        doc = run_json(capsys, ["kb", "validate", str(out), "--json"])
        assert doc["valid"] and doc["seq_lens"] == [12]

    def test_build_refuses_an_entry_load_refuses(self, tmp_path, capsys):
        # the median of the two b=4 reports' l_input LUTs, 1E-24 and 0, is
        # their mean 5E-25: one decimal place more than an exact sum allows
        reports = tmp_path / "reports"
        reports.mkdir()
        for name, b, luts in (("a", 4, "0.000000000000000000000001"), ("b", 4, "0"),
                              ("c", 6, "1"), ("d", 8, "1")):
            rows = [f"{c.value},{luts if c.value == 'l_input' else '1'},2,3,4"
                    for c in ALL_COMPONENTS]
            (reports / f"{name}.csv").write_text(
                "\n".join([f"# n=12 b={b}", "component,luts,dram,bram,dsps"] + rows)
            )
        out = tmp_path / "kb.json"
        assert run(["kb", "build", "--reports", str(reports), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: entries.12.l_input.luts.4 5E-25: its 25 decimal places exceed the 24 "
            "an exact sum allows\n"
        )
        assert not out.exists()

    def test_build_bad_report(self, tmp_path, capsys):
        reports = tmp_path / "reports"
        reports.mkdir()
        (reports / "bad.csv").write_text("# n=12 b=4\ncomponent,luts,dram,bram,dsps\nmha,1,1,1\n")
        assert run(["kb", "build", "--reports", str(reports), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("mutate, named", [
        (lambda doc: doc.update(entries=[]), "entries: expected an object, got an array"),
        (lambda doc: doc["entries"]["12"]["mha"].update(luts=["1.0", "2.0", "3.0"]),
         "entries.12.mha.luts: expected an object, got an array"),
        (lambda doc: doc.update(seq_lens=12), "seq_lens: expected an array, got an integer"),
        (lambda doc: doc.update(seq_lens=[12, 12, 18, 24]),
         "seq_lens: [12, 12, 18, 24] lists a length twice"),
        (lambda doc: doc["entries"]["12"]["mha"]["luts"].update({"4": 0.1}),
         "entries.12.mha.luts.4: expected a string, got a number"),
        (lambda doc: doc["entries"]["12"]["mha"]["luts"].update({"5": "1.0"}),
         "entries.12.mha.luts.5: unexpected"),
        *[(lambda doc, v=value: doc["entries"]["12"]["mha"]["luts"].update({"4": v}),
           f"entries.12.mha.luts.4: must be finite and >= 0, got {value}")
          for value in ("-1", "NaN", "sNaN", "Infinity")],
    ], ids=["entries-array", "resource-array", "seq-lens-integer", "seq-lens-duplicate",
            "number-for-decimal", "extra-bitwidth", "negative", "nan", "snan", "infinity"])
    def test_malformed_database_field_is_named(self, kb_path, tmp_path, capsys, mutate, named):
        doc = json.loads(Path(kb_path).read_text())
        mutate(doc)
        path = tmp_path / "kb.json"
        path.write_text(json.dumps(doc))
        assert run(["kb", "validate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {named}\n"


class TestEstimateAndSearch:
    def test_estimate_json_schema(self, kb_path, capsys):
        doc = run_json(capsys, ["estimate", "--kb", kb_path, "--n", "12",
                                "--combo", "8,8,6,8,6,4,8,8,8,8", "--json"])
        assert doc == {"luts": "77.9", "dram": "75.9", "bram": "85.0", "dsps": "100.0"}

    def test_search_json_schema(self, kb_path, capsys):
        doc = run_json(capsys, [
            "search", "--kb", kb_path, "--n", "12", "--t-luts", "80", "--t-dram", "100",
            "--t-bram", "100", "--t-dsps", "100", "--top", "5", "--json",
        ])
        assert doc["total"] == 59049
        assert doc["passed"] == 18118
        assert doc["reduction_pct"] == "69.3"
        assert len(doc["selected"]) == 5
        first = doc["selected"][0]
        assert set(first) == {"combo", "score", "estimate"}
        assert first["score"] == 72

    def test_search_deterministic_rerun(self, kb_path, capsys):
        argv = ["search", "--kb", kb_path, "--n", "18", "--t-luts", "80", "--t-dram", "100",
                "--t-bram", "100", "--t-dsps", "100", "--json"]
        a = run_json(capsys, argv)
        b = run_json(capsys, argv)
        a.pop("runtime_seconds"), b.pop("runtime_seconds")
        assert a == b

    def test_search_out_file(self, kb_path, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert run(["search", "--kb", kb_path, "--n", "24", "--t-luts", "80",
                    "--t-dram", "100", "--t-bram", "100", "--t-dsps", "100",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] == 192

    def test_search_histogram_csv(self, kb_path, capsys):
        assert run(["search", "--kb", kb_path, "--n", "12", "--t-luts", "80",
                    "--t-dram", "100", "--t-bram", "100", "--t-dsps", "100",
                    "--histogram", "luts", "--bins", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "bin_low,bin_high,count"
        assert len(lines) == 11
        assert sum(int(line.split(",")[2]) for line in lines[1:]) == 18118

    def test_search_histogram_value_on_interior_edge(self, kb_path, capsys):
        # with overhead at n=18, BRAM runs from 85.0 to 100.0: 126 survivors sit
        # exactly on the edge 90.0 and 108 on 95.0, each the low edge of a bin
        assert run(["search", "--kb", kb_path, "--n", "18", "--overhead", "--t-luts", "80",
                    "--t-dram", "100", "--t-bram", "100", "--t-dsps", "100",
                    "--histogram", "bram", "--bins", "9"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        counts = [int(line.split(",")[2]) for line in lines]
        lows = [Decimal(line.split(",")[0]) for line in lines]
        assert counts[lows.index(Decimal("90"))] == 126
        assert counts[lows.index(Decimal("95"))] == 108
        assert counts == [9, 0, 0, 126, 0, 0, 108, 0, 9]

    def test_search_candidate_subset(self, kb_path, tmp_path, capsys):
        combos = tmp_path / "combos.txt"
        combos.write_text("4,4,4,4,4,4,4,4,4,4\n8,8,8,8,8,8,8,8,8,8\n")
        doc = run_json(capsys, [
            "search", "--kb", kb_path, "--n", "12", "--t-luts", "80", "--t-dram", "100",
            "--t-bram", "100", "--t-dsps", "100", "--combos", str(combos), "--json",
        ])
        assert doc["total"] == 2 and doc["passed"] == 1


    @pytest.mark.parametrize("t_luts, others, named", [
        ("80.0000000000000000001", "100", "threshold t_luts 80.0000000000000000001: its 19"),
        ("80.00000000000000001", "90", "threshold t_luts 80.00000000000000001: its 17"),
    ])
    def test_search_sums_beyond_int64_are_data_errors(self, kb_path, capsys, t_luts, others,
                                                      named):
        # the 17-place case fits the table but its sums would wrap to negatives
        assert run(["search", "--kb", kb_path, "--n", "12", "--t-luts", t_luts,
                    "--t-dram", others, "--t-bram", others, "--t-dsps", others]) == 2
        err = capsys.readouterr().err
        assert named in err and "overflow 64 bits" in err

    def test_search_database_entry_beyond_int64_is_data_error(self, kb_path, tmp_path, capsys):
        doc = json.loads(Path(kb_path).read_text())
        doc["entries"]["12"]["gap"]["dram"]["6"] = "1E-30"
        kb = tmp_path / "kb.json"
        kb.write_text(json.dumps(doc))
        assert run(["search", "--kb", str(kb), "--n", "12", "--t-luts", "80",
                    "--t-dram", "100", "--t-bram", "100", "--t-dsps", "100"]) == 2
        assert "entries.12.gap.dram.6 1E-30: its 30 decimal places" in capsys.readouterr().err

    @pytest.mark.parametrize("t_luts", ["inf", "nan", "-1"])
    def test_search_threshold_not_finite_or_negative_is_data_error(self, kb_path, capsys,
                                                                   t_luts):
        assert run(["search", "--kb", kb_path, "--n", "12", "--t-luts", t_luts,
                    "--t-dram", "100", "--t-bram", "100", "--t-dsps", "100"]) == 2
        assert ("threshold t_luts: must be finite and >= 0, got "
                in capsys.readouterr().err)

    def test_search_threshold_above_every_sum_passes_all(self, kb_path, capsys):
        argv = ["search", "--kb", kb_path, "--n", "12", "--t-dram", "100", "--t-bram", "100",
                "--t-dsps", "100", "--json"]
        huge = run_json(capsys, [*argv, "--t-luts", "1E+400"])
        plain = run_json(capsys, [*argv, "--t-luts", "1000"])
        huge.pop("runtime_seconds"), plain.pop("runtime_seconds")
        assert huge == plain

    def test_threshold_beyond_decimal_exponents_passes_all(self, kb_path, capsys):
        # clamped to the largest possible sum before it is scaled
        argv = ["search", "--kb", kb_path, "--n", "12", "--t-dram", "100", "--t-bram", "100",
                "--t-dsps", "100"]
        huge = run_json(capsys, [*argv, "--t-luts", "1e999999999"])
        plain = run_json(capsys, [*argv, "--t-luts", "1E+400"])
        huge.pop("runtime_seconds"), plain.pop("runtime_seconds")
        assert huge == plain

    @pytest.mark.parametrize("command", ["search", "pipeline"])
    @pytest.mark.parametrize("flag, value, named", [
        ("--t-luts", "abc", "threshold t_luts: 'abc' is not a number"),
        ("--t-dsps", "1..5", "threshold t_dsps: '1..5' is not a number"),
        ("--t-luts", "1e-999999999",
         "threshold t_luts 1E-999999999: its 999999999 decimal places"),
    ])
    def test_bad_threshold_names_the_flag(self, kb_path, data_path, tmp_path, capsys, command,
                                          flag, value, named):
        thresholds = {"--t-luts": "80", "--t-dram": "100", "--t-bram": "100", "--t-dsps": "100"}
        argv = [command, "--kb", kb_path, "--n", "12"]
        argv += [part for pair in (thresholds | {flag: value}).items() for part in pair]
        if command == "pipeline":
            argv += ["--data", data_path, "--d-model", "8", "--epochs", "1", "--patience", "1",
                     "--out-dir", str(tmp_path / "run")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err

    @pytest.mark.parametrize("value, named", [
        ("1e999999999", "entries.12.mha.luts.4: 1E+999999999 exceeds sanity bound 200"),
        ("200", "entries.12.mha.luts.4: 200 exceeds sanity bound 200"),
        ("1.923456789012345678901234567891",
         "entries.12.mha.luts.4 1.923456789012345678901234567891: its 30 decimal places "
         "exceed the 24 an exact sum allows"),
    ], ids=["huge", "at-bound", "30-places"])
    @pytest.mark.parametrize("command", ["kb-validate", "estimate", "search"])
    def test_entry_a_sum_cannot_hold_exactly_is_refused(self, kb_path, tmp_path, capsys,
                                                        value, named, command):
        doc = json.loads(Path(kb_path).read_text())
        doc["entries"]["12"]["mha"]["luts"]["4"] = value
        kb = tmp_path / "kb.json"
        kb.write_text(json.dumps(doc))
        argv = {
            "kb-validate": ["kb", "validate", str(kb)],
            "estimate": ["estimate", "--kb", str(kb), "--n", "12",
                         "--combo", "4,4,4,4,4,4,4,4,4,4"],
            "search": ["search", "--kb", str(kb), "--n", "12", "--t-luts", "80",
                       "--t-dram", "100", "--t-bram", "100", "--t-dsps", "100"],
        }[command]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {kb}: {named}\n"

    def test_estimate_of_13_entries_at_24_places_is_exact(self, kb_path, tmp_path):
        # the widest loadable sum, 13 entries just under 200 at 24 places,
        # has 28 significant digits: Decimal's default precision holds it
        doc = json.loads(Path(kb_path).read_text())
        entry = "199.999999999999999999999999"
        for comp in ALL_COMPONENTS:
            doc["entries"]["12"][comp.value]["luts"]["4"] = entry
        kb = tmp_path / "kb.json"
        kb.write_text(json.dumps(doc))
        vec = estimate(load(kb), 12, BitwidthCombination.uniform(4),
                       EstimateOptions(include_overhead=True))
        assert Fraction(vec.luts) == 13 * Fraction(entry)


class TestModelCommands:
    def train_args(self, data_path, out, extra=()):
        return [
            "train", "--data", data_path, "--n", "8", "--d-model", "8",
            "--epochs", "3", "--patience", "3", "--batch-size", "64",
            "--lr", "0.005", "--seed", "11", "--out", str(out), *extra,
        ]

    def test_train_eval_round_trip(self, data_path, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert run(self.train_args(data_path, model)) == 0
        capsys.readouterr()
        doc = run_json(capsys, ["eval", "--model", str(model), "--data", data_path])
        assert set(doc) == {"rmse", "pairs"}
        assert doc["pairs"] == 39  # round(0.1 * 392)
        assert np.isfinite(doc["rmse"])

    def test_train_deterministic(self, data_path, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(self.train_args(data_path, a)) == 0
        assert run(self.train_args(data_path, b)) == 0
        assert json.loads(a.read_text())["tensors"] == json.loads(b.read_text())["tensors"]

    def test_quantize_and_infer(self, data_path, tmp_path, capsys):
        model = tmp_path / "model.json"
        report = tmp_path / "report.json"
        qmodel = tmp_path / "qmodel.json"
        assert run(self.train_args(data_path, model, extra=[
            "--qat", "8,8,8,8,8,8,8,8,8,8", "--report", str(report)])) == 0
        assert "qat_ranges" in json.loads(report.read_text())
        assert run(["quantize", "--model", str(model), "--combo", "8,8,8,8,8,8,8,8,8,8",
                    "--ranges", str(report), "--out", str(qmodel)]) == 0
        capsys.readouterr()
        doc = run_json(capsys, ["eval", "--model", str(qmodel), "--data", data_path])
        assert np.isfinite(doc["rmse"])
        doc = run_json(capsys, ["infer", "--model", str(qmodel), "--data", data_path])
        assert len(doc["predictions"]) == 39

    def test_quoted_header_resolves_default_target(self, data_path, tmp_path, capsys):
        model, qmodel = tmp_path / "model.json", tmp_path / "qmodel.json"
        assert run(self.train_args(data_path, model)) == 0
        quoted = tmp_path / "quoted.csv"
        header, rest = Path(data_path).read_text().split("\n", 1)
        quoted.write_text(",".join(f'"{h}"' for h in header.split(",")) + "\n" + rest)
        assert run(["quantize", "--model", str(model), "--combo", "6,6,6,6,6,6,6,6,6,6",
                    "--data", str(quoted), "--out", str(qmodel)]) == 0
        capsys.readouterr()
        plain = run_json(capsys, ["eval", "--model", str(qmodel), "--data", data_path])
        assert run_json(capsys, ["eval", "--model", str(qmodel), "--data", str(quoted)]) == plain

    def test_default_target_reads_the_csv_once(self, data_path, tmp_path, capsys, monkeypatch):
        model = tmp_path / "model.json"
        assert run(self.train_args(data_path, model)) == 0
        reads, read_text = [], Path.read_text
        monkeypatch.setattr(Path, "read_text", lambda self, *args, **kwargs: (
            reads.append(str(self)) or read_text(self, *args, **kwargs)))
        capsys.readouterr()
        with_default = run_json(capsys, ["eval", "--model", str(model), "--data", data_path])
        assert reads.count(data_path) == 1
        named = run_json(capsys, ["eval", "--model", str(model), "--data", data_path,
                                  "--target", "target"])
        assert with_default == named

    def test_header_without_data_column_is_data_error(self, data_path, tmp_path, capsys):
        model, data = tmp_path / "model.json", tmp_path / "stamps.csv"
        assert run(self.train_args(data_path, model)) == 0
        data.write_text("ts\n1\n2\n3\n")
        capsys.readouterr()
        assert run(["eval", "--model", str(model), "--data", str(data), "--timestamp", "ts"]) == 2
        assert "names no data column" in capsys.readouterr().err

    def test_quantize_needs_data_or_ranges(self, data_path, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert run(self.train_args(data_path, model)) == 0
        assert run(["quantize", "--model", str(model), "--combo", "8,8,8,8,8,8,8,8,8,8",
                    "--out", str(tmp_path / "q.json")]) == 2

    @pytest.mark.parametrize("mutate, named", [
        # a wider weight grid voids the plan-time accumulator bound
        (lambda doc: doc["tensors"]["ffn.w2.weight"]["quant"].update(bitwidth=40),
         "'ffn.w2.weight': 40-bit signed grid, the combination gives 8-bit signed"),
        # the unsigned hidden grid is what makes the requantizer clamp the ReLU
        (lambda doc: doc["junctions"]["ffn.hidden"].update(signed=True),
         "'ffn.hidden': 8-bit signed grid, the combination gives 8-bit unsigned"),
        (lambda doc: doc["tensors"]["mha.wq.weight"].update(shape=[4, 16]),
         "'mha.wq.weight': shape [4, 16], expected [8, 8]"),
        # the output requantizer takes its accumulator scale from the bias grid
        (lambda doc: doc["tensors"]["l_output.bias"]["quant"].update(
            scale=64 * doc["tensors"]["l_output.bias"]["quant"]["scale"]),
         "'l_output.bias': 18-bit signed symmetric grid (scale "),
        # the integer matmul adds the bias with no zero point
        (lambda doc: doc["tensors"]["l_output.bias"]["quant"].update(scheme="asym", zero_point=3),
         "'l_output.bias': 18-bit signed asymmetric grid (scale "),
    ], ids=["wide-weight-grid", "signed-hidden-junction", "weight-shape", "bias-scale",
            "asymmetric-bias"])
    def test_stored_grid_or_shape_off_plan_is_data_error(
        self, data_path, tmp_path, capsys, mutate, named
    ):
        model, qmodel = tmp_path / "model.json", tmp_path / "qmodel.json"
        assert run(self.train_args(data_path, model)) == 0
        assert run(["quantize", "--model", str(model), "--combo", "8,8,8,8,8,8,8,8,8,8",
                    "--data", data_path, "--out", str(qmodel)]) == 0
        doc = json.loads(qmodel.read_text())
        mutate(doc)
        qmodel.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["eval", "--model", str(qmodel), "--data", data_path]) == 2
        err = capsys.readouterr().err
        assert str(qmodel) in err and named in err


    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_float_tensor_is_data_error(self, data_path, tmp_path, capsys, value):
        model = tmp_path / "model.json"
        assert run(self.train_args(data_path, model)) == 0
        loaded = load_model(model)
        loaded.params["ffn.w1.weight"][0, 0] = value
        save_model(loaded, model)
        capsys.readouterr()
        assert run(["eval", "--model", str(model), "--data", data_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{model}: tensor 'ffn.w1.weight': non-finite values" in captured.err

    @pytest.mark.parametrize("mutate, named", [
        (lambda doc: None, None),
        (lambda doc: doc.update(qat_ranges=[]), "qat_ranges: expected an object, got an array"),
        (lambda doc: doc["qat_ranges"].update({"mha.q": 1.5}),
         "qat_ranges.mha.q: expected an array, got a number"),
        (lambda doc: doc["qat_ranges"].update({"mha.q": ["-1", "1"]}),
         "qat_ranges.mha.q: expected a number, got a string"),
        (lambda doc: doc["qat_ranges"].update({"mha.q": [-1.0, 0.0, 1.0]}),
         "qat_ranges.mha.q: expected [min, max], got 3 values"),
        (lambda doc: doc["qat_ranges"].update({"mha.q": [1.0, -1.0]}),
         "qat_ranges.mha.q: expected finite numbers min <= max, got [1.0, -1.0]"),
        (lambda doc: doc["qat_ranges"].update({"mha.q": [-1.0, 10**400]}),
         "qat_ranges.mha.q: expected finite numbers min <= max"),
        (lambda doc: doc["qat_ranges"].pop("mha.q"), "qat_ranges.mha.q: missing"),
        (lambda doc: doc["qat_ranges"].update({"mha.x": [-1.0, 1.0]}),
         "qat_ranges.mha.x: unknown junction"),
    ], ids=["valid", "ranges-array", "range-number", "range-strings", "three-values",
            "min-above-max", "beyond-float", "missing-junction", "unknown-junction"])
    def test_malformed_ranges_field_is_named(self, tmp_path, capsys, mutate, named):
        model, report = tmp_path / "model.json", tmp_path / "report.json"
        save_model(init(ModelConfig(seq_len=8, input_dim=3, d_model=8), 0), model)
        doc = {"qat_ranges": {junction: [-1.0, 1.0] for junction in JUNCTION_COMPONENT}}
        mutate(doc)
        report.write_text(json.dumps(doc))
        code = run(["quantize", "--model", str(model), "--combo", "8,8,8,8,8,8,8,8,8,8",
                    "--ranges", str(report), "--out", str(tmp_path / "q.json")])
        err = capsys.readouterr().err
        if named is None:
            assert code == 0, err
        else:
            assert code == 2
            assert err.startswith(f"error: {report}: {named}")

    def test_json_on_stdout_never_holds_nan(self, capsys):
        with pytest.raises(ValueError):
            _emit({"rmse": float("nan")}, None)


def _zero_first(doc: dict, name: str) -> None:
    entry = doc["tensors"][name]
    values = np.frombuffer(base64.b64decode(entry["data"]), dtype=entry["dtype"]).copy()
    values[0] = 0
    entry["data"] = base64.b64encode(values.tobytes()).decode("ascii")


class TestModelFiles:
    """A malformed model file exits 2 naming the file and the field."""

    @pytest.fixture(scope="class")
    def model_docs(self, data_path, tmp_path_factory) -> dict:
        work = tmp_path_factory.mktemp("models")
        model, qmodel = work / "float.json", work / "quantized.json"
        assert run(["train", "--data", data_path, "--n", "8", "--d-model", "8", "--epochs", "1",
                    "--patience", "1", "--batch-size", "64", "--out", str(model)]) == 0
        assert run(["quantize", "--model", str(model), "--combo", "8,8,8,8,8,8,8,8,8,8",
                    "--data", data_path, "--out", str(qmodel)]) == 0
        return {"float": model.read_text(), "quantized": qmodel.read_text()}

    @pytest.mark.parametrize("kind, mutate, named", [
        ("float", lambda doc: doc.pop("config"), "config: missing"),
        ("float", lambda doc: doc["config"].pop("d_model"), "config.d_model: missing"),
        ("float", lambda doc: doc["config"].update(frob=1), "config.frob: unknown field"),
        ("float", lambda doc: doc["config"].update(seq_len="8"),
         "config.seq_len: expected an integer, got a string"),
        ("float", lambda doc: doc["config"].update(heads=2),
         "config: only single-head attention is supported"),
        ("float", lambda doc: doc.pop("tensors"), "tensors: missing"),
        ("float", lambda doc: doc["tensors"].pop("ffn.w1.bias"), "tensor 'ffn.w1.bias': missing"),
        ("float", lambda doc: doc["tensors"].update(extra=doc["tensors"]["ffn.w1.bias"]),
         "tensor 'extra': unexpected"),
        ("float", lambda doc: doc["tensors"]["ffn.w1.weight"].update(dtype="<f3"),
         "tensor 'ffn.w1.weight' dtype: '<f3', expected '<f8'"),
        ("float", lambda doc: doc["tensors"]["ffn.w1.weight"].update(data="?"),
         "tensor 'ffn.w1.weight' data: not base64"),
        ("float", lambda doc: doc["tensors"]["ffn.w1.weight"].update(shape=[8, 33]),
         "tensor 'ffn.w1.weight' data: 2048 bytes, shape [8, 33] needs 2112"),
        ("float", lambda doc: _zero_first(doc, "bn_mha.running_var"),
         "tensor 'bn_mha.running_var': batch-norm running variance must be positive"),
        ("quantized", lambda doc: doc.update(combo=None), "combo: expected an array, got null"),
        ("quantized", lambda doc: doc.update(combo=[8] * 9),
         "combo: combination needs 10 bitwidths, got 9"),
        ("quantized", lambda doc: doc.update(combo=[8.0] * 10),
         "combo: expected an integer, got a number"),
        ("quantized", lambda doc: doc.pop("junctions"), "junctions: missing"),
        ("quantized", lambda doc: doc["junctions"]["mha.q"].pop("scheme"),
         "junction 'mha.q' scheme: missing"),
        ("quantized", lambda doc: doc["junctions"]["mha.q"].update(signed="yes"),
         "junction 'mha.q' signed: expected true or false, got a string"),
        ("quantized", lambda doc: doc["junctions"]["mha.q"].update(bitwidth=10**30),
         "junction 'mha.q': bitwidth must be in [2, 64]"),
        ("quantized", lambda doc: doc["junctions"].update(extra=doc["junctions"]["mha.q"]),
         "junction 'extra': unexpected"),
        ("quantized", lambda doc: doc["tensors"]["mha.wq.weight"].update(dtype="<f8"),
         "tensor 'mha.wq.weight' dtype: '<f8', expected '<i4'"),
        ("quantized", lambda doc: doc["tensors"]["mha.wq.weight"]["quant"].update(
            bitwidth=2, zero_point=0),
         "tensor 'mha.wq.weight': values outside its 2-bit grid"),
    ], ids=["no-config", "no-d-model", "unknown-config-key", "string-seq-len",
            "two-heads", "no-tensors", "missing-tensor", "extra-tensor", "unknown-dtype",
            "bad-base64", "shape-off-data", "zero-running-var", "null-combo", "short-combo",
            "float-combo",
            "no-junctions", "grid-without-scheme", "string-signed", "huge-bitwidth",
            "extra-junction", "float-quantized-data", "data-off-grid"])
    def test_malformed_field_is_named(
        self, model_docs, data_path, tmp_path, capsys, kind, mutate, named
    ):
        doc = json.loads(model_docs[kind])
        mutate(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["eval", "--model", str(path), "--data", data_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {path}: {named}" in captured.err

    @pytest.mark.parametrize("text, named", [
        ("{", "not a JSON file"),
        ("[]", "top level: expected an object, got an array"),
    ])
    def test_not_a_model_object(self, data_path, tmp_path, capsys, text, named):
        path = tmp_path / "model.json"
        path.write_text(text)
        assert run(["eval", "--model", str(path), "--data", data_path]) == 2
        assert f"error: {path}: {named}" in capsys.readouterr().err


class TestPipeline:
    def test_end_to_end(self, kb_path, data_path, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = run([
            "pipeline", "--kb", kb_path, "--data", data_path, "--n", "12",
            "--d-model", "8", "--t-luts", "80", "--t-dram", "100", "--t-bram", "100",
            "--t-dsps", "100", "--top", "2", "--epochs", "3", "--patience", "3",
            "--batch-size", "64", "--lr", "0.005", "--seed", "11",
            "--out-dir", str(run_dir),
        ])
        assert code == 0, capsys.readouterr().err
        report = json.loads((run_dir / "report.json").read_text())
        assert len(report["candidates"]) == 2
        assert np.isfinite(report["float_rmse"])
        for cand in report["candidates"]:
            assert np.isfinite(cand["rmse"])
            assert (run_dir / cand["model_file"]).exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["versions"]["artifact"]
        assert "report.json" in manifest["outputs"]

    def test_zero_candidates_clean_exit(self, kb_path, data_path, tmp_path, capsys):
        run_dir = tmp_path / "empty_run"
        code = run([
            "pipeline", "--kb", kb_path, "--data", data_path, "--n", "12",
            "--d-model", "8", "--t-luts", "0", "--t-dram", "0", "--t-bram", "0",
            "--t-dsps", "0", "--top", "2", "--epochs", "2", "--patience", "2",
            "--batch-size", "64", "--seed", "11", "--out-dir", str(run_dir),
        ])
        assert code == 0
        report = json.loads((run_dir / "report.json").read_text())
        assert report["candidates"] == []
        assert report["search"]["reduction_pct"] == "100.0"

    def test_top_zero_usage_error(self, kb_path, data_path, capsys):
        code = run([
            "pipeline", "--kb", kb_path, "--data", data_path, "--n", "12",
            "--t-luts", "80", "--t-dram", "100", "--t-bram", "100", "--t-dsps", "100",
            "--top", "0",
        ])
        assert code == 2

    def test_stage_failure_names_stage(self, kb_path, tmp_path, capsys):
        code = run([
            "pipeline", "--kb", kb_path, "--data", str(tmp_path / "missing.csv"),
            "--n", "12", "--t-luts", "80", "--t-dram", "100", "--t-bram", "100",
            "--t-dsps", "100", "--top", "1",
        ])
        assert code == 2
        assert "stage 'dataset'" in capsys.readouterr().err

    def pipeline_args(self, kb_path, data_path, run_dir) -> list[str]:
        return [
            "pipeline", "--kb", kb_path, "--data", data_path, "--n", "12",
            "--d-model", "16", "--t-luts", "80", "--t-dram", "100", "--t-bram", "100",
            "--t-dsps", "100", "--top", "2", "--epochs", "2", "--patience", "2",
            "--batch-size", "64", "--seed", "11", "--out-dir", str(run_dir),
        ]

    def test_same_artifacts_on_one_or_two_training_threads(
        self, kb_path, data_path, tmp_path, capsys, monkeypatch
    ):
        threads = threading.active_count()
        written = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(cli, "_training_workers", lambda jobs, n=workers: n)
            run_dir = tmp_path / f"workers-{workers}"
            assert run(self.pipeline_args(kb_path, data_path, run_dir)) == 0
            assert threading.active_count() == threads
            # the manifest holds the creation time
            written[workers] = {
                p.name: p.read_bytes() for p in run_dir.iterdir() if p.name != "manifest.json"
            }
        assert sorted(written[1]) == [
            "candidate_0.json", "candidate_1.json", "float_model.json", "report.json",
        ]
        assert written[1] == written[2] == written[3]

    @staticmethod
    def record_steps(monkeypatch, fails=lambda cfg: False) -> list:
        """Log each step of the pipeline's trainings as it starts, as the
        job's QAT combination (None for the float baseline); a job that
        ``fails`` selects raises at its second step, logged as "failed"."""
        original = cli.training_steps
        log = []

        def steps(model, dataset, cfg):
            inner = original(model, dataset, cfg)
            for step in itertools.count(1):
                log.append(cfg.qat)
                if step == 2 and fails(cfg):
                    log.append("failed")
                    raise ValueError("injected")
                try:
                    next(inner)
                except StopIteration as done:
                    return done.value
                yield

        monkeypatch.setattr(cli, "training_steps", steps)
        return log

    @pytest.mark.parametrize("failing, stage", [("train_qat", "candidate-1"),
                                                ("train", "float-baseline")])
    def test_failed_training_names_its_stage(
        self, kb_path, data_path, tmp_path, capsys, monkeypatch, failing, stage
    ):
        second = search(load(kb_path), 12, Thresholds.of(80, 100, 100, 100), top_k=2).selected[1]
        failed = None if failing == "train" else second.combo
        log = self.record_steps(monkeypatch, fails=lambda cfg: cfg.qat == failed)
        monkeypatch.setattr(cli, "_training_workers", lambda jobs: 2)
        threads = threading.active_count()
        # no preemption inside the scheduler's short critical sections, so a
        # step that starts after the failure was handed out after it
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0)
        try:
            assert run(self.pipeline_args(kb_path, data_path, tmp_path / "run")) == 2
        finally:
            sys.setswitchinterval(interval)
        assert f"pipeline stage '{stage}' failed: injected" in capsys.readouterr().err
        assert threading.active_count() == threads
        assert log.count(failed) == 2 and log[-1] == "failed"

    def test_every_job_steps_before_any_takes_its_third(
        self, kb_path, data_path, tmp_path, capsys, monkeypatch
    ):
        log = self.record_steps(monkeypatch)
        monkeypatch.setattr(cli, "_training_workers", lambda jobs: 2)
        assert run(self.pipeline_args(kb_path, data_path, tmp_path / "run")) == 0
        jobs = set(log)
        assert len(jobs) == 3
        taken = collections.Counter()
        for job in log:
            taken[job] += 1
            if taken[job] == 3:
                break
        assert set(taken) == jobs

    @pytest.mark.parametrize("cpus, jobs, workers", [(4, 3, 3), (4, 9, 4), (1, 3, 1)])
    def test_training_workers_are_the_cpus_capped_at_the_jobs(
        self, monkeypatch, cpus, jobs, workers
    ):
        cpu_set = set(range(cpus))
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: cpu_set, raising=False)
        assert cli._training_workers(jobs) == workers

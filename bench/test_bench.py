"""Tests of the benchmark itself: every check rejects a corrupted output, and
each workload runs at this commit with no failed request.

Run from the repository root: python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from checks import CheckFailure, InferenceRecord, SearchReference  # noqa: E402
from workloads import (  # noqa: E402
    README_COMBO,
    Files,
    SearchMix,
    eval_request,
    infer_request,
    pipeline_request,
    quantize_request,
    reference_slice,
    search_request,
)

from mixprec.cli import run as cli_run  # noqa: E402
from mixprec.data import ingest, inverse_transform, window  # noqa: E402
from mixprec.knowledge import load  # noqa: E402

ASSETS = ROOT / "src" / "mixprec" / "assets"


def cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli_run(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> Files:
    work = tmp_path_factory.mktemp("bench")
    files = Files(kb=work / "kb.json", data=work / "series.csv", work=work)
    shutil.copyfile(ASSETS / "table2.json", files.kb)
    shutil.copyfile(ASSETS / "synthetic_2000.csv", files.data)
    return files


@pytest.fixture(scope="module")
def ref(files) -> SearchReference:
    return SearchReference(files.kb)


def test_reference_matches_pinned_counts(ref):
    row = ref.threshold_row(checks.PINNED_THRESHOLDS)
    for n, count in checks.PINNED_SURVIVORS.items():
        assert ref.survivors(n, False, row).sum() == count


@pytest.mark.parametrize("n", [12, 18, 24])
def test_search_check_accepts_program_output_and_rejects_corruptions(files, ref, n):
    db = load(files.kb)
    req = search_request(files, n, checks.PINNED_THRESHOLDS, 5, False, pinned=True)
    doc = json.loads(cli(req.argv))
    checks.check_search(doc, ref, db, req)

    def corrupt(edit):
        bad = json.loads(json.dumps(doc))
        edit(bad)
        with pytest.raises(CheckFailure):
            checks.check_search(bad, ref, db, req)

    corrupt(lambda d: d.update(passed=d["passed"] + 1))
    corrupt(lambda d: d.update(total=d["total"] - 1))
    corrupt(lambda d: d.update(reduction_pct="0.0"))
    corrupt(lambda d: d["selected"].pop())
    corrupt(lambda d: d["selected"].reverse())
    corrupt(lambda d: d["selected"][0]["estimate"].update(luts=str(float(d["selected"][0]["estimate"]["luts"]) + 0.1)))
    corrupt(lambda d: d["selected"][0].update(score=d["selected"][0]["score"] - 2))


def test_seeded_searches_pass_their_checks(files, ref):
    db = load(files.kb)
    mix = SearchMix(5, ref, files)
    for req in mix.block():
        stdout = cli(req.argv)
        if req.kind == "estimate":
            checks.check_estimate(json.loads(stdout), ref, req)
        elif req.kind == "histogram":
            checks.check_histogram(stdout, json.loads(req.info["out"].read_text()), ref, db, req)
        else:
            checks.check_search(json.loads(stdout), ref, db, req)


def test_histogram_and_estimate_checks_reject_corruptions(files, ref):
    db = load(files.kb)
    search_part = reference_slice(files, ref, {"search"})
    hist = next(r for r in search_part if r.kind == "histogram")
    stdout = cli(hist.argv)
    doc = json.loads(hist.info["out"].read_text())
    checks.check_histogram(stdout, doc, ref, db, hist)
    lines = stdout.strip().splitlines()
    low, high, count = lines[1].split(",")
    off_by_one = "\n".join([lines[0], f"{low},{high},{int(count) + 1}", *lines[2:]])
    with pytest.raises(CheckFailure):
        checks.check_histogram(off_by_one, doc, ref, db, hist)

    est = next(r for r in search_part if r.kind == "estimate")
    doc = json.loads(cli(est.argv))
    checks.check_estimate(doc, ref, est)
    doc["dram"] = str(float(doc["dram"]) + 0.1)
    with pytest.raises(CheckFailure):
        checks.check_estimate(doc, ref, est)


@pytest.fixture(scope="module")
def inference(files):
    """A small float model, its 8-bit PTQ model, and one eval and infer output."""
    float_path = files.work / "float.json"
    cli(["train", "--data", str(files.data), "--n", "12", "--d-model", "8", "--epochs", "1",
         "--patience", "1", "--seed", "3", "--out", str(float_path)])
    q = files.work / "q.json"
    quant = quantize_request(files, float_path, (8,) * 10, q)
    cli(quant.argv)
    dataset = window(ingest(files.data, "target"), 12, 0.1)
    evaluated = json.loads(cli(eval_request(files, q).argv))
    inferred = json.loads(cli(infer_request(files, q).argv))
    return float_path, quant, dataset, evaluated, inferred


def _record(inference) -> InferenceRecord:
    float_path, quant, dataset, _, _ = inference
    record = InferenceRecord(dataset, np.arange(0, len(dataset.X), 97))
    record.quantized(quant.info["model"], str(float_path), quant.info["combo"])
    return record


def test_inference_checks_accept_program_output(inference):
    _, quant, _, evaluated, inferred = inference
    record = _record(inference)
    record.inferred(quant.info["model"], inferred)
    record.evaluated(quant.info["model"], evaluated)
    record.inferred(quant.info["model"], inferred)


def _lsb(inference) -> float:
    _, quant, dataset, _, _ = inference
    scale = json.loads(Path(quant.info["model"]).read_text())["junctions"]["output"]["scale"]
    return float(inverse_transform(dataset, np.array([scale]))[0] - inverse_transform(dataset, np.array([0.0]))[0])


def test_prediction_shifted_by_one_lsb_fails_the_repeat_check(inference):
    _, quant, _, _, inferred = inference
    record = _record(inference)
    record.inferred(quant.info["model"], inferred)
    shifted = list(inferred["predictions"])
    shifted[5] += _lsb(inference)
    with pytest.raises(CheckFailure):
        record.inferred(quant.info["model"], {"predictions": shifted})


def test_prediction_two_lsb_off_fails_the_fake_quant_check(inference):
    _, quant, dataset, _, inferred = inference
    record = _record(inference)
    shifted = list(inferred["predictions"])
    shifted[int(record.lsb_windows[1])] += 2.5 * _lsb(inference)
    with pytest.raises(CheckFailure):
        record.inferred(quant.info["model"], {"predictions": shifted})


def test_eval_rmse_must_match_infer_output_and_repeat(inference):
    _, quant, _, evaluated, inferred = inference
    record = _record(inference)
    record.inferred(quant.info["model"], inferred)
    with pytest.raises(CheckFailure):
        record.evaluated(quant.info["model"], {**evaluated, "rmse": evaluated["rmse"] + 1e-4})
    record = _record(inference)
    record.evaluated(quant.info["model"], evaluated)
    with pytest.raises(CheckFailure):
        record.evaluated(quant.info["model"], {**evaluated, "rmse": np.nextafter(evaluated["rmse"], 1)})


def test_repeated_quantize_must_give_the_same_file(files, inference):
    float_path, quant, _, _, _ = inference
    record = _record(inference)
    again = quantize_request(files, float_path, (8,) * 10, files.work / "q-again.json")
    cli(again.argv)
    record.quantized(again.info["model"], str(float_path), again.info["combo"])
    doc = json.loads(Path(again.info["model"]).read_text())
    doc["junctions"]["output"]["scale"] *= 2
    Path(again.info["model"]).write_text(json.dumps(doc))
    with pytest.raises(CheckFailure):
        record.quantized(again.info["model"], str(float_path), again.info["combo"])


def test_mixed_model_eval_must_be_within_one_lsb_of_fake_quant(files, inference):
    float_path, _, dataset, _, _ = inference
    quant = quantize_request(files, float_path, README_COMBO, files.work / "q-mixed.json")
    cli(quant.argv)
    evaluated = json.loads(cli(eval_request(files, Path(quant.info["model"])).argv))
    scale = json.loads(Path(quant.info["model"]).read_text())["junctions"]["output"]["scale"]
    lsb = float(inverse_transform(dataset, np.array([scale]))[0] - inverse_transform(dataset, np.array([0.0]))[0])

    def record() -> InferenceRecord:
        rec = InferenceRecord(dataset, np.arange(0, len(dataset.X), 97))
        rec.quantized(quant.info["model"], str(float_path), quant.info["combo"])
        return rec

    record().evaluated(quant.info["model"], evaluated)
    for shift in (1.5 * lsb, -1.5 * lsb):
        with pytest.raises(CheckFailure):
            record().evaluated(quant.info["model"], {**evaluated, "rmse": evaluated["rmse"] + shift})


def test_pipeline_check_rejects_bad_reports(files, ref, tmp_path):
    row = ref.threshold_row(checks.PINNED_THRESHOLDS)
    top = [[int(b) for b in ref.bits[i]] for i in ref.ranked(12, False, row)[:2]]
    report = {
        "search": {"passed": checks.PINNED_SURVIVORS[12]},
        "float_rmse": 1.0,
        "candidates": [{"combo": c, "rmse": 1.1} for c in top],
    }

    class Req:
        info = {"top": 2}

    def write(doc, manifest=True):
        (tmp_path / "report.json").write_text(json.dumps(doc))
        if manifest:
            (tmp_path / "manifest.json").write_text("{}")
        elif (tmp_path / "manifest.json").exists():
            (tmp_path / "manifest.json").unlink()

    stdout = json.dumps({"run_dir": str(tmp_path), "candidates": 2})
    write(report)
    assert checks.check_pipeline(tmp_path, stdout, ref, Req) == [1.1, 1.1]
    for bad in (
        {**report, "candidates": [{"combo": top[0], "rmse": 2.5}, report["candidates"][1]]},
        {**report, "candidates": [{"combo": top[0], "rmse": float("nan")}, report["candidates"][1]]},
        {**report, "search": {"passed": checks.PINNED_SURVIVORS[12] - 1}},
        {**report, "candidates": report["candidates"][:1]},
    ):
        write(bad)
        with pytest.raises(CheckFailure):
            checks.check_pipeline(tmp_path, stdout, ref, Req)
    over = {**report, "candidates": [{"combo": top[0], "rmse": 2.5}, report["candidates"][1]]}
    write(over)
    assert checks.check_pipeline(tmp_path, stdout, ref, Req, ratio_bound=None) == [2.5, 1.1]
    write(report, manifest=False)
    with pytest.raises(CheckFailure):
        checks.check_pipeline(tmp_path, stdout, ref, Req)


def test_fresh_process_requests_fail_on_exit_code_or_differing_report(files, tmp_path):
    import run

    runner = run.Runner(files, None, False)
    search = search_request(files, 12, checks.PINNED_THRESHOLDS, 5, False)
    pipe = pipeline_request(files, 3, 2, 2, tmp_path)
    (tmp_path / "report.json").write_text('{"float_rmse": 1.0}')
    runner.fresh([search], {"codes": [0]})
    runner.fresh([search], {"codes": [2]})
    runner.seeded_reports[3] = '{"float_rmse": 1.0}'
    runner.fresh([pipe], {"codes": [0]})
    runner.seeded_reports[3] = '{"float_rmse": 1.1}'
    runner.fresh([pipe], {"codes": [0]})
    assert [o.error is None for o in runner.outcomes] == [True, False, True, False]


@pytest.mark.parametrize("workload", ["search", "infer", "pipeline"])
def test_workload_runs_without_failures(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"]["success_rate"]["value"] == 1.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Output checks for every benchmark request.

A check raises ``CheckFailure`` when an output is wrong; the request then
counts as failed. Search outputs are compared with an independent reference:
every combination's utilization summed exactly in integers from the database
file, without going through mixprec's search code.
"""

from __future__ import annotations

import hashlib
import json
import math
from decimal import Decimal
from pathlib import Path

import numpy as np

BITS = (4, 6, 8)
KEY = ("l_input", "add_pe", "mha", "add_mha", "bn_mha", "ffn", "add_ffn", "bn_ffn", "gap", "l_output")
OVERHEAD = ("o_model", "o_encoder_layer", "o_middleware")
RESOURCES = ("luts", "dram", "bram", "dsps")
TOTAL = 3 ** len(KEY)

# Survivor counts at thresholds (80, 100, 100, 100) without overhead.
PINNED_THRESHOLDS = ("80", "100", "100", "100")
PINNED_SURVIVORS = {12: 18118, 18: 903, 24: 192}


class CheckFailure(Exception):
    """An output that does not match what the program must produce."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


class SearchReference:
    """Exact per-combination utilization sums for every (n, overhead) pair.

    Row i of a table is the combination whose base-3 digits (4 < 6 < 8) spell
    i, which is also the lexicographic combination order.
    """

    def __init__(self, kb_path: Path):
        doc = json.loads(Path(kb_path).read_text())
        entries = doc["entries"]
        values = [
            Decimal(v)
            for comps in entries.values()
            for kinds in comps.values()
            for bws in kinds.values()
            for v in bws.values()
        ]
        self.places = max(max(0, -v.as_tuple().exponent) for v in values)
        self.factor = 10 ** self.places
        self.digits = (np.arange(TOTAL)[:, None] // 3 ** np.arange(len(KEY) - 1, -1, -1)) % 3
        self.bits = np.array(BITS)[self.digits]
        self.scores = self.bits.sum(axis=1)
        self.sums: dict[tuple[int, bool], np.ndarray] = {}
        for n_text, comps in entries.items():
            n = int(n_text)

            def table(comp):
                return np.array(
                    [[self.scaled(comps[comp][r][str(b)]) for b in BITS] for r in RESOURCES]
                )

            key = sum(table(comp)[:, self.digits[:, j]] for j, comp in enumerate(KEY)).T
            overhead = sum(table(comp) for comp in OVERHEAD)  # (4, 3)
            self.sums[(n, False)] = key
            self.sums[(n, True)] = key + overhead[:, self.digits.max(axis=1)].T
        for n, count in PINNED_SURVIVORS.items():
            if self.survivors(n, False, self.threshold_row(PINNED_THRESHOLDS)).sum() != count:
                raise RuntimeError(f"reference survivor count for n={n} is not {count}")

    def scaled(self, text: str) -> int:
        value = Decimal(text) * self.factor
        if value != value.to_integral_value():
            raise ValueError(f"{text} has more than {self.places} decimal places")
        return int(value)

    def threshold_row(self, thresholds) -> np.ndarray:
        return np.array([self.scaled(str(t)) for t in thresholds])

    def survivors(self, n: int, overhead: bool, row: np.ndarray, rows=None) -> np.ndarray:
        sums = self.sums[(n, overhead)]
        if rows is not None:
            sums = sums[rows]
        return (sums <= row).all(axis=1)

    def index_of(self, bits) -> int:
        index = 0
        for b in bits:
            index = index * 3 + BITS.index(b)
        return index

    def decimal(self, scaled: int) -> Decimal:
        return Decimal(int(scaled)).scaleb(-self.places)

    def ranked(self, n: int, overhead: bool, row: np.ndarray, rows=None) -> np.ndarray:
        """Indices of surviving combinations by (score desc, LUTs desc, combo asc)."""
        rows = np.arange(TOTAL) if rows is None else np.asarray(rows)
        alive = rows[self.survivors(n, overhead, row, rows)]
        luts = self.sums[(n, overhead)][alive, 0]
        return alive[np.lexsort((alive, -luts, -self.scores[alive]))]


def check_search(doc: dict, ref: SearchReference, db, req) -> None:
    """Survivor count, selection, ranking and exact estimates of a search result."""
    from mixprec.components import BitwidthCombination
    from mixprec.estimator import EstimateOptions, estimate

    info = req.info
    n, overhead, top = info["n"], info["overhead"], info["top"]
    row = ref.threshold_row(info["thresholds"])
    rows = info.get("rows")
    total = TOTAL if rows is None else len(rows)
    ranked = ref.ranked(n, overhead, row, rows)
    require(doc["total"] == total, f"total {doc['total']} != {total}")
    require(doc["passed"] == len(ranked), f"passed {doc['passed']} != {len(ranked)} survivors")
    if info.get("pinned"):
        require(doc["passed"] == PINNED_SURVIVORS[n], f"n={n}: passed {doc['passed']} != pinned")
    reduction = (Decimal(100) * (1 - Decimal(len(ranked)) / Decimal(total))).quantize(Decimal("0.1"))
    require(doc["reduction_pct"] == str(reduction), f"reduction {doc['reduction_pct']} != {reduction}")
    expected = ranked[:top]
    require(len(doc["selected"]) == len(expected), "wrong number of selected combinations")
    opts = EstimateOptions(include_overhead=overhead)
    limits = [Decimal(str(t)) for t in info["thresholds"]]
    previous = None
    for entry, index in zip(doc["selected"], expected):
        bits = tuple(entry["combo"])
        require(bits == tuple(int(b) for b in ref.bits[index]), f"selected {bits}, expected rank order")
        require(entry["score"] == sum(bits), f"score {entry['score']} != sum of {bits}")
        got = [Decimal(entry["estimate"][r]) for r in RESOURCES]
        scalar = estimate(db, n, BitwidthCombination(bits), opts)
        require(got == [getattr(scalar, r) for r in RESOURCES], f"{bits}: estimate != estimate()")
        require(got == [ref.decimal(v) for v in ref.sums[(n, overhead)][index]], f"{bits}: estimate != reference")
        require(all(g <= t for g, t in zip(got, limits)), f"{bits}: estimate over thresholds")
        key = (-entry["score"], -got[0], bits)
        require(previous is None or previous < key, f"{bits}: ranking order broken")
        previous = key


def check_histogram(csv_text: str, doc: dict, ref: SearchReference, db, req) -> None:
    check_search(doc, ref, db, req)
    lines = csv_text.strip().splitlines()
    require(lines[0] == "bin_low,bin_high,count", "histogram header missing")
    counts = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
    require(sum(counts) == doc["passed"], f"histogram counts sum {sum(counts)} != {doc['passed']}")
    require(len(counts) in ((1, req.info["bins"]) if counts else (0,)), "wrong number of bins")


def check_estimate(doc: dict, ref: SearchReference, req) -> None:
    info = req.info
    sums = ref.sums[(info["n"], info["overhead"])][ref.index_of(info["combo"])]
    for resource, value in zip(RESOURCES, sums):
        want = str(ref.decimal(value).quantize(Decimal("0.1")))
        require(doc[resource] == want, f"estimate {resource} {doc[resource]} != {want}")


class InferenceRecord:
    """What earlier requests returned for each quantized model, for the
    repeat, cross-request and fake-quant checks."""

    def __init__(self, dataset, lsb_windows: np.ndarray):
        self.dataset = dataset
        self.lsb_windows = lsb_windows
        self.float_models: dict[str, object] = {}  # float model path -> FloatModel
        self.fake: dict[tuple, tuple] = {}  # (float path, combo) -> fake-quant outputs
        self.models: dict[str, dict] = {}  # quantized model path -> record
        self.quantized_files: dict[tuple, str] = {}  # (float path, combo) -> sha256 of the first file

    def quantized(self, path: str, float_path: str, combo) -> None:
        doc = json.loads(Path(path).read_text())
        require(doc["kind"] == "quantized", f"{path} is not a quantized model")
        require(tuple(doc["combo"]) == tuple(combo), f"{path}: combo {doc['combo']} != {combo}")
        scale = doc["junctions"]["output"]["scale"]
        ds = self.dataset
        lsb = float(abs(_real(ds, scale) - _real(ds, 0.0)))
        # the same float model and combination always quantize to the same file
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        first = self.quantized_files.setdefault((float_path, tuple(combo)), digest)
        require(digest == first, f"{path} differs from an earlier quantize of the same combination")
        self.models[path] = {"float": float_path, "combo": tuple(combo), "lsb": lsb}

    def evaluated(self, path: str, doc: dict) -> None:
        record = self.models[path]
        pairs = len(self.dataset.test_X)
        require(doc["pairs"] == pairs, f"eval pairs {doc['pairs']} != {pairs}")
        require(math.isfinite(doc["rmse"]), "eval RMSE is not finite")
        if "rmse" in record:
            require(doc["rmse"] == record["rmse"], "eval RMSE differs across repeats")
        else:
            # every test prediction within 1 output LSB of fake-quant bounds
            # the difference of the two RMSEs by 1 LSB
            fake_rmse = self._fake_quant(record)[1]
            gap = abs(doc["rmse"] - fake_rmse)
            require(gap <= record["lsb"] * (1 + 1e-9) + 1e-9,
                    f"eval RMSE {gap / record['lsb']:.2f} LSB from fake-quant RMSE")
        record["rmse"] = doc["rmse"]
        self._cross_check(record)

    def inferred(self, path: str, doc: dict) -> None:
        record = self.models[path]
        pred = np.array(doc["predictions"], dtype=np.float64)
        require(len(pred) == len(self.dataset.X), f"{len(pred)} predictions != {len(self.dataset.X)}")
        if "predictions" in record:
            require(np.array_equal(pred, record["predictions"]), "predictions differ across repeats")
        else:
            fake = self._fake_quant(record)[0]
            worst = float(np.abs(pred[self.lsb_windows] - fake).max())
            # predictions are printed to 6 decimals
            require(worst <= record["lsb"] * (1 + 1e-9) + 1e-6,
                    f"integer output {worst / record['lsb']:.2f} LSB from fake-quant")
        record["predictions"] = pred
        self._cross_check(record)

    def _cross_check(self, record: dict) -> None:
        if "rmse" not in record or "predictions" not in record:
            return
        ds = self.dataset
        targets = _real(ds, ds.test_y)
        test = record["predictions"][ds.train_count :]
        recomputed = float(np.sqrt(np.mean((test - targets) ** 2)))
        # predictions are printed to 6 decimals, which moves the RMSE by < 5e-7
        require(abs(recomputed - record["rmse"]) <= 1e-6, "eval RMSE != RMSE of infer output")

    def _fake_quant(self, record: dict) -> tuple[np.ndarray, float]:
        """Fake-quant outputs of a model's float model and combination: the
        real-unit predictions on the seeded windows, and the test RMSE."""
        key = (record["float"], record["combo"])
        if key not in self.fake:
            from mixprec.components import BitwidthCombination
            from mixprec.model import load_model
            from mixprec.quantized import calibrate, forward_fake_quant

            ds = self.dataset
            if record["float"] not in self.float_models:
                self.float_models[record["float"]] = load_model(record["float"])
            model = self.float_models[record["float"]]
            combo = BitwidthCombination(record["combo"])
            calib = calibrate(model, combo, ds.train_X)
            windows = forward_fake_quant(model, combo, calib, ds.X[self.lsb_windows])[:, 0]
            test = forward_fake_quant(model, combo, calib, ds.test_X)[:, 0]
            rmse = float(np.sqrt(np.mean((_real(ds, test) - _real(ds, ds.test_y)) ** 2)))
            self.fake[key] = (_real(ds, windows), rmse)
        return self.fake[key]


def _real(dataset, values) -> np.ndarray:
    """Normalized target values in real target units."""
    from mixprec.data import inverse_transform

    return inverse_transform(dataset, np.asarray(values, dtype=np.float64))


def check_pipeline(
    run_dir: Path, stdout: str, ref: SearchReference, req, ratio_bound: float | None = 2.0
) -> list[float]:
    """Artifacts and accuracy of a pipeline run; returns candidate/float RMSE ratios.

    ``ratio_bound`` caps each candidate's RMSE as a multiple of the float
    RMSE; None records the ratios without bounding them.
    """
    top = req.info["top"]
    summary = json.loads(stdout.strip().splitlines()[-1])
    require(summary["candidates"] == top, f"{summary['candidates']} candidates != {top}")
    for name in ("report.json", "manifest.json"):
        require((run_dir / name).is_file(), f"{name} missing")
    report = json.loads((run_dir / "report.json").read_text())
    row = ref.threshold_row(PINNED_THRESHOLDS)
    require(report["search"]["passed"] == PINNED_SURVIVORS[12], "pipeline search survivors")
    expected = {tuple(int(b) for b in ref.bits[i]) for i in ref.ranked(12, False, row)[:top]}
    float_rmse = report["float_rmse"]
    require(math.isfinite(float_rmse) and float_rmse > 0, "float RMSE is not finite")
    require(len(report["candidates"]) == top, "wrong number of candidates in report")
    require({tuple(c["combo"]) for c in report["candidates"]} == expected, "candidates != top-k")
    ratios = []
    for cand in report["candidates"]:
        require(math.isfinite(cand["rmse"]), "candidate RMSE is not finite")
        if ratio_bound is not None:
            require(cand["rmse"] <= ratio_bound * float_rmse,
                    f"candidate RMSE {cand['rmse']} > {ratio_bound}x float {float_rmse}")
        ratios.append(cand["rmse"] / float_rmse)
    return ratios

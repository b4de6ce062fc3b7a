"""Seeded request streams for the three workloads and the reference slice.

Each workload is a closed loop driven by one client: the next request is
sent when the previous one has returned. Requests come in fixed-composition
blocks, and per-request parameters follow additive low-discrepancy sequences
from seeded offsets, so every seed covers the same range of costs evenly and
the medians and tails do not depend on which seed ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import BITS, PINNED_THRESHOLDS, RESOURCES, TOTAL, SearchReference

# metric group of each request kind: the eval requests give the infer
# latencies, and the infer-all requests join them in infer_windows_per_s
GROUP = {
    "search": "search", "histogram": "search", "subset": "search", "estimate": "search",
    "quantize": "quantize", "eval": "infer", "infer": "infer_all", "pipeline": "pipeline",
}

# pipeline runs: the paper's d_model and search settings, patience equal to
# epochs so early stopping never changes the amount of work
PIPELINE_EPOCHS = 2
REFERENCE_PIPELINE = {"epochs": 1, "seed": 42, "top": 2}
README_COMBO = (8, 8, 6, 8, 6, 4, 8, 8, 8, 8)

_STEPS = (0.6180339887498949, 0.4142135623730951, 0.7548776662466927, 0.5698402909980532)


@dataclass
class Request:
    kind: str
    argv: list[str]
    info: dict = field(default_factory=dict)

    @property
    def group(self) -> str:
        return GROUP[self.kind]


@dataclass(frozen=True)
class Files:
    kb: Path
    data: Path
    work: Path


def _sequence(offset: float, step: float, j: int) -> float:
    return (offset + j * step) % 1.0


def _search_argv(files: Files, n, thresholds, top, overhead) -> list[str]:
    argv = ["search", "--kb", str(files.kb), "--n", str(n)]
    for flag, value in zip(("--t-luts", "--t-dram", "--t-bram", "--t-dsps"), thresholds):
        argv += [flag, str(value)]
    argv += ["--top", str(top), "--json"]
    return argv + (["--overhead"] if overhead else [])


def search_request(files: Files, n: int, thresholds, top: int, overhead: bool, **extra) -> Request:
    info = {"n": n, "thresholds": tuple(str(t) for t in thresholds), "top": top,
            "overhead": overhead, **extra}
    return Request("search", _search_argv(files, n, info["thresholds"], top, overhead), info)


class SearchMix:
    """Full sweeps spanning 0 survivors to half the space, plus a minority of
    histogram, ``--combos`` subset and single-combination estimate requests.

    The block follows from what the metrics need (bench/README.md): sweeps
    are six of ten, so the median is a sweep of mid-range survivors; the
    five full sweeps of a block take one survivor-share stratum each, so the
    median and tail do not depend on which shares a seed drew; one
    histogram (a second sweep, about twice a sweep's cost) per block puts the
    histograms in the p75 tail beside the largest sweeps; two subsets per
    block visit all eight subset sizes in one run; the pinned sweep cycles
    n = 12/18/24 for the pinned survivor checks.
    """

    PATTERN = ("full", "full", "histogram", "full", "subset", "full", "pinned", "full",
               "subset", "estimate")
    SUBSET_FILES = 8

    def __init__(self, seed: int, ref: SearchReference, files: Files):
        self.seed, self.ref, self.files = seed, ref, files
        self.offsets = np.random.default_rng([seed, 0]).random((4, 4))
        self.counters = dict.fromkeys(self.PATTERN, 0)
        rng = np.random.default_rng([seed, 1])
        self.subsets = []
        for i in range(self.SUBSET_FILES):
            size = int(round(10 * 500 ** ((i + rng.random()) / self.SUBSET_FILES)))
            rows = rng.choice(TOTAL, size=size, replace=False)
            path = files.work / f"subset-{i}.txt"
            path.write_text("".join(",".join(map(str, ref.bits[r])) + "\n" for r in rows))
            self.subsets.append((path, rows))

    def block(self) -> list[Request]:
        out = []
        for kind in self.PATTERN:
            j = self.counters[kind]
            self.counters[kind] += 1
            out.append(getattr(self, f"_{kind}")(j))
        return out

    def _draw(self, kind: int, j: int) -> tuple[float, float, float, float]:
        return tuple(_sequence(self.offsets[kind, k], _STEPS[k], j) for k in range(4))

    def _thresholds(self, n, overhead, target_share, rng, rows=None):
        """Seeded DRAM/BRAM/DSP limits, then the LUT limit that leaves
        ``target_share`` of half the candidate space surviving."""
        ref = self.ref
        sums = ref.sums[(n, overhead)] if rows is None else ref.sums[(n, overhead)][rows]
        others = [int(np.quantile(sums[:, k], rng.uniform(0.85, 1.0))) for k in (1, 2, 3)]
        target = int(max(0.0, (target_share - 0.1) / 0.9) * 0.5 * len(sums))
        mask = (sums[:, 1:] <= np.array(others)).all(axis=1)
        if mask.sum() < target:
            # limits that would cap the survivors below the target are lifted
            others = [int(v) for v in sums[:, 1:].max(axis=0)]
            mask[:] = True
        luts = np.sort(sums[mask, 0])
        if target == 0:
            t_luts = max(int(sums[:, 0].min()) - 1, 0)
        else:
            t_luts = int(luts[min(target, len(luts)) - 1])
        return [str(ref.decimal(v)) for v in [t_luts, *others]]

    def _full(self, j, rows=None, kind=0):
        share, over, top, n_pick = self._draw(kind, j)
        if kind == 0:
            # one full sweep per stratum of survivor share in every block, in
            # a seeded order, so each block has the same spread of costs
            per_block = self.PATTERN.count("full")
            order = np.random.default_rng([self.seed, 10, j // per_block]).permutation(per_block)
            share = (order[j % per_block] + _sequence(self.offsets[0, 0], _STEPS[0], j // per_block)) / per_block
        n = (12, 18, 24)[int(n_pick * 3)]
        overhead = over < 0.5
        rng = np.random.default_rng([self.seed, 2 + kind, j])
        thresholds = self._thresholds(n, overhead, share, rng, rows)
        return search_request(self.files, n, thresholds, 1 + int(top * 20), overhead)

    def _histogram(self, j):
        req = self._full(j, kind=1)
        resource = RESOURCES[j % len(RESOURCES)]
        bins = 5 + int(_sequence(self.offsets[1, 0], _STEPS[3], j) * 36)
        out = self.files.work / "histogram.json"
        req.kind = "histogram"
        req.argv += ["--histogram", resource, "--bins", str(bins), "--out", str(out)]
        req.info.update(bins=bins, out=out)
        return req

    def _subset(self, j):
        path, rows = self.subsets[j % self.SUBSET_FILES]
        req = self._full(j, rows=rows, kind=2)
        req.kind = "subset"
        req.argv += ["--combos", str(path)]
        req.info["rows"] = rows
        return req

    def _pinned(self, j):
        return search_request(self.files, (12, 18, 24)[j % 3], PINNED_THRESHOLDS, 5, False,
                              pinned=True)

    def _estimate(self, j):
        rng = np.random.default_rng([self.seed, 6, j])
        combo = tuple(int(b) for b in rng.choice(BITS, size=10))
        n = int(rng.choice((12, 18, 24)))
        overhead = bool(rng.random() < 0.5)
        argv = ["estimate", "--kb", str(self.files.kb), "--n", str(n),
                "--combo", ",".join(map(str, combo)), "--json"]
        return Request("estimate", argv + (["--overhead"] if overhead else []),
                       {"n": n, "combo": combo, "overhead": overhead})


def quantize_request(files: Files, float_path: Path, combo, out: Path) -> Request:
    argv = ["quantize", "--model", str(float_path), "--combo", ",".join(map(str, combo)),
            "--data", str(files.data), "--out", str(out)]
    return Request("quantize", argv, {"model": str(out), "float": str(float_path), "combo": tuple(combo)})


def eval_request(files: Files, model: Path) -> Request:
    return Request("eval", ["eval", "--model", str(model), "--data", str(files.data)],
                   {"model": str(model)})


def infer_request(files: Files, model: Path) -> Request:
    argv = ["infer", "--model", str(model), "--data", str(files.data), "--split", "all"]
    return Request("infer", argv, {"model": str(model)})


class InferMix:
    """Per cycle: two PTQ quantizes (one uniform, one mixed), each repeated
    to a file of its own, ten 199-window evals and one 1,988-window infer.

    Ten evals carry 1,990 windows, about one infer-all's 1,988, so the two
    batch sizes weigh equally in ``infer_windows_per_s``. A 13-second main
    phase runs three cycles: 30 evals, so the p66 eval tail has 10 samples
    beyond it, 12 quantizes and 3 infer-alls. Each new model is read
    by two evals (a repeat) and three evals read earlier models. Every other
    infer repeats the previous one's model, for the bit-identical check; a
    repeated quantize must write the same file.
    """

    def __init__(self, seed: int, ref: SearchReference, files: Files, float_path: Path):
        self.seed, self.files, self.float_path = seed, files, float_path
        row = ref.threshold_row(PINNED_THRESHOLDS)
        top = ref.ranked(12, False, row)[:20]
        self.mixed = [tuple(int(b) for b in ref.bits[i]) for i in top]
        self.cycle = 0

    def block(self) -> list[Request]:
        c = self.cycle
        self.cycle += 1
        rng = np.random.default_rng([self.seed, 7, c])
        uniform = ((8, 6, 4)[c % 3],) * 10
        mixed = self.mixed[int(rng.integers(len(self.mixed)))]
        model = lambda k, part: self.files.work / f"q{k}{part}.json"  # noqa: E731
        f = self.files
        out = []
        for part, combo in (("a", uniform), ("b", mixed)):
            new = model(c, part)
            earlier = [model(int(k), part) for k in rng.integers(0, c + 1, size=3)]
            out.append(quantize_request(f, self.float_path, combo, new))
            out.append(quantize_request(f, self.float_path, combo, model(c, part + "r")))
            out += [eval_request(f, m) for m in (new, new, *earlier)]
        out.append(infer_request(f, model(c if c % 2 == 0 else c - 1, "a")))
        return out


def pipeline_request(files: Files, seed: int, epochs: int, top: int, out: Path) -> Request:
    argv = ["pipeline", "--kb", str(files.kb), "--data", str(files.data), "--n", "12",
            "--d-model", "64"]
    for flag, value in zip(("--t-luts", "--t-dram", "--t-bram", "--t-dsps"), PINNED_THRESHOLDS):
        argv += [flag, value]
    argv += ["--top", str(top), "--epochs", str(epochs), "--patience", str(epochs),
             "--seed", str(seed), "--out-dir", str(out)]
    return Request("pipeline", argv, {"top": top, "out": out, "seed": seed})


class PipelineMix:
    def __init__(self, seed: int, files: Files):
        self.rng = np.random.default_rng([seed, 8])
        self.files = files
        self.count = 0

    def block(self) -> list[Request]:
        self.count += 1
        seed = int(self.rng.integers(0, 2**31))
        out = self.files.work / f"pipeline-{self.count}"
        return [pipeline_request(self.files, seed, PIPELINE_EPOCHS, 2, out)]


def reference_slice(files: Files, ref: SearchReference, groups: set[str]) -> list[Request]:
    """Fixed requests of the metric groups a workload does not exercise.

    They give those metrics, and the accuracy figure, on inputs that do not
    change with the seed. The reference pipeline always runs (``rmse_ratio``
    and the training baselines come from it) and comes first: the inference
    part runs on its float model. Where ``pipeline_s`` is borrowed, it runs
    a second time in the middle of the slice, so that the metric is not one
    sample of the host's speed at the start of the run.
    """
    cfg = REFERENCE_PIPELINE

    def reference_pipeline(out: str) -> Request:
        req = pipeline_request(files, cfg["seed"], cfg["epochs"], cfg["top"], files.work / out)
        req.info["reference"] = True
        return req

    pipe = reference_pipeline("reference-pipeline")
    parts = []
    if "pipeline" in groups:
        parts.append([reference_pipeline("reference-pipeline-2")])
    if "search" in groups:
        parts.append(_search_slice(files))
    if "infer" in groups:
        parts.append(_infer_slice(files, ref, files.work / "reference-pipeline" / "float_model.json"))
    # interleave the parts evenly, keeping each part's order
    position = [((i + 0.5) / len(part), r) for part in parts for i, r in enumerate(part)]
    return [pipe, *(r for _, r in sorted(position, key=lambda p: p[0]))]


def _search_slice(files: Files) -> list[Request]:
    """Thirty pinned n=24 searches, so the slice's median and p75 tail both
    fall on one request type, plus pinned n=12 and n=18 searches and one of
    every other search kind.

    An n=24 search is a full 3^10 sweep that materializes only 192
    survivors, so it is the steadiest full sweep. Inside a run that also
    trains or runs the integer path, identical n=24 searches still range
    from 100 to 300 ms on a shared 2-vCPU host; with twelve of them, the
    median moved by up to a third between runs.
    """
    subset = files.work / "reference-subset.txt"
    rows = np.random.default_rng(0).permutation(TOTAL)[:1000]
    bits = np.array(BITS)[(rows[:, None] // 3 ** np.arange(9, -1, -1)) % 3]
    subset.write_text("".join(",".join(map(str, b)) + "\n" for b in bits))
    search = [search_request(files, n, PINNED_THRESHOLDS, 5, False, pinned=True)
              for n in (24,) * 30 + (18, 12)]
    hist = search_request(files, 24, PINNED_THRESHOLDS, 5, False)
    hist.kind = "histogram"
    out = files.work / "reference-histogram.json"
    hist.argv += ["--histogram", "luts", "--bins", "20", "--out", str(out)]
    hist.info.update(bins=20, out=out)
    sub = search_request(files, 12, PINNED_THRESHOLDS, 5, False, rows=rows)
    sub.kind = "subset"
    sub.argv += ["--combos", str(subset)]
    est = Request("estimate", ["estimate", "--kb", str(files.kb), "--n", "12", "--combo",
                               ",".join(map(str, README_COMBO)), "--overhead", "--json"],
                  {"n": 12, "combo": README_COMBO, "overhead": True})
    searches = search + [hist, sub, est]
    return [searches[i] for i in np.random.default_rng(1).permutation(len(searches))]


def _infer_slice(files: Files, ref: SearchReference, float_path: Path) -> list[Request]:
    """Fourteen quantizes (uniform 8/6/4, the README combination and the
    n=12 top three, each twice, the repeat to a file of its own), one eval of
    each first model, and one infer-all and two more evals of the README
    combination.

    Seven quantizes left the slice's median to one run's two or three slow
    ones; the repeats double the samples and are checked against the first
    file byte for byte.
    """
    row = ref.threshold_row(PINNED_THRESHOLDS)
    top = [tuple(int(b) for b in ref.bits[i]) for i in ref.ranked(12, False, row)[:3]]
    combos = [(8,) * 10, (6,) * 10, README_COMBO, (4,) * 10, *top]
    out = []
    for k, combo in enumerate(combos):
        path = files.work / f"reference-q{k}.json"
        out += [quantize_request(files, float_path, combo, path), eval_request(files, path)]
        if combo == README_COMBO:
            out += [infer_request(files, path), eval_request(files, path), eval_request(files, path)]
        out.append(quantize_request(files, float_path, combo, files.work / f"reference-q{k}r.json"))
    return out

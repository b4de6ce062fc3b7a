"""mixprec benchmark: one command, three workloads, checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {search,infer,pipeline} --seed N \
        --seconds S --trace {0,1}

It drives mixprec from outside, through in-process ``mixprec.cli.run`` calls
with the argv a user would type, on one thread with one BLAS thread. The main
phase sends the workload's requests for ``--seconds``; a fixed reference
slice of the request kinds the workload does not send is spread over it, so
every end-to-end metric is reported on every workload. Every output is
checked, and a request whose exit code or check fails counts as failed.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
main-phase request twice, untraced and traced in alternating order, and
prints the per-layer metrics derived from the spans plus the tracing
overhead. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# before NumPy loads: one BLAS thread, so the closed loop is single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 7
# tail percentile of each latency group: the highest leaving at least ten
# samples beyond it in the main phase at the benchmark's run length
TAIL_PERCENTILE = {"search": 75, "infer": 66}
GROUPS = ("search", "infer", "infer_all", "quantize", "pipeline")
MAIN_GROUPS = {"search": {"search"}, "infer": {"infer", "infer_all", "quantize"}, "pipeline": {"pipeline"}}


@dataclass
class Outcome:
    req: object
    phase: str  # "main", "slice" or "fresh" (the requests run in a fresh process)
    traced: bool
    seconds: float
    error: str | None  # None when the exit code and the output check passed


class Runner:
    """Sends requests through mixprec.cli.run and checks what comes back."""

    def __init__(self, files, tracer, trace: bool):
        from checks import SearchReference

        self.cli = importlib.import_module("mixprec.cli")
        self.files = files
        self.tracer = tracer
        self.trace = trace
        self.ref = SearchReference(files.kb)
        self.db = importlib.import_module("mixprec.knowledge").load(files.kb)
        self.record = None  # InferenceRecord, once the dataset is loaded
        self.ratios: list[float] = []  # candidate/float RMSE of the reference pipeline
        self.seeded_ratios: list[float] = []  # candidate/float RMSE of seeded pipelines
        self.seeded_reports: dict[int, str] = {}  # seed -> report.json of a seeded pipeline
        self.outcomes: list[Outcome] = []

    def send(self, req, phase: str) -> None:
        """Run one request. In trace mode a main-phase request runs twice,
        untraced and traced in alternating order, for the tracing overhead;
        a slice request runs traced only."""
        orders = [False]
        if self.trace:
            orders = [True]
            if phase == "main":
                orders = [False, True] if len(self.outcomes) % 4 == 0 else [True, False]
        for traced in orders:
            self.outcomes.append(self._execute(req, phase, traced))

    def _execute(self, req, phase: str, traced: bool) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        # a user's command starts in a fresh process with no garbage pending;
        # without this, when the collector runs depends on earlier requests
        gc.collect()
        if traced:
            self.tracer.request = len(self.outcomes)
            self.tracer.install()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = self.cli.run(req.argv)
                except Exception:  # a crash fails this request, not the run
                    code, seconds = "crash", time.perf_counter() - start
                    err.write(traceback.format_exc())
                else:
                    seconds = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()
        outcome = Outcome(req, phase, traced, seconds, None)
        if code != 0:
            outcome.error = f"exit code {code}: {err.getvalue().strip()[-300:]}"
        else:
            try:
                self._check(req, out.getvalue())
            except Exception as e:  # noqa: BLE001 - any check crash fails the request
                outcome.error = f"check failed: {type(e).__name__}: {e}"
        if outcome.error:
            print(f"FAILED {req.kind} {' '.join(req.argv)}\n  {outcome.error}", file=sys.stderr)
        return outcome

    def _check(self, req, stdout: str) -> None:
        import checks

        info = req.info
        if req.kind in ("search", "subset"):
            checks.check_search(json.loads(stdout), self.ref, self.db, req)
        elif req.kind == "histogram":
            doc = json.loads(Path(info["out"]).read_text())
            checks.check_histogram(stdout, doc, self.ref, self.db, req)
        elif req.kind == "estimate":
            checks.check_estimate(json.loads(stdout), self.ref, req)
        elif req.kind == "quantize":
            self.record.quantized(info["model"], info["float"], info["combo"])
        elif req.kind == "eval":
            self.record.evaluated(info["model"], json.loads(stdout))
        elif req.kind == "infer":
            self.record.inferred(info["model"], json.loads(stdout))
        elif req.kind == "pipeline":
            # the 2x accuracy bound holds for the fixed reference pipeline; a
            # seeded two-epoch run is undertrained and about one init seed in
            # twenty gives a candidate above 2x float, so seeded ratios are
            # recorded and counted instead
            reference = bool(info.get("reference"))
            ratios = checks.check_pipeline(Path(info["out"]), stdout, self.ref, req,
                                           2.0 if reference else None)
            if not reference:
                self.seeded_ratios += ratios
                self.seeded_reports[info["seed"]] = (Path(info["out"]) / "report.json").read_text()
                shutil.rmtree(info["out"])
                return
            # the reference pipeline is seeded, so a second run repeats it
            checks.require(not self.ratios or ratios == self.ratios,
                           "reference pipeline RMSEs differ between runs")
            self.ratios = ratios

    def fresh(self, requests, result: dict) -> None:
        """Record the requests a fresh process ran for ``peak_rss_mb``, as one
        request that fails when any of them exited non-zero, or when a
        pipeline's report differs from the same pipeline's in this process."""
        import checks

        error = None
        try:
            codes = [(r.kind, c) for r, c in zip(requests, result["codes"]) if c != 0]
            checks.require(not codes, f"exit codes in a fresh process: {codes}")
            for r in requests:
                here = self.seeded_reports.get(r.info.get("seed"))
                if r.kind == "pipeline" and here is not None:
                    there = (Path(r.info["out"]) / "report.json").read_text()
                    checks.require(here == there, "pipeline report differs in a fresh process")
        except Exception as e:  # noqa: BLE001 - any check crash fails the request
            error = f"check failed: {type(e).__name__}: {e}"
            print(f"FAILED requests in a fresh process\n  {error}", file=sys.stderr)
        self.outcomes.append(Outcome(None, "fresh", False, 0.0, error))


# --- statistics ------------------------------------------------------------------


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)) - 1, 0)]


def latency_stats(outcomes: list[Outcome], tail_pct: int) -> dict:
    seconds = [o.seconds for o in outcomes if o.error is None]
    if not seconds:
        return {"count": 0}
    return {
        "count": len(seconds),
        "p50_s": statistics.median(seconds),
        "tail_pct": tail_pct,
        "tail_s": percentile(seconds, tail_pct),
        "beyond_tail": sum(s > percentile(seconds, tail_pct) for s in seconds),
        "total_s": sum(seconds),
    }


def end_to_end(runner: Runner, workload: str, traced: bool, setup: list[float],
               peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced (or traced) executions, and their sample stats."""
    stats, windows = {}, {"eval": len(runner.record.dataset.test_X), "infer": len(runner.record.dataset.X)}
    chosen: dict[str, list[Outcome]] = {}
    for group in GROUPS:
        phase = "main" if group in MAIN_GROUPS[workload] else "slice"
        chosen[group] = [
            o for o in runner.outcomes
            if o.traced == traced and o.phase == phase and o.req.group == group
        ]
        stats[group] = latency_stats(chosen[group], TAIL_PERCENTILE.get(group, 100))
        stats[group]["source"] = phase
    ok_infer = [o for o in chosen["infer"] + chosen["infer_all"] if o.error is None]
    attempted = [o for o in runner.outcomes if o.traced == traced]
    failed = sum(o.error is not None for o in attempted)
    s = stats
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "success_rate": 1 - failed / len(attempted),
        "search_p50_ms": s["search"].get("p50_s", 0) * 1e3,
        "search_tail_ms": s["search"].get("tail_s", 0) * 1e3,
        "search_per_s": s["search"]["count"] / s["search"]["total_s"] if s["search"]["count"] else 0,
        "infer_windows_per_s": (
            sum(windows[o.req.kind] for o in ok_infer) / sum(o.seconds for o in ok_infer) if ok_infer else 0
        ),
        "infer_p50_ms": s["infer"].get("p50_s", 0) * 1e3,
        "infer_tail_ms": s["infer"].get("tail_s", 0) * 1e3,
        "quantize_p50_ms": s["quantize"].get("p50_s", 0) * 1e3,
        "pipeline_s": s["pipeline"].get("p50_s", 0),
        "rmse_ratio": statistics.median(runner.ratios) if runner.ratios else 0,
    }
    over = sum(r > 2.0 for r in runner.seeded_ratios)
    return metrics, {"attempted": len(attempted), "failed": failed, "groups": stats,
                     "seeded_ratios_over_2x": f"{over} of {len(runner.seeded_ratios)}"}


def per_layer(runner: Runner, cold_enumerate_s: float, workload: str) -> dict:
    from spans import layer_metrics

    spans = runner.tracer.spans
    metrics = layer_metrics(spans, cold_enumerate_s)
    # the tracing overhead of the workload's own requests, from the main
    # phase, where each ran both untraced and traced
    main = [o for o in runner.outcomes if o.phase == "main" and o.error is None]
    seconds = [[o.seconds for o in main if o.traced == flag] for flag in (False, True)]
    metrics["trace_overhead.p50_ms"] = (statistics.median(seconds[1]) - statistics.median(seconds[0])) * 1e3
    metrics["trace_overhead.pct"] = 100 * (sum(seconds[1]) - sum(seconds[0])) / sum(seconds[0])
    # the re-anchored baseline: a warm n=12 search() call at the pinned thresholds
    warm = [
        s[2] - s[1] for s in spans
        if s[0] == "search.search" and runner.outcomes[s[4]].req.info.get("pinned")
        and runner.outcomes[s[4]].req.info["n"] == 12
    ]
    metrics["search.warm_n12_ms"] = statistics.median(warm) * 1e3
    return metrics


# --- environment and set-up --------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy as np

    blas = "unknown"
    with contextlib.suppress(Exception):
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]["name"]
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mixprec").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def cold_start(kind: str, path: Path, requests: Path | None = None) -> dict:
    """Set-up time of one fresh interpreter; with a requests file, also the
    exit codes and peak RSS of running those requests in it."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_child.py"), str(SRC), kind, str(path)]
        + ([str(requests)] if requests else []),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fixture_model(runner: Runner, seed: int, path: Path) -> str:
    """Train the infer workload's float model (untimed); returns its content hash."""
    argv = ["train", "--data", str(runner.files.data), "--n", "12", "--d-model", "64",
            "--epochs", "1", "--patience", "1", "--seed", str(seed), "--out", str(path)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = runner.cli.run(argv)
    if code != 0:
        raise RuntimeError(f"fixture training failed with exit code {code}")
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- main ----------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(MAIN_GROUPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mixprec" / "cli.py").is_file():
        print(f"error: no mixprec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import mixprec

    if Path(mixprec.__file__).resolve().parent != (SRC / "mixprec").resolve():
        print(f"error: imported mixprec from {mixprec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from checks import InferenceRecord
    from spans import Tracer
    from workloads import Files, InferMix, PipelineMix, SearchMix, reference_slice

    search_module = importlib.import_module("mixprec.search")
    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        files = Files(kb=run_dir / "kb.json", data=run_dir / "series.csv", work=run_dir)
        shutil.copyfile(SRC / "mixprec" / "assets" / "table2.json", files.kb)
        shutil.copyfile(SRC / "mixprec" / "assets" / "synthetic_2000.csv", files.data)
        env = environment(args.seed)

        start = time.perf_counter()
        search_module.enumerate_all()
        cold_enumerate_s = time.perf_counter() - start

        runner = Runner(files, Tracer() if args.trace else None, bool(args.trace))
        data = importlib.import_module("mixprec.data")
        dataset = data.window(data.ingest(files.data, "target"), 12, 0.1)
        lsb_windows = np.random.default_rng([args.seed, 9]).choice(len(dataset.X), 32, replace=False)
        runner.record = InferenceRecord(dataset, lsb_windows)

        if args.workload == "infer":
            float_path = run_dir / "float.json"
            env["fixture_sha256"] = fixture_model(runner, args.seed, float_path)
            make_mix = lambda f: InferMix(args.seed, runner.ref, f, float_path)  # noqa: E731
            cold = ("model", float_path)
        else:
            make_mix = {"search": lambda f: SearchMix(args.seed, runner.ref, f),
                        "pipeline": lambda f: PipelineMix(args.seed, f)}[args.workload]
            cold = ("kb", files.kb)
        mix = make_mix(files)
        # peak RSS comes from a fresh process that runs the workload's own
        # requests, with outputs of its own
        fresh_files = Files(kb=files.kb, data=files.data, work=run_dir / "fresh")
        fresh_files.work.mkdir()
        # one request of each kind from the workload's first block
        block = make_mix(fresh_files).block()
        fresh_requests = [r for i, r in enumerate(block) if r.kind not in {q.kind for q in block[:i]}]
        fresh_path = run_dir / "fresh-requests.json"
        fresh_path.write_text(json.dumps([r.argv for r in fresh_requests]))

        # the reference slice and the cold starts are spread over the main
        # phase, so that each metric averages over the whole run: on a shared
        # 2-vCPU host, speed drifts by 20-30% between 40-second windows
        setup: list[float] = []
        fresh: dict = {}

        def start_cold(requests=None):
            result = cold_start(*cold, requests)
            setup.append(result["seconds"])
            if requests:
                fresh.update(result)

        borrowed = set(GROUPS) - MAIN_GROUPS[args.workload]
        side = [lambda req=req: runner.send(req, "slice")
                for req in reference_slice(files, runner.ref, borrowed)]
        for k in range(SETUP_REPS):
            requests = fresh_path if k == 0 else None
            side.insert(k * len(side) // SETUP_REPS, lambda r=requests: start_cold(r))
        main_s, done = 0.0, 0
        while main_s < args.seconds:
            for req in mix.block():
                # --seconds counts request time, not the checks between requests
                before = len(runner.outcomes)
                runner.send(req, "main")
                main_s += sum(o.seconds for o in runner.outcomes[before:])
                while done < len(side) and main_s >= done / len(side) * args.seconds:
                    side[done]()
                    done += 1
        for task in side[done:]:
            task()
        runner.fresh(fresh_requests, fresh)

        # a traced run reports its request counts from the traced executions
        e2e, counts = end_to_end(runner, args.workload, bool(args.trace), setup, fresh["peak_rss_mb"])
        metrics = per_layer(runner, cold_enumerate_s, args.workload) if args.trace else e2e
        if args.trace:
            runner.tracer.write(run_dir.parent / f"spans-{args.workload}-s{args.seed}.json.gz")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in table}
    missing = set(units) - set(metrics)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 3
    report(args, env, e2e, counts, setup, main_s, metrics, units)
    failed = sum(o.error is not None for o in runner.outcomes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runner.outcomes),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }))
    return 0


def report(args, env, e2e, counts, setup, main_s, metrics, units) -> None:
    """Human-readable lines before the JSON result; also saved beside the spans."""
    lines = [f"mixprec benchmark: workload {args.workload}, seed {args.seed}, "
             f"{args.seconds:g} s main phase ({main_s:.1f} s ran), trace {args.trace}"]
    lines.append("environment: " + json.dumps(env))
    lines.append(f"set-up runs (s): {[round(s, 4) for s in setup]}")
    for group, s in counts["groups"].items():
        if s["count"]:
            lines.append(
                f"{group}: {s['count']} ok requests from the {s['source']} phase; "
                f"tail = p{s['tail_pct']} with {s['beyond_tail']} samples beyond it"
            )
    lines.append(f"requests: {counts['attempted']} attempted, {counts['failed']} failed, "
                 f"error_rate {counts['failed'] / counts['attempted']:.4f}")
    lines.append("seeded pipeline candidates with RMSE above 2x float (not failures): "
                 + counts["seeded_ratios_over_2x"])
    lines.append("layers run on one thread and never wait on each other: no wait times reported")
    for name, unit in units.items():
        lines.append(f"  {name} = {metrics[name]:.6g} {unit}")
    print("\n".join(lines))
    WORK.mkdir(exist_ok=True)
    summary = {"env": env, "setup_s": setup, "counts": counts, "end_to_end": e2e, "metrics": metrics}
    path = WORK / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(summary, indent=1, default=str) + "\n")


if __name__ == "__main__":
    sys.exit(main())

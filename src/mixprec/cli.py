"""Command-line interface for the whole workflow.

Exit codes: 0 success, 1 usage error, 2 data or validation error, 3 internal
assertion failure. Machine-readable output goes to stdout (JSON with --json
or for inherently structured commands); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import hashlib
import json
import math
import sys
import threading
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from pathlib import Path

import numpy as np

from . import __version__, training
from .components import (
    ALL_COMPONENTS,
    RESOURCE_ORDER,
    VALID_BITWIDTHS,
    BitwidthCombination,
    ComponentId,
    ResourceKind,
)
from .estimator import EstimateOptions, estimate
from .knowledge import (
    SCHEMA_VERSION,
    CoverageError,
    DatabaseFormatError,
    ReportError,
    aggregate,
    load,
    parse_report,
    save,
    table_doc,
)
from .model import (
    JUNCTION_COMPONENT,
    Dataflow,
    FloatModel,
    ModelConfig,
    _expect,
    _get,
    init,
    load_model,
    read_utf8,
    save_model,
)
from .quantized import CalibrationError, forward_integer, quantize_model
from .search import Thresholds, parse_candidate_file, search
from .training import TrainConfig, train, train_qat, training_steps

USAGE_ERROR, DATA_ERROR, INTERNAL_ERROR = 1, 2, 3

DATA_ERRORS = (
    ReportError,
    DatabaseFormatError,
    CoverageError,
    CalibrationError,
    ValueError,
    FileNotFoundError,
    IsADirectoryError,
    InvalidOperation,
)


class _CliArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _emit(doc: dict, path: str | None) -> None:
    rendered = json.dumps(doc, indent=2, allow_nan=False)
    if path:
        Path(path).write_text(rendered + "\n")
    else:
        print(rendered)


def _load_windowed(args, seq_len: int):
    from .data import ingest, window

    series = ingest(Path(args.data), args.target, args.timestamp)
    return window(series, seq_len, args.test_fraction)


# --- kb ------------------------------------------------------------------------


def cmd_kb_build(args) -> int:
    report_dir = Path(args.reports)
    files = sorted(report_dir.glob("*.csv"))
    if not files:
        raise ValueError(f"no .csv report files under {report_dir}")
    reports = []
    for f in files:
        try:
            reports.append(parse_report(read_utf8(f)))
        except ReportError as e:
            raise ReportError(f"{f}: {e}") from e
    db = aggregate(reports, source=f"aggregated from {len(files)} report files in {report_dir}")
    save(db, args.out)
    print(
        f"built knowledge database: {len(files)} reports, "
        f"seq_lens {sorted(db.seq_lens)} -> {args.out}"
    )
    return 0


def cmd_kb_validate(args) -> int:
    db = load(args.file)
    entries = sum(table.size for table in db.tables.values())
    doc = {
        "valid": True,
        "seq_lens": sorted(db.seq_lens),
        "entries": entries,
        "schema_version": SCHEMA_VERSION,
    }
    if args.json:
        _emit(doc, None)
    else:
        print(f"{args.file}: valid ({entries} entries, seq_lens {sorted(db.seq_lens)})")
    return 0


def cmd_kb_show(args) -> int:
    db = load(args.file)
    components = ALL_COMPONENTS
    if args.component:
        try:
            components = (ComponentId(args.component.lower()),)
        except ValueError:
            raise ValueError(f"unknown component {args.component!r}") from None
    doc = table_doc(db.table(args.n), components)
    if args.json:
        _emit(doc, None)
        return 0
    header = ["component"] + [
        f"{kind.value}/{b}" for kind in RESOURCE_ORDER for b in VALID_BITWIDTHS
    ]
    print("  ".join(f"{h:>10s}" for h in header))
    for comp, by_kind in doc.items():
        cells = [comp, *(v for by_bits in by_kind.values() for v in by_bits.values())]
        print("  ".join(f"{c:>10s}" for c in cells))
    return 0


# --- estimate / search ----------------------------------------------------------


def _estimate_options(args) -> EstimateOptions:
    return EstimateOptions(include_overhead=args.overhead)


def cmd_estimate(args) -> int:
    db = load(args.kb)
    combo = BitwidthCombination.parse(args.combo)
    vec = estimate(db, args.n, combo, _estimate_options(args))
    if args.json:
        doc = {
            kind.value: str(vec[kind].quantize(Decimal("0.1"))) for kind in RESOURCE_ORDER
        }
        _emit(doc, None)
    else:
        print(
            f"combo {combo}: "
            + "  ".join(
                f"{kind.value} {vec[kind].quantize(Decimal('0.1'))}" for kind in RESOURCE_ORDER
            )
        )
    return 0


def cmd_search(args) -> int:
    db = load(args.kb)
    thresholds = Thresholds.of(args.t_luts, args.t_dram, args.t_bram, args.t_dsps)
    candidates = parse_candidate_file(args.combos) if args.combos else None
    result = search(
        db,
        args.n,
        thresholds,
        top_k=args.top,
        candidates=candidates,
        opts=_estimate_options(args),
    )
    if args.histogram:
        print("bin_low,bin_high,count")
        for lo, hi, count in result.histogram(ResourceKind(args.histogram), bins=args.bins):
            print(f"{lo},{hi},{count}")
        if args.out:
            _emit(result.to_dict(), args.out)
        return 0
    doc = result.to_dict()
    doc["runtime_seconds"] = round(result.runtime_seconds, 3)
    _emit(doc, args.out)
    return 0


# --- train / quantize / eval / infer ---------------------------------------------


def _train_config(args) -> TrainConfig:
    qat = getattr(args, "qat", None)
    return TrainConfig(
        epochs=args.epochs,
        patience=args.patience,
        batch_size=args.batch_size,
        lr=args.lr,
        seed=args.seed,
        qat=BitwidthCombination.parse(qat) if qat else None,
    )


def cmd_train(args) -> int:
    dataset = _load_windowed(args, args.n)
    config = ModelConfig(seq_len=args.n, input_dim=dataset.X.shape[2], d_model=args.d_model)
    model = init(config, args.seed)
    cfg = _train_config(args)
    if cfg.qat is not None:
        trained, report, ranges = train_qat(model, dataset, cfg)
    else:
        trained, report = train(model, dataset, cfg)
        ranges = None
    save_model(trained, args.out)
    if args.report:
        doc = report.to_dict()
        if ranges is not None:
            doc["qat_ranges"] = {k: list(v) for k, v in ranges.items()}
        _emit(doc, args.report)
    print(
        f"trained {args.epochs}-epoch run: best epoch {report.best_epoch}, "
        f"best val loss {report.best_val_loss:.6g} -> {args.out}",
        file=sys.stderr,
    )
    return 0


def cmd_quantize(args) -> int:
    model = load_model(args.model)
    if not isinstance(model, FloatModel):
        raise ValueError("quantize expects a float model file")
    combo = BitwidthCombination.parse(args.combo)
    if args.ranges:
        qm = quantize_model(model, combo, ranges=_load_ranges(args.ranges))
    else:
        if not args.data:
            raise ValueError("provide --data for calibration or --ranges from a QAT report")
        dataset = _load_windowed(args, model.config.seq_len)
        qm = quantize_model(model, combo, calibration_data=dataset.train_X)
    save_model(qm, args.out)
    print(f"quantized at {combo} -> {args.out}", file=sys.stderr)
    return 0


def _load_ranges(path: str) -> dict[str, tuple[float, float]]:
    """The ``qat_ranges`` of a ``train --qat --report`` file: every junction's
    finite (min, max), each field checked where it is read."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as e:  # also undecodable bytes
        raise ValueError(f"{path}: not a JSON file ({e})") from e
    try:
        found = _get(_expect(doc, dict, "top level"), "qat_ranges", dict, "qat_ranges")
        ranges = {}
        for junction in JUNCTION_COMPONENT:
            where = f"qat_ranges.{junction}"
            pair = _get(found, junction, list, where)
            if len(pair) != 2:
                raise ValueError(f"{where}: expected [min, max], got {len(pair)} values")
            lo, hi = (_expect(v, (int, float), where) for v in pair)
            try:
                finite = math.isfinite(lo) and math.isfinite(hi)
            except OverflowError:  # an integer beyond the float range
                finite = False
            if not (finite and lo <= hi):
                raise ValueError(f"{where}: expected finite numbers min <= max, got {pair}")
            ranges[junction] = (float(lo), float(hi))
        extra = sorted(set(found) - set(JUNCTION_COMPONENT))
        if extra:
            raise ValueError(f"qat_ranges.{extra[0]}: unknown junction")
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    return ranges


def _require_test_windows(args, dataset) -> None:
    """An RMSE needs test windows: refuse an empty test split before any work on it."""
    if not len(dataset.test_X):
        raise ValueError(f"--test-fraction {args.test_fraction} leaves no test windows")


def _predict(model, X: np.ndarray) -> np.ndarray:
    if isinstance(model, FloatModel):
        return Dataflow(model).predict(X)[:, 0]
    return forward_integer(model, model.quantize_input(X))[:, 0]


def cmd_eval(args) -> int:
    from .data import rmse

    model = load_model(args.model)
    dataset = _load_windowed(args, model.config.seq_len)
    _require_test_windows(args, dataset)
    pred = _predict(model, dataset.test_X)
    value = rmse(pred, dataset.test_y, dataset)
    _emit({"rmse": value, "pairs": len(dataset.test_X)}, None)
    return 0


def cmd_infer(args) -> int:
    from .data import inverse_transform

    model = load_model(args.model)
    dataset = _load_windowed(args, model.config.seq_len)
    X = dataset.X if args.split == "all" else dataset.test_X
    pred = _predict(model, X)
    _emit({"predictions": list(np.round(inverse_transform(dataset, pred), 6))}, args.out)
    return 0


# --- pipeline --------------------------------------------------------------------


def cmd_pipeline(args) -> int:
    from .data import rmse

    if args.top < 1:
        raise ValueError("--top must be >= 1")
    stage = "search"
    try:
        db = load(args.kb)
        thresholds = Thresholds.of(args.t_luts, args.t_dram, args.t_bram, args.t_dsps)
        result = search(db, args.n, thresholds, top_k=args.top)

        stage = "dataset"
        dataset = _load_windowed(args, args.n)
        _require_test_windows(args, dataset)
        config = ModelConfig(seq_len=args.n, input_dim=dataset.X.shape[2], d_model=args.d_model)

        run_dir = Path(args.out_dir) if args.out_dir else _default_run_dir(args)
        run_dir.mkdir(parents=True, exist_ok=True)

        stage = "float-baseline"
        cfg = _train_config(args)
        # independent seeded trainings that take turns step by step; each
        # owns its model, RNG and statistics and only reads the dataset
        jobs = {
            f"candidate-{rank}": _candidate_steps(
                init(config, args.seed), dataset, dataclasses.replace(cfg, qat=cand.combo)
            )
            for rank, cand in enumerate(result.selected)
        }
        jobs["float-baseline"] = training_steps(init(config, args.seed), dataset, cfg)
        results, failure = _interleave(jobs, _training_workers(len(jobs)))
        if failure is not None:
            stage, error = failure
            raise error

        # collected in a fixed order, so every file and RMSE is the same
        # however the steps were scheduled
        stage = "float-baseline"
        float_model = results[stage][0]
        save_model(float_model, run_dir / "float_model.json")
        float_pred = _predict(float_model, dataset.test_X)
        float_rmse = rmse(float_pred, dataset.test_y, dataset)

        entries = []
        for rank, cand in enumerate(result.selected):
            stage = f"candidate-{rank}"
            qm, qat_report = results[stage]
            model_path = run_dir / f"candidate_{rank}.json"
            save_model(qm, model_path)
            pred = _predict(qm, dataset.test_X)
            value = rmse(pred, dataset.test_y, dataset)
            entries.append(
                {
                    "combo": list(cand.combo.bits),
                    "score": cand.score,
                    "estimate": cand.estimate.to_dict(),
                    "rmse": value,
                    "best_val_loss": qat_report.best_val_loss,
                    "model_file": model_path.name,
                }
            )

        stage = "report"
        report = {
            "search": result.to_dict(),
            "float_rmse": float_rmse,
            "candidates": sorted(entries, key=lambda e: e["rmse"]),
        }
        _emit(report, run_dir / "report.json")
        manifest = {
            "created": datetime.now(timezone.utc).isoformat(),
            "inputs": {
                "kb": str(args.kb),
                "data": str(args.data),
                "n": args.n,
                "thresholds": [str(args.t_luts), str(args.t_dram), str(args.t_bram), str(args.t_dsps)],
                "top": args.top,
                "epochs": args.epochs,
                "seed": args.seed,
            },
            "versions": {"artifact": __version__, "kb_schema": SCHEMA_VERSION},
            "outputs": sorted(p.name for p in run_dir.iterdir()),
        }
        _emit(manifest, run_dir / "manifest.json")
        print(json.dumps({"run_dir": str(run_dir), "candidates": len(entries)}))
        return 0
    except DATA_ERRORS as e:
        raise ValueError(f"pipeline stage {stage!r} failed: {e}") from e


def _candidate_steps(model: FloatModel, dataset, cfg: TrainConfig):
    """QAT at ``cfg.qat`` a step at a time, then quantization with the
    frozen ranges; returns (quantized model, report)."""
    trained, report, ranges = yield from training_steps(model, dataset, cfg)
    return quantize_model(trained, cfg.qat, ranges=ranges), report


def _interleave(jobs: dict, workers: int) -> tuple[dict, tuple | None]:
    """Run every job's generator to its end, a step at a time.

    ``workers`` threads, the calling one among them, take (name, generator)
    pairs from one FIFO queue, advance the pair by one step and put it back,
    so each job keeps moving and no CPU idles while a job is left. The first
    failure stops new steps from being handed out; once every thread has
    finished its step, the unfinished generators are closed. Returns each
    finished job's return value by name, and the first failure as (name,
    exception) or None.
    """
    queue = collections.deque(jobs.items())
    results, failures = {}, []
    lock = threading.Lock()
    stop = threading.Event()

    def work() -> None:
        while True:
            with lock:
                if stop.is_set() or not queue:
                    return
                name, steps = queue.popleft()
            try:
                next(steps)
            except StopIteration as done:
                results[name] = done.value
                continue
            except BaseException as e:  # raised again in the calling thread
                with lock:
                    failures.append((name, e))
                    stop.set()
                return
            with lock:
                queue.append((name, steps))

    # the calling thread is one of the workers: its malloc arena already
    # holds the process's heap, and each further thread adds an arena
    threads = [threading.Thread(target=work, name=f"training-{i}") for i in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        work()
        for thread in threads:
            thread.join()
    finally:
        stop.set()  # after an interrupt here, the running steps finish
        for thread in threads:
            if thread.is_alive():
                thread.join()
        for steps in jobs.values():
            steps.close()
    return results, (failures[0] if failures else None)


def _training_workers(jobs: int) -> int:
    """Training threads: one per CPU this process may run on, at most one per job."""
    return max(1, min(training.cpus(), jobs))


def _default_run_dir(args) -> Path:
    digest = hashlib.sha256(
        json.dumps(
            {"kb": str(args.kb), "data": str(args.data), "n": args.n, "seed": args.seed},
            sort_keys=True,
        ).encode()
    ).hexdigest()[:8]
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    return Path("runs") / f"{stamp}-{digest}"


# --- parser ----------------------------------------------------------------------


def build_parser() -> _CliArgumentParser:
    parser = _CliArgumentParser(
        prog="mixprec",
        description="Resource-aware mixed-precision quantization workflow",
    )
    parser.add_argument("--version", action="version",
                        version=f"mixprec {__version__} (kb schema {SCHEMA_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    def json_flag(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def data_flags(p, required=True, help=None):
        p.add_argument("--data", required=required, help=help)
        p.add_argument("--target", help="target column (default: last column)")
        p.add_argument("--timestamp", help="timestamp column for gap segmentation")
        p.add_argument("--test-fraction", type=float, default=0.1)

    def threshold_flags(p):
        for kind in RESOURCE_ORDER:
            p.add_argument(f"--t-{kind.value}", required=True)

    kb = sub.add_parser("kb", help="knowledge database operations")
    kb_sub = kb.add_subparsers(dest="kb_command", required=True)
    p = kb_sub.add_parser("build", help="aggregate synthesis reports into a database")
    p.add_argument("--reports", required=True, help="directory of report .csv files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kb_build)
    p = kb_sub.add_parser("validate", help="check a database file")
    p.add_argument("file")
    json_flag(p)
    p.set_defaults(func=cmd_kb_validate)
    p = kb_sub.add_parser("show", help="print database entries")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--component")
    json_flag(p)
    p.set_defaults(func=cmd_kb_show)

    p = sub.add_parser("estimate", help="estimate utilization of one combination")
    p.add_argument("--kb", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--combo", required=True, help="ten comma-separated bitwidths")
    p.add_argument("--overhead", action="store_true", help="include overhead components")
    json_flag(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("search", help="threshold + score search over combinations")
    p.add_argument("--kb", required=True)
    p.add_argument("--n", type=int, required=True)
    threshold_flags(p)
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--combos", help="file with a candidate subset, one combo per line")
    p.add_argument("--overhead", action="store_true")
    p.add_argument("--out", help="write the result JSON here instead of stdout")
    p.add_argument("--histogram", choices=[k.value for k in RESOURCE_ORDER],
                   help="emit a CSV histogram of the filtered set for this resource")
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--json", action="store_true", help="ignored; kept for scripts that pass it")
    p.set_defaults(func=cmd_search)

    def training_flags(p):
        data_flags(p)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--d-model", type=int, default=64)
        p.add_argument("--epochs", type=int, default=100)
        p.add_argument("--patience", type=int, default=10)
        p.add_argument("--batch-size", type=int, default=256)
        p.add_argument("--lr", type=float, default=0.001)
        p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("train", help="train a forecasting model")
    training_flags(p)
    p.add_argument("--qat", help="bitwidth combination for quantization-aware training")
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write the per-epoch training report here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("quantize", help="quantize a trained float model")
    p.add_argument("--model", required=True)
    p.add_argument("--combo", required=True)
    data_flags(p, required=False, help="CSV for post-training calibration")
    p.add_argument("--ranges", help="training report with qat_ranges for QAT calibration")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("eval", help="RMSE of a model on a dataset's test split")
    p.add_argument("--model", required=True)
    data_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="single-step predictions over a dataset")
    p.add_argument("--model", required=True)
    data_flags(p)
    p.add_argument("--split", choices=["all", "test"], default="test")
    p.add_argument("--out")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("pipeline", help="search, then train/quantize/evaluate the top candidates")
    p.add_argument("--kb", required=True)
    training_flags(p)
    threshold_flags(p)
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--out-dir", help="run directory (default: runs/<timestamp>-<hash>)")
    p.set_defaults(func=cmd_pipeline)

    return parser


@functools.cache
def _parser() -> _CliArgumentParser:
    """The process's one parser: ``parse_args`` reads it and returns a fresh
    namespace, so calls share no state through it."""
    return build_parser()


def run(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 for --help/--version, our error() raises 1
        return int(e.code or 0)
    # eval-mode passes free and allocate the same arrays batch after batch
    training._keep_heap()
    try:
        return args.func(args)
    except DATA_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return DATA_ERROR
    except AssertionError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return INTERNAL_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

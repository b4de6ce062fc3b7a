"""Span recorder for the traced benchmark run.

The recorder wraps mixprec's public functions from outside the package: each
wrapper replaces the function in every mixprec module namespace (and class)
that holds it, which is where callers look it up, so nothing under ``src/`` is
edited. A span records name, start, end, parent span and request id; spans
stay in memory and are written out when the run ends.

Everything runs on one thread, so spans nest strictly and no layer waits on
another: there is no wait time to report.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path


def _windows(x) -> int:
    data = getattr(x, "data", x)  # QuantizedTensor or ndarray
    return int(data.shape[0]) if data.ndim == 3 else 1


def _macs_per_window(config) -> int:
    """Multiply-accumulates of one integer forward pass, from the model config."""
    n, m, d, f, o = config.seq_len, config.input_dim, config.d_model, config.ffn_dim, config.output_dim
    return n * m * d + 4 * n * d * d + 2 * n * n * d + 2 * n * d * f + d * o


# (module, attribute path) of every traced function, with an optional
# function (args, result) -> extra span attributes.
TRACED = {
    ("cli", "run"): None,
    ("knowledge", "load"): None,
    ("search", "enumerate_all"): None,
    ("search", "search"): None,
    ("search", "filter_candidates"): lambda a, r: {"candidates": len(a[2]), "survivors": len(r)},
    ("search", "select_top"): lambda a, r: {"used": len(r.selected)},
    ("search", "histogram"): lambda a, r: {"used": len(a[0])},
    ("search", "parse_candidate_file"): None,
    ("estimator", "estimate"): None,
    ("data", "ingest"): None,
    ("data", "window"): None,
    ("model", "load_model"): None,
    ("model", "save_model"): None,
    ("model", "forward_float"): lambda a, r: {"windows": _windows(a[1])},
    ("training", "train"): lambda a, r: {"epochs": r[1].epochs_run},
    ("training", "train_qat"): lambda a, r: {"epochs": r[1].epochs_run},
    ("training", "backward"): None,
    ("quantized", "QatContext.forward_train"): None,
    ("quantized", "QatContext.backward"): None,
    ("quantized", "QatContext.forward_eval"): None,
    ("quant", "fake_quantize"): None,
    ("quant", "requantize"): None,
    ("quant", "make_requantizer"): None,
    ("quantized", "quantize_model"): None,
    ("quantized", "calibrate"): None,
    ("quantized", "forward_integer"): lambda a, r: {
        "windows": _windows(a[1]),
        "macs": _windows(a[1]) * _macs_per_window(a[0].config),
    },
    ("quantized", "integer_softmax_fixed"): None,
}

SPAN_NAMES = [f"{module}.{path}" for module, path in TRACED]


class Tracer:
    """Collects spans from wrapped mixprec functions while installed."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, request id, error, attrs)
        self.spans: list[tuple] = []
        self.request: int | None = None  # index of the request being sent
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        for (module_name, path), attrs_of in TRACED.items():
            self._plan_patch(f"mixprec.{module_name}", path, attrs_of)

    def _plan_patch(self, module_name: str, path: str, attrs_of) -> None:
        module = importlib.import_module(module_name)
        name = f"{module_name.removeprefix('mixprec.')}.{path}"
        if "." in path:  # a method: callers find it on the class
            cls_name, meth = path.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[meth]
            self._patches.append((owner, meth, original, self._wrap(name, original, attrs_of)))
            return
        original = getattr(module, path)
        wrapper = self._wrap(name, original, attrs_of)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "mixprec" or mod_name.startswith("mixprec."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original, wrapper))

    def _wrap(self, name: str, fn, attrs_of):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, self.request, True, None)
                raise
            finally:
                stack.pop()
            end = clock()
            attrs = attrs_of(args, result) if attrs_of else None
            spans[index] = (name, start, end, parent, self.request, False, attrs)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "request", "error", "attrs")
        doc = [dict(zip(keys, span)) for span in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans: list[tuple], cold_enumerate_s: float) -> dict[str, float]:
    """Per-layer metrics from a run's spans.

    ``<fn>.self_ms``, ``.calls`` and ``.windows`` are per request that calls
    the function; ``.errors`` counts raised calls in the whole run.
    """
    own = self_times(spans)
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    errors: dict = defaultdict(int)
    windows: dict = defaultdict(int)
    callers: dict = defaultdict(set)
    inclusive: dict = defaultdict(float)
    per_call: dict = defaultdict(list)
    for span, own_s in zip(spans, own):
        name, start, end, _, request, error, attrs = span
        self_s[name] += own_s
        calls[name] += 1
        errors[name] += error
        callers[name].add(request)
        inclusive[name] += end - start
        if attrs:
            windows[name] += attrs.get("windows", 0)
            per_call[name].append((end - start, attrs))

    def per_request(table, name, scale=1.0):
        return table[name] * scale / max(len(callers[name]), 1)

    out: dict[str, float] = {}
    for name in (
        "cli.run", "knowledge.load", "search.filter_candidates", "search.select_top",
        "search.histogram", "search.parse_candidate_file", "estimator.estimate",
        "data.ingest", "data.window", "model.load_model", "model.save_model",
        "model.forward_float", "training.backward", "training.train", "training.train_qat",
        "quantized.QatContext.forward_train", "quantized.QatContext.backward",
        "quantized.QatContext.forward_eval", "quant.fake_quantize", "quantized.quantize_model",
        "quantized.calibrate", "quantized.forward_integer", "quantized.integer_softmax_fixed",
        "quant.requantize",
    ):
        out[f"{name}.self_ms"] = per_request(self_s, name, 1e3)
    for name in ("quant.fake_quantize", "quant.requantize", "quant.make_requantizer"):
        out[f"{name}.calls"] = per_request(calls, name)
    for name in ("model.forward_float", "quantized.forward_integer"):
        out[f"{name}.windows"] = per_request(windows, name)

    out["search.enumerate_all.cold_ms"] = cold_enumerate_s * 1e3
    filt = [a for _, a in per_call["search.filter_candidates"]]
    out["search.filter_candidates.candidates"] = _mean([a["candidates"] for a in filt])
    out["search.filter_candidates.survivors"] = _mean([a["survivors"] for a in filt])
    # a histogram request consumes every survivor (its histogram() call comes
    # after select_top()); any other request uses its top-k rows
    used = {}
    for name, _, _, _, request, error, attrs in spans:
        if not error and (name == "search.histogram" or (name == "search.select_top" and request not in used)):
            used[request] = attrs["used"]
    materialized = sum(a["survivors"] for a in filt)
    out["search.materialized_per_used"] = materialized / max(sum(used.values()), 1)

    integer = per_call["quantized.forward_integer"]
    int_s = sum(d for d, _ in integer)
    int_windows = sum(a["windows"] for _, a in integer)
    out["quantized.forward_integer.us_per_window"] = int_s * 1e6 / max(int_windows, 1)
    out["quantized.forward_integer.gmac_per_s"] = (
        sum(a["macs"] for _, a in integer) / 1e9 / int_s if int_s else 0.0
    )
    full = [d for d, a in integer if a["windows"] >= 1988]
    out["quantized.forward_integer.all_windows_ms"] = _median(full) * 1e3
    for name, key in (("training.train", "float"), ("training.train_qat", "qat")):
        epochs = [d / a["epochs"] for d, a in per_call[name] if a["epochs"]]
        out[f"training.{key}_epoch_ms"] = _median(epochs) * 1e3
    for name in SPAN_NAMES:
        out[f"{name}.errors"] = errors[name]
    return out


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0

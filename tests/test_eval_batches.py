"""Eval-mode passes run ``model.EVAL_BATCH`` windows at a time.

Eval windows are independent, so every interpretation of the dataflow must
give the same bits at any batch size as in one batch over all windows; and
calibration, which used to hold every intermediate of the whole calibration
set at once, must stay within a fixed memory bound.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import mixprec.model
from mixprec.components import BitwidthCombination
from mixprec.data import bundled_synthetic_csv, ingest, window
from mixprec.model import Dataflow, ModelConfig, init
from mixprec.quantized import QatContext, calibrate, collect_ranges, forward_fake_quant
from mixprec.training import _FloatContext

COMBO = BitwidthCombination.parse("8,6,8,6,4,8,8,6,8,6")


@pytest.fixture(scope="module")
def dataset():
    return window(ingest(bundled_synthetic_csv(), "target"), 12, 0.1)


@pytest.fixture(scope="module")
def windows(dataset):
    return dataset.X


@pytest.fixture(scope="module")
def model(windows):
    """A d_model=16 model with non-trivial batch-norm statistics."""
    rng = np.random.default_rng(5)
    model = init(ModelConfig(12, windows.shape[2], 16), 5)
    for name, value in model.params.items():
        if name.endswith((".weight", ".bias", ".beta", "running_mean")):
            model.params[name] = value + rng.normal(0, 0.2, size=value.shape)
        elif name.endswith(("gamma", "running_var")):
            model.params[name] = value + rng.uniform(0, 0.5, size=value.shape)
    return model


def interpretations(model, X):
    """Every eval-only pass over X, at the current ``EVAL_BATCH``."""
    ranges = collect_ranges(model, X)
    calib = calibrate(model, COMBO, X)
    qat = QatContext(model.config, COMBO)
    qat.forward_train(model.copy(), X[:64])  # tracks ranges; the copy keeps BN stats
    return {
        "ranges": ranges,
        "float": Dataflow(model).predict(X),
        "float context": _FloatContext().forward_eval(model, X),
        "fake quant": forward_fake_quant(model, COMBO, calib, X),
        "qat": qat.forward_eval(model, X),
    }


@pytest.mark.parametrize("batch", [1, 7, 64, 65, "all"])
def test_batch_size_does_not_change_any_eval_pass(monkeypatch, model, windows, batch):
    """Every eval pass equals the single batch bit for bit, but for one case.

    The output linear is the graph's only 2-D matmul, one matrix-vector
    product over the batch, and BLAS kernels sum the rows in blocks of a few
    at a time with a separate kernel for the tail. A batch size that is not
    a multiple of that block (1, 7 and 65 here; OpenBLAS blocks by 4) moves
    some windows to the other kernel: the float output and its range then
    change in the last places (up to 16 ulp seen). ``EVAL_BATCH`` = 64 keeps
    every window's place in its block, so it changes no bit; the fake-quant
    outputs snap those places away.
    """
    X = windows[:200]
    monkeypatch.setattr(mixprec.model, "EVAL_BATCH", len(X))
    single = interpretations(model, X)
    assert np.array_equal(single["float"], mixprec.model.forward_float(model, X)[0])
    monkeypatch.setattr(mixprec.model, "EVAL_BATCH", len(X) if batch == "all" else batch)
    batched = interpretations(model, X)
    for name in ("float", "float context", "fake quant", "qat"):
        assert batched[name].shape == (len(X), 1), name
    for name in ("fake quant", "qat"):
        assert np.array_equal(batched[name], single[name]), name
    aligned = batch == "all" or batch % 64 == 0
    if aligned:
        assert batched["ranges"] == single["ranges"]
        assert np.array_equal(batched["float"], single["float"])
    else:
        assert {k: v for k, v in batched["ranges"].items() if k != "output"} == {
            k: v for k, v in single["ranges"].items() if k != "output"
        }
        last_places = 64 * np.finfo(np.float64).eps * np.abs(single["float"]).max()
        assert np.allclose(batched["ranges"]["output"], single["ranges"]["output"],
                           rtol=0, atol=last_places)
        assert np.allclose(batched["float"], single["float"], rtol=0, atol=last_places)
    assert np.array_equal(batched["float context"], batched["float"])


def test_single_window_keeps_its_shape(model, windows):
    y = Dataflow(model).predict(windows[0])
    assert y.shape == (1,)
    assert np.array_equal(y, Dataflow(model).predict(windows[:1])[0])


def test_calibration_peak_memory_is_bounded(dataset):
    """d_model=64 over the bundled series' 1,789 training windows: one batch
    peaked near 245 MB, 64-window batches near 9 MB."""
    train_X = dataset.train_X
    assert len(train_X) == 1789
    model = init(ModelConfig(12, train_X.shape[2], 64), 0)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        calibrate(model, BitwidthCombination.uniform(8), train_X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6, f"calibration peaked at {peak / 1e6:.1f} MB"

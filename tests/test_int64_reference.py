"""Differential test: the float64-BLAS integer path against the int64 reference."""

from __future__ import annotations

import int64_reference
import numpy as np
import pytest

import mixprec.model
from mixprec import quantized
from mixprec.components import BitwidthCombination
from mixprec.data import bundled_synthetic_csv, ingest, window
from mixprec.knowledge import bundled_database
from mixprec.model import ModelConfig, init, tensor_shapes
from mixprec.quant import (
    QuantizedTensor,
    QuantParams,
    QuantScheme,
    derive_bias_params,
)
from mixprec.quantized import (
    CalibrationSet,
    JUNCTION_COMPONENT,
    LINEARS,
    UNSIGNED_JUNCTIONS,
    WEIGHT_COMPONENT,
    _PROB_ACC_BITS,
    _assert_accumulator_bound,
    build_quantized,
    forward_fake_quant,
    forward_integer,
    quantize_model,
)
from mixprec.search import Thresholds, search
from mixprec.training import TrainConfig, train

N = 12


def int64_batches(qm, X_q):
    """The int64 reference on the batches of windows ``forward_integer`` runs."""
    b = mixprec.model.EVAL_BATCH
    return np.concatenate([
        int64_reference.forward_integer_int64(qm, QuantizedTensor(X_q.data[i:i + b], X_q.params))
        for i in range(0, len(X_q.data), b)
    ])


# Of the int64 reference's 18 requantizations per batch, in dataflow order,
# these six are the residual addends (two per add), which the library
# requantizes once per grid value when it loads the model.
REFERENCE_ADDENDS = {1, 2, 10, 11, 14, 15}


def run_both(monkeypatch, qm, X_q):
    """Outputs and every requantized accumulator of both paths, in dataflow
    order, batch after batch. The library's 12 per batch are the reference's
    18 less its residual addends."""
    runs = []
    for module, forward in ((quantized, forward_integer), (int64_reference, int64_batches)):
        accumulators = []
        original = module.requantize

        def spy(acc, *args, original=original, accumulators=accumulators):
            accumulators.append(np.array(acc, dtype=np.int64))
            return original(acc, *args)

        monkeypatch.setattr(module, "requantize", spy)
        runs.append((forward(qm, X_q), accumulators))
    (y, accs), (y_ref, accs_ref) = runs
    batches = -(-len(X_q.data) // mixprec.model.EVAL_BATCH)
    assert len(accs_ref) == 18 * batches
    accs_ref = [acc for i, acc in enumerate(accs_ref) if i % 18 not in REFERENCE_ADDENDS]
    assert len(accs) == len(accs_ref) == 12 * batches
    for acc, acc_ref in zip(accs, accs_ref):
        assert np.array_equal(acc, acc_ref)
    assert np.array_equal(y, y_ref)
    return y, accs


@pytest.fixture(scope="module")
def series_model():
    """A one-epoch d_model=64 model on every window of the bundled series."""
    csv = bundled_synthetic_csv()
    target = csv.split("\n", 1)[0].split(",")[-1]
    dataset = window(ingest(csv, target), N, 0.1)
    config = ModelConfig(seq_len=N, input_dim=dataset.X.shape[2], d_model=64)
    model, _ = train(init(config, 0), dataset, TrainConfig(epochs=1, patience=1, seed=0))
    return model, dataset


def top_mixed_combos(count: int) -> list[BitwidthCombination]:
    result = search(bundled_database(), N, Thresholds.of(80, 100, 100, 100), top_k=50)
    mixed = [c.combo for c in result.selected if len(set(c.combo.bits)) > 1]
    return mixed[:count]


COMBOS = [BitwidthCombination.uniform(b) for b in (4, 6, 8)] + top_mixed_combos(5)


@pytest.mark.parametrize("combo", COMBOS, ids=str)
def test_bundled_series_bit_identical(monkeypatch, series_model, combo):
    """Uniform 8 (the widest accumulators) runs every one of the 1,988 windows.

    The int64 reference takes about 1 ms a window, so the other models run
    every 8th window, which still covers every row of the 12-row windows.
    """
    model, dataset = series_model
    qm = quantize_model(model, combo, calibration_data=dataset.train_X)
    X = dataset.X if combo == BitwidthCombination.uniform(8) else dataset.X[::8]
    run_both(monkeypatch, qm, qm.quantize_input(X))


@pytest.mark.parametrize("combo", COMBOS, ids=str)
def test_fake_quant_equals_integer_on_every_window(series_model, combo):
    """The fake-quant forward takes the integer softmax on the snapped
    scores, so it computes the integer path's output exactly. With the float
    softmax, 6 of these 8 models differ on some of the 1,988 windows, by up
    to 3 output LSB."""
    model, dataset = series_model
    qm = quantize_model(model, combo, calibration_data=dataset.train_X)
    calib = CalibrationSet(activations=qm.act_params)
    y_int = forward_integer(qm, qm.quantize_input(dataset.X))
    y_fake = forward_fake_quant(model, combo, calib, dataset.X)
    assert len(y_int) == 1988
    scale = qm.act_params["output"].scale
    off = np.flatnonzero(np.abs(y_fake - y_int).max(axis=1) > 0)
    assert off.size == 0, (
        f"{off.size} windows differ, worst {np.abs(y_fake - y_int).max() / scale:.2f} LSB"
    )


def test_batch_size_does_not_change_the_output(monkeypatch, series_model):
    model, dataset = series_model
    qm = quantize_model(model, top_mixed_combos(1)[0], calibration_data=dataset.train_X)
    X_q = qm.quantize_input(dataset.test_X)
    y = forward_integer(qm, X_q)
    for batch in (1, 7, len(X_q.data)):
        monkeypatch.setattr(mixprec.model, "EVAL_BATCH", batch)
        assert np.array_equal(forward_integer(qm, X_q), y)


def largest_accepted_input_dim(seq_len: int, d_model: int, combo: BitwidthCombination) -> int:
    m = 1
    while True:
        try:
            _assert_accumulator_bound(ModelConfig(seq_len, m + 1, d_model), combo)
        except ValueError:
            return m
        m = m * 2 if m < 1 << 14 else m + 1


def extreme_model(config: ModelConfig, combo: BitwidthCombination):
    """Every operand at a grid extreme, every accumulator at its fan-in's worst case.

    Activation grids put the zero point at q_min, weights sit at q_max with
    their zero point at q_min, biases at their q_max: every zero-point
    corrected operand is +(2**b - 1), so every product and accumulator is
    positive and maximal, and every requantizer (unit scale ratios, plus a
    2**-24 probability grid that lifts the uniform softmax to q_max)
    saturates at q_max, which feeds the next matmul the same extremes.
    """
    def grid(bits: int, signed: bool, scale: float = 1.0) -> QuantParams:
        q_min = -(1 << (bits - 1)) if signed else 0
        return QuantParams(scale, q_min, bits, signed, QuantScheme.ASYMMETRIC)

    act = {
        j: grid(combo[c], j not in UNSIGNED_JUNCTIONS)
        for j, c in JUNCTION_COMPONENT.items()
    }
    act["mha.probs"] = grid(act["mha.probs"].bitwidth, False, 2.0**-_PROB_ACC_BITS)
    shapes = tensor_shapes(config)
    tensors = {}
    for name, comp in WEIGHT_COMPONENT.items():
        p = grid(combo[comp], True)
        tensors[name] = QuantizedTensor(np.full(shapes[name], p.q_max), p)
    for name, (junction, _) in LINEARS.items():
        p = derive_bias_params(act[junction], tensors[f"{name}.weight"].params)
        tensors[f"{name}.bias"] = QuantizedTensor(np.full(shapes[f"{name}.bias"], p.q_max), p)
    d = config.d_model
    bn_folds = {
        f"{prefix}.fold_{ab}": np.full(d, 1.0 if ab == "a" else 0.0)
        for prefix in ("bn_mha", "bn_ffn")
        for ab in "ab"
    }
    return build_quantized(config, combo, tensors, bn_folds, act)


def test_extreme_operands_at_the_largest_accepted_config(monkeypatch):
    combo = BitwidthCombination.uniform(8)
    seq_len, d_model = 3, 4
    m = largest_accepted_input_dim(seq_len, d_model, combo)
    with pytest.raises(ValueError, match="accumulator"):
        _assert_accumulator_bound(ModelConfig(seq_len, m + 1, d_model), combo)
    qm = extreme_model(ModelConfig(seq_len, m, d_model), combo)
    in_p = qm.act_params["input"]
    X_q = QuantizedTensor(np.full((2, seq_len, m), in_p.q_max), in_p)

    y, accumulators = run_both(monkeypatch, qm, X_q)
    # the input projection's accumulator is the largest the bound admits:
    # (2**8 - 1)**2 per product plus the bias, within 1% of 2**31
    worst = m * 255 * 255 + qm.tensors["l_input.bias"].params.q_max
    assert 0.99 * 2**31 < worst < 2**31
    assert np.all(accumulators[0] == worst)
    out_p = qm.act_params["output"]
    assert np.all(y == out_p.scale * (out_p.q_max - out_p.zero_point))

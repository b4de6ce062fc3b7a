"""Differential test: the shared dataflow against the hand-written float pass.

``forward_float`` and calibration interpret ``model.Dataflow``, and
``training.backward`` is the one straight-through backward for every
interpretation; with no masks recorded they must reproduce the float
forward and backward kept in ``float_reference.py`` bit for bit.
"""

from __future__ import annotations

import float_reference
import numpy as np
import pytest

from mixprec.model import ModelConfig, forward_float, init
from mixprec.quantized import collect_ranges
from mixprec.training import backward

CFG = ModelConfig(seq_len=6, input_dim=3, d_model=8)

# Float-cache tensor that held each junction's value before calibration
# recorded ranges through the dataflow's hooks.
JUNCTION_CACHE_KEY = {
    "input": "X",
    "l_input.out": "H",
    "add_pe.out": "Xe",
    "mha.q": "Q",
    "mha.k": "K",
    "mha.v": "V",
    "mha.scores": "S",
    "mha.probs": "P",
    "mha.context": "ctx",
    "mha.out": "mha_out",
    "add_mha.out": "R1",
    "bn_mha.out": "A",
    "ffn.hidden": "F1",
    "ffn.out": "F2",
    "add_ffn.out": "R2",
    "bn_ffn.out": "F",
    "gap.out": "g",
    "output": "Y",
}


def trained_looking_model(seed: int):
    """Perturbed weights and non-identity batch-norm statistics."""
    rng = np.random.default_rng(seed)
    model = init(CFG, seed)
    for name, value in model.params.items():
        if name != "pos_encoding":
            model.params[name] = value + rng.normal(0, 0.3, size=value.shape)
    for prefix in ("bn_mha", "bn_ffn"):
        model.params[f"{prefix}.running_var"] = rng.uniform(0.5, 2.0, size=CFG.d_model)
    return model


def assert_same(expected, actual, where: str) -> None:
    if isinstance(expected, dict):
        assert set(expected) <= set(actual), where
        for key, value in expected.items():
            assert_same(value, actual[key], f"{where}[{key!r}]")
    elif isinstance(expected, np.ndarray):
        assert np.array_equal(expected, actual), where
    else:
        assert expected == actual, where


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("batch", [None, 7])
def test_forward_cache_and_gradients_are_bit_identical(mode, batch):
    rng = np.random.default_rng(5)
    shape = (CFG.seq_len, CFG.input_dim) if batch is None else (batch, CFG.seq_len, CFG.input_dim)
    X = rng.normal(size=shape)
    ref_model, new_model = trained_looking_model(1), trained_looking_model(1)

    y_ref, cache_ref = float_reference.forward_float(ref_model, X, mode)
    y_new, cache_new = forward_float(new_model, X, mode)
    assert np.array_equal(y_ref, y_new)
    assert_same(cache_ref, cache_new, "cache")
    # train mode moves the batch-norm running statistics in place
    assert_same(ref_model.params, new_model.params, "params")

    dY = rng.normal(size=y_ref.shape)
    grads_ref = float_reference.backward(ref_model, cache_ref, dY)
    grads_new = backward(new_model, cache_new, dY)
    assert set(grads_ref) == set(grads_new)
    assert_same(grads_ref, grads_new, "grads")


@pytest.mark.parametrize("batch", [None, 9])
def test_collect_ranges_matches_the_reference_cache(batch):
    rng = np.random.default_rng(8)
    shape = (CFG.seq_len, CFG.input_dim) if batch is None else (batch, CFG.seq_len, CFG.input_dim)
    X = rng.normal(size=shape)
    model = trained_looking_model(2)
    _, cache = float_reference.forward_float(model.copy(), X, "eval")
    expected = {
        junction: (float(cache[key].min()), float(cache[key].max()))
        for junction, key in JUNCTION_CACHE_KEY.items()
    }
    assert collect_ranges(model, X) == expected

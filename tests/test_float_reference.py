"""Differential test: the shared dataflow against the hand-written float pass.

``forward_float`` and calibration interpret ``model.Dataflow``, and
``training.backward`` is the one straight-through backward for every
interpretation; with no masks recorded they must reproduce the float
forward and backward kept in ``float_reference.py`` bit for bit. The one
exception is the weight gradients over (batch, seq_len, features) operands:
``training.backward`` sums their N = batch * seq_len rows in one BLAS
matmul, the reference with ``einsum``. Each sum of N products is within
gamma_N * sum|x||d| of the exact value (gamma_N = N*u / (1 - N*u), u the
unit roundoff 2^-53), so the two agree to within twice that.
"""

from __future__ import annotations

import float_reference
import numpy as np
import pytest

from mixprec.model import BATCH_NORMS, SAVED_READS, Dataflow, ModelConfig, init
from mixprec.quantized import collect_ranges
from mixprec.training import backward

CFG = ModelConfig(seq_len=6, input_dim=3, d_model=8)
# the pipeline's shape on the bundled series: n 12, three columns, d_model 64
PIPELINE_CFG = ModelConfig(seq_len=12, input_dim=3, d_model=64)

UNIT_ROUNDOFF = 2.0**-53
# linears whose input is (batch, seq_len, features); l_output's is (batch, d_model)
SUMMED_WEIGHT_GRADS = ("l_input", "mha.wq", "mha.wk", "mha.wv", "mha.wo", "ffn.w1", "ffn.w2")

# The reference cache's tensor for each junction's value; the library's
# cache keeps the ``SAVED_READS`` junctions under their own names.
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


class JunctionRecorder(Dataflow):
    """The float dataflow, keeping every junction's value and the ReLU's
    input, which the library's cache does not hold."""

    def __init__(self, model):
        super().__init__(model)
        self.values: dict[str, np.ndarray] = {}

    def act(self, junction: str, value: np.ndarray) -> np.ndarray:
        self.values[junction] = value
        return value

    def linear(self, node, x: np.ndarray) -> np.ndarray:
        out = super().linear(node, x)
        if node.op == "linear_relu":
            self.values["F1_pre"] = out.copy()  # the float ReLU overwrites it
        return out


def trained_looking_model(seed: int, cfg: ModelConfig = CFG):
    """Perturbed weights and non-identity batch-norm statistics."""
    rng = np.random.default_rng(seed)
    model = init(cfg, seed)
    for name, value in model.params.items():
        if name != "pos_encoding":
            model.params[name] = value + rng.normal(0, 0.3, size=value.shape)
    for prefix in ("bn_mha", "bn_ffn"):
        model.params[f"{prefix}.running_var"] = rng.uniform(0.5, 2.0, size=cfg.d_model)
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


def assert_summed_weight_grads_within_bound(grads_ref, grads_new, operands) -> float:
    """Check each summed weight gradient against 2 * gamma_N * einsum(|x|, |d|);
    returns the worst |new - ref| as a multiple of u * sum|x||d|."""
    worst = 0.0
    for name in SUMMED_WEIGHT_GRADS:
        x, d = operands[name]
        rows = x.shape[0] * x.shape[1]
        gamma = rows * UNIT_ROUNDOFF / (1 - rows * UNIT_ROUNDOFF)
        magnitude = np.einsum("bni,bnj->ij", np.abs(x), np.abs(d))
        diff = np.abs(grads_new[f"{name}.weight"] - grads_ref[f"{name}.weight"])
        assert np.all(diff <= 2 * gamma * magnitude), name
        nonzero = magnitude > 0
        worst = max(worst, float((diff[nonzero] / (UNIT_ROUNDOFF * magnitude[nonzero])).max()))
    return worst


def compare_with_reference(cfg: ModelConfig, batch: int | None, mode: str) -> float:
    """Forward, cache and every gradient bit for bit, except the summed weight
    gradients, held to their bound; returns their worst difference in units
    of u * sum|x||d|."""
    rng = np.random.default_rng(5)
    shape = (cfg.seq_len, cfg.input_dim) if batch is None else (batch, cfg.seq_len, cfg.input_dim)
    X = rng.normal(size=shape)
    ref_model, new_model = trained_looking_model(1, cfg), trained_looking_model(1, cfg)

    y_ref, cache_ref = float_reference.forward_float(ref_model, X, mode)
    recorder = JunctionRecorder(new_model)
    y_new, cache_new = recorder.run(X, mode)
    assert np.array_equal(y_ref, y_new)
    # every reference entry is checked: each junction's value and the
    # ReLU's input as the forward computed them, the batch-norm entries and
    # the mode; and the library's cache, which holds all that the backward
    # reads, against the reference through JUNCTION_CACHE_KEY
    recorded = {key: recorder.values[junction] for junction, key in JUNCTION_CACHE_KEY.items()}
    recorded["F1_pre"] = recorder.values["F1_pre"]
    assert set(cache_ref) == set(recorded) | set(BATCH_NORMS) | {"mode"}
    assert cache_ref["mode"] == mode
    assert_same({k: cache_ref[k] for k in recorded}, recorded, "junctions")
    assert_same({k: cache_ref[k] for k in BATCH_NORMS}, cache_new, "batch norms")
    cached = {j: cache_new[j] for j in JUNCTION_CACHE_KEY if j in cache_new}
    assert set(cached) == set(SAVED_READS)
    assert_same({j: cache_ref[JUNCTION_CACHE_KEY[j]] for j in cached}, cached, "cache")
    assert np.array_equal(cache_new["sign:ffn.hidden"], cache_ref["F1_pre"] > 0)
    assert np.array_equal(cache_new["float:mha.probs"], cache_ref["P"])
    # train mode moves the batch-norm running statistics in place
    assert_same(ref_model.params, new_model.params, "params")

    dY = rng.normal(size=y_ref.shape)
    operands: dict = {}
    grads_ref = float_reference.backward(ref_model, cache_ref, dY, operands)
    grads_new = backward(new_model, cache_new, dY)
    assert set(grads_ref) == set(grads_new)
    assert set(operands) == set(SUMMED_WEIGHT_GRADS)
    summed = {f"{name}.weight" for name in SUMMED_WEIGHT_GRADS}
    assert_same(
        {k: v for k, v in grads_ref.items() if k not in summed},
        {k: v for k, v in grads_new.items() if k not in summed},
        "grads",
    )
    return assert_summed_weight_grads_within_bound(grads_ref, grads_new, operands)


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("batch", [None, 7])
def test_forward_cache_and_gradients_are_bit_identical(mode, batch):
    """Bit for bit, apart from the bounded summed weight gradients."""
    compare_with_reference(CFG, batch, mode)


def test_weight_gradients_at_the_pipeline_shape():
    # N = 256 * 12 = 3,072 rows per summed weight gradient
    compare_with_reference(PIPELINE_CFG, 256, "train")


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

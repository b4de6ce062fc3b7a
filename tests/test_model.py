"""Float model: initialization, forward reference oracle, folding, file IO."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixprec.model import (
    BN_EPS,
    FloatModel,
    ModelConfig,
    fold_bn,
    forward_float,
    init,
    load_model,
    save_model,
    sinusoidal_encoding,
    softmax,
    tensor_shapes,
)


def reference_forward(model: FloatModel, X: np.ndarray) -> np.ndarray:
    """Independent straightforward re-implementation (single sample, eval mode,
    explicit loops where practical)."""
    p = model.params
    cfg = model.config
    n, d = cfg.seq_len, cfg.d_model

    H = np.zeros((n, d))
    for t in range(n):
        H[t] = X[t] @ p["l_input.weight"] + p["l_input.bias"]
    Xe = H + p["pos_encoding"]

    Q = Xe @ p["mha.wq.weight"] + p["mha.wq.bias"]
    K = Xe @ p["mha.wk.weight"] + p["mha.wk.bias"]
    V = Xe @ p["mha.wv.weight"] + p["mha.wv.bias"]
    attn = np.zeros((n, d))
    for i in range(n):
        scores = np.array([Q[i] @ K[j] for j in range(n)]) / math.sqrt(d)
        scores = scores - scores.max()
        weights = np.exp(scores)
        weights = weights / weights.sum()
        attn[i] = sum(weights[j] * V[j] for j in range(n))
    mha_out = attn @ p["mha.wo.weight"] + p["mha.wo.bias"]

    R1 = Xe + mha_out
    a1 = p["bn_mha.gamma"] / np.sqrt(p["bn_mha.running_var"] + BN_EPS)
    A = a1 * (R1 - p["bn_mha.running_mean"]) + p["bn_mha.beta"]

    F1 = np.maximum(A @ p["ffn.w1.weight"] + p["ffn.w1.bias"], 0)
    F2 = F1 @ p["ffn.w2.weight"] + p["ffn.w2.bias"]
    R2 = A + F2
    a2 = p["bn_ffn.gamma"] / np.sqrt(p["bn_ffn.running_var"] + BN_EPS)
    F = a2 * (R2 - p["bn_ffn.running_mean"]) + p["bn_ffn.beta"]

    g = F.mean(axis=0)
    return g @ p["l_output.weight"] + p["l_output.bias"]


def written_out_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The parameter list as it was spelled out before ``tensor_shapes``
    derived it from ``NODES``, frozen here."""
    n, m, d, f, o = (
        config.seq_len, config.input_dim, config.d_model, config.ffn_dim, config.output_dim,
    )
    return {
        "l_input.weight": (m, d), "l_input.bias": (d,),
        "pos_encoding": (n, d),
        "mha.wq.weight": (d, d), "mha.wq.bias": (d,),
        "mha.wk.weight": (d, d), "mha.wk.bias": (d,),
        "mha.wv.weight": (d, d), "mha.wv.bias": (d,),
        "mha.wo.weight": (d, d), "mha.wo.bias": (d,),
        "bn_mha.gamma": (d,), "bn_mha.beta": (d,),
        "bn_mha.running_mean": (d,), "bn_mha.running_var": (d,),
        "ffn.w1.weight": (d, f), "ffn.w1.bias": (f,),
        "ffn.w2.weight": (f, d), "ffn.w2.bias": (d,),
        "bn_ffn.gamma": (d,), "bn_ffn.beta": (d,),
        "bn_ffn.running_mean": (d,), "bn_ffn.running_var": (d,),
        "l_output.weight": (d, o), "l_output.bias": (o,),
    }


# (seq_len, input_dim, d_model, output_dim), seed, and the SHA-256 of every
# initialized tensor's name and bytes in parameter-list order, as ``init``
# drew them when the parameter list was written out by hand
INIT_DIGESTS = [
    ((12, 3, 64, 1), 7, "0ba0f4a8c2aab55bc8697544eaf7e2ed5db600be13da3d707a5cd6081260e24c"),
    ((6, 1, 8, 1), 0, "76f5c3b461f58388cfa49ce5c4b72a510d7356464c0b4e05191f00b228bd501f"),
    ((24, 5, 16, 2), 42, "ad234cd3d4c0dffab85bcd741a8f6e8cf33887a7a7c420bc1892a11f25d7d305"),
]


class TestInit:
    @pytest.mark.parametrize("dims", [dims for dims, _, _ in INIT_DIGESTS])
    def test_parameter_list_walks_the_graph_in_the_written_out_order(self, dims):
        cfg = ModelConfig(*dims[:3], output_dim=dims[3])
        assert list(tensor_shapes(cfg).items()) == list(written_out_shapes(cfg).items())

    @pytest.mark.parametrize("dims, seed, digest", INIT_DIGESTS)
    def test_init_draws_the_same_bits(self, dims, seed, digest):
        model = init(ModelConfig(*dims[:3], output_dim=dims[3]), seed)
        h = hashlib.sha256()
        for name, tensor in model.params.items():
            h.update(name.encode())
            h.update(tensor.tobytes())
        assert h.hexdigest() == digest

    def test_deterministic(self):
        cfg = ModelConfig(seq_len=12, input_dim=5)
        a, b = init(cfg, rng_seed=42), init(cfg, rng_seed=42)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])
        c = init(cfg, rng_seed=43)
        assert not np.array_equal(a.params["l_input.weight"], c.params["l_input.weight"])

    def test_shapes(self):
        cfg = ModelConfig(seq_len=12, input_dim=5, d_model=64)
        model = init(cfg, 0)
        assert model.params["l_input.weight"].shape == (5, 64)
        assert model.params["ffn.w1.weight"].shape == (64, 256)
        assert cfg.ffn_dim == 256

    def test_bn_identity_at_init(self):
        cfg = ModelConfig(seq_len=4, input_dim=2, d_model=8)
        model = init(cfg, 0)
        x = np.random.default_rng(0).normal(size=(3, 4, 8))
        from mixprec.model import _bn_forward

        out = _bn_forward(x, model, "bn_mha", "eval", {})
        assert np.allclose(out, x, atol=1e-4)

    def test_weight_bound(self):
        cfg = ModelConfig(seq_len=4, input_dim=16, d_model=8)
        model = init(cfg, 0)
        bound = math.sqrt(1 / 16)
        w = model.params["l_input.weight"]
        assert np.all(np.abs(w) <= bound)

    def test_rejects_multihead(self):
        with pytest.raises(ValueError):
            ModelConfig(seq_len=4, input_dim=2, heads=2)


class TestForward:
    def test_zero_weights_propagate_zero(self):
        cfg = ModelConfig(seq_len=4, input_dim=3, d_model=8)
        model = init(cfg, 0)
        for name in model.params:
            if name.endswith(".weight") or name == "pos_encoding":
                model.params[name] = np.zeros_like(model.params[name])
        X = np.random.default_rng(1).normal(size=(4, 3))
        Y, _ = forward_float(model, X)
        assert Y == pytest.approx(0.0)

    def test_matches_reference_implementation(self):
        cfg = ModelConfig(seq_len=12, input_dim=5, d_model=8)
        rng = np.random.default_rng(2)
        model = init(cfg, 7)
        # non-trivial BN statistics so folding is exercised
        model.params["bn_mha.running_mean"] = rng.normal(size=8)
        model.params["bn_mha.running_var"] = rng.uniform(0.5, 2.0, size=8)
        model.params["bn_ffn.beta"] = rng.normal(size=8)
        for _ in range(5):
            X = rng.normal(size=(12, 5))
            Y, _ = forward_float(model, X)
            ref = reference_forward(model, X)
            assert np.allclose(Y, ref, rtol=1e-6, atol=1e-9)

    def test_uniform_attention_permutation_invariance(self):
        # zero Q/K projections make attention uniform averaging; with the
        # positional table removed the pooled features cannot see time order
        cfg = ModelConfig(seq_len=6, input_dim=3, d_model=8)
        model = init(cfg, 3)
        model.params["pos_encoding"] = np.zeros_like(model.params["pos_encoding"])
        model.params["mha.wq.weight"] = np.zeros((8, 8))
        model.params["mha.wk.weight"] = np.zeros((8, 8))
        rng = np.random.default_rng(4)
        X = rng.normal(size=(6, 3))
        Y1, _ = forward_float(model, X)
        Y2, _ = forward_float(model, X[rng.permutation(6)])
        assert np.allclose(Y1, Y2, atol=1e-10)

    def test_softmax_rows_sum_to_one(self):
        cfg = ModelConfig(seq_len=12, input_dim=5, d_model=16)
        model = init(cfg, 5)
        X = np.random.default_rng(6).normal(size=(3, 12, 5))
        _, cache = forward_float(model, X)
        sums = cache["mha.probs"].sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) <= 1e-6)

    def test_batched_matches_single(self):
        cfg = ModelConfig(seq_len=5, input_dim=2, d_model=8)
        model = init(cfg, 8)
        X = np.random.default_rng(9).normal(size=(4, 5, 2))
        Yb, _ = forward_float(model, X)
        for i in range(4):
            Yi, _ = forward_float(model, X[i])
            assert np.allclose(Yb[i], Yi, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        model = init(ModelConfig(seq_len=5, input_dim=2), 0)
        with pytest.raises(ValueError, match="input shape"):
            forward_float(model, np.zeros((4, 2)))

    def test_train_mode_updates_running_stats(self):
        cfg = ModelConfig(seq_len=4, input_dim=2, d_model=8)
        model = init(cfg, 0)
        X = np.random.default_rng(1).normal(size=(8, 4, 2))
        before = model.params["bn_mha.running_mean"].copy()
        forward_float(model, X, mode="train")
        assert not np.array_equal(before, model.params["bn_mha.running_mean"])


class TestBnFold:
    def test_fold_equivalence(self):
        rng = np.random.default_rng(10)
        gamma, beta = rng.normal(size=8), rng.normal(size=8)
        mean, var = rng.normal(size=8), rng.uniform(0.3, 3.0, size=8)
        x = rng.normal(size=(50, 8))
        a, b = fold_bn(gamma, beta, mean, var)
        explicit = gamma * (x - mean) / np.sqrt(var + BN_EPS) + beta
        assert np.allclose(a * x + b, explicit, rtol=1e-6, atol=1e-12)


class TestPositionalEncoding:
    def test_sin_cos_structure(self):
        pe = sinusoidal_encoding(10, 8)
        assert pe.shape == (10, 8)
        assert np.allclose(pe[0, 0::2], 0.0)
        assert np.allclose(pe[0, 1::2], 1.0)
        assert np.allclose(pe[3, 0], math.sin(3.0))

    def test_shape_rule_rows_are_positions(self):
        pe = sinusoidal_encoding(24, 64)
        assert pe.shape == (24, 64)
        assert np.all(np.abs(pe) <= 1.0)


class TestModelFile:
    def test_float_round_trip(self, tmp_path):
        cfg = ModelConfig(seq_len=6, input_dim=3, d_model=8)
        model = init(cfg, 11)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == cfg
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name])

    def test_version_check(self, tmp_path):
        cfg = ModelConfig(seq_len=6, input_dim=3, d_model=8)
        path = tmp_path / "model.json"
        save_model(init(cfg, 0), path)
        import json

        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            load_model(path)


class TestShapeDiscipline:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 16),
        m=st.integers(1, 6),
        d_model=st.sampled_from([2, 4, 8, 16]),
        output_dim=st.integers(1, 3),
        batch=st.integers(1, 4),
    )
    def test_random_configs(self, n, m, d_model, output_dim, batch):
        cfg = ModelConfig(seq_len=n, input_dim=m, d_model=d_model, output_dim=output_dim)
        model = init(cfg, 0)
        X = np.random.default_rng(0).normal(size=(batch, n, m))
        Y, cache = forward_float(model, X)
        assert Y.shape == (batch, output_dim)
        assert cache["add_pe.out"].shape == (batch, n, d_model)
        assert cache["mha.probs"].shape == (batch, n, n)
        assert cache["ffn.hidden"].shape == (batch, n, cfg.ffn_dim)
        assert cache["gap.out"].shape == (batch, d_model)
        for name, shape in tensor_shapes(cfg).items():
            assert model.params[name].shape == shape

"""Quantized paths: calibration, fake-quant vs integer consistency, QAT."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from mixprec import quantized
from mixprec.components import VALID_BITWIDTHS, BitwidthCombination
from mixprec.model import (
    EVAL_BATCH,
    LINEARS,
    NODES,
    WEIGHT_COMPONENT,
    ModelConfig,
    forward_float,
    init,
    load_model,
    save_model,
    trainable_tensors,
)
from mixprec.quant import QuantScheme, fake_quantize
from mixprec.quantized import (
    _PROB_ACC_BITS,
    CalibrationError,
    QatContext,
    _EmaProvider,
    _FakeEngine,
    calibrate,
    collect_ranges,
    forward_fake_quant,
    forward_integer,
    integer_softmax_fixed,
    quantize_model,
)
from mixprec.training import TrainConfig, backward, mse, train, train_qat


def make_model(cfg: ModelConfig, seed: int, spread: float = 0.25) -> "FloatModel":
    rng = np.random.default_rng(seed)
    model = init(cfg, seed)
    for name in model.params:
        if "running_" not in name and name != "pos_encoding":
            model.params[name] = model.params[name] + rng.normal(
                0, spread, size=model.params[name].shape
            )
    d = cfg.d_model
    model.params["bn_mha.running_var"] = np.abs(rng.normal(1, 0.2, size=d)) + 0.3
    model.params["bn_ffn.running_var"] = np.abs(rng.normal(1, 0.2, size=d)) + 0.3
    model.params["bn_mha.running_mean"] = rng.normal(0, 0.2, size=d)
    model.params["bn_ffn.running_mean"] = rng.normal(0, 0.2, size=d)
    return model


CFG = ModelConfig(seq_len=8, input_dim=3, d_model=16)


@pytest.fixture(scope="module")
def setup():
    model = make_model(CFG, 1)
    calib_data = np.random.default_rng(10).normal(size=(32, 8, 3))
    return model, calib_data


class TestQuantizeModel:
    def test_uniform_8_bit_grids(self, setup):
        model, data = setup
        qm = quantize_model(model, BitwidthCombination.uniform(8), calibration_data=data)
        for name, qt in qm.tensors.items():
            if name.endswith(".weight") or name == "pos_encoding":
                assert qt.params.bitwidth == 8
            else:
                assert qt.params.bitwidth == 18
                assert qt.params.scheme is QuantScheme.SYMMETRIC

    def test_mixed_ffn_bitwidths(self, setup):
        model, data = setup
        combo = BitwidthCombination.parse("8,8,6,8,6,4,8,8,8,8")
        qm = quantize_model(model, combo, calibration_data=data)
        assert qm.tensors["ffn.w1.weight"].params.bitwidth == 4
        assert qm.tensors["ffn.w2.weight"].params.bitwidth == 4
        assert qm.act_params["ffn.hidden"].bitwidth == 4
        # first FFN linear sees the mixed 6-bit input: bias 6+4+2
        assert qm.tensors["ffn.w1.bias"].params.bitwidth == 12
        assert qm.tensors["ffn.w2.bias"].params.bitwidth == 10

    def test_constant_calibration_input(self, setup):
        model, _ = setup
        data = np.zeros((2, 8, 3))
        qm = quantize_model(model, BitwidthCombination.uniform(8), calibration_data=data)
        out = forward_integer(qm, qm.quantize_input(np.zeros((8, 3))))
        assert np.all(np.isfinite(out))

    def test_requires_exactly_one_source(self, setup):
        model, data = setup
        with pytest.raises(ValueError, match="exactly one"):
            quantize_model(model, BitwidthCombination.uniform(8))
        with pytest.raises(ValueError, match="exactly one"):
            quantize_model(
                model, BitwidthCombination.uniform(8), calibration_data=data, ranges={}
            )

    def test_calibration_records_the_node_list(self, setup):
        # the float dataflow computes exactly the junctions NODES lists, in order
        model, data = setup
        assert list(collect_ranges(model, data)) == [node.junction for node in NODES]

    def test_missing_junction_named(self, setup):
        model, data = setup
        ranges = collect_ranges(model, data)
        del ranges["mha.probs"]
        with pytest.raises(CalibrationError, match="mha.probs"):
            quantize_model(model, BitwidthCombination.uniform(8), ranges=ranges)

    def test_accumulator_bound_enforced(self):
        from mixprec.quantized import _assert_accumulator_bound

        combo = BitwidthCombination.uniform(8)
        _assert_accumulator_bound(ModelConfig(seq_len=24, input_dim=16, d_model=64), combo)
        big = ModelConfig(seq_len=4, input_dim=2, d_model=8192)
        with pytest.raises(ValueError, match="accumulator"):
            _assert_accumulator_bound(big, combo)

    def test_ffn_hidden_grid_is_relu_compatible(self, setup):
        model, data = setup
        qm = quantize_model(model, BitwidthCombination.uniform(8), calibration_data=data)
        hidden = qm.act_params["ffn.hidden"]
        assert not hidden.signed
        assert hidden.zero_point == 0


class TestCrossPathConsistency:
    def test_integer_equals_fake_quant(self, setup):
        model, data = setup
        rng = np.random.default_rng(3)
        for combo_s in ("8,8,8,8,8,8,8,8,8,8", "6,8,6,8,6,6,8,8,8,8", "4,4,4,4,4,4,4,4,4,4"):
            combo = BitwidthCombination.parse(combo_s)
            qm = quantize_model(model, combo, calibration_data=data)
            calib = calibrate(model, combo, data)
            for _ in range(30):
                X = rng.normal(size=(8, 3))
                y_fake = forward_fake_quant(model, combo, calib, X)
                y_int = forward_integer(qm, qm.quantize_input(X))
                assert np.array_equal(y_fake, y_int)

    def test_batched_fake_quant_snaps_each_tensor_once(self, setup, monkeypatch):
        model, data = setup
        combo = BitwidthCombination.uniform(8)
        qm = quantize_model(model, combo, calibration_data=data)
        calib = calibrate(model, combo, data)
        X = np.random.default_rng(10).normal(size=(3 * EVAL_BATCH + 5, 8, 3))
        calls = []

        def counted(values, params):
            calls.append(params)
            return fake_quantize(values, params)

        monkeypatch.setattr(quantized, "fake_quantize", counted)
        assert np.array_equal(
            forward_fake_quant(model, combo, calib, X), forward_integer(qm, qm.quantize_input(X))
        )
        # every junction but the adds' outputs, and both addends of each add,
        # in each of the four batches; the weights, the biases and the
        # positional table once
        adds = sum(node.op == "add" for node in NODES)
        assert len(calls) == 4 * (len(NODES) + adds) + len(WEIGHT_COMPONENT) + len(LINEARS)

    def test_integer_path_deterministic(self, setup):
        model, data = setup
        qm = quantize_model(model, BitwidthCombination.uniform(8), calibration_data=data)
        X_q = qm.quantize_input(np.random.default_rng(4).normal(size=(5, 8, 3)))
        a = forward_integer(qm, X_q)
        b = forward_integer(qm, X_q)
        assert np.array_equal(a, b)

    def test_zero_weight_model_outputs_bias(self, setup):
        _, data = setup
        model = make_model(CFG, 2)
        for name in model.params:
            if name.endswith(".weight") or name == "pos_encoding":
                model.params[name] = np.zeros_like(model.params[name])
            if name.endswith(".gamma"):
                model.params[name] = np.ones_like(model.params[name])
            if name.endswith((".beta", ".bias")) or "running_mean" in name:
                model.params[name] = np.zeros_like(model.params[name])
        # varying BN offset keeps the pooled-feature grid non-degenerate so
        # the output bias is representable on its derived grid
        model.params["bn_ffn.beta"] = np.linspace(-1.0, 1.0, CFG.d_model)
        model.params["l_output.bias"] = np.array([0.37])
        combo = BitwidthCombination.uniform(8)
        qm = quantize_model(model, combo, calibration_data=data)
        in_p = qm.act_params["input"]
        X_q = qm.quantize_input(np.full((8, 3), in_p.scale * (5 - in_p.zero_point)))
        out = forward_integer(qm, X_q)
        scale = qm.act_params["output"].scale
        assert abs(out[0] - 0.37) <= scale

    def test_input_grid_mismatch_rejected(self, setup):
        model, data = setup
        qm = quantize_model(model, BitwidthCombination.uniform(8), calibration_data=data)
        from mixprec.quant import QuantParams, QuantScheme, quantize

        bad = quantize(
            np.zeros((8, 3)), QuantParams(0.5, 0, 8, True, QuantScheme.ASYMMETRIC)
        )
        with pytest.raises(ValueError, match="input quantization"):
            forward_integer(qm, bad)

    def test_quantized_model_file_round_trip(self, setup, tmp_path):
        model, data = setup
        combo = BitwidthCombination.parse("6,8,6,8,6,6,8,8,8,8")
        qm = quantize_model(model, combo, calibration_data=data)
        path = tmp_path / "qmodel.json"
        save_model(qm, path)
        loaded = load_model(path)
        X_q = qm.quantize_input(np.random.default_rng(6).normal(size=(8, 3)))
        assert np.array_equal(forward_integer(qm, X_q), forward_integer(loaded, X_q))
        assert loaded.combo == combo


class TestFakeQuantAccuracy:
    # bounded inputs matching the calibration distribution: rounding, not
    # range clipping, is what these tolerances measure (min/max calibration
    # saturates on out-of-range tails by design)
    def test_uniform_8bit_close_to_float(self, setup):
        # moderate weight spread keeps intermediate magnitudes commensurate
        # with the output; heavy random cancellation would amplify per-grid
        # rounding beyond what any trained model exhibits
        model = make_model(CFG, 1, spread=0.1)
        rng = np.random.default_rng(7)
        data = rng.uniform(0, 1, size=(200, 8, 3))
        combo = BitwidthCombination.uniform(8)
        X = rng.uniform(0, 1, size=(100, 8, 3))
        calib = calibrate(model, combo, np.concatenate([data, X]))
        y_float, _ = forward_float(model, X)
        y_fake = forward_fake_quant(model, combo, calib, X)
        rel = np.abs(y_fake - y_float).max() / (np.abs(y_float).max() + 1e-12)
        assert rel < 0.05

    def test_4bit_error_dominates_8bit(self, setup):
        model, _ = setup
        rng = np.random.default_rng(8)
        data = rng.uniform(0, 1, size=(200, 8, 3))
        X = rng.uniform(0, 1, size=(200, 8, 3))
        y_float, _ = forward_float(model, X)
        errors = {}
        for b in (4, 8):
            combo = BitwidthCombination.uniform(b)
            calib = calibrate(model, combo, np.concatenate([data, X]))
            y_fake = forward_fake_quant(model, combo, calib, X)
            errors[b] = float(np.mean((y_fake - y_float) ** 2))
        assert errors[4] >= errors[8]


class TestIntegerSoftmax:
    def test_rows_sum_to_fixed_point_one(self):
        rng = np.random.default_rng(9)
        scores = rng.integers(-128, 128, size=(6, 12, 12))
        p = integer_softmax_fixed(scores, score_scale=0.05)
        assert np.all(p.sum(axis=-1) == 1 << _PROB_ACC_BITS)
        assert np.all(p >= 0)

    def test_matches_float_softmax(self):
        from mixprec.model import softmax

        rng = np.random.default_rng(10)
        for scale in (0.01, 0.1, 1.0):
            scores = rng.integers(-128, 128, size=(4, 10, 10))
            p_int = integer_softmax_fixed(scores, scale).astype(np.float64)
            p_float = softmax(scores.astype(np.float64) * scale)
            err = np.abs(p_int / (1 << _PROB_ACC_BITS) - p_float).max()
            assert err < 1e-5

    def test_one_hot_saturation(self):
        scores = np.array([[0, 4000, 0, 0]])
        p = integer_softmax_fixed(scores, score_scale=1.0)
        assert p[0, 1] == 1 << _PROB_ACC_BITS

    def test_constant_rows_uniform(self):
        p = integer_softmax_fixed(np.full((1, 8), 3), score_scale=0.2)
        assert np.all(np.abs(p - (1 << _PROB_ACC_BITS) // 8) <= 1)


class TestQat:
    def toy(self, pairs=400, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(pairs, CFG.seq_len, CFG.input_dim))
        y = X[:, -1, :].mean(axis=1) * 0.5

        @dataclasses.dataclass
        class DS:
            train_X: np.ndarray
            train_y: np.ndarray

        return DS(X, y)

    def test_qat_needs_a_combination(self):
        with pytest.raises(ValueError, match="cfg.qat"):
            train_qat(init(CFG, 1), self.toy(), TrainConfig(epochs=1, patience=1))

    def test_float_training_refuses_a_combination(self):
        cfg = TrainConfig(epochs=1, patience=1, qat=BitwidthCombination.uniform(4))
        with pytest.raises(ValueError, match="cfg.qat"):
            train(init(CFG, 1), self.toy(), cfg)

    def test_qat_8bit_val_loss_near_float(self):
        ds = self.toy(pairs=600, seed=1)
        cfg = TrainConfig(epochs=12, patience=12, batch_size=64, lr=0.005, seed=4)
        _, float_rep = train(init(CFG, 2), ds, cfg)
        qat_cfg = dataclasses.replace(cfg, qat=BitwidthCombination.uniform(8))
        _, qat_rep, ranges = train_qat(init(CFG, 2), ds, qat_cfg)
        assert qat_rep.best_val_loss <= 1.35 * float_rep.best_val_loss
        assert set(ranges) == set(collect_ranges(init(CFG, 2), ds.train_X[:2]))

    def test_frozen_ranges_feed_quantization(self):
        ds = self.toy(pairs=400, seed=2)
        cfg = TrainConfig(
            epochs=6, patience=6, batch_size=64, lr=0.005, seed=5,
            qat=BitwidthCombination.uniform(8),
        )
        model, _, ranges = train_qat(init(CFG, 3), ds, cfg)
        qm = quantize_model(model, cfg.qat, ranges=ranges)
        out = forward_integer(qm, qm.quantize_input(ds.train_X[:10]))
        assert np.all(np.isfinite(out))


class _SurrogateEngine(_FakeEngine):
    """The fake-quant training forward with rounding left out: each snap only
    clips to its grid's range and records the same mask. That is the
    differentiable function the straight-through gradient is exact for."""

    def _snap(self, value, params, mask_key):
        lo, hi = params.real_range()
        self.masks[mask_key] = (value >= lo) & (value <= hi)
        return np.clip(value, lo, hi)


class TestSteGradients:
    def test_matches_surrogate_finite_differences(self):
        cfg = ModelConfig(seq_len=4, input_dim=2, d_model=4)
        model = make_model(cfg, 1, spread=0.3)
        ctx = QatContext(cfg, BitwidthCombination.uniform(8))
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 4, 2))
        y = rng.normal(size=(6, 1))
        # populate ranges
        _SurrogateEngine(model.copy(), ctx.combo, _EmaProvider(ctx, observe=True)).run(X, "train")

        from mixprec.quantized import _weight_params

        def run_at(m):
            engine = _SurrogateEngine(m, ctx.combo, _EmaProvider(ctx, observe=False))
            Y, cache = engine.run(X, "train")
            fingerprint = np.concatenate(
                [np.asarray(v).ravel() for _, v in sorted(cache["masks"].items())]
            )
            return mse(Y, y), fingerprint, cache, Y

        _, base_fp, cache, Y = run_at(model.copy())
        grads = backward(model, cache, 2.0 * (Y - y) / Y.size)
        base_wp = _weight_params(model, ctx.combo)

        step = 1e-5
        checked = 0
        for name in trainable_tensors(cfg):
            analytic = grads[name].reshape(-1)
            flat = model.params[name].reshape(-1)
            for i in range(flat.size):
                probes, fps, wps = [], [], []
                for sign in (+1, -1):
                    probe = model.copy()
                    probe.params[name].reshape(-1)[i] = flat[i] + sign * step
                    loss, fp, _, _ = run_at(probe)
                    probes.append(loss)
                    fps.append(fp)
                    wps.append(_weight_params(probe, ctx.combo))
                # straight-through treats clamp states and calibration ranges
                # as constants: only probes that leave both untouched are a
                # valid finite-difference oracle
                if any(not np.array_equal(fp, base_fp) for fp in fps):
                    continue
                if any(wp != base_wp for wp in wps):
                    continue
                fd = (probes[0] - probes[1]) / (2 * step)
                denom = max(abs(fd), abs(analytic[i]), 1e-6)
                assert abs(analytic[i] - fd) / denom < 1e-2, (name, i)
                checked += 1
        assert checked > 100  # the oracle must not skip almost everything

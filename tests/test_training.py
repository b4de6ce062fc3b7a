"""Trainer: gradient checks against finite differences, schedule, early stop."""

from __future__ import annotations

import ctypes
import json
import math
import platform
import resource
import tracemalloc
import types
from dataclasses import dataclass
from importlib import resources

import numpy as np
import pytest

from mixprec.components import BitwidthCombination
from mixprec.data import ingest, window
from mixprec import cli, training
from mixprec.model import (
    FloatModel, ModelConfig, forward_float, init, load_model, save_model, trainable_tensors,
)
from mixprec.quantized import QatContext
from mixprec.training import (
    ADAM_EPS,
    Adam,
    TrainConfig,
    TrainReport,
    backward,
    mse,
    train,
    train_qat,
)

TINY = ModelConfig(seq_len=4, input_dim=2, d_model=4)


@dataclass
class ArrayDataset:
    train_X: np.ndarray
    train_y: np.ndarray


def toy_dataset(pairs=256, seed=0, cfg=TINY):
    """Target = mean of the last window row (linearly learnable)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(pairs, cfg.seq_len, cfg.input_dim))
    y = X[:, -1, :].mean(axis=1)
    return ArrayDataset(train_X=X, train_y=y)


def loss_of(model: FloatModel, X, y) -> float:
    Y, _ = forward_float(model.copy(), X, mode="train")
    return mse(Y, y)


class TestGradientCheck:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(0)
        model = init(TINY, 1)
        # move away from the all-zero-bias init so every path is active
        for name in model.params:
            if "running_" not in name and name != "pos_encoding":
                model.params[name] = model.params[name] + rng.normal(
                    0, 0.3, size=model.params[name].shape
                )
        model.params["bn_mha.running_var"] = np.abs(model.params["bn_mha.running_var"]) + 0.5
        model.params["bn_ffn.running_var"] = np.abs(model.params["bn_ffn.running_var"]) + 0.5
        X = rng.normal(size=(6, TINY.seq_len, TINY.input_dim))
        y = rng.normal(size=(6, 1))

        Y, cache = forward_float(model.copy(), X, mode="train")
        grads = backward(model, cache, 2.0 * (Y - y) / Y.size)

        step = 1e-4
        for name in trainable_tensors(TINY) + ["pos_encoding"]:
            analytic = grads[name]
            fd = np.zeros_like(analytic)
            flat = model.params[name].reshape(-1)
            for i in range(flat.size):
                probe = model.copy()
                probe.params[name].reshape(-1)[i] = flat[i] + step
                plus = loss_of(probe, X, y)
                probe = model.copy()
                probe.params[name].reshape(-1)[i] = flat[i] - step
                minus = loss_of(probe, X, y)
                fd.reshape(-1)[i] = (plus - minus) / (2 * step)
            scale = max(np.abs(fd).max(), np.abs(analytic).max(), 1e-8)
            rel = np.abs(analytic - fd).max() / scale
            assert rel < 1e-3, f"{name}: relative gradient error {rel}"

    def test_a_branch_mask_leaves_the_other_branch_alone(self):
        # masks on one branch of each residual add and none on its addends:
        # the backward masks in place, so the branches must not share an
        # array. All-true addend masks change no value and force the split.
        rng = np.random.default_rng(4)
        model = init(TINY, 3)
        X = rng.normal(size=(5, TINY.seq_len, TINY.input_dim))
        dY = rng.normal(size=(5, 1))
        act = (5, TINY.seq_len, TINY.d_model)
        pe = (TINY.seq_len, TINY.d_model)
        branch = {"ffn.out": rng.random(act) < 0.5, "mha.out": rng.random(act) < 0.5,
                  "w:pos_encoding": rng.random(pe) < 0.5}
        split = {"add_ffn.a1": np.ones(act, bool), "add_mha.a1": np.ones(act, bool),
                 "add_pe.a2": np.ones(pe, bool)}

        def grads_with(masks):
            _, cache = forward_float(model.copy(), X, mode="train")
            cache["masks"].update(masks)
            return backward(model, cache, dY)

        shared, apart = grads_with(branch), grads_with(branch | split)
        for name in apart:
            np.testing.assert_array_equal(shared[name], apart[name], err_msg=name)

    def test_zero_upstream_gradient(self):
        model = init(TINY, 2)
        X = np.random.default_rng(3).normal(size=(4, TINY.seq_len, TINY.input_dim))
        _, cache = forward_float(model, X, mode="train")
        grads = backward(model, cache, np.zeros((4, 1)))
        for name, g in grads.items():
            assert np.all(g == 0), name

    def test_duplicated_example_doubles_contribution(self):
        model = init(TINY, 4)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, TINY.seq_len, TINY.input_dim))
        # eval mode: batch statistics would couple the duplicated rows
        _, cache1 = forward_float(model, x, mode="eval")
        g1 = backward(model, cache1, np.ones((1, 1)))
        xx = np.concatenate([x, x])
        _, cache2 = forward_float(model, xx, mode="eval")
        g2 = backward(model, cache2, np.ones((2, 1)))
        for name in g1:
            assert np.allclose(g2[name], 2 * g1[name], rtol=1e-10, atol=1e-12), name


class TestSchedule:
    def test_lr_halving(self):
        cfg = TrainConfig(seed=0)
        assert cfg.lr_at(0) == 0.001
        assert cfg.lr_at(2) == 0.001
        assert cfg.lr_at(3) == 0.0005
        assert cfg.lr_at(7) == pytest.approx(0.00025)

    def test_report_invariant(self):
        cfg = TrainConfig(epochs=8, patience=8, batch_size=64, seed=0)
        model = init(TINY, 0)
        _, report = train(model, toy_dataset(), cfg)
        for epoch, lr in enumerate(report.learning_rates):
            assert lr == cfg.lr * 2.0 ** (-(epoch // 3))


class TestTrain:
    def test_loss_drops_90pct_within_20_epochs(self):
        cfg = TrainConfig(epochs=20, patience=20, batch_size=64, lr=0.01, seed=1)
        model = init(TINY, 1)
        _, report = train(model, toy_dataset(pairs=512), cfg)
        assert report.train_losses[-1] <= 0.1 * report.train_losses[0]

    def test_deterministic(self):
        cfg = TrainConfig(epochs=3, patience=3, batch_size=64, seed=7)
        m1, r1 = train(init(TINY, 2), toy_dataset(), cfg)
        m2, r2 = train(init(TINY, 2), toy_dataset(), cfg)
        assert r1.train_losses == r2.train_losses
        for name in m1.params:
            assert np.array_equal(m1.params[name], m2.params[name])

    def test_early_stopping_at_best_plus_patience(self):
        # pure-noise targets plateau validation quickly; whenever the best
        # epoch is k, training must stop after exactly k + patience + 1 epochs
        rng = np.random.default_rng(9)
        ds = ArrayDataset(
            train_X=rng.normal(size=(256, TINY.seq_len, TINY.input_dim)),
            train_y=rng.normal(size=256),
        )
        cfg = TrainConfig(epochs=200, patience=5, batch_size=64, lr=0.01, seed=0)
        _, report = train(init(TINY, 3), ds, cfg)
        assert report.stopping_reason == "early_stopping"
        assert report.epochs_run == report.best_epoch + cfg.patience + 1
        assert report.best_val_loss == min(report.val_losses)

    def test_restores_best_parameters(self):
        cfg = TrainConfig(epochs=12, patience=12, batch_size=64, seed=4)
        dataset = toy_dataset()
        trained, report = train(init(TINY, 4), dataset, cfg)
        # re-evaluate returned params on the validation carve used in training
        from mixprec.training import _split_validation

        X = dataset.train_X
        y = dataset.train_y.reshape(-1, 1)
        _, _, X_val, y_val = _split_validation(X, y)
        pred, _ = forward_float(trained, X_val)
        assert mse(pred, y_val) == pytest.approx(report.best_val_loss, rel=1e-9)
        assert report.best_val_loss == min(report.val_losses)

    def test_original_model_untouched(self):
        cfg = TrainConfig(epochs=2, patience=2, batch_size=64, seed=5)
        model = init(TINY, 5)
        before = {k: v.copy() for k, v in model.params.items()}
        train(model, toy_dataset(), cfg)
        for name in before:
            assert np.array_equal(before[name], model.params[name])

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_aborts_with_diagnostic(self):
        cfg = TrainConfig(epochs=5, patience=5, batch_size=64, lr=1e200, seed=6)
        with pytest.raises(RuntimeError, match="non-finite training loss"):
            train(init(TINY, 6), toy_dataset(), cfg)

    def test_window_shape_mismatch(self):
        cfg = TrainConfig(epochs=1, patience=1, seed=0)
        model = init(ModelConfig(seq_len=6, input_dim=2), 0)
        with pytest.raises(ValueError, match="do not match model config"):
            train(model, toy_dataset(), cfg)


def bundled_windows():
    asset = resources.files("mixprec") / "assets" / "synthetic_2000.csv"
    with resources.as_file(asset) as path:
        return window(ingest(path, "target", None), 12, 0.1)


PAPER = ModelConfig(seq_len=12, input_dim=3, d_model=64)


class TestFloat32Training:
    """Training computes in float32; the model it returns, and everything
    that evaluates it, stays float64."""

    # a mixed combination from the n=12 top five, with 4-, 6- and 8-bit grids
    MIXED = BitwidthCombination.parse("8,8,6,8,8,4,8,6,8,8")

    @staticmethod
    def step(model: FloatModel, X, y, combo, dtype, lr=0.001):
        """One training step at ``dtype``, as the loop takes it: the params
        and the batch cast to ``dtype``, the forward, the backward and Adam.
        Returns (gradients, updated params)."""
        model = FloatModel(model.config, {k: v.astype(dtype) for k, v in model.params.items()})
        ctx = training._FloatContext() if combo is None else QatContext(model.config, combo)
        X, y = X.astype(dtype), y.astype(dtype)
        Y, cache = ctx.forward_train(model, X)
        grads = ctx.backward(model, cache, 2.0 * (Y - y) / Y.size)
        Adam(trainable_tensors(model.config)).step(model.params, grads, lr)
        return grads, model.params

    @pytest.fixture(scope="class")
    def windows(self):
        """The first 284 training windows of the bundled series: 256 to fit,
        one batch, and the 28 ``_split_validation`` holds out."""
        ds = bundled_windows()
        return ArrayDataset(np.asarray(ds.train_X[:284]), np.asarray(ds.train_y[:284]))

    @pytest.fixture(scope="class")
    def batch(self, windows):
        return windows.train_X[:256], windows.train_y[:256].reshape(-1, 1)

    @pytest.mark.parametrize("combo, tol", [(None, 1e-4), (BitwidthCombination.uniform(8), 5e-2),
                                            (MIXED, 5e-2)], ids=["float", "qat8", "mixed"])
    def test_step_matches_the_float64_step(self, batch, combo, tol):
        """Gradients: every entry within ``tol * max|g64|``, the largest
        float64 gradient entry of the whole model.

        - Float training, 1e-4. Float32 rounds at u = 2**-24, about 6e-8. A
          weight gradient sums batch * seq_len = 3,072 rows, whose rounding
          errors grow like sqrt(3072) * u, about 3.3e-6, per layer, and the
          backward chains fewer than ten layers: about 3e-5, and 1e-4 leaves
          a 3x margin (seeds 3, 5, 7, 9, 11 and 42 gave at most 1.6e-5).
        - QAT, 5e-2. Float32 rounding moves a value lying within it of a
          rounding boundary onto the neighbouring grid point. Each such flip
          changes an activation by a whole grid step and can change its
          straight-through mask, so the gradients differ by much more than
          the rounding itself: at most 1.2e-2 over the same six seeds.

        Updated params: Adam's first step moves a param by
        ``lr * g / (|g| + eps)``, a map whose values at gradients a and b
        differ by at most ``min(2, 2|a - b| / (|b| + eps))``. On top of that,
        float32 rounds the starting param, the update and the result, each
        within u of its size: the test allows 4u * (|p| + lr).

        Running statistics start at 0 and 1 and take ``BN_MOMENTUM`` times
        the batch's mean and variance, of order one at a batch norm's input:
        they are held to ``tol`` in absolute terms (float training gave at
        most 2.6e-6).
        """
        X, y = batch
        model = init(PAPER, 42)
        g64, p64 = self.step(model, X, y, combo, np.float64)
        g32, p32 = self.step(model, X, y, combo, np.float32)
        assert all(g.dtype == np.float32 for g in g32.values())

        trained = trainable_tensors(PAPER)
        g_max = max(np.abs(g64[name]).max() for name in trained)
        u, lr = 2.0**-24, 0.001
        for name in trained:
            dg = np.abs(g32[name] - g64[name])
            assert dg.max() <= tol * g_max, name
            bound = lr * np.minimum(2, 2 * dg / (np.abs(g64[name]) + ADAM_EPS))
            bound += 4 * u * (np.abs(p64[name]) + lr)
            assert np.all(np.abs(p32[name] - p64[name]) <= bound), name
        for name in set(p64) - set(trained) - {"pos_encoding"}:
            assert np.abs(p32[name] - p64[name]).max() <= tol, name

    @pytest.mark.parametrize("combo", [None, MIXED], ids=["float", "mixed"])
    def test_the_loop_takes_the_float32_step(self, windows, batch, combo):
        """A one-batch epoch returns the float32 step's params bit for bit,
        in float64, with the positional table as given."""
        X, y = batch
        model = init(PAPER, 42)
        cfg = TrainConfig(epochs=1, patience=1, seed=3, qat=combo)
        order = np.random.default_rng(cfg.seed).permutation(len(X))  # the loop's batch order
        _, expected = self.step(model, X[order], y[order], combo, np.float32)
        trained = (train if combo is None else train_qat)(model, windows, cfg)[0]
        for name, value in trained.params.items():
            want = model.params[name] if name == "pos_encoding" else expected[name]
            assert value.dtype == np.float64, name
            assert np.array_equal(value, want.astype(np.float64)), name

    @pytest.mark.parametrize("combo", [None, BitwidthCombination.uniform(8)], ids=["float", "qat"])
    def test_returns_float64_and_leaves_the_input_alone(self, tmp_path, combo):
        model = init(TINY, 5)
        before = {k: v.copy() for k, v in model.params.items()}
        cfg = TrainConfig(epochs=2, patience=2, batch_size=64, seed=5, qat=combo)
        trained = (train if combo is None else train_qat)(model, toy_dataset(), cfg)[0]
        assert all(value.dtype == np.float64 for value in trained.params.values())
        for name, value in before.items():
            assert model.params[name].dtype == np.float64, name
            assert np.array_equal(model.params[name], value), name
        save_model(trained, tmp_path / "model.json")
        tensors = json.loads((tmp_path / "model.json").read_text())["tensors"]
        assert {entry["dtype"] for entry in tensors.values()} == {"<f8"}
        loaded = load_model(tmp_path / "model.json")
        for name, value in trained.params.items():
            assert loaded.params[name].tobytes() == value.tobytes(), name


class TestAdam:
    def test_single_step_matches_formula(self):
        opt = Adam(["w"])
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([0.5])}
        opt.step(params, grads, lr=0.001)
        m_hat = 0.5  # m = (1-b1)*g, corrected by (1-b1)
        v_hat = 0.25
        expected = 1.0 - 0.001 * m_hat / (math.sqrt(v_hat) + ADAM_EPS)
        assert params["w"][0] == pytest.approx(expected, rel=1e-12)


class TestLayerGradientsInIsolation:
    """Finite-difference checks for each layer type's backward rule alone."""

    def fd(self, f, x, step=1e-6):
        g = np.zeros_like(x)
        for i in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp.reshape(-1)[i] += step
            xm.reshape(-1)[i] -= step
            g.reshape(-1)[i] = (f(xp) - f(xm)) / (2 * step)
        return g

    def check(self, analytic, fd):
        scale = max(np.abs(fd).max(), np.abs(analytic).max(), 1e-8)
        assert np.abs(analytic - fd).max() / scale < 1e-3

    def test_linear(self):
        rng = np.random.default_rng(0)
        x, W, b = rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=4)
        R = rng.normal(size=(5, 4))  # fixed upstream gradient
        loss = lambda xx, WW, bb: float(((xx @ WW + bb) * R).sum())
        self.check(R @ W.T, self.fd(lambda v: loss(v, W, b), x))
        self.check(x.T @ R, self.fd(lambda v: loss(x, v, b), W))
        self.check(R.sum(axis=0), self.fd(lambda v: loss(x, W, v), b))

    def test_batch_norm_train_mode(self):
        from mixprec.model import BN_EPS
        from mixprec.training import _bn_backward

        rng = np.random.default_rng(1)
        x = rng.normal(size=(12, 4))
        gamma, beta = rng.normal(size=4), rng.normal(size=4)
        R = rng.normal(size=(12, 4))

        def forward(xx):
            mean, var = xx.mean(axis=0), xx.var(axis=0)
            xhat = (xx - mean) / np.sqrt(var + BN_EPS)
            return xhat

        def loss(xx):
            return float(((gamma * forward(xx) + beta) * R).sum())

        xhat = forward(x)
        inv_std = 1.0 / np.sqrt(x.var(axis=0) + BN_EPS)
        cache = {"xhat": xhat, "inv_std": inv_std, "mode": "train"}
        dx, dgamma, dbeta = _bn_backward(R, cache, gamma)
        self.check(dx, self.fd(loss, x))
        assert np.allclose(dgamma, (R * xhat).sum(axis=0))
        assert np.allclose(dbeta, R.sum(axis=0))

    def test_softmax(self):
        from mixprec.model import softmax

        rng = np.random.default_rng(2)
        s = rng.normal(size=(3, 6))
        R = rng.normal(size=(3, 6))
        P = softmax(s)
        dS = P * (R - (R * P).sum(axis=-1, keepdims=True))
        self.check(dS, self.fd(lambda v: float((softmax(v) * R).sum()), s))

    def test_relu(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 5)) + 0.01  # keep away from the kink
        R = rng.normal(size=(4, 5))
        analytic = R * (x > 0)
        self.check(analytic, self.fd(lambda v: float((np.maximum(v, 0) * R).sum()), x))

    def test_gap(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 6, 3))
        R = rng.normal(size=(2, 3))
        analytic = np.repeat(R[:, None, :], 6, axis=1) / 6
        self.check(
            analytic, self.fd(lambda v: float((v.mean(axis=1) * R).sum()), x)
        )

    def test_attention_block(self):
        # scores -> softmax -> context as one unit, gradients w.r.t. Q, K, V
        from mixprec.model import softmax

        rng = np.random.default_rng(5)
        d = 4
        Q, K, V = (rng.normal(size=(5, d)) for _ in range(3))
        R = rng.normal(size=(5, d))
        scale = 1.0 / math.sqrt(d)

        def loss(q, k, v):
            return float(((softmax((q @ k.T) * scale) @ v) * R).sum())

        P = softmax((Q @ K.T) * scale)
        d_ctx = R
        dP = d_ctx @ V.T
        dV = P.T @ d_ctx
        dS = P * (dP - (dP * P).sum(axis=-1, keepdims=True))
        dQ = (dS @ K) * scale
        dK = (dS.T @ Q) * scale
        self.check(dQ, self.fd(lambda v: loss(v, K, V), Q))
        self.check(dK, self.fd(lambda v: loss(Q, v, V), K))
        self.check(dV, self.fd(lambda v: loss(Q, K, v), V))


class TestTrainingMemory:
    """A training step frees what the backward no longer reads: the last
    step's intermediates before the next forward, the FFN block's once its
    gradients are done. The pipeline trains two models at once on two CPUs.
    Steps compute in float32: one epoch peaks near 17 MB float, 23 MB QAT."""

    @pytest.fixture(scope="class")
    def bundled(self):
        return bundled_windows()

    @pytest.mark.parametrize("qat, limit_mb", [(None, 24), (BitwidthCombination.uniform(8), 30)],
                             ids=["float", "qat"])
    def test_one_epoch_peak_at_the_paper_width(self, bundled, qat, limit_mb):
        model = init(PAPER, 42)
        cfg = TrainConfig(epochs=1, patience=1, seed=42, qat=qat)
        tracemalloc.start()
        try:
            (train if qat is None else train_qat)(model, bundled, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb * 1e6

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap trimming")
    def test_second_training_faults_in_no_pages(self, bundled):
        """The heap keeps its high-water mark, so a second training reuses the
        first one's pages instead of faulting them in step by step (26-30K
        minor faults per epoch while glibc trimmed the heap after each)."""
        cfg = TrainConfig(epochs=1, patience=1, seed=42)
        train(init(PAPER, 42), bundled, cfg)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(init(PAPER, 42), bundled, cfg)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 2000


class TestHeapSetting:
    """The first command or training sets glibc's mmap and trim thresholds, once."""

    @pytest.fixture
    def libc(self, monkeypatch):
        """A stand-in C library whose mallopt records its calls."""
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        fake = types.SimpleNamespace(mallopt=mallopt, calls=calls)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: fake)
        training._keep_heap.cache_clear()
        yield fake
        training._keep_heap.cache_clear()  # the next training sets the real values again

    def test_set_once_both_thresholds(self, libc):
        cfg = TrainConfig(epochs=1, patience=1)
        train(init(TINY, 1), toy_dataset(), cfg)
        train_qat(init(TINY, 1), toy_dataset(), TrainConfig(
            epochs=1, patience=1, qat=BitwidthCombination.uniform(8)))
        # glibc's M_MMAP_THRESHOLD is -3, its M_TRIM_THRESHOLD -1
        assert libc.calls == [(-3, 32 << 20), (-1, 1 << 30)]

    def test_set_by_a_command_that_never_trains(self, libc, capsys):
        asset = resources.files("mixprec") / "assets" / "table2.json"
        with resources.as_file(asset) as path:
            argv = ["estimate", "--kb", str(path), "--n", "12", "--combo", "8,8,8,8,8,8,8,8,8,8"]
            assert cli.run(argv) == 0
            assert cli.run(argv) == 0
        assert libc.calls == [(-3, 32 << 20), (-1, 1 << 30)]

    def test_no_mallopt_is_a_no_op(self, libc):
        del libc.mallopt
        train(init(TINY, 1), toy_dataset(), TrainConfig(epochs=1, patience=1))
        assert libc.calls == []

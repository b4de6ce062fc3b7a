"""The integer engine's plan-time choices: each matmul's operand type, the
batch-norm and residual-add tables, and the tabulated softmax exponential,
each against the arithmetic it replaces; and its windows split over threads."""

from __future__ import annotations

import sys
import threading
import time

import int64_reference
import numpy as np
import pytest
from test_int64_reference import run_both, top_mixed_combos

from mixprec import cli, quantized, training
from mixprec.components import BitwidthCombination
from mixprec.data import bundled_synthetic_csv, ingest, window
from mixprec.model import LINEARS, NODES, ModelConfig, init, save_model
from mixprec.quant import QuantParams, QuantScheme, make_requantizer
from mixprec.quantized import (
    _PROB_ACC_BITS,
    _bn_integer_constants,
    _bn_table,
    _matmul_dtype,
    _matmul_operands,
    forward_integer,
    integer_softmax_fixed,
    quantize_model,
)

UNIFORM_8 = BitwidthCombination.uniform(8)


def dtypes(config: ModelConfig, combo: BitwidthCombination) -> dict[str, type]:
    return {name: _matmul_dtype(*ops) for name, ops in _matmul_operands(config, combo).items()}


class TestMatmulDtype:
    def test_flips_at_2_to_the_24(self):
        # a worst sum of magnitudes of exactly 2**24 is still exact in float32
        assert _matmul_dtype(1 << 24, 1, 1) is np.float32
        assert _matmul_dtype((1 << 24) + 1, 1, 1) is np.float64
        # 258 * 255**2 = 16,776,450 <= 2**24 < 259 * 255**2
        assert _matmul_dtype(258, 8, 8) is np.float32
        assert _matmul_dtype(259, 8, 8) is np.float64

    def test_float32_is_exact_at_the_widest_float32_matmul(self):
        x = np.full((3, 258), 255, dtype=np.int64)
        w = np.full((258, 2), -255, dtype=np.int64)
        y = (x.astype(np.float32) @ w.astype(np.float32)).astype(np.int64)
        assert np.array_equal(y, x @ w)
        assert y[0, 0] == -258 * 255**2

    def test_every_d_model_64_matmul_takes_float32(self):
        config = ModelConfig(seq_len=24, input_dim=2, d_model=64)
        for bits in (4, 6, 8):
            assert set(dtypes(config, BitwidthCombination.uniform(bits)).values()) == {np.float32}

    def test_the_ffn_output_linear_at_d_model_128_takes_float64(self):
        # its fan-in is the 512-wide hidden layer: 512 * 255**2 > 2**24
        chosen = dtypes(ModelConfig(seq_len=12, input_dim=2, d_model=128), UNIFORM_8)
        assert chosen.pop("ffn.w2") is np.float64
        assert set(chosen) == set(LINEARS) - {"ffn.w2"} | {"scores", "context"}
        assert set(chosen.values()) == {np.float32}


def bundled_windows() -> np.ndarray:
    csv = bundled_synthetic_csv()
    return window(ingest(csv, csv.split("\n", 1)[0].split(",")[-1]), 12, 0.1).X


def test_float64_fallback_equals_the_int64_reference(monkeypatch):
    """A model whose proof puts one matmul on float64 and the rest on float32."""
    X = bundled_windows()
    config = ModelConfig(seq_len=12, input_dim=X.shape[2], d_model=128)
    qm = quantize_model(init(config, 3), UNIFORM_8, calibration_data=X[:200])
    assert qm.runtime.dtype["ffn.w2"] is np.float64
    assert qm.runtime.weights["ffn.w2"].dtype == np.float64
    assert qm.runtime.weights["ffn.w1"].dtype == np.float32
    run_both(monkeypatch, qm, qm.quantize_input(X[::28]))  # 72 windows, two batches


class TestBnTable:
    D = 6

    @pytest.fixture(params=[4, 6, 8])
    def grids(self, request):
        bits = request.param
        in_p = QuantParams(0.05, 3, bits, True, QuantScheme.ASYMMETRIC)
        out_p = QuantParams(0.04, -5, bits, True, QuantScheme.ASYMMETRIC)
        return in_p, out_p

    @pytest.fixture
    def constants(self, grids):
        # feature 0: |ratio| < 2**-31, sign 0; features 1 and 2: offsets at the
        # 2**61 cap; the rest ordinary, of both signs
        a = np.array([1e-12, 0.3, -0.7, 2.5, 1.0, -3.0])
        b = np.array([0.1, 1e30, -1e30, 0.0, -2.3, 0.7])
        c = _bn_integer_constants(a, b, *grids)
        assert c["sign"][0] == 0
        assert c["offset"][1] == 1 << 61 and c["offset"][2] == -(1 << 61)
        return c

    def test_every_feature_at_every_grid_value(self, grids, constants):
        in_p, out_p = grids
        c = constants
        grid = np.arange(in_p.q_min, in_p.q_max + 1, dtype=np.int64)
        x = np.repeat(grid[:, None], self.D, axis=1)
        # the arithmetic the table replaces, as the int64 reference computes it
        product = c["sign"] * (x - in_p.zero_point) * c["mult"] + c["offset"]
        y = int64_reference.rounding_shift_array(product, c["shift"]) + out_p.zero_point
        expected = np.clip(y, out_p.q_min, out_p.q_max)

        table = _bn_table(c, in_p, out_p)
        assert np.array_equal(table(x), expected)
        # shuffled into two windows, the engine's (batch, seq_len, d_model) shape
        order = np.random.default_rng(0).permutation(len(grid))
        windows = x[order].reshape(2, -1, self.D)
        assert np.array_equal(table(windows), expected[order].reshape(2, -1, self.D))

    def test_input_off_the_grid_is_refused(self, grids, constants):
        in_p, out_p = grids
        table = _bn_table(constants, in_p, out_p)
        for off in (in_p.q_min - 1, in_p.q_max + 1):
            x = np.zeros((2, 3, self.D), dtype=np.int64)
            x[1, 2, 4] = off
            with pytest.raises(AssertionError, match="outside its grid"):
                table(x)


ADD_NODES = [node for node in NODES if node.op == "add"]


class TestAddTable:
    @pytest.fixture(scope="class", ids=str, params=[
        *(BitwidthCombination.uniform(b) for b in (4, 6, 8)),
        BitwidthCombination.parse("8,8,6,8,6,4,8,8,8,8"),
    ])
    def qm(self, request):
        X = bundled_windows()
        config = ModelConfig(seq_len=12, input_dim=X.shape[2], d_model=8)
        return quantize_model(init(config, 5), request.param, calibration_data=X[:300])

    @pytest.mark.parametrize("node", ADD_NODES, ids=lambda node: node.layer)
    def test_every_input_pair(self, qm, node):
        """add_pe's second input is the pos_encoding tensor's grid."""
        p1, p2 = map(qm.grid, node.inputs)
        out = qm.act_params[node.junction]
        x1, x2 = np.meshgrid(np.arange(p1.q_min, p1.q_max + 1),
                             np.arange(p2.q_min, p2.q_max + 1), indexing="ij")
        # the arithmetic the table replaces, as the int64 reference computes it
        a1, a2 = (
            int64_reference.requantize(x - p.zero_point, make_requantizer(p.scale, out.scale),
                                       out.zero_point, out.bitwidth, out.signed)
            for x, p in ((x1, p1), (x2, p2))
        )
        expected = np.clip(a1 + a2 - out.zero_point, out.q_min, out.q_max)

        table = qm.runtime.add[node.layer]
        assert np.array_equal(table(x1, x2), expected)
        # shuffled into two windows, the engine's (batch, seq_len, width) shape
        order = np.random.default_rng(1).permutation(x1.size)
        shape = (2, -1, 1 << min(p1.bitwidth, p2.bitwidth))
        pairs = [x.ravel()[order].reshape(shape) for x in (x1, x2)]
        assert np.array_equal(table(*pairs), expected.ravel()[order].reshape(shape))

    @pytest.mark.parametrize("node", ADD_NODES, ids=lambda node: node.layer)
    def test_input_off_the_grid_is_refused(self, qm, node):
        table = qm.runtime.add[node.layer]
        grids = list(map(qm.grid, node.inputs))
        for side, p in enumerate(grids):
            for off in (p.q_min - 1, p.q_max + 1):
                x = [np.full((2, 3, 4), g.zero_point, dtype=np.int64) for g in grids]
                x[side][1, 2, 3] = off
                with pytest.raises(AssertionError, match="outside its grid"):
                    table(*x)


class TestSoftmax:
    """The tabulated exponential and the sort-free deficit against the int64
    reference's direct exponential and stable argsort."""

    def check(self, scores: np.ndarray, scale: float) -> np.ndarray:
        p = integer_softmax_fixed(scores, scale)
        assert np.array_equal(p, int64_reference.integer_softmax_fixed(scores, scale))
        assert np.all(p.sum(axis=-1) == 1 << _PROB_ACC_BITS)
        return p

    def test_random_batches(self):
        rng = np.random.default_rng(21)
        for bits in (4, 6, 8, 20):
            for scale in (0.002, 0.05, 0.3, 2.0):
                lo = -(1 << (bits - 1))
                self.check(rng.integers(lo, -lo, size=(64, 12, 12)), scale)
                self.check(rng.integers(lo, -lo, size=(3, 7)), scale)

    def test_all_equal_rows_tie_every_remainder(self):
        # 2**24 / 12 leaves the same remainder in every entry: the deficit of
        # 4 goes to the four lowest indices
        p = self.check(np.full((5, 12, 12), -3), 0.1)
        assert np.all(p[..., :4] == p[..., 4:5] + 1)

    def test_rows_with_no_deficit(self):
        # 2**24 / 16 is exact (one-hot rows below have no deficit either)
        p = self.check(np.full((2, 16), 7), 0.1)
        assert np.all(p == 1 << (_PROB_ACC_BITS - 4))

    def test_one_hot_rows(self):
        rng = np.random.default_rng(22)
        scores = rng.integers(-128, -100, size=(64, 12, 12))
        hot = rng.integers(12, size=(64, 12))
        np.put_along_axis(scores, hot[..., None], 127, axis=-1)
        p = self.check(scores, 0.5)
        assert np.array_equal(np.argmax(p, axis=-1), hot)
        assert np.all(np.take_along_axis(p, hot[..., None], axis=-1) == 1 << _PROB_ACC_BITS)


# --- windows over threads -------------------------------------------------------


@pytest.fixture(scope="module", ids=str, params=[
    BitwidthCombination.uniform(4), UNIFORM_8, *top_mixed_combos(1),
])
def series_qm(request):
    """A d_model=64 model quantized at the combination, and every bundled window."""
    X = bundled_windows()
    config = ModelConfig(seq_len=12, input_dim=X.shape[2], d_model=64)
    return quantize_model(init(config, 4), request.param, calibration_data=X[:1789]), X


def at_cpus(monkeypatch, cpus: int, qm, X_q) -> np.ndarray:
    monkeypatch.setattr(training, "cpus", lambda: cpus)
    return forward_integer(qm, X_q)


@pytest.mark.parametrize("windows", [0, 1, 7, 64, 65, 199, 1988])
def test_every_cpu_count_gives_the_same_bits(monkeypatch, series_qm, windows):
    qm, X = series_qm
    X_q = qm.quantize_input(X[:windows])
    threads = threading.active_count()
    serial = at_cpus(monkeypatch, 1, qm, X_q)
    assert serial.shape == (windows, qm.config.output_dim)
    for cpus in (2, 3, 8):
        assert np.array_equal(at_cpus(monkeypatch, cpus, qm, X_q), serial)
        assert threading.active_count() == threads


@pytest.mark.parametrize("series_qm", [UNIFORM_8], ids=str, indirect=True)
def test_eight_workers_under_a_short_switch_interval(monkeypatch, series_qm):
    """Ten batches on eight workers, the interpreter switching threads every
    microsecond, for a second: every output still equals the serial one."""
    qm, X = series_qm
    X_q = qm.quantize_input(X[:600])
    serial = at_cpus(monkeypatch, 1, qm, X_q)
    monkeypatch.setattr(training, "cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs, deadline = 0, time.monotonic() + 1.0
        while runs < 2 or time.monotonic() < deadline:
            assert np.array_equal(forward_integer(qm, X_q), serial)
            runs += 1
    finally:
        sys.setswitchinterval(interval)


def test_a_failure_on_a_worker_thread_surfaces(monkeypatch, tmp_path, capsys):
    """From ``forward_integer`` as the error itself, from the CLI as exit 3,
    once every thread has ended."""
    X = bundled_windows()
    config = ModelConfig(seq_len=12, input_dim=X.shape[2], d_model=8)
    qm = quantize_model(init(config, 4), UNIFORM_8, calibration_data=X[:1789])
    calling, run = threading.get_ident(), quantized._IntegerEngine.run

    def run_or_fail(engine, X, mode):
        if threading.get_ident() != calling:
            raise AssertionError("injected on a worker thread")
        return run(engine, X, mode)

    monkeypatch.setattr(quantized._IntegerEngine, "run", run_or_fail)
    monkeypatch.setattr(training, "cpus", lambda: 2)
    threads = threading.active_count()
    with pytest.raises(AssertionError, match="injected on a worker thread"):
        forward_integer(qm, qm.quantize_input(X[:199]))
    assert threading.active_count() == threads

    model, data = tmp_path / "model.json", tmp_path / "series.csv"
    save_model(qm, model)
    data.write_text(bundled_synthetic_csv())
    assert cli.run(["eval", "--model", str(model), "--data", str(data)]) == 3
    assert capsys.readouterr() == ("", "internal error: injected on a worker thread\n")
    assert threading.active_count() == threads

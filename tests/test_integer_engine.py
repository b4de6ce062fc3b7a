"""The integer engine's plan-time choices: each matmul's operand type and the
batch-norm table, each against the arithmetic it replaces."""

from __future__ import annotations

import int64_reference
import numpy as np
import pytest
from test_int64_reference import run_both

from mixprec.components import BitwidthCombination
from mixprec.data import bundled_synthetic_csv, ingest, window
from mixprec.model import LINEARS, ModelConfig, init
from mixprec.quant import QuantParams, QuantScheme
from mixprec.quantized import (
    _bn_integer_constants,
    _bn_table,
    _matmul_dtype,
    _matmul_operands,
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


def test_float64_fallback_equals_the_int64_reference(monkeypatch):
    """A model whose proof puts one matmul on float64 and the rest on float32."""
    csv = bundled_synthetic_csv()
    dataset = window(ingest(csv, csv.split("\n", 1)[0].split(",")[-1]), 12, 0.1)
    config = ModelConfig(seq_len=12, input_dim=dataset.X.shape[2], d_model=128)
    qm = quantize_model(init(config, 3), UNIFORM_8, calibration_data=dataset.X[:200])
    assert qm.runtime.dtype["ffn.w2"] is np.float64
    assert qm.runtime.weights["ffn.w2"].dtype == np.float64
    assert qm.runtime.weights["ffn.w1"].dtype == np.float32
    run_both(monkeypatch, qm, qm.quantize_input(dataset.X[::28]))  # 72 windows, two batches


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

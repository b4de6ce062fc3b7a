"""Quantization algebra: calibration, round trips, requantizer, cascades."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixprec.components import VALID_BITWIDTHS, BitwidthCombination
from mixprec.model import LINEARS, NODES, ModelConfig, init
from mixprec.quant import (
    QuantParams,
    QuantScheme,
    calibrate_asymmetric,
    dequantize,
    derive_bias_params,
    fake_quantize,
    int_range,
    make_requantizer,
    quantize,
    requantize,
    round_half_away,
    rounding_shift,
)
from mixprec.quantized import quantize_model


class TestRounding:
    def test_half_away_from_zero(self):
        x = np.array([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 0.49, -0.49])
        expected = np.array([-3, -2, -1, 1, 2, 3, 0, 0])
        assert np.array_equal(round_half_away(x), expected)
        assert round_half_away(-0.5) == -1.0
        assert round_half_away(0.5) == 1.0


class TestCalibration:
    def test_unit_interval_8bit_unsigned(self):
        p = calibrate_asymmetric(np.array([0.0, 0.25, 1.0]), 8, signed=False)
        assert p.scale == pytest.approx(1 / 255)
        assert p.zero_point == 0

    def test_symmetric_interval_4bit_signed(self):
        # scale (1-(-1))/15 = 2/15; zero_point = round(-8 + 7.5) = -1 with
        # half-away-from-zero rounding (frozen regression value)
        p = calibrate_asymmetric(np.array([-1.0, 1.0]), 4, signed=True)
        assert p.scale == pytest.approx(2 / 15)
        assert p.zero_point == -1

    def test_degenerate_constant_zero(self):
        p = calibrate_asymmetric(np.array([0.0]), 8, signed=True)
        assert p.scale == 1.0
        assert p.zero_point == p.q_min
        t = quantize(np.array([0.0]), p)
        assert dequantize(t)[0] == 0.0

    def test_range_widened_to_include_zero(self):
        p = calibrate_asymmetric(np.array([5.0, 10.0]), 8, signed=False)
        lo, hi = p.real_range()
        assert lo <= 0.0 <= hi

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            calibrate_asymmetric(np.array([0.0, np.nan]), 8, signed=True)
        with pytest.raises(ValueError):
            calibrate_asymmetric(np.array([]), 8, signed=True)

    @settings(max_examples=100, deadline=None)
    @given(
        lo=st.floats(-1e4, 1e4, allow_nan=False),
        span=st.floats(0, 1e4, allow_nan=False),
        bitwidth=st.sampled_from(VALID_BITWIDTHS),
        signed=st.booleans(),
    )
    def test_zero_always_representable(self, lo, span, bitwidth, signed):
        p = calibrate_asymmetric(np.array([lo, lo + span]), bitwidth, signed)
        zero = quantize(np.array([0.0]), p)
        assert dequantize(zero)[0] == 0.0


class TestBiasParams:
    @pytest.mark.parametrize("bx,expected", [(8, 18), (6, 16), (4, 14)])
    def test_bitwidth_with_8bit_weights(self, bx, expected):
        x = QuantParams(0.1, 0, bx, True, QuantScheme.ASYMMETRIC)
        w = QuantParams(0.1, 0, 8, True, QuantScheme.ASYMMETRIC)
        assert derive_bias_params(x, w).bitwidth == expected

    def test_scale_is_product(self):
        x = QuantParams(0.5, 0, 8, True, QuantScheme.ASYMMETRIC)
        w = QuantParams(0.25, 0, 8, True, QuantScheme.ASYMMETRIC)
        b = derive_bias_params(x, w)
        assert b.scale == pytest.approx(0.125)
        assert b.zero_point == 0
        assert b.scheme is QuantScheme.SYMMETRIC

    def test_all_pairs_in_range(self):
        for bx in VALID_BITWIDTHS:
            for bw in VALID_BITWIDTHS:
                x = QuantParams(1.0, 0, bx, True, QuantScheme.ASYMMETRIC)
                w = QuantParams(1.0, 0, bw, True, QuantScheme.ASYMMETRIC)
                assert 10 <= derive_bias_params(x, w).bitwidth <= 18


class TestQuantizeDequantize:
    def test_lattice_points_exact(self):
        p = QuantParams(0.05, -3, 8, True, QuantScheme.ASYMMETRIC)
        ks = np.arange(p.q_min, p.q_max + 1)
        v = p.scale * (ks - p.zero_point)
        assert np.array_equal(quantize(v, p).data, ks)

    def test_saturation(self):
        p = QuantParams(1 / 255, 0, 8, False, QuantScheme.ASYMMETRIC)
        t = quantize(np.array([-10.0, 10.0]), p)
        assert list(t.data) == [0, 255]

    @settings(max_examples=200, deadline=None)
    @given(
        value=st.floats(-100, 100, allow_nan=False),
        scale=st.floats(1e-4, 10, allow_nan=False),
        bitwidth=st.sampled_from(VALID_BITWIDTHS),
    )
    def test_round_trip_error_bound(self, value, scale, bitwidth):
        p = QuantParams(scale, 0, bitwidth, True, QuantScheme.ASYMMETRIC)
        lo, hi = p.real_range()
        assume(lo <= value <= hi)
        err = abs(dequantize(quantize(np.array([value]), p))[0] - value)
        assert err <= scale / 2 + 1e-12

    def test_fake_quantize_mask(self):
        p = QuantParams(1 / 255, 0, 8, False, QuantScheme.ASYMMETRIC)
        dq, inside = fake_quantize(np.array([0.5, 2.0, -1.0]), p)
        assert list(inside) == [True, False, False]
        assert dq[1] == pytest.approx(1.0)  # clamped to the top of the range

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fake_quantize_matches_the_rounding_formula_bit_for_bit(self, data):
        bitwidth = data.draw(st.integers(2, 24), label="bitwidth")
        signed = data.draw(st.booleans(), label="signed")
        q_min, q_max = int_range(bitwidth, signed)
        if signed and data.draw(st.booleans(), label="symmetric"):
            zero_point, scheme = 0, QuantScheme.SYMMETRIC
        else:
            zero_point, scheme = data.draw(st.integers(q_min, q_max)), QuantScheme.ASYMMETRIC
        scale = data.draw(st.floats(1e-6, 1e3), label="scale")
        p = QuantParams(scale, zero_point, bitwidth, signed, scheme)

        # grid offsets from the zero point: exact grid points, ties at (k + 1/2)
        # * scale, and their neighbours at, inside and beyond q_min and q_max
        offset = st.sampled_from([q_min, q_max]).flatmap(
            lambda edge: st.integers(edge - zero_point - 3, edge - zero_point + 3)
        ) | st.integers(q_min - zero_point - 3, q_max - zero_point + 3)
        on_grid = st.builds(lambda k, half: (k + half) * scale, offset, st.sampled_from([0, 0.5]))
        nudged = st.builds(
            lambda v, toward: float(np.nextafter(v, toward)),
            on_grid, st.sampled_from([-math.inf, math.inf]),
        )
        special = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0])
        value = on_grid | nudged | special | st.floats(allow_nan=True, allow_infinity=True)
        values = np.array(data.draw(st.lists(value, min_size=1, max_size=40), label="values"))
        before = values.copy()

        out, inside = fake_quantize(values, p)

        raw = round_half_away(values / p.scale) + p.zero_point
        expected_inside = (raw >= p.q_min) & (raw <= p.q_max)
        expected = p.scale * (np.clip(raw, p.q_min, p.q_max) - p.zero_point)
        assert out.dtype == expected.dtype and out.tobytes() == expected.tobytes()
        assert np.array_equal(inside, expected_inside)
        assert values.tobytes() == before.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow")
    @settings(max_examples=200, deadline=None)
    @given(
        bitwidth=st.integers(2, 18),
        signed=st.booleans(),
        scale=st.floats(1e-6, 1e3),
        values=st.lists(st.floats(width=32, allow_nan=True, allow_infinity=True),
                        min_size=1, max_size=40),
    )
    def test_float32_input_takes_the_formula_in_float32(self, bitwidth, signed, scale, values):
        # training's grids are at most 18 bits wide, so every grid integer is
        # exact in float32 and the result stays on the float32 grid
        q_min, q_max = int_range(bitwidth, signed)
        p = QuantParams(scale, (q_min + q_max) // 2, bitwidth, signed, QuantScheme.ASYMMETRIC)
        values = np.array(values, dtype=np.float32)
        out, inside = fake_quantize(values, p)
        raw = round_half_away(values / p.scale) + p.zero_point
        expected = p.scale * (np.clip(raw, p.q_min, p.q_max) - p.zero_point)
        assert expected.dtype == np.float32
        assert out.dtype == np.float32 and out.tobytes() == expected.tobytes()
        assert np.array_equal(inside, (raw >= p.q_min) & (raw <= p.q_max))

    @pytest.mark.parametrize("values, dtype", [
        (np.array([0.3, -1.2], dtype=np.float32), np.float32),
        (np.array([0.3, -1.2]), np.float64),
        (np.array([3, -1]), np.float64),
        (0.3, np.float64),
        (3, np.float64),
    ], ids=["float32", "float64", "int", "python-float", "python-int"])
    def test_fake_quantize_dtype(self, values, dtype):
        p = QuantParams(0.05, 3, 8, True, QuantScheme.ASYMMETRIC)
        out, inside = fake_quantize(values, p)
        assert out.dtype == dtype and inside.dtype == np.bool_

    def test_quantized_tensor_rejects_out_of_range(self):
        p = QuantParams(1.0, 0, 4, True, QuantScheme.ASYMMETRIC)
        with pytest.raises(ValueError, match="range"):
            from mixprec.quant import QuantizedTensor

            QuantizedTensor(data=np.array([100]), params=p)


def exact_rounding_shift(p: int, s: int) -> int:
    """p / 2**s rounded half away from zero, in Python integers."""
    q, r = divmod(abs(p), 1 << s)
    q += 2 * r >= (1 << s)
    return q if p >= 0 else -q


@st.composite
def products_and_shifts(draw):
    s = draw(st.integers(0, 62))
    p = draw(st.integers(-(2**62), 2**62))
    if s and draw(st.booleans()):  # move p onto a tie, exactly halfway between multiples
        p = (p >> s << s) + (1 << (s - 1))
        if p > 2**62:
            p -= 1 << s
    return p, s


class TestRoundingShift:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(products_and_shifts(), min_size=1, max_size=20))
    def test_matches_exact_integer_rounding(self, pairs):
        p = np.array([p for p, _ in pairs], dtype=np.int64)
        s = np.array([s for _, s in pairs], dtype=np.int64)
        expected = [exact_rounding_shift(int(a), int(b)) for a, b in pairs]
        assert rounding_shift(p, s).tolist() == expected  # per-element shifts
        for i, (_, shift) in enumerate(pairs):  # one scalar shift for the whole array
            assert rounding_shift(p, shift)[i] == expected[i]

    def test_shift_zero_is_identity(self):
        p = np.array([-(2**62), -3, -1, 0, 1, 2**62], dtype=np.int64)
        assert np.array_equal(rounding_shift(p, 0), p)
        assert np.array_equal(rounding_shift(p, np.zeros_like(p)), p)


class TestRequantizer:
    def test_guard_rejects_accumulators_outside_31_bits(self):
        r = make_requantizer(1.0, 2.0**20)
        for acc in (2**31, -(2**31)):
            with pytest.raises(AssertionError, match="32-bit"):
                requantize(np.array([0, acc]), r, out_zero_point=0, out_bitwidth=8)
        for acc in (2**31 - 1, -(2**31 - 1)):
            assert requantize(acc, r, out_zero_point=0, out_bitwidth=16) == round(acc / 2**20)

    def test_unit_ratio_maps_to_zero_point_offset(self):
        r = make_requantizer(0.5, 0.5)
        for k in (-7, 0, 3):
            assert requantize(k, r, out_zero_point=10, out_bitwidth=8) == k + 10

    def test_zero_acc_gives_zero_point(self):
        r = make_requantizer(0.013, 0.27)
        assert requantize(0, r, out_zero_point=-5, out_bitwidth=8) == -5

    def test_saturates_to_output_range(self):
        r = make_requantizer(1.0, 1.0)
        assert requantize(1000, r, out_zero_point=0, out_bitwidth=8) == 127
        assert requantize(-1000, r, out_zero_point=0, out_bitwidth=8) == -128

    def test_out_of_dynamic_range_rejected(self):
        with pytest.raises(ValueError, match="dynamic range"):
            make_requantizer(1e12, 1e-12)
        with pytest.raises(ValueError, match="positive"):
            make_requantizer(0.0, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        s_in=st.floats(1e-6, 1e6, allow_nan=False),
        s_out=st.floats(1e-6, 1e6, allow_nan=False),
    )
    def test_ratio_accuracy(self, s_in, s_out):
        ratio = s_in / s_out
        assume(2.0**-31 < ratio < 2.0**31)
        r = make_requantizer(s_in, s_out)
        assert 2**30 <= r.multiplier < 2**31
        assert abs(r.ratio - ratio) / ratio < 2.0**-29

    @settings(max_examples=300, deadline=None)
    @given(
        s_in=st.floats(1e-4, 1e4, allow_nan=False),
        s_out=st.floats(1e-4, 1e4, allow_nan=False),
        acc=st.integers(-(2**24), 2**24),
        zp=st.integers(-128, 127),
    )
    def test_against_float_oracle(self, s_in, s_out, acc, zp):
        ratio = s_in / s_out
        assume(2.0**-31 < ratio < 2.0**31)
        r = make_requantizer(s_in, s_out)
        got = requantize(acc, r, out_zero_point=zp, out_bitwidth=16)
        reference = round_half_away(acc * ratio) + zp
        reference = min(max(reference, -(2**15)), 2**15 - 1)
        assert abs(got - reference) <= 1

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        r = make_requantizer(0.0123, 0.456)
        accs = rng.integers(-(2**20), 2**20, size=1000)
        vec = requantize(accs, r, out_zero_point=3, out_bitwidth=8)
        for a, v in zip(accs[:50], vec[:50]):
            assert requantize(int(a), r, out_zero_point=3, out_bitwidth=8) == v


def quantized_at(combo: BitwidthCombination):
    """A small model quantized at ``combo``, calibrated on random windows."""
    config = ModelConfig(seq_len=4, input_dim=2, d_model=4)
    data = np.random.default_rng(0).normal(size=(16, 4, 2))
    return quantize_model(init(config, 0), combo, calibration_data=data)


def bias_width(qm, linear: str) -> int:
    return qm.tensors[f"{linear}.bias"].params.bitwidth


class TestCascadePlan:
    """The combination is the plan: every junction and weight grid of a
    quantized model has its component's bitwidth, and each bias grid the
    width of its linear's input plus weight plus guard bits."""

    def test_uniform_8bit(self):
        qm = quantized_at(BitwidthCombination.uniform(8))
        assert {p.bitwidth for p in qm.act_params.values()} == {8}
        assert {bias_width(qm, name) for name in LINEARS} == {18}

    def test_uniform_plans_are_fixed_points(self):
        for b in VALID_BITWIDTHS:
            qm = quantized_at(BitwidthCombination.uniform(b))
            biases = {f"{name}.bias" for name in LINEARS}
            grids = [*qm.act_params.values()]
            grids += [t.params for name, t in qm.tensors.items() if name not in biases]
            assert {p.bitwidth for p in grids} == {b}
            assert {bias_width(qm, name) for name in LINEARS} == {2 * b + 2}

    def test_mha_inherits_add_pe_output(self):
        qm = quantized_at(BitwidthCombination.parse("8,8,4,8,8,8,8,8,8,8"))
        assert qm.grid("add_pe.out").bitwidth == 8
        assert qm.grid("mha.wq.weight").bitwidth == 4
        assert qm.grid("mha.out").bitwidth == 4
        assert bias_width(qm, "mha.wq") == 8 + 4 + 2
        assert bias_width(qm, "mha.wo") == 4 + 4 + 2

    def test_residual_add_sees_both_paths(self):
        qm = quantized_at(BitwidthCombination.parse("6,8,6,8,6,6,8,8,8,8"))

        def addend_widths(add: str) -> tuple[int, ...]:
            (node,) = (node for node in NODES if node.layer == add)
            return tuple(qm.grid(name).bitwidth for name in node.inputs)

        assert addend_widths("add_mha") == (8, 6)  # (skip from add_pe, main from mha)
        assert qm.grid("add_mha.out").bitwidth == 8
        assert addend_widths("add_ffn") == (6, 6)  # (skip from bn_mha, main from ffn)

    def test_ffn_second_linear_uniform_at_module_bitwidth(self):
        qm = quantized_at(BitwidthCombination.parse("8,8,6,8,6,4,8,8,8,8"))
        assert bias_width(qm, "ffn.w1") == 6 + 4 + 2
        assert bias_width(qm, "ffn.w2") == 4 + 4 + 2

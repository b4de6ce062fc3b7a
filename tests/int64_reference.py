"""Test-only reference: the integer forward pass with int64 matmuls.

Every matmul runs in int64 (NumPy's non-BLAS integer loop) and every
rounding shift as a magnitude/sign round trip, so nothing here depends on
the float64 exactness argument of ``mixprec.quantized``. It reads the grids,
integer tensors, batch-norm folds and requantizers of a ``QuantizedModel``
and recomputes everything else (the context and residual-add requantizers
and the batch norms' fixed-point constants included), so ``forward_integer``
must equal it bit for bit. It is too slow for the library: about 1 ms a
window at d_model=64.
"""

from __future__ import annotations

import math

import numpy as np

from mixprec.quant import QuantizedTensor, Requantizer, int_range, make_requantizer
from mixprec.quantized import (
    _EXP2_IDX_BITS,
    _EXP2_LUT,
    _PROB_ACC_BITS,
    _SOFTMAX_FRAC_BITS,
    QuantizedModel,
    _bn_integer_constants,
)


def rounding_shift(product: np.ndarray, shift: int) -> np.ndarray:
    if shift == 0:
        return product
    magnitude = np.abs(product)
    rounded = (magnitude + (1 << (shift - 1))) >> shift
    return np.sign(product) * rounded


def rounding_shift_array(p: np.ndarray, shift: np.ndarray | int) -> np.ndarray:
    shift = np.asarray(shift, dtype=np.int64)
    half = np.where(shift > 0, np.int64(1) << np.maximum(shift - 1, 0), 0)
    return np.sign(p) * ((np.abs(p) + half) >> shift)


def requantize(acc: np.ndarray, r: Requantizer, zero_point: int, bits: int, signed: bool):
    acc = np.asarray(acc, dtype=np.int64)
    assert np.abs(acc).max() < (1 << 31)
    q = rounding_shift(acc * np.int64(r.multiplier), r.shift) + zero_point
    return np.clip(q, *int_range(bits, signed))


def integer_softmax_fixed(scores_q: np.ndarray, score_scale: float) -> np.ndarray:
    u = scores_q.max(axis=-1, keepdims=True) - scores_q
    c = min(round(score_scale * math.log2(math.e) * (1 << _SOFTMAX_FRAC_BITS)), 1 << 40)
    w = u * c
    n_exp = w >> _SOFTMAX_FRAC_BITS
    rem = w & ((1 << _SOFTMAX_FRAC_BITS) - 1)
    interp_bits = _SOFTMAX_FRAC_BITS - _EXP2_IDX_BITS
    idx = rem >> interp_bits
    frac = rem & ((1 << interp_bits) - 1)
    base = _EXP2_LUT[idx]
    delta = _EXP2_LUT[idx + 1] - base
    e_val = base + rounding_shift_array(delta * frac, interp_bits)
    e_val = np.where(n_exp >= 62, 0, rounding_shift_array(e_val, np.minimum(n_exp, 61)))

    total = e_val.sum(axis=-1, keepdims=True)
    raw = e_val << _PROB_ACC_BITS
    q = raw // total
    remainder = raw - q * total
    deficit = (1 << _PROB_ACC_BITS) - q.sum(axis=-1)
    order = np.argsort(-remainder, axis=-1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(scores_q.shape[-1]), axis=-1)
    return q + (ranks < deficit[..., None])


def forward_integer_int64(qm: QuantizedModel, X_q: QuantizedTensor) -> np.ndarray:
    """The dequantized output for a batch of quantized windows (n_windows, seq, m)."""
    act, rt = qm.act_params, qm.runtime

    def requant(acc, r, junction):
        p = act[junction]
        return requantize(acc, r, p.zero_point, p.bitwidth, p.signed)

    def linear(x, in_junction, name, out_junction):
        w, b = qm.tensors[f"{name}.weight"], qm.tensors[f"{name}.bias"]
        acc = (x - act[in_junction].zero_point) @ (w.data - w.params.zero_point) + b.data
        return requant(acc, rt.linear[name], out_junction)

    def add(x1, p1, x2, p2, out_junction):
        out_p = act[out_junction]
        a1 = requant(x1 - p1.zero_point, make_requantizer(p1.scale, out_p.scale), out_junction)
        a2 = requant(x2 - p2.zero_point, make_requantizer(p2.scale, out_p.scale), out_junction)
        return np.clip(a1 + a2 - out_p.zero_point, out_p.q_min, out_p.q_max)

    def bn(x, in_junction, prefix, out_junction):
        in_p, out_p = act[in_junction], act[out_junction]
        folds = (qm.bn_folds[f"{prefix}.fold_a"], qm.bn_folds[f"{prefix}.fold_b"])
        c = _bn_integer_constants(*folds, in_p, out_p)
        product = c["sign"] * (x - in_p.zero_point) * c["mult"] + c["offset"]
        y = rounding_shift_array(product, c["shift"]) + out_p.zero_point
        return np.clip(y, out_p.q_min, out_p.q_max)

    x = X_q.data.astype(np.int64)
    h = linear(x, "input", "l_input", "l_input.out")
    pe = qm.tensors["pos_encoding"]
    xe = add(h, act["l_input.out"], pe.data, pe.params, "add_pe.out")
    q = linear(xe, "add_pe.out", "mha.wq", "mha.q")
    k = linear(xe, "add_pe.out", "mha.wk", "mha.k")
    v = linear(xe, "add_pe.out", "mha.wv", "mha.v")
    s_acc = (q - act["mha.q"].zero_point) @ (k - act["mha.k"].zero_point).transpose(0, 2, 1)
    s = requant(s_acc, rt.scores, "mha.scores")
    p = requant(integer_softmax_fixed(s, act["mha.scores"].scale), rt.probs, "mha.probs")
    pp, cp = act["mha.probs"], act["mha.context"]
    ctx_acc = (p - pp.zero_point) @ (v - act["mha.v"].zero_point)
    ctx = requant(ctx_acc, make_requantizer(pp.scale * act["mha.v"].scale, cp.scale), "mha.context")
    mo = linear(ctx, "mha.context", "mha.wo", "mha.out")
    r1 = add(xe, act["add_pe.out"], mo, act["mha.out"], "add_mha.out")
    a = bn(r1, "add_mha.out", "bn_mha", "bn_mha.out")
    f1 = linear(a, "bn_mha.out", "ffn.w1", "ffn.hidden")
    f2 = linear(f1, "ffn.hidden", "ffn.w2", "ffn.out")
    r2 = add(a, act["bn_mha.out"], f2, act["ffn.out"], "add_ffn.out")
    f = bn(r2, "add_ffn.out", "bn_ffn", "bn_ffn.out")
    g = requant((f - act["bn_ffn.out"].zero_point).sum(axis=1), rt.gap, "gap.out")
    yp = act["output"]
    y_q = linear(g, "gap.out", "l_output", "output")
    return yp.scale * (y_q.astype(np.float64) - yp.zero_point)

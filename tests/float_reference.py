"""Test-only reference: the float forward and backward written out by hand.

This is the encoder's float graph spelled out once forward and once in
reverse, with no hooks and no masks. ``mixprec.model.forward_float`` and
``mixprec.training.backward`` interpret one shared dataflow description, so
they must reproduce these two functions bit for bit, except for the weight
gradients over (batch, seq_len, features) operands: this file sums those with
``einsum``, the library with one matmul over the batch * seq_len rows, so
they agree to within the rounding of two summation orders. The batch-norm
helpers are imported: their float arithmetic is not part of the dataflow.
"""

from __future__ import annotations

import math

import numpy as np

from mixprec.model import FloatModel, _bn_forward, softmax
from mixprec.training import _bn_backward


def forward_float(
    model: FloatModel, X: np.ndarray, mode: str = "eval"
) -> tuple[np.ndarray, dict]:
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 2
    if single:
        X = X[None]
    cfg = model.config
    if X.shape[1:] != (cfg.seq_len, cfg.input_dim):
        raise ValueError(
            f"input shape {X.shape[1:]} does not match (seq_len, input_dim) = "
            f"({cfg.seq_len}, {cfg.input_dim})"
        )
    p = model.params
    cache: dict = {"X": X, "mode": mode}

    H = X @ p["l_input.weight"] + p["l_input.bias"]
    Xe = H + p["pos_encoding"]

    Q = Xe @ p["mha.wq.weight"] + p["mha.wq.bias"]
    K = Xe @ p["mha.wk.weight"] + p["mha.wk.bias"]
    V = Xe @ p["mha.wv.weight"] + p["mha.wv.bias"]
    S = (Q @ K.transpose(0, 2, 1)) / math.sqrt(cfg.d_model)
    P = softmax(S)
    ctx = P @ V
    mha_out = ctx @ p["mha.wo.weight"] + p["mha.wo.bias"]

    R1 = Xe + mha_out
    A = _bn_forward(R1, model, "bn_mha", mode, cache)

    F1_pre = A @ p["ffn.w1.weight"] + p["ffn.w1.bias"]
    F1 = np.maximum(F1_pre, 0.0)
    F2 = F1 @ p["ffn.w2.weight"] + p["ffn.w2.bias"]

    R2 = A + F2
    F = _bn_forward(R2, model, "bn_ffn", mode, cache)

    g = F.mean(axis=1)
    Y = g @ p["l_output.weight"] + p["l_output.bias"]

    cache.update(
        H=H, Xe=Xe, Q=Q, K=K, V=V, S=S, P=P, ctx=ctx, mha_out=mha_out,
        R1=R1, A=A, F1_pre=F1_pre, F1=F1, F2=F2, R2=R2, F=F, g=g, Y=Y,
    )
    return (Y[0] if single else Y), cache


def backward(
    model: FloatModel, cache: dict, dY: np.ndarray, operands: dict | None = None
) -> dict[str, np.ndarray]:
    """Float gradients; ``operands``, if given, receives the (x, d_out) pair
    behind each einsum weight gradient, keyed by linear name."""
    if operands is None:
        operands = {}
    p = model.params
    d = model.config.d_model
    n = model.config.seq_len
    grads: dict[str, np.ndarray] = {}
    dY = np.asarray(dY, dtype=np.float64)
    if dY.ndim == 1:
        dY = dY[None]

    g, F = cache["g"], cache["F"]
    grads["l_output.weight"] = g.T @ dY
    grads["l_output.bias"] = dY.sum(axis=0)
    dg = dY @ p["l_output.weight"].T

    dF = np.repeat(dg[:, None, :], n, axis=1) / n

    dR2, grads["bn_ffn.gamma"], grads["bn_ffn.beta"] = _bn_backward(
        dF, cache["bn_ffn"], p["bn_ffn.gamma"]
    )

    dA = dR2.copy()
    dF2 = dR2
    F1 = cache["F1"]
    operands["ffn.w2"] = (F1, dF2)
    grads["ffn.w2.weight"] = np.einsum("bnf,bnd->fd", F1, dF2)
    grads["ffn.w2.bias"] = dF2.sum(axis=(0, 1))
    dF1 = dF2 @ p["ffn.w2.weight"].T
    dF1_pre = dF1 * (cache["F1_pre"] > 0)
    A = cache["A"]
    operands["ffn.w1"] = (A, dF1_pre)
    grads["ffn.w1.weight"] = np.einsum("bnd,bnf->df", A, dF1_pre)
    grads["ffn.w1.bias"] = dF1_pre.sum(axis=(0, 1))
    dA += dF1_pre @ p["ffn.w1.weight"].T

    dR1, grads["bn_mha.gamma"], grads["bn_mha.beta"] = _bn_backward(
        dA, cache["bn_mha"], p["bn_mha.gamma"]
    )

    dXe = dR1.copy()
    d_mha = dR1
    ctx = cache["ctx"]
    operands["mha.wo"] = (ctx, d_mha)
    grads["mha.wo.weight"] = np.einsum("bnd,bne->de", ctx, d_mha)
    grads["mha.wo.bias"] = d_mha.sum(axis=(0, 1))
    d_ctx = d_mha @ p["mha.wo.weight"].T

    P, V, Q, K = cache["P"], cache["V"], cache["Q"], cache["K"]
    dP = d_ctx @ V.transpose(0, 2, 1)
    dV = P.transpose(0, 2, 1) @ d_ctx
    dS = P * (dP - (dP * P).sum(axis=-1, keepdims=True))
    scale = 1.0 / math.sqrt(d)
    dQ = (dS @ K) * scale
    dK = (dS.transpose(0, 2, 1) @ Q) * scale

    Xe = cache["Xe"]
    for name, dT in (("mha.wq", dQ), ("mha.wk", dK), ("mha.wv", dV)):
        operands[name] = (Xe, dT)
        grads[f"{name}.weight"] = np.einsum("bnd,bne->de", Xe, dT)
        grads[f"{name}.bias"] = dT.sum(axis=(0, 1))
        dXe += dT @ p[f"{name}.weight"].T

    grads["pos_encoding"] = dXe.sum(axis=0)
    dH = dXe
    X = cache["X"]
    operands["l_input"] = (X, dH)
    grads["l_input.weight"] = np.einsum("bnm,bnd->md", X, dH)
    grads["l_input.bias"] = dH.sum(axis=(0, 1))

    for prefix in ("bn_mha", "bn_ffn"):
        grads[f"{prefix}.running_mean"] = np.zeros(d)
        grads[f"{prefix}.running_var"] = np.zeros(d)
    return grads

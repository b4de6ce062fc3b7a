#!/usr/bin/env python3
"""Quantization parameters, requantizers, and the bitwidth cascade."""

import numpy as np

from mixprec import (
    BitwidthCombination,
    ComponentId,
    calibrate_asymmetric,
    dequantize,
    derive_bias_params,
    make_requantizer,
    quantize,
    requantize,
)
from mixprec.model import JUNCTION_COMPONENT, LINEARS, NODES, WEIGHT_COMPONENT
from mixprec.quant import bias_bitwidth

rng = np.random.default_rng(0)

# Asymmetric calibration fits scale and zero point to an observed range,
# always keeping zero exactly representable.
values = rng.normal(0.2, 0.5, size=4096)
params = calibrate_asymmetric(values, bitwidth=8, signed=True)
print(f"calibrated 8-bit: scale {params.scale:.6f}, zero_point {params.zero_point}")
t = quantize(values, params)
err = np.abs(dequantize(t) - np.clip(values, *params.real_range()))
print(f"max in-range round-trip error {err.max():.6f} <= scale/2 = {params.scale / 2:.6f}")

# Bias grids derive from the input and weight grids of a linear layer:
# scale is the product, the width is input + weight + 2 guard bits.
x8 = calibrate_asymmetric(rng.normal(size=100), 8, signed=True)
for bx in (4, 6, 8):
    xb = calibrate_asymmetric(rng.normal(size=100), bx, signed=True)
    bias = derive_bias_params(xb, x8)
    print(f"input {bx}-bit x weight 8-bit -> bias {bias.bitwidth}-bit, scale {bias.scale:.2e}")

# A requantizer carries a scale ratio as a 31-bit multiplier and a shift,
# so rescaling between grids needs only integer multiply-add-shift.
r = make_requantizer(s_in=0.0321, s_out=0.25)
print(f"\nrequantizer for 0.0321/0.25: multiplier {r.multiplier}, shift {r.shift}")
acc = rng.integers(-(2**20), 2**20, size=8)
print("integer result:  ", requantize(acc, r, out_zero_point=3, out_bitwidth=16))
print("float reference:  ", np.round(acc * (0.0321 / 0.25)).astype(int) + 3)

# The combination is the plan: every junction and weight takes its
# component's bitwidth, so each op reads its predecessors' widths (a residual
# add sees both branches) and a linear's bias is input + weight + 2 bits wide.
combo = BitwidthCombination.parse("6,8,6,8,6,6,8,8,8,8")
width = {name: combo[comp] for name, comp in (JUNCTION_COMPONENT | WEIGHT_COMPONENT).items()}
print(f"\ncascade for {combo}:")
for node in NODES:
    if node.component in (ComponentId.MHA, ComponentId.ADD_MHA, ComponentId.FFN):
        inputs = tuple(width[name] for name in node.inputs)
        print(f"  {node.junction:12s} {node.op:11s} inputs {inputs} -> {width[node.junction]}")
bias = {
    layer: bias_bitwidth(width[x], width[f"{layer}.weight"]) for layer, (x, _) in LINEARS.items()
}
print("per-linear bias widths:", bias)

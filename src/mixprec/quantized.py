"""Quantized execution: calibration, fake-quant simulation, integer inference.

All three interpret ``model.Dataflow``. Calibration records each junction's
range; the fake-quant path inserts quantize-dequantize at every junction and
weight, each at its component's bitwidth in the combination; the integer
engine performs the same computation with integer arithmetic only, rescaling
between grids through fixed-point requantizers. The fake-quant forward in
eval mode takes the integer softmax on the integer scores, and both paths
share grids and rounding, so their outputs agree bit for bit.

Residual adds requantize each addend onto the output grid before the integer
addition; the FFN's hidden grid is unsigned with zero point 0, so its
requantizer clamp doubles as the ReLU.

The integer matmuls (eight linears, q.k^T and p.v) run on float BLAS and
are cast back to int64, bit-identical to int64 matmuls. Their operands are
zero-point-corrected integers, so every product and every partial sum, in
whatever order it is formed, is an integer no larger in magnitude than the
matmul's worst sum of magnitudes, fan_in * (2**bx - 1) * (2**bw - 1). Each
matmul's operand type is fixed at plan time from that sum
(``_matmul_dtype``): float32 where it is at most 2**24, since float32
represents every integer up to 2**24 exactly, and float64 elsewhere, where
``_assert_accumulator_bound``'s proof that every accumulator, bias included,
satisfies |acc| < 2**31 keeps it far below float64's 2**53. Each product and
each addition is then exact in any summation order, blocking or FMA use,
hence for any BLAS library and thread count. At d_model 64 every matmul of
every combination takes float32 (the widest, the FFN's second linear at
uniform 8, sums 256 * 255**2 < 2**24). The bias is added in int64, and
``requantize`` re-checks the 2**31 bound at run time.

Batch norm and the residual adds read grids of at most 256 values, so the
runtime tabulates their arithmetic at load, once per (input value, feature)
and once per pair of input values, and the integer engine gathers from the
table, refusing any input off its grid; the 2**31 check on the addends thus
runs at load, over every grid value. The softmax exponential depends only on
u = max(s) - s, at most 2**b - 1 on a b-bit scores grid, so it is evaluated
once per value of u and gathered too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import training
from .components import BitwidthCombination
from .model import (
    BATCH_NORMS,
    BN_TENSORS,
    JUNCTION_COMPONENT,
    LINEARS,
    NODES,
    UNSIGNED_JUNCTIONS,
    WEIGHT_COMPONENT,
    Dataflow,
    FloatModel,
    ModelConfig,
    Node,
    fold_bn,
    tensor_shapes,
)
from .quant import (
    QuantParams,
    QuantizedTensor,
    Requantizer,
    _clip,
    bias_bitwidth,
    derive_bias_params,
    fake_quantize,
    make_requantizer,
    params_for_range,
    quantize,
    requantize,
    round_half_away,
    rounding_shift,
)


class CalibrationError(ValueError):
    """Missing or inconsistent calibration for a junction."""


@dataclass(frozen=True)
class CalibrationSet:
    """Per-junction activation quantization parameters."""

    activations: dict[str, QuantParams]

    def require(self, junction: str) -> QuantParams:
        if junction not in self.activations:
            raise CalibrationError(f"no calibration for junction {junction!r}")
        return self.activations[junction]


# The component of every junction and weight tensor: each is quantized at
# ``combo[_COMPONENT[name]]``, its component's bitwidth.
_COMPONENT = JUNCTION_COMPONENT | WEIGHT_COMPONENT


def _junction_grid(combo: BitwidthCombination, junction: str) -> tuple[int, bool]:
    """(bitwidth, signed) of a junction's grid."""
    return combo[_COMPONENT[junction]], junction not in UNSIGNED_JUNCTIONS


class _RangeRecorder(Dataflow):
    """The float dataflow, recording each junction's (min, max) over every
    batch it runs."""

    def __init__(self, model: FloatModel):
        super().__init__(model)
        self.ranges: dict[str, tuple[float, float]] = {}

    def act(self, junction: str, value: np.ndarray) -> np.ndarray:
        lo, hi = self.ranges.get(junction, (math.inf, -math.inf))
        # np.minimum and np.maximum, unlike min and max, keep a NaN of any batch
        self.ranges[junction] = (
            float(np.minimum(lo, value.min())), float(np.maximum(hi, value.max()))
        )
        return value


def collect_ranges(model: FloatModel, X: np.ndarray) -> dict[str, tuple[float, float]]:
    """Observed (min, max) per junction from an eval-mode float pass over X."""
    recorder = _RangeRecorder(model)
    recorder.predict(X)
    return recorder.ranges


def calibration_from_ranges(
    ranges: dict[str, tuple[float, float]], combo: BitwidthCombination
) -> CalibrationSet:
    activations = {}
    for junction in JUNCTION_COMPONENT:
        if junction not in ranges:
            raise CalibrationError(f"no calibration for junction {junction!r}")
        mn, mx = ranges[junction]
        activations[junction] = params_for_range(mn, mx, *_junction_grid(combo, junction))
    return CalibrationSet(activations=activations)


def calibrate(
    model: FloatModel, combo: BitwidthCombination, calibration_data: np.ndarray
) -> CalibrationSet:
    """Post-training calibration: one eval-mode float pass over the data."""
    data = np.asarray(calibration_data, dtype=np.float64)
    if data.size == 0:
        raise ValueError("calibration data must be non-empty")
    return calibration_from_ranges(collect_ranges(model, data), combo)


def _weight_params(model: FloatModel, combo: BitwidthCombination) -> dict[str, QuantParams]:
    out = {}
    for name, comp in WEIGHT_COMPONENT.items():
        w = model.params[name]
        out[name] = params_for_range(float(w.min()), float(w.max()), combo[comp], signed=True)
    return out


def _matmul_operands(config: ModelConfig, combo: BitwidthCombination) -> dict[str, tuple]:
    """(fan-in, left operand bits, right operand bits) of every integer
    matmul: the eight linears by name, q.k^T as "scores" and p.v as "context"."""
    shapes = tensor_shapes(config)
    width = {name: combo[comp] for name, comp in _COMPONENT.items()}
    operands = {
        name: (shapes[f"{name}.weight"][0], width[junction], width[f"{name}.weight"])
        for name, (junction, _) in LINEARS.items()
    }
    operands["scores"] = (config.d_model, width["mha.q"], width["mha.k"])
    operands["context"] = (config.seq_len, width["mha.probs"], width["mha.v"])
    return operands


def _assert_accumulator_bound(config: ModelConfig, combo: BitwidthCombination) -> None:
    """Worst-case |acc| must stay inside 32 bits for every integer matmul."""
    operands = _matmul_operands(config, combo)
    for name in LINEARS:
        fan_in, bx, bw = operands[name]
        worst = fan_in * (1 << bx) * (1 << bw) + (1 << (bias_bitwidth(bx, bw) - 1))
        if worst >= (1 << 31):
            raise ValueError(
                f"{name}: worst-case accumulator {worst} exceeds 32 bits for this config"
            )
    score_worst, ctx_worst = (
        fan_in << (b1 + b2) for fan_in, b1, b2 in (operands["scores"], operands["context"])
    )
    if max(score_worst, ctx_worst, config.seq_len * 256) >= (1 << 31):
        raise ValueError("attention accumulator exceeds 32 bits for this config")


def _matmul_dtype(fan_in: int, b1: int, b2: int) -> type:
    """The float type that holds every product and partial sum of a matmul of
    zero-point-corrected integers exactly: each is an integer of magnitude at
    most fan_in * (2**b1 - 1) * (2**b2 - 1). float32 represents every integer
    up to 2**24; float64, every integer below 2**53, which the 32-bit
    accumulator bound keeps every other matmul under."""
    worst = fan_in * ((1 << b1) - 1) * ((1 << b2) - 1)
    return np.float32 if worst <= 1 << 24 else np.float64


# --- integer softmax ---------------------------------------------------------

# 2**(-f) lookup for the decomposition exp(t) = 2**(-(n+f)), t <= 0, with
# integer linear interpolation between entries. Entry precision and table
# size are chosen so the integer path stays within one grid step of the
# float softmax at 8-bit probability grids.
_EXP2_IDX_BITS = 10
_EXP2_LUT_BITS = 24
_EXP2_LUT = np.array(
    [
        round((2.0 ** (-i / (1 << _EXP2_IDX_BITS))) * (1 << _EXP2_LUT_BITS))
        for i in range((1 << _EXP2_IDX_BITS) + 1)
    ],
    dtype=np.int64,
)
_SOFTMAX_FRAC_BITS = 26  # fixed-point resolution of t * log2(e)
_PROB_ACC_BITS = 24  # normalized probabilities in Q24


def _exp2_neg(u: np.ndarray, c: int) -> np.ndarray:
    """2**(-u * c / 2**_SOFTMAX_FRAC_BITS) in Q(_EXP2_LUT_BITS) for int64 u >= 0:
    the fractional power from the table, linearly interpolated in integer
    arithmetic, then the integer power as a rounding shift."""
    w = u * c
    n_exp = w >> _SOFTMAX_FRAC_BITS
    rem = w & ((1 << _SOFTMAX_FRAC_BITS) - 1)
    interp_bits = _SOFTMAX_FRAC_BITS - _EXP2_IDX_BITS
    idx = rem >> interp_bits
    frac = rem & ((1 << interp_bits) - 1)
    base = _EXP2_LUT[idx]
    delta = _EXP2_LUT[idx + 1] - base  # negative
    e_val = base + rounding_shift(delta * frac, interp_bits)
    return np.where(n_exp >= 62, 0, rounding_shift(e_val, np.minimum(n_exp, 61)))


def integer_softmax_fixed(scores_q: np.ndarray, score_scale: float) -> np.ndarray:
    """Row-wise softmax over integer scores in Q(_PROB_ACC_BITS) fixed point.

    Max-subtraction in the integer domain, exponential via the 2**x
    decomposition with the fractional table (linearly interpolated in integer
    arithmetic), then normalization by rounded integer division. Rows sum to
    exactly 2**_PROB_ACC_BITS: the division residue goes to the entries with
    the largest remainders (ties to the lower index).

    Scores on a b-bit grid give u = max - s in [0, 2**b - 1], so the
    exponential is evaluated once per value of u up to its maximum and looked
    up.
    """
    scores_q = np.asarray(scores_q, dtype=np.int64)
    row = scores_q.shape[-1]
    u = scores_q.max(axis=-1, keepdims=True) - scores_q  # >= 0, zero point cancels
    c = round(score_scale * math.log2(math.e) * (1 << _SOFTMAX_FRAC_BITS))
    c = min(c, 1 << 40)  # beyond this the softmax is one-hot anyway
    top = int(u.max(initial=0))
    e_val = _exp2_neg(np.arange(top + 1), c).take(u)

    total = e_val.sum(axis=-1, keepdims=True)  # >= 2**15 (the max entry)
    q, remainder = np.divmod(e_val << _PROB_ACC_BITS, total)
    deficit = (1 << _PROB_ACC_BITS) - q.sum(axis=-1, keepdims=True)  # in [0, row)
    # one key per entry, unique in its row, ordered by remainder and then by
    # lower index: the deficit largest keys are those above the row's
    # (deficit + 1)-th largest. remainder < total <= row * 2**24, so the key
    # is below row**2 * 2**24 + row and fits int64 for rows up to 2**19.
    key = remainder * row
    key += np.arange(row - 1, -1, -1)
    threshold = np.take_along_axis(np.sort(key, axis=-1), row - 1 - deficit, axis=-1)
    q += key > threshold
    return q


# --- quantized model ----------------------------------------------------------


@dataclass(frozen=True)
class _BnTable:
    """Batch norm on an integer input grid, tabulated: ``values[x - q_min, j]``
    is feature j's output for input x."""

    values: np.ndarray  # (q_max - q_min + 1, d_model) int64
    q_min: int
    q_max: int

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # an input off the grid would read another feature's entry
        if x.size and (x.min() < self.q_min or x.max() > self.q_max):
            raise AssertionError("batch norm input outside its grid")
        d = self.values.shape[1]
        index = x * d
        index += np.arange(d) - self.q_min * d
        return self.values.take(index)


@dataclass(frozen=True)
class _AddTable:
    """A residual add on two integer input grids, tabulated:
    ``values[x1 * width + x2 - offset]`` is the output for inputs x1 and x2."""

    values: np.ndarray  # (grid 1 size * width,) int64
    width: int  # the size of x2's grid
    offset: int  # q1_min * width + q2_min
    grids: tuple[tuple[int, int], tuple[int, int]]  # (q_min, q_max) of x1 and of x2

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        # an input off its grid would read another pair's entry
        for x, (lo, hi) in zip((x1, x2), self.grids):
            if x.size and (x.min() < lo or x.max() > hi):
                raise AssertionError("residual add input outside its grid")
        index = x1 * self.width  # x1 is the full-shape addend, x2 may broadcast
        index += x2
        index -= self.offset
        return self.values.take(index)


@dataclass
class _Runtime:
    """Requantizers and folded integer constants derived from the params."""

    linear: dict[str, Requantizer] = field(default_factory=dict)
    # operand type of every integer matmul (``_matmul_dtype``), by
    # ``_matmul_operands`` name
    dtype: dict[str, type] = field(default_factory=dict)
    weights: dict[str, np.ndarray] = field(default_factory=dict)  # w - zero point, dtype[name]
    add: dict[str, _AddTable] = field(default_factory=dict)
    bn: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)  # what bn_table tabulates
    bn_table: dict[str, _BnTable] = field(default_factory=dict)
    scores: Requantizer | None = None
    probs: Requantizer | None = None
    ctx: Requantizer | None = None
    gap: Requantizer | None = None


@dataclass
class QuantizedModel:
    """Integer tensors plus grids, combination, and derived requantizers."""

    config: ModelConfig
    combo: BitwidthCombination
    tensors: dict[str, QuantizedTensor]  # weights and biases
    bn_folds: dict[str, np.ndarray]  # bn_{mha,ffn}.fold_{a,b}, float64
    act_params: dict[str, QuantParams]
    runtime: _Runtime = field(repr=False, default_factory=_Runtime)

    def quantize_input(self, X: np.ndarray) -> QuantizedTensor:
        return quantize(np.asarray(X, dtype=np.float64), self.act_params["input"])

    def grid(self, name: str) -> QuantParams:
        """The grid of a junction or of a stored tensor."""
        return self.act_params[name] if name in self.act_params else self.tensors[name].params


def _bn_integer_constants(
    a: np.ndarray, b: np.ndarray, in_p: QuantParams, out_p: QuantParams
) -> dict[str, np.ndarray]:
    """Per-feature fixed-point multiplier/shift plus pre-shift offset."""
    ratio = a * (in_p.scale / out_p.scale)
    d = ratio.shape[0]
    sign = np.sign(ratio).astype(np.int64)
    mult = np.zeros(d, dtype=np.int64)
    shift = np.zeros(d, dtype=np.int64)
    for j in range(d):
        mag = abs(float(ratio[j]))
        if mag < 2.0**-31:
            sign[j] = 0
            continue
        r = make_requantizer(mag, 1.0)
        mult[j], shift[j] = r.multiplier, r.shift
    offset_real = b / out_p.scale
    raw = round_half_away(offset_real * np.exp2(shift.astype(np.float64)))
    cap = float(1 << 61)  # beyond this the output saturates regardless
    offset = np.clip(raw, -cap, cap).astype(np.int64)
    return {"sign": sign, "mult": mult, "shift": shift, "offset": offset}


def _bn_table(c: dict[str, np.ndarray], in_p: QuantParams, out_p: QuantParams) -> _BnTable:
    """The integer batch norm with constants ``c`` at every value of its input grid."""
    acc = np.arange(in_p.q_min, in_p.q_max + 1, dtype=np.int64)[:, None] - in_p.zero_point
    y = rounding_shift(c["sign"] * acc * c["mult"] + c["offset"], c["shift"])
    values = np.clip(y + out_p.zero_point, out_p.q_min, out_p.q_max)
    return _BnTable(values, in_p.q_min, in_p.q_max)


def _add_table(grids: tuple[QuantParams, QuantParams], out_p: QuantParams) -> _AddTable:
    """The integer residual add at every pair of input grid values: each addend
    requantized onto the output grid, summed, less the zero point, clamped."""
    addends = [
        requantize(
            np.arange(p.q_min, p.q_max + 1, dtype=np.int64) - p.zero_point,
            make_requantizer(p.scale, out_p.scale),
            out_p.zero_point, out_p.bitwidth, out_p.signed,
        )
        for p in grids
    ]
    total = (addends[0] - out_p.zero_point)[:, None] + addends[1]
    values = _clip(total, out_p.q_min, out_p.q_max, out=total).ravel()
    p1, p2 = grids
    width = p2.q_max - p2.q_min + 1
    return _AddTable(
        values, width, p1.q_min * width + p2.q_min,
        ((p1.q_min, p1.q_max), (p2.q_min, p2.q_max)),
    )


def _build_runtime(qm: QuantizedModel) -> None:
    act = qm.act_params
    rt = qm.runtime
    d = qm.config.d_model

    for name, operands in _matmul_operands(qm.config, qm.combo).items():
        rt.dtype[name] = _matmul_dtype(*operands)
    for name, (_, out_junction) in LINEARS.items():
        s_acc = qm.tensors[f"{name}.bias"].params.scale  # = s_x * s_w
        rt.linear[name] = make_requantizer(s_acc, act[out_junction].scale)
        w = qm.tensors[f"{name}.weight"]
        rt.weights[name] = _centered(w.data, w.params.zero_point, rt.dtype[name])

    for node in NODES:
        out = act[node.junction]
        if node.op == "add":
            rt.add[node.layer] = _add_table(tuple(map(qm.grid, node.inputs)), out)
        elif node.op == "bn":
            in_p = act[node.inputs[0]]
            rt.bn[node.layer] = _bn_integer_constants(
                qm.bn_folds[f"{node.layer}.fold_a"], qm.bn_folds[f"{node.layer}.fold_b"], in_p, out
            )
            rt.bn_table[node.layer] = _bn_table(rt.bn[node.layer], in_p, out)

    s_q, s_k = act["mha.q"].scale, act["mha.k"].scale
    rt.scores = make_requantizer(s_q * s_k / math.sqrt(d), act["mha.scores"].scale)
    rt.probs = make_requantizer(2.0**-_PROB_ACC_BITS, act["mha.probs"].scale)
    s_p, s_v = act["mha.probs"].scale, act["mha.v"].scale
    rt.ctx = make_requantizer(s_p * s_v, act["mha.context"].scale)
    rt.gap = make_requantizer(act["bn_ffn.out"].scale / qm.config.seq_len, act["gap.out"].scale)


def _describe(bits: int, signed: bool) -> str:
    return f"{bits}-bit {'signed' if signed else 'unsigned'}"


def _check_grid(what: str, params: QuantParams, bitwidth: int, signed: bool) -> None:
    if (params.bitwidth, params.signed) != (bitwidth, signed):
        raise ValueError(
            f"{what}: {_describe(params.bitwidth, params.signed)} grid, "
            f"the combination gives {_describe(bitwidth, signed)}"
        )


def _describe_grid(p: QuantParams) -> str:
    return (
        f"{_describe(p.bitwidth, p.signed)} {p.scheme.name.lower()} grid "
        f"(scale {p.scale!r}, zero point {p.zero_point})"
    )


def _check_stored(
    config: ModelConfig,
    combo: BitwidthCombination,
    tensors: dict[str, QuantizedTensor],
    bn_folds: dict[str, np.ndarray],
    act_params: dict[str, QuantParams],
) -> None:
    """Stored shapes and grids must be the ones the config and the combination
    give: ``_assert_accumulator_bound`` proves |acc| < 2**31 for those grids only."""
    for junction in JUNCTION_COMPONENT:
        if junction not in act_params:
            raise CalibrationError(f"no calibration for junction {junction!r}")
        grid = _junction_grid(combo, junction)
        _check_grid(f"junction {junction!r}", act_params[junction], *grid)
    extra = sorted(set(act_params) - set(JUNCTION_COMPONENT))
    if extra:
        raise ValueError(f"junction {extra[0]!r}: unexpected")
    biases = [f"{name}.bias" for name in LINEARS]
    folds = [f"{prefix}.fold_{ab}" for prefix in BATCH_NORMS for ab in "ab"]
    for store, names in ((tensors, [*WEIGHT_COMPONENT, *biases]), (bn_folds, folds)):
        for name in names:
            if name not in store:
                raise ValueError(f"tensor {name!r}: missing")
        extra = sorted(set(store) - set(names))
        if extra:
            raise ValueError(f"tensor {extra[0]!r}: unexpected")
    shapes = tensor_shapes(config) | {name: (config.d_model,) for name in folds}
    stored = {name: t.data for name, t in tensors.items()} | bn_folds
    for name, data in stored.items():
        if data.shape != shapes[name]:
            raise ValueError(
                f"tensor {name!r}: shape {list(data.shape)}, expected {list(shapes[name])}"
            )
    for name, comp in WEIGHT_COMPONENT.items():
        _check_grid(f"tensor {name!r}", tensors[name].params, combo[comp], True)
    # a linear's requantizer takes s_x * s_w from its bias grid, and the
    # integer matmul adds the bias with no zero point
    for name, (x_junction, _) in LINEARS.items():
        bias = tensors[f"{name}.bias"].params
        expected = derive_bias_params(act_params[x_junction], tensors[f"{name}.weight"].params)
        if bias != expected:
            raise ValueError(
                f"tensor '{name}.bias': {_describe_grid(bias)}, its input and weight "
                f"grids give {_describe_grid(expected)}"
            )


def build_quantized(
    config: ModelConfig,
    combo: BitwidthCombination,
    tensors: dict[str, QuantizedTensor],
    bn_folds: dict[str, np.ndarray],
    act_params: dict[str, QuantParams],
) -> QuantizedModel:
    """Assemble a quantized model from its stored pieces (used by file load)."""
    _assert_accumulator_bound(config, combo)
    _check_stored(config, combo, tensors, bn_folds, act_params)
    qm = QuantizedModel(
        config=config,
        combo=combo,
        tensors=tensors,
        bn_folds=bn_folds,
        act_params=act_params,
    )
    _build_runtime(qm)
    return qm


def quantize_model(
    model: FloatModel,
    combo: BitwidthCombination,
    calibration_data: np.ndarray | None = None,
    ranges: dict[str, tuple[float, float]] | None = None,
) -> QuantizedModel:
    """Quantize a trained float model.

    Activation grids come from ``ranges`` (e.g. frozen QAT statistics) or from
    a calibration pass over ``calibration_data``; exactly one must be given.
    Batch norm is folded from running statistics before quantization.
    """
    if (calibration_data is None) == (ranges is None):
        raise ValueError("provide exactly one of calibration_data or ranges")
    if ranges is not None:
        calib = calibration_from_ranges(ranges, combo)
    else:
        calib = calibrate(model, combo, calibration_data)

    weight_params = _weight_params(model, combo)
    tensors: dict[str, QuantizedTensor] = {}
    for name, wp in weight_params.items():
        tensors[name] = quantize(model.params[name], wp)
    for name, (junction, _) in LINEARS.items():
        bp = derive_bias_params(calib.activations[junction], weight_params[f"{name}.weight"])
        tensors[f"{name}.bias"] = quantize(model.params[f"{name}.bias"], bp)

    bn_folds = {}
    for prefix in BATCH_NORMS:
        a, b = fold_bn(*(model.params[f"{prefix}.{name}"] for name in BN_TENSORS))
        bn_folds[f"{prefix}.fold_a"] = a
        bn_folds[f"{prefix}.fold_b"] = b

    return build_quantized(model.config, combo, tensors, bn_folds, calib.activations)


# --- integer forward ----------------------------------------------------------


def _centered(x_q: np.ndarray, zero_point: int, dtype: type) -> np.ndarray:
    """``x_q - zero_point`` as ``dtype``, an operand of an exact BLAS matmul (see above)."""
    return np.subtract(x_q, zero_point, dtype=dtype)


def forward_integer(qm: QuantizedModel, X_q: QuantizedTensor) -> np.ndarray:
    """Integer-only inference; returns the dequantized output."""
    if X_q.params != qm.act_params["input"]:
        raise ValueError("input quantization parameters do not match the model's input grid")
    y_q = _IntegerEngine(qm).predict(X_q.data)
    yp = qm.act_params["output"]
    return yp.scale * (y_q.astype(np.float64) - yp.zero_point)


class _IntegerEngine(Dataflow):
    """The dataflow on int64 values, each on the grid of its junction.

    Every op ends in the requantizer onto the grid of the junction it
    produces, so it keeps the plain ``act``.
    """

    def __init__(self, qm: QuantizedModel):
        super().__init__(qm)
        self.rt = qm.runtime
        self._last_centered: tuple = (None, None, None)

    def _requantize(self, acc: np.ndarray, r: Requantizer, junction: str) -> np.ndarray:
        p = self.model.act_params[junction]
        return requantize(acc, r, p.zero_point, p.bitwidth, p.signed)

    def _centered(self, junction: str, x: np.ndarray, dtype: type) -> np.ndarray:
        # mha.wq, wk and wv read one value in a row: they share one copy
        value, key, centered = self._last_centered
        if value is not x or key != (junction, dtype):
            centered = _centered(x, self.model.act_params[junction].zero_point, dtype)
            self._last_centered = (x, (junction, dtype), centered)
        return centered

    def as_input(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.int64)

    def tensor(self, name: str) -> np.ndarray:
        return self.model.tensors[name].data

    def linear(self, node: Node, x: np.ndarray) -> np.ndarray:
        x_c = self._centered(node.inputs[0], x, self.rt.dtype[node.layer])
        acc = (x_c @ self.rt.weights[node.layer]).astype(np.int64)
        acc += self.model.tensors[f"{node.layer}.bias"].data
        return self._requantize(acc, self.rt.linear[node.layer], node.junction)

    # the unsigned hidden grid has zero point 0, so the requantizer's lower
    # clamp already is the ReLU
    linear_relu = linear

    def add(self, node: Node, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        return self.rt.add[node.layer](x1, x2)

    def bn(self, node: Node, x: np.ndarray) -> np.ndarray:
        return self.rt.bn_table[node.layer](x)

    def scores(self, node: Node, q: np.ndarray, k: np.ndarray) -> np.ndarray:
        dtype, (q_name, k_name) = self.rt.dtype[node.op], node.inputs
        k_t = self._centered(k_name, k, dtype).transpose(0, 2, 1)
        acc = (self._centered(q_name, q, dtype) @ k_t).astype(np.int64)
        return self._requantize(acc, self.rt.scores, node.junction)

    def softmax(self, node: Node, s: np.ndarray) -> np.ndarray:
        p_fix = integer_softmax_fixed(s, self.model.act_params[node.inputs[0]].scale)
        return self._requantize(p_fix, self.rt.probs, node.junction)

    def context(self, node: Node, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        dtype, (p_name, v_name) = self.rt.dtype[node.op], node.inputs
        v_c = self._centered(v_name, v, dtype)
        acc = (self._centered(p_name, p, dtype) @ v_c).astype(np.int64)
        return self._requantize(acc, self.rt.ctx, node.junction)

    def pool(self, node: Node, f: np.ndarray) -> np.ndarray:
        acc = (f - self.model.act_params[node.inputs[0]].zero_point).sum(axis=1)
        return self._requantize(acc, self.rt.gap, node.junction)


# --- fake-quant forward -------------------------------------------------------


class _FakeEngine(Dataflow):
    """The float dataflow with grid snapping at every junction and weight.

    ``provider(junction, value)`` returns the junction's QuantParams (and may
    observe ``value`` to update running ranges during QAT).

    An engine reads the model's tensors once: their grids are fixed at
    construction and each tensor is snapped once per grid, however many
    batches ``predict`` runs. Training builds a new engine for every step,
    since the parameters move between steps.
    """

    def __init__(self, model: FloatModel, combo: BitwidthCombination, provider):
        super().__init__(model)
        self.provider = provider
        self.weight_params = _weight_params(model, combo)
        # mask key -> (grid, snapped tensor, mask)
        self._tensors: dict[str, tuple[QuantParams, np.ndarray, np.ndarray]] = {}

    def _snap(self, value: np.ndarray, params: QuantParams, mask_key: str) -> np.ndarray:
        # fake_quantize gives the bits and mask of round_half_away -> clip, so
        # the eval forward still equals the integer engine; the mask is all
        # training.backward learns of the value
        out, inside = fake_quantize(value, params)
        self.masks[mask_key] = inside
        return out

    def _snap_tensor(self, value: np.ndarray, params: QuantParams, mask_key: str) -> np.ndarray:
        cached = self._tensors.get(mask_key)
        if cached is None or cached[0] != params:
            out = self._snap(value, params, mask_key)
            self._tensors[mask_key] = (params, out, self.masks[mask_key])
            return out
        self.masks[mask_key] = cached[2]
        return cached[1]

    def act(self, junction: str, value: np.ndarray) -> np.ndarray:
        return self._snap(value, self.provider(junction, value), junction)

    def tensor(self, name: str) -> np.ndarray:
        # a weight's mask key is its layer's: "w:mha.wq" for "mha.wq.weight"
        mask_key = f"w:{name.removesuffix('.weight')}"
        return self._snap_tensor(super().tensor(name), self.weight_params[name], mask_key)

    def bias(self, node: Node) -> np.ndarray:
        # the feeding junction is always computed (hence observed) before the
        # linear that consumes it, so its parameters are available here; the
        # bias's grid follows them, so a moved input grid snaps it again
        x_params = self.provider(node.inputs[0], None)
        params = derive_bias_params(x_params, self.weight_params[f"{node.layer}.weight"])
        return self._snap_tensor(super().bias(node), params, f"b:{node.layer}")

    def add(self, node: Node, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        params = self.provider(node.junction, x1 + x2)
        a1 = self._snap(x1, params, f"{node.layer}.a1")
        a2 = self._snap(x2, params, f"{node.layer}.a2")
        total = a1 + a2
        lo, hi = params.real_range()
        self.masks[node.junction] = (total >= lo) & (total <= hi)
        return np.clip(total, lo, hi)

    def softmax(self, node: Node, s: np.ndarray) -> np.ndarray:
        if self.mode == "train":
            return super().softmax(node, s)
        # the integer softmax of the integer scores, so the eval forward
        # equals the integer engine bit for bit
        params = self.provider(node.inputs[0], None)
        s_q = (round_half_away(s / params.scale) + params.zero_point).astype(np.int64)
        return integer_softmax_fixed(s_q, params.scale) * 2.0**-_PROB_ACC_BITS

    def bn(self, node: Node, x: np.ndarray) -> np.ndarray:
        if self.mode == "train":
            return super().bn(node, x)
        # the folded form a*x + b, not the float normalize-then-scale: these
        # are the constants the integer path requantizes with
        p = self.model.params
        a, b = fold_bn(*(p[f"{node.layer}.{name}"] for name in BN_TENSORS))
        return a * x + b


def forward_fake_quant(
    model: FloatModel,
    combo: BitwidthCombination,
    calib: CalibrationSet | None,
    X: np.ndarray,
) -> np.ndarray:
    """Float arithmetic with quantize-dequantize at every junction and weight.

    The softmax is the integer path's, on the integer scores, so the output
    equals ``forward_integer``'s bit for bit.
    """
    if calib is None:
        raise CalibrationError("fake-quant forward requires calibration parameters")
    return _FakeEngine(model, combo, lambda junction, _: calib.require(junction)).predict(X)


# --- quantization-aware training ----------------------------------------------


class _EmaProvider:
    """Per-junction parameter source tracking exponential moving ranges."""

    def __init__(self, ctx: "QatContext", observe: bool):
        self.ctx = ctx
        self.observe = observe

    def __call__(self, junction: str, value) -> QuantParams:
        ctx = self.ctx
        if self.observe and value is not None:
            mn, mx = float(value.min()), float(value.max())
            if junction not in ctx.ranges:
                ctx.ranges[junction] = (mn, mx)
            else:
                omn, omx = ctx.ranges[junction]
                decay = training.QAT_EMA_DECAY
                ctx.ranges[junction] = (
                    decay * omn + (1 - decay) * mn,
                    decay * omx + (1 - decay) * mx,
                )
        if junction not in ctx.ranges:
            raise CalibrationError(f"no tracked range for junction {junction!r} yet")
        mn, mx = ctx.ranges[junction]
        return params_for_range(mn, mx, *_junction_grid(ctx.combo, junction))


class QatContext:
    """Drives fake-quantized forwards and straight-through backwards during
    training, tracking activation ranges by exponential moving average."""

    def __init__(self, config: ModelConfig, combo: BitwidthCombination):
        _assert_accumulator_bound(config, combo)
        self.combo = combo
        self.ranges: dict[str, tuple[float, float]] = {}

    def forward_train(self, model: FloatModel, X: np.ndarray) -> tuple[np.ndarray, dict]:
        engine = _FakeEngine(model, self.combo, _EmaProvider(self, observe=True))
        return engine.run(X, mode="train")

    def forward_eval(self, model: FloatModel, X: np.ndarray) -> np.ndarray:
        return _FakeEngine(model, self.combo, _EmaProvider(self, observe=False)).predict(X)

    def backward(self, model: FloatModel, cache: dict, dY: np.ndarray) -> dict[str, np.ndarray]:
        return training.backward(model, cache, dY)

    def snapshot_ranges(self) -> dict[str, tuple[float, float]]:
        return dict(self.ranges)

    def restore_ranges(self, snapshot: dict[str, tuple[float, float]]) -> None:
        self.ranges = dict(snapshot)

"""Single-head encoder for single-step time-series forecasting.

Architecture: input projection plus a fixed sinusoidal positional table, one
encoder layer (self-attention and a feed-forward block, each followed by a
residual add and batch normalization), global average pooling over time, and
an output projection. ``NODES`` is the graph's one description:
``Dataflow.run`` walks it forward, ``training.backward`` in reverse and
``tensor_shapes`` for the parameter list. The float forward interprets it
with plain arithmetic, and ``quantized.py`` reinterprets it for
calibration, fake quantization and integer-only inference.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .components import ComponentId

BN_EPS = 1e-5
BN_MOMENTUM = 0.1

@dataclass(frozen=True)
class ModelConfig:
    seq_len: int
    input_dim: int
    d_model: int = 64
    output_dim: int = 1
    heads: int = 1

    def __post_init__(self) -> None:
        if self.seq_len <= 0 or self.input_dim <= 0 or self.d_model <= 0 or self.output_dim <= 0:
            raise ValueError("all dimensions must be positive")
        if self.heads != 1:
            raise ValueError("only single-head attention is supported")

    @property
    def ffn_dim(self) -> int:
        return 4 * self.d_model

    def to_dict(self) -> dict:
        return {
            "seq_len": self.seq_len,
            "input_dim": self.input_dim,
            "d_model": self.d_model,
            "output_dim": self.output_dim,
            "heads": self.heads,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The ``config`` object of a model file: every field, each an integer."""
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(d) - set(names))
        if unknown:
            raise ValueError(f"config.{unknown[0]}: unknown field")
        values = {name: _get(d, name, int, f"config.{name}") for name in names}
        try:
            return cls(**values)
        except ValueError as e:
            raise ValueError(f"config: {e}") from e


@dataclass
class FloatModel:
    """Named parameter tensors; mutated only by the trainer.

    Float64 wherever a model is stored, evaluated, calibrated or quantized.
    Only the training loop's working copy is float32 (see ``training``).
    """

    config: ModelConfig
    params: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        expected = tensor_shapes(self.config)
        for name, shape in expected.items():
            if name not in self.params:
                raise ValueError(f"tensor {name!r}: missing")
            if self.params[name].shape != shape:
                raise ValueError(
                    f"tensor {name!r}: shape {list(self.params[name].shape)}, "
                    f"expected {list(shape)}"
                )
        extra = sorted(set(self.params) - set(expected))
        if extra:
            raise ValueError(f"tensor {extra[0]!r}: unexpected")
        for name in (f"{bn}.running_var" for bn in BATCH_NORMS):
            if np.any(self.params[name] <= 0):
                raise ValueError(f"tensor {name!r}: batch-norm running variance must be positive")

    def copy(self) -> "FloatModel":
        return FloatModel(self.config, {k: v.copy() for k, v in self.params.items()})


def sinusoidal_encoding(seq_len: int, d_model: int) -> np.ndarray:
    """Standard fixed sin/cos positional table, shape (seq_len, d_model)."""
    pe = np.zeros((seq_len, d_model))
    pos = np.arange(seq_len)[:, None].astype(np.float64)
    idx = np.arange(0, d_model, 2).astype(np.float64)
    angles = pos / np.power(10000.0, idx / d_model)[None, :]
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : d_model // 2])
    return pe


def init(config: ModelConfig, rng_seed: int) -> FloatModel:
    """Deterministic initialization: uniform(+-sqrt(1/fan_in)) weights, zero
    biases, identity batch norm, fixed positional table."""
    rng = np.random.default_rng(rng_seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in tensor_shapes(config).items():
        if name.endswith(".weight"):
            bound = math.sqrt(1.0 / shape[0])
            params[name] = rng.uniform(-bound, bound, size=shape)
        elif name.endswith(".bias") or name.endswith(".beta") or "running_mean" in name:
            params[name] = np.zeros(shape)
        elif name.endswith(".gamma") or "running_var" in name:
            params[name] = np.ones(shape)
        elif name == "pos_encoding":
            params[name] = sinusoidal_encoding(config.seq_len, config.d_model)
        else:  # pragma: no cover - vocabulary is closed
            raise AssertionError(name)
    return FloatModel(config=config, params=params)


def softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def fold_bn(
    gamma: np.ndarray, beta: np.ndarray, mean: np.ndarray, var: np.ndarray, eps: float = BN_EPS
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse normalize+affine into per-feature y = a*x + b."""
    a = gamma / np.sqrt(var + eps)
    return a, beta - a * mean


def _bn_forward(x: np.ndarray, model: FloatModel, prefix: str, mode: str, cache: dict):
    """Per-feature batch norm over (batch * time). TRAIN uses batch statistics
    (biased variance) and updates running statistics in place."""
    p = model.params
    gamma, beta = p[f"{prefix}.gamma"], p[f"{prefix}.beta"]
    if mode == "train":
        axes = tuple(range(x.ndim - 1))
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        count = x.size // x.shape[-1]
        if count < 2:
            raise ValueError("training batch norm needs more than one row")
        p[f"{prefix}.running_mean"] *= 1 - BN_MOMENTUM
        p[f"{prefix}.running_mean"] += BN_MOMENTUM * mean
        p[f"{prefix}.running_var"] *= 1 - BN_MOMENTUM
        p[f"{prefix}.running_var"] += BN_MOMENTUM * var
    else:
        mean = p[f"{prefix}.running_mean"]
        var = p[f"{prefix}.running_var"]
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mean) * inv_std
    cache[prefix] = {"xhat": xhat, "inv_std": inv_std, "mode": mode}
    return gamma * xhat + beta


# --- the encoder graph ----------------------------------------------------------


@dataclass(frozen=True)
class Node:
    """One activation junction: the op that produces it, from which inputs.

    ``inputs`` name junctions or, for the positional table, a tensor;
    ``layer`` is the parameter prefix of a linear, residual add or batch norm;
    ``width`` names the ``ModelConfig`` attribute giving the junction's
    features. The junction is quantized at its component's bitwidth.
    """

    junction: str
    component: ComponentId
    op: str
    inputs: tuple[str, ...] = ()
    layer: str = ""
    width: str = "d_model"


_C = ComponentId
# The junctions in dataflow order: the order ``Dataflow.run`` computes them,
# ``training.backward`` visits them in reverse and ``tensor_shapes`` lists
# their parameters.
NODES: tuple[Node, ...] = (
    Node("input", _C.L_INPUT, "input", width="input_dim"),
    Node("l_input.out", _C.L_INPUT, "linear", ("input",), "l_input"),
    Node("add_pe.out", _C.ADD_PE, "add", ("l_input.out", "pos_encoding"), "add_pe"),
    Node("mha.q", _C.MHA, "linear", ("add_pe.out",), "mha.wq"),
    Node("mha.k", _C.MHA, "linear", ("add_pe.out",), "mha.wk"),
    Node("mha.v", _C.MHA, "linear", ("add_pe.out",), "mha.wv"),
    Node("mha.scores", _C.MHA, "scores", ("mha.q", "mha.k"), width="seq_len"),
    Node("mha.probs", _C.MHA, "softmax", ("mha.scores",), width="seq_len"),
    Node("mha.context", _C.MHA, "context", ("mha.probs", "mha.v")),
    Node("mha.out", _C.MHA, "linear", ("mha.context",), "mha.wo"),
    Node("add_mha.out", _C.ADD_MHA, "add", ("add_pe.out", "mha.out"), "add_mha"),
    Node("bn_mha.out", _C.BN_MHA, "bn", ("add_mha.out",), "bn_mha"),
    Node("ffn.hidden", _C.FFN, "linear_relu", ("bn_mha.out",), "ffn.w1", "ffn_dim"),
    Node("ffn.out", _C.FFN, "linear", ("ffn.hidden",), "ffn.w2"),
    Node("add_ffn.out", _C.ADD_FFN, "add", ("bn_mha.out", "ffn.out"), "add_ffn"),
    Node("bn_ffn.out", _C.BN_FFN, "bn", ("add_ffn.out",), "bn_ffn"),
    Node("gap.out", _C.GAP, "pool", ("bn_ffn.out",)),
    Node("output", _C.L_OUTPUT, "linear", ("gap.out",), "l_output", "output_dim"),
)

JUNCTION_COMPONENT = {node.junction: node.component for node in NODES}
# the probabilities and the ReLU output are never negative
UNSIGNED_JUNCTIONS = {node.junction for node in NODES if node.op in ("softmax", "linear_relu")}
# Each linear layer: (the junction that feeds it, which with the weight grid
# fixes the bias grid; the junction it produces, whose grid its requantizer
# targets).
LINEARS = {
    node.layer: (node.inputs[0], node.junction)
    for node in NODES
    if node.op in ("linear", "linear_relu")
}
BATCH_NORMS = tuple(node.layer for node in NODES if node.op == "bn")
# a batch norm's tensors, "<layer>.<name>", in ``fold_bn``'s argument order
BN_TENSORS = ("gamma", "beta", "running_mean", "running_var")
# Weight tensors and the component whose bitwidth quantizes them: a linear's
# weight takes the component of the junction it produces, the positional
# table that of the add reading it.
WEIGHT_COMPONENT = {
    f"{layer}.weight": JUNCTION_COMPONENT[out] for layer, (_, out) in LINEARS.items()
} | {
    name: node.component for node in NODES for name in node.inputs if name not in JUNCTION_COMPONENT
}
# The junctions whose values the backward reads, the inputs of the linears
# and of the two attention products, each with its count of such readers:
# ``Dataflow.run`` caches them under their junction names and
# ``training.backward`` frees each at its last read.
SAVED_READS = Counter(
    name
    for node in NODES
    if node.op in ("linear", "linear_relu", "scores", "context")
    for name in node.inputs
)


def tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter tensor's shape, in ``NODES`` order. Weight matrices
    are stored (fan_in, fan_out) and applied as x @ W + b; a tensor an add
    reads is one row per time step."""
    width = {node.junction: getattr(config, node.width) for node in NODES}
    shapes: dict[str, tuple[int, ...]] = {}
    for node in NODES:
        out = width[node.junction]
        if node.op in ("linear", "linear_relu"):
            shapes[f"{node.layer}.weight"] = (width[node.inputs[0]], out)
            shapes[f"{node.layer}.bias"] = (out,)
        elif node.op == "bn":
            shapes |= {f"{node.layer}.{name}": (out,) for name in BN_TENSORS}
        shapes |= {name: (config.seq_len, out) for name in node.inputs if name not in width}
    return shapes


# Parameters the optimizer updates (positional table and BN statistics are not
# gradient-trained).
def trainable_tensors(config: ModelConfig) -> list[str]:
    return [
        name
        for name in tensor_shapes(config)
        if name != "pos_encoding" and "running_" not in name
    ]

# Windows per eval-mode pass (``Dataflow.predict``). Eval windows are
# independent: batch norm takes running statistics, the softmax is row-wise
# and pooling is per window. So batching changes no bit of the integer path,
# nor of the float paths while the batch size is a multiple of the rows
# BLAS's matrix-vector kernel sums together (the output linear's; see
# tests/test_eval_batches.py). At d_model=64 a batch's largest temporary, the
# FFN hidden layer, is 1.5 MB. For the integer path, all 1,988 windows of
# the bundled series at once allocate fresh 49 MB arrays whose page faults
# swing the run time; for calibration, one float pass over the 1,789
# training windows keeps every intermediate in its cache and peaks near
# 250 MB of tracemalloc, batches of 64 near 9 MB.
EVAL_BATCH = 64


class Dataflow:
    """The encoder graph ``NODES`` lists, computed.

    ``run`` walks ``NODES``: each junction's value is its op's hook, the
    method named after the op, applied to the node and its inputs' values
    (the input node's is the model input), then passed through ``act``; an
    add's hook snaps and records its own output instead. Here every hook is
    plain float arithmetic; subclasses reinterpret the same graph by
    overriding hooks (calibration records ranges, fake quantization snaps
    values to grids, the integer engine computes on int64 grid values).
    The cache ``run`` returns feeds
    ``training.backward``: the ``SAVED_READS`` junction values under their
    names, the per-op entries the backward reads (batch-norm statistics,
    the ReLU's sign, the float softmax, the weights as applied), and the
    straight-through masks a subclass recorded in ``cache["masks"]``.
    ``predict`` is the eval-only entry point: ``run`` over ``EVAL_BATCH``
    windows at a time.
    """

    def __init__(self, model: FloatModel):
        self.model = model

    def as_input(self, X: np.ndarray) -> np.ndarray:
        # the params' dtype: float32 inside the training loop, float64 elsewhere
        return np.asarray(X, dtype=self.model.params["l_input.weight"].dtype)

    def act(self, junction: str, value: np.ndarray) -> np.ndarray:
        return value

    def tensor(self, name: str) -> np.ndarray:
        return self.model.params[name]

    def bias(self, node: Node) -> np.ndarray:
        return self.model.params[f"{node.layer}.bias"]

    def linear(self, node: Node, x: np.ndarray) -> np.ndarray:
        w = self.tensor(f"{node.layer}.weight")
        b = self.bias(node)
        self.cache[f"dq:{node.layer}.weight"] = w
        return x @ w + b

    def linear_relu(self, node: Node, x: np.ndarray) -> np.ndarray:
        h = self.linear(node, x)
        # the backward reads only the sign, and ``h`` is the linear's fresh
        # output, so the ReLU may overwrite it
        self.cache[f"sign:{node.junction}"] = h > 0
        return np.maximum(h, 0.0, out=h)

    def add(self, node: Node, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        return self.act(node.junction, x1 + x2)

    def bn(self, node: Node, x: np.ndarray) -> np.ndarray:
        return _bn_forward(x, self.model, node.layer, self.mode, self.cache)

    def scores(self, node: Node, q: np.ndarray, k: np.ndarray) -> np.ndarray:
        return (q @ k.transpose(0, 2, 1)) / math.sqrt(self.model.config.d_model)

    def softmax(self, node: Node, s: np.ndarray) -> np.ndarray:
        p = softmax(s)
        self.cache[f"float:{node.junction}"] = p  # for the backward's softmax Jacobian
        return p

    def context(self, node: Node, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        return p @ v

    def pool(self, node: Node, f: np.ndarray) -> np.ndarray:
        return f.mean(axis=1)

    def run(self, X: np.ndarray, mode: str) -> tuple[np.ndarray, dict]:
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        self.mode = mode
        # a fresh cache per run, so a batch's intermediates die with the next
        self.masks: dict[str, np.ndarray] = {}
        self.cache: dict = {"masks": self.masks}
        X = self.as_input(X)
        single = X.ndim == 2
        if single:
            X = X[None]
        cfg = self.model.config
        if X.shape[1:] != (cfg.seq_len, cfg.input_dim):
            raise ValueError(
                f"input shape {X.shape[1:]} does not match (seq_len, input_dim) = "
                f"({cfg.seq_len}, {cfg.input_dim})"
            )

        values: dict[str, np.ndarray] = {}
        for node in NODES:
            if node.inputs:
                args = [values[n] if n in values else self.tensor(n) for n in node.inputs]
                value = getattr(self, node.op)(node, *args)
            else:  # the input node takes the model input
                value = X
            if node.op != "add":
                value = self.act(node.junction, value)
            values[node.junction] = value
            if node.junction in SAVED_READS:
                self.cache[node.junction] = value
        y = values[NODES[-1].junction]
        return (y[0] if single else y), self.cache

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Eval-mode outputs of ``run``, ``EVAL_BATCH`` windows at a time;
        the cache holds the last batch only."""
        X = self.as_input(X)
        if X.ndim != 3:
            return self.run(X, "eval")[0]
        return np.concatenate([
            self.run(X[i:i + EVAL_BATCH], "eval")[0]
            for i in range(0, max(len(X), 1), EVAL_BATCH)
        ])


def forward_float(
    model: FloatModel, X: np.ndarray, mode: str = "eval"
) -> tuple[np.ndarray, dict]:
    """Reference forward pass.

    X is (seq_len, input_dim) or batched (batch, seq_len, input_dim); the
    output matches (output_dim,) or (batch, output_dim). Returns the output
    and a cache of intermediates for backpropagation.
    """
    return Dataflow(model).run(X, mode)


# --- model file envelope ------------------------------------------------------

FILE_VERSION = 1


def _encode_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a)
    if np.issubdtype(a.dtype, np.integer):
        a = a.astype("<i4")
    else:
        a = a.astype("<f8")
    return {
        "shape": list(a.shape),
        "dtype": a.dtype.str,
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


# JSON type names for error messages
_JSON_TYPE = {
    dict: "an object", list: "an array", str: "a string", int: "an integer",
    float: "a number", (int, float): "a number", bool: "true or false", type(None): "null",
}


def _expect(value, kind, where: str):
    """``value``, which must be of JSON type ``kind``; errors name the field
    as ``where``."""
    # Python's bool is an int, JSON's true and false are no numbers
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{where}: expected {_JSON_TYPE[kind]}, got {_JSON_TYPE[type(value)]}")
    return value


def _get(doc: dict, key: str, kind, where: str):
    """``doc[key]``, which must be present and of JSON type ``kind``."""
    if key not in doc:
        raise ValueError(f"{where}: missing")
    return _expect(doc[key], kind, where)


def read_utf8(path: str | Path) -> str:
    """The text of the file at ``path``; a file that is not UTF-8 raises
    ValueError naming the path and the first undecodable byte."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(
            f"{path}: not UTF-8 text (byte 0x{e.object[e.start]:02x} at position {e.start})"
        ) from None


def _decode_array(entry, where: str, dtype: str) -> np.ndarray:
    """A tensor entry as ``_encode_array`` writes it, of the given dtype."""
    _expect(entry, dict, where)
    shape = _get(entry, "shape", list, f"{where} shape")
    if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape):
        raise ValueError(f"{where} shape: expected non-negative integers, got {shape}")
    stored = _get(entry, "dtype", str, f"{where} dtype")
    if stored != dtype:
        raise ValueError(f"{where} dtype: {stored!r}, expected {dtype!r}")
    try:
        data = base64.b64decode(_get(entry, "data", str, f"{where} data"), validate=True)
    except binascii.Error as e:
        raise ValueError(f"{where} data: not base64 ({e})") from e
    size = math.prod(shape) * np.dtype(dtype).itemsize
    if len(data) != size:
        raise ValueError(f"{where} data: {len(data)} bytes, shape {shape} needs {size}")
    a = np.frombuffer(data, dtype=dtype)
    if not np.isfinite(a).all():
        raise ValueError(f"{where}: non-finite values")
    return a.reshape(shape).copy()


def _quant_params(d, where: str):
    """A grid as ``QuantParams.to_dict`` writes it."""
    from .quant import QuantParams, QuantScheme

    _expect(d, dict, where)
    scheme = _get(d, "scheme", str, f"{where} scheme")
    schemes = [s.value for s in QuantScheme]
    if scheme not in schemes:
        raise ValueError(f"{where} scheme: {scheme!r}, expected one of {schemes}")
    scale = _get(d, "scale", (int, float), f"{where} scale")
    zero_point = _get(d, "zero_point", int, f"{where} zero_point")
    bitwidth = _get(d, "bitwidth", int, f"{where} bitwidth")
    signed = _get(d, "signed", bool, f"{where} signed")
    try:
        return QuantParams(float(scale), zero_point, bitwidth, signed, QuantScheme(scheme))
    except (ValueError, OverflowError) as e:  # float() of a huge integer overflows
        raise ValueError(f"{where}: {e}") from e


def save_model(model, path: str | Path) -> None:
    """Write a float or quantized model as a versioned JSON envelope."""
    from .quantized import QuantizedModel  # cycle-free: only for isinstance

    doc: dict = {"version": FILE_VERSION, "config": None, "kind": None, "combo": None}
    if isinstance(model, FloatModel):
        doc["config"] = model.config.to_dict()
        doc["kind"] = "float"
        doc["tensors"] = {name: _encode_array(t) for name, t in model.params.items()}
    elif isinstance(model, QuantizedModel):
        doc["config"] = model.config.to_dict()
        doc["kind"] = "quantized"
        doc["combo"] = list(model.combo.bits)
        tensors = {}
        for name, qt in model.tensors.items():
            entry = _encode_array(qt.data)
            entry["quant"] = qt.params.to_dict()
            tensors[name] = entry
        for name, arr in model.bn_folds.items():
            tensors[name] = _encode_array(arr)
        doc["tensors"] = tensors
        doc["junctions"] = {name: qp.to_dict() for name, qp in model.act_params.items()}
    else:
        raise TypeError(f"cannot save {type(model).__name__}")
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_model(path: str | Path):
    """Load a model envelope; returns FloatModel or QuantizedModel.

    Every field is checked where it is read: a malformed or inconsistent
    file raises ValueError naming the file and the field.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as e:  # also undecodable bytes
        raise ValueError(f"{path}: not a JSON file ({e})") from e
    try:
        return _model_from_doc(doc)
    except ValueError as e:
        raise type(e)(f"{path}: {e}") from e


def _model_from_doc(doc):
    from .components import BitwidthCombination
    from .quant import QuantizedTensor
    from .quantized import build_quantized

    _expect(doc, dict, "top level")
    version = doc.get("version")
    if type(version) is not int or version != FILE_VERSION:
        raise ValueError(f"unsupported model file version {version!r}")
    config = ModelConfig.from_dict(_get(doc, "config", dict, "config"))
    kind = doc.get("kind")
    if kind not in ("float", "quantized"):
        raise ValueError(f"unknown model kind {kind!r}")
    entries = _get(doc, "tensors", dict, "tensors")
    if kind == "float":
        params = {
            name: _decode_array(entry, f"tensor {name!r}", "<f8")
            for name, entry in entries.items()
        }
        return FloatModel(config=config, params=params)

    bits = tuple(_expect(b, int, "combo") for b in _get(doc, "combo", list, "combo"))
    try:
        combo = BitwidthCombination(bits)
    except ValueError as e:
        raise ValueError(f"combo: {e}") from e
    tensors, bn_folds = {}, {}
    for name, entry in entries.items():
        where = f"tensor {name!r}"
        if isinstance(entry, dict) and "quant" in entry:
            params = _quant_params(entry["quant"], f"{where} quant")
            data = _decode_array(entry, where, "<i4")
            if data.size and not params.q_min <= int(data.min()) <= int(data.max()) <= params.q_max:
                raise ValueError(f"{where}: values outside its {params.bitwidth}-bit grid")
            tensors[name] = QuantizedTensor(data, params)
        else:
            bn_folds[name] = _decode_array(entry, where, "<f8")
    act_params = {
        name: _quant_params(d, f"junction {name!r}")
        for name, d in _get(doc, "junctions", dict, "junctions").items()
    }
    return build_quantized(config, combo, tensors, bn_folds, act_params)

"""Training loop for the forecasting model: manual backprop, Adam, early stop.

The backward walks ``model.NODES`` in reverse, one gradient rule per op.

The learning rate halves every three epochs; early stopping restores the
parameters of the best validation epoch. Everything is deterministic given
the config seed.

The steps compute in float32: ``_train_loop`` casts the fit windows, the
targets and a copy of the parameters to float32, and the forward, the
backward and Adam follow the parameters' dtype. Each epoch's validation pass
runs on a float64 copy of the parameters, the copy the loop returns if that
epoch is the best, so callers only ever see float64 models.
"""

from __future__ import annotations

import collections
import functools
import math
import os
import threading
from collections.abc import Generator
from dataclasses import dataclass, field

import numpy as np

from .components import BitwidthCombination
from .model import (
    JUNCTION_COMPONENT,
    NODES,
    SAVED_READS,
    Dataflow,
    FloatModel,
    Node,
    forward_float,
    trainable_tensors,
)


# Fixed by the method, not per run: Adam's moments and epsilon, the halving
# period of the learning rate, the validation share of the training pairs, and
# the decay of QAT's moving activation ranges.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9
LR_HALVING_PERIOD_EPOCHS = 3
VAL_FRACTION = 0.1
QAT_EMA_DECAY = 0.99


@dataclass
class TrainConfig:
    epochs: int = 100
    patience: int = 10
    batch_size: int = 256
    lr: float = 0.001
    seed: int = 0
    qat: BitwidthCombination | None = None

    def __post_init__(self) -> None:
        if min(self.epochs, self.patience, self.batch_size) <= 0:
            raise ValueError("epochs, patience and batch_size must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.patience > self.epochs:
            raise ValueError("patience must not exceed epochs")

    def lr_at(self, epoch: int) -> float:
        """Step-decayed rate for a zero-based epoch index."""
        return self.lr * 2.0 ** (-(epoch // LR_HALVING_PERIOD_EPOCHS))


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    learning_rates: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = math.inf
    stopping_reason: str = ""

    @property
    def epochs_run(self) -> int:
        return len(self.train_losses)

    def to_dict(self) -> dict:
        return {
            "train_losses": self.train_losses,
            "val_losses": self.val_losses,
            "learning_rates": self.learning_rates,
            "best_epoch": self.best_epoch,
            "best_val_loss": self.best_val_loss,
            "stopping_reason": self.stopping_reason,
        }


def _bn_backward(d_out: np.ndarray, bn_cache: dict, gamma: np.ndarray):
    """Gradient through batch norm; batch statistics in train mode."""
    xhat, inv_std = bn_cache["xhat"], bn_cache["inv_std"]
    axes = tuple(range(d_out.ndim - 1))
    d_gamma = (d_out * xhat).sum(axis=axes)
    d_beta = d_out.sum(axis=axes)
    d_xhat = d_out * gamma
    if bn_cache["mode"] == "train":
        dx = inv_std * (
            d_xhat
            - d_xhat.mean(axis=axes)
            - xhat * (d_xhat * xhat).mean(axis=axes)
        )
    else:
        dx = d_xhat * inv_std
    return dx, d_gamma, d_beta


def backward(model: FloatModel, cache: dict, dY: np.ndarray) -> dict[str, np.ndarray]:
    """Straight-through gradients of every parameter tensor for a forward
    pass of ``model.Dataflow`` or any of its interpretations.

    ``dY`` is the loss gradient at the output, shape (batch, output_dim).
    The backward visits ``NODES`` in reverse with one gradient rule per op.
    A junction several nodes read gets the sum of their parts, the last
    reader's first and then the others in ``NODES`` order (at ``add_pe.out``:
    ((add_mha + q) + k) + v). Every quantize-dequantize (and add clamp) the
    forward recorded in ``cache["masks"]`` passes the gradient only where it
    was inside its range; rounding counts as identity, and a junction with no
    mask (all of them in the float forward) passes the gradient unchanged.
    The positional table's gradient is computed too (it is simply excluded
    from optimizer updates); the model input's is not.

    Every interpretation (float and fake-quant) runs this one
    function, so a given cache gets the same gradient bits whichever forward
    recorded it. Each weight gradient is one BLAS matmul over all batch *
    seq_len rows; for the seven linears with (batch, seq_len, features)
    inputs that sums in a different order than a per-window ``einsum``, so
    those gradients differ from an einsum reference only in the last places
    (within 2 * gamma_N * sum|x||d|, N the row count). Every other gradient
    is bit-identical to the hand-written float backward.

    Every gradient takes the parameters' dtype: float32 in the training
    loop, float64 for a stored model.

    The backward consumes ``cache``: each entry leaves it at its last read,
    so the FFN block's activations (the largest) are freed before the
    attention block's gradients are allocated.
    """
    p = model.params
    masks = cache["masks"]
    n = model.config.seq_len
    grads: dict[str, np.ndarray] = {}
    dY = np.array(dY, dtype=np.result_type(*p.values()))  # a copy: it is masked in place
    if dY.ndim == 1:
        dY = dY[None]
    reads_left = SAVED_READS.copy()

    def saved(junction: str) -> np.ndarray:
        """A junction's value from the cache, which its last read frees."""
        reads_left[junction] -= 1
        return cache[junction] if reads_left[junction] else cache.pop(junction)

    def mask(key: str, grad: np.ndarray, shared: bool = False) -> np.ndarray:
        """``grad`` through the straight-through mask recorded under ``key``,
        in place. Where another branch still reads ``grad`` (``shared``) the
        result is a new array, so masking either one in place leaves the
        other alone; with no masks recorded nothing is masked in place, and
        ``grad`` itself is returned."""
        if shared:
            if key in masks:
                return grad * masks[key]
            return grad.copy() if masks else grad
        if key in masks:
            grad *= masks[key]
        return grad

    # Each rule takes a node and its junction's gradient, stores its
    # parameters' gradients and returns its inputs' (None where unneeded).

    def linear(node: Node, d: np.ndarray) -> tuple:
        x = saved(node.inputs[0])
        # one BLAS matmul over the (batch * seq_len) rows; a no-op reshape in 2-D
        d_w = x.reshape(-1, x.shape[-1]).T @ d.reshape(-1, d.shape[-1])
        grads[f"{node.layer}.weight"] = mask(f"w:{node.layer}", d_w)
        d_b = d.sum(axis=tuple(range(d.ndim - 1)))
        grads[f"{node.layer}.bias"] = mask(f"b:{node.layer}", d_b)
        weight = cache.pop(f"dq:{node.layer}.weight")
        return (None,) if node.inputs[0] == NODES[0].junction else (d @ weight.T,)

    def linear_relu(node: Node, d: np.ndarray) -> tuple:
        d *= cache.pop(f"sign:{node.junction}")  # ``d`` is this junction's alone
        return linear(node, d)

    def add(node: Node, d: np.ndarray) -> tuple:
        # only the last addend may take ``d`` itself, masked in place
        count = len(node.inputs)
        return tuple(mask(f"{node.layer}.a{i}", d, shared=i < count) for i in range(1, count + 1))

    def bn(node: Node, d: np.ndarray) -> tuple:
        dx, grads[f"{node.layer}.gamma"], grads[f"{node.layer}.beta"] = _bn_backward(
            d, cache.pop(node.layer), p[f"{node.layer}.gamma"]
        )
        return (dx,)

    def scores(node: Node, d: np.ndarray) -> tuple:
        q, k = (saved(name) for name in node.inputs)
        scale = 1.0 / math.sqrt(model.config.d_model)
        return (d @ k) * scale, (d.transpose(0, 2, 1) @ q) * scale

    def softmax(node: Node, d: np.ndarray) -> tuple:
        p_float = cache.pop(f"float:{node.junction}")
        return (p_float * (d - (d * p_float).sum(axis=-1, keepdims=True)),)

    def context(node: Node, d: np.ndarray) -> tuple:
        probs, v = (saved(name) for name in node.inputs)
        return d @ v.transpose(0, 2, 1), probs.transpose(0, 2, 1) @ d

    def pool(node: Node, d: np.ndarray) -> tuple:
        return (np.repeat(d[:, None, :], n, axis=1) / n,)

    rules = {rule.__name__: rule for rule in (
        linear, linear_relu, add, bn, scores, softmax, context, pool)}

    # each junction's gradient parts, in the order its readers sent them
    received: dict[str, list[np.ndarray]] = {NODES[-1].junction: [dY]}

    def gradient(junction: str) -> np.ndarray:
        """The junction's gradient through its mask. Its readers' parts
        arrive in reverse ``NODES`` order; the sum takes the last reader's
        first, then the others in ``NODES`` order."""
        last, *others = received.pop(junction)
        for part in reversed(others):
            last = last + part
        return mask(junction, last)

    for node in reversed(NODES[1:]):  # nothing reads the model input's gradient
        for name, part in zip(node.inputs, rules[node.op](node, gradient(node.junction))):
            if name not in JUNCTION_COMPONENT:  # a tensor, broadcast over the batch
                grads[name] = mask(f"w:{name}", part).sum(axis=0)
            elif part is not None:
                received.setdefault(name, []).append(part)
    # the running statistics carry no gradient
    return grads | {name: np.zeros_like(t) for name, t in p.items() if name not in grads}


class Adam:
    """Standard Adam with bias correction over named tensors."""

    def __init__(self, names: list[str]):
        self.names = names
        self.m = {name: None for name in names}
        self.v = {name: None for name in names}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float):
        self.t += 1
        b1c = 1.0 - ADAM_BETA1**self.t
        b2c = 1.0 - ADAM_BETA2**self.t
        for name in self.names:
            grad = grads[name]
            if self.m[name] is None:
                self.m[name] = np.zeros_like(grad)
                self.v[name] = np.zeros_like(grad)
            self.m[name] = ADAM_BETA1 * self.m[name] + (1 - ADAM_BETA1) * grad
            self.v[name] = ADAM_BETA2 * self.v[name] + (1 - ADAM_BETA2) * grad**2
            m_hat = self.m[name] / b1c
            v_hat = self.v[name] / b2c
            params[name] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    return float(np.mean((pred - target) ** 2))


def _split_validation(X: np.ndarray, y: np.ndarray):
    """Last VAL_FRACTION of the training pairs, time-ordered."""
    count = len(X)
    val_count = max(1, int(round(count * VAL_FRACTION)))
    if val_count >= count:
        raise ValueError("not enough pairs to carve a validation split")
    fit = count - val_count
    return X[:fit], y[:fit], X[fit:], y[fit:]


def train(
    model: FloatModel, dataset, cfg: TrainConfig
) -> tuple[FloatModel, TrainReport]:
    """Train a copy of ``model`` on the dataset's training split.

    ``dataset`` provides train_X (pairs, n, m) and train_y (pairs,) in
    normalized units; the final 10% (time-ordered) is held out for early
    stopping. ``cfg.qat`` must be None: ``train_qat`` trains at a combination.
    """
    if cfg.qat is not None:
        raise ValueError("train trains in float, so cfg.qat must be None; use train_qat")
    _keep_heap()
    return _run_to_end(_train_loop(model, dataset, cfg, _FloatContext()))[:2]


def training_steps(model: FloatModel, dataset, cfg: TrainConfig) -> Generator[None, None, tuple]:
    """``train``, or ``train_qat`` where ``cfg.qat`` is set, one optimizer
    step per ``next()``.

    The generator yields after each step, once that step's intermediates
    and gradients are freed, so several trainings can take turns on a few
    threads. It returns (model, report, ranges): the frozen activation ranges
    of QAT, None for float training.
    """
    _keep_heap()
    if cfg.qat is None:
        return _train_loop(model, dataset, cfg, _FloatContext())
    from .quantized import QatContext

    return _train_loop(model, dataset, cfg, QatContext(model.config, cfg.qat))


def _run_to_end(steps: Generator[None, None, tuple]) -> tuple:
    """The return value of a step generator run to its end."""
    while True:
        try:
            next(steps)
        except StopIteration as done:
            return done.value


# glibc's mallopt parameters (malloc.h) and the values training sets: blocks
# up to 32 MiB come from the heap, not from their own mmap, and the heap is
# trimmed only above 1 GiB free at its top
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 1 << 30


@functools.cache
def _keep_heap() -> None:
    """Keep each malloc arena at its high-water mark, once per process.

    ``cli.run`` calls this before every command, and training for library
    callers. A training step frees some 20 MB of intermediates at d_model 64,
    and each batch of an eval-mode pass its arrays of a few MB; by default
    glibc hands those pages back to the kernel and faults them in again at
    the next step or batch. Setting the trim threshold alone disables glibc's
    dynamic mmap threshold, so large arrays would get their own mmap each,
    which faults far more: both values are set. Where libc has no
    ``mallopt`` this does nothing.
    """
    import ctypes

    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except TypeError:  # Windows opens no library by the name None
        return
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_jobs(jobs: dict) -> tuple[dict, tuple | None]:
    """Run every job's generator to its end, a step at a time: the one
    scheduler of the threads mixprec starts.

    One thread per CPU this process may run on, at most one per job, the
    calling one among them, take (name, generator) pairs from one FIFO
    queue, advance the pair by one step and put it back, so each job keeps
    moving and no CPU idles while a job is left. The first failure stops new
    steps from being handed out; once every thread has finished its step,
    the unfinished generators are closed. Returns each finished job's return
    value by name, and the first failure as (name, exception) or None.
    """
    queue = collections.deque(jobs.items())
    results, failures = {}, []
    lock = threading.Lock()
    stop = threading.Event()

    def work() -> None:
        while True:
            with lock:
                if stop.is_set() or not queue:
                    return
                name, steps = queue.popleft()
            try:
                next(steps)
            except StopIteration as done:
                results[name] = done.value
                continue
            except BaseException as e:  # raised again in the calling thread
                with lock:
                    failures.append((name, e))
                    stop.set()
                return
            with lock:
                queue.append((name, steps))

    # the calling thread is one of the workers: its malloc arena already
    # holds the process's heap, and each further thread adds an arena
    workers = max(1, min(cpus(), len(jobs)))
    threads = [threading.Thread(target=work, name=f"mixprec-{i}") for i in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        work()
        for thread in threads:
            thread.join()
    finally:
        stop.set()  # after an interrupt here, the running steps finish
        for thread in threads:
            if thread.is_alive():
                thread.join()
        for steps in jobs.values():
            steps.close()
    return results, (failures[0] if failures else None)


class _FloatContext:
    """Plain training: the float forward and backward, no activation ranges."""

    def forward_train(self, model: FloatModel, X: np.ndarray) -> tuple[np.ndarray, dict]:
        return forward_float(model, X, mode="train")

    def forward_eval(self, model: FloatModel, X: np.ndarray) -> np.ndarray:
        return Dataflow(model).predict(X)

    def backward(self, model: FloatModel, cache: dict, dY: np.ndarray) -> dict[str, np.ndarray]:
        return backward(model, cache, dY)

    def snapshot_ranges(self) -> None:
        return None

    def restore_ranges(self, snapshot: None) -> None:
        pass


def _train_loop(model: FloatModel, dataset, cfg: TrainConfig, ctx):
    """Shared float/QAT loop, a generator that yields after each optimizer
    step and returns (model, report, ranges). ``ctx`` runs the forward and
    backward passes: a ``_FloatContext`` for plain training, or a
    quantized.QatContext for fake-quantized forwards that track activation
    ranges."""
    X_all = np.asarray(dataset.train_X, dtype=np.float64)
    y_all = np.asarray(dataset.train_y, dtype=np.float64).reshape(len(X_all), -1)
    if X_all.shape[1:] != (model.config.seq_len, model.config.input_dim):
        raise ValueError(
            f"dataset windows {X_all.shape[1:]} do not match model config "
            f"({model.config.seq_len}, {model.config.input_dim})"
        )
    X_fit, y_fit, X_val, y_val = _split_validation(X_all, y_all)
    # the steps compute in float32, the validation passes in float64
    X_fit, y_fit = X_fit.astype(np.float32), y_fit.astype(np.float32)
    pos_encoding = model.params["pos_encoding"]
    model = FloatModel(model.config, {k: v.astype(np.float32) for k, v in model.params.items()})

    def as_float64() -> FloatModel:
        """The params in float64; the positional table, which no step
        updates, as given."""
        params = {k: v.astype(np.float64) for k, v in model.params.items()}
        params["pos_encoding"] = pos_encoding.copy()
        return FloatModel(model.config, params)

    opt = Adam(trainable_tensors(model.config))
    rng = np.random.default_rng(cfg.seed)
    report = TrainReport()

    best = None
    best_ranges = None
    epochs_since_best = 0

    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        order = rng.permutation(len(X_fit))
        epoch_sq_sum, seen = 0.0, 0
        for batch_index, start in enumerate(range(0, len(order), cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            Xb, yb = X_fit[idx], y_fit[idx]
            Y, cache = ctx.forward_train(model, Xb)
            grads = ctx.backward(model, cache, 2.0 * (Y - yb) / Y.size)
            del cache  # so the next forward starts without this one's intermediates
            loss = mse(Y, yb)
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"non-finite training loss at epoch {epoch}, batch {batch_index} "
                    f"(lr={lr})"
                )
            opt.step(model.params, grads, lr)
            del grads
            epoch_sq_sum += loss * len(idx)
            seen += len(idx)
            yield

        evaluated = as_float64()
        val_loss = mse(ctx.forward_eval(evaluated, X_val), y_val)

        report.train_losses.append(epoch_sq_sum / max(seen, 1))
        report.val_losses.append(val_loss)
        report.learning_rates.append(lr)

        if val_loss < report.best_val_loss:
            report.best_val_loss = val_loss
            report.best_epoch = epoch
            best = evaluated
            best_ranges = ctx.snapshot_ranges()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= cfg.patience:
                report.stopping_reason = "early_stopping"
                break
    if not report.stopping_reason:
        report.stopping_reason = "max_epochs"

    if best is None:
        best = as_float64()
    else:
        ctx.restore_ranges(best_ranges)
    return best, report, ctx.snapshot_ranges()


def train_qat(model: FloatModel, dataset, cfg: TrainConfig):
    """Quantization-aware training at ``cfg.qat`` with straight-through gradients.

    Returns (model, report, frozen activation ranges) where the ranges are
    the EMA-tracked per-junction (min, max) pairs for final calibration.
    """
    if cfg.qat is None:
        raise ValueError("train_qat needs cfg.qat, the bitwidth combination to train at")
    return _run_to_end(training_steps(model, dataset, cfg))

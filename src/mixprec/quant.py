"""Quantization parameter algebra.

Activations and weights use asymmetric affine quantization
(``real = scale * (q - zero_point)``); biases use symmetric quantization with
scale equal to the product of the input and weight scales and a bitwidth
derived from the multiply-accumulate width. Integer-only rescaling between
grids goes through a fixed-point multiplier/shift requantizer.

Rounding is half-away-from-zero everywhere, fixed globally for determinism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

try:  # the clip ufunc itself, without np.clip's Python wrapper
    from numpy._core.umath import clip as _clip
except ImportError:  # NumPy 1.x
    from numpy.core.umath import clip as _clip

# Guard bits added on top of input+weight width for the accumulator-derived
# bias grid: 8+8 -> 18, 6+8 -> 16, 4+8 -> 14.
BIAS_GUARD_BITS = 2


class QuantScheme(Enum):
    ASYMMETRIC = "asym"
    SYMMETRIC = "sym"


def int_range(bitwidth: int, signed: bool) -> tuple[int, int]:
    if signed:
        return -(1 << (bitwidth - 1)), (1 << (bitwidth - 1)) - 1
    return 0, (1 << bitwidth) - 1


def round_half_away(x: np.ndarray | float) -> np.ndarray | float:
    """Round to nearest with ties away from zero (elementwise)."""
    if isinstance(x, np.ndarray):
        return np.trunc(x + np.copysign(0.5, x))
    return math.trunc(x + math.copysign(0.5, x))


@dataclass(frozen=True)
class QuantParams:
    """Affine quantization parameters for one tensor."""

    scale: float
    zero_point: int
    bitwidth: int
    signed: bool
    scheme: QuantScheme

    def __post_init__(self) -> None:
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        # the integer path computes in int64
        if not 2 <= self.bitwidth <= 64:
            raise ValueError(f"bitwidth must be in [2, 64], got {self.bitwidth}")
        lo, hi = int_range(self.bitwidth, self.signed)
        if self.scheme is QuantScheme.SYMMETRIC:
            if self.zero_point != 0:
                raise ValueError("symmetric scheme requires zero_point == 0")
        elif not lo <= self.zero_point <= hi:
            raise ValueError(f"zero_point {self.zero_point} outside [{lo}, {hi}]")

    @property
    def q_min(self) -> int:
        return int_range(self.bitwidth, self.signed)[0]

    @property
    def q_max(self) -> int:
        return int_range(self.bitwidth, self.signed)[1]

    def real_range(self) -> tuple[float, float]:
        """Representable real interval [scale*(q_min-zp), scale*(q_max-zp)]."""
        return self.scale * (self.q_min - self.zero_point), self.scale * (
            self.q_max - self.zero_point
        )

    def to_dict(self) -> dict:
        return {
            "scale": self.scale,
            "zero_point": self.zero_point,
            "bitwidth": self.bitwidth,
            "signed": self.signed,
            "scheme": self.scheme.value,
        }


@dataclass(frozen=True)
class QuantizedTensor:
    """Integer data plus the parameters that map it back to reals."""

    data: np.ndarray
    params: QuantParams

    def __post_init__(self) -> None:
        if not np.issubdtype(self.data.dtype, np.integer):
            raise ValueError(f"data must be an integer array, got {self.data.dtype}")
        lo, hi = self.params.q_min, self.params.q_max
        if self.data.size and (self.data.min() < lo or self.data.max() > hi):
            raise ValueError(f"values outside representable range [{lo}, {hi}]")


def calibrate_asymmetric(values: np.ndarray, bitwidth: int, signed: bool) -> QuantParams:
    """Fit asymmetric parameters to observed values.

    The observed range is widened to include zero, so zero is always exactly
    representable. A degenerate (constant-zero) range yields scale 1 with the
    zero point at q_min.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot calibrate on an empty array")
    if not np.all(np.isfinite(values)):
        raise ValueError("cannot calibrate on non-finite values")
    return params_for_range(float(values.min()), float(values.max()), bitwidth, signed)


def params_for_range(mn: float, mx: float, bitwidth: int, signed: bool) -> QuantParams:
    """Asymmetric parameters covering [min(mn,0), max(mx,0)]."""
    if not (math.isfinite(mn) and math.isfinite(mx)) or mn > mx:
        raise ValueError(f"bad range [{mn}, {mx}]")
    q_min, q_max = int_range(bitwidth, signed)
    mn, mx = min(mn, 0.0), max(mx, 0.0)
    scale = (mx - mn) / (q_max - q_min)
    if scale <= 0 or not math.isfinite(scale):  # constant input, or span underflow
        return QuantParams(1.0, q_min, bitwidth, signed, QuantScheme.ASYMMETRIC)
    raw_zp = q_min - mn / scale
    zero_point = int(round_half_away(raw_zp)) if math.isfinite(raw_zp) else q_max
    zero_point = min(max(zero_point, q_min), q_max)
    return QuantParams(scale, zero_point, bitwidth, signed, QuantScheme.ASYMMETRIC)


def bias_bitwidth(x_bitwidth: int, w_bitwidth: int) -> int:
    """Width of a linear layer's bias grid, from its input and weight widths."""
    return x_bitwidth + w_bitwidth + BIAS_GUARD_BITS


def derive_bias_params(x: QuantParams, w: QuantParams) -> QuantParams:
    """Symmetric bias grid on the accumulator scale of a linear layer."""
    return QuantParams(
        scale=x.scale * w.scale,
        zero_point=0,
        bitwidth=bias_bitwidth(x.bitwidth, w.bitwidth),
        signed=True,
        scheme=QuantScheme.SYMMETRIC,
    )


def quantize(values: np.ndarray, params: QuantParams) -> QuantizedTensor:
    values = np.asarray(values, dtype=np.float64)
    q = round_half_away(values / params.scale) + params.zero_point
    q = np.clip(q, params.q_min, params.q_max).astype(np.int64)
    return QuantizedTensor(data=q, params=params)


def dequantize(t: QuantizedTensor) -> np.ndarray:
    return t.params.scale * (t.data.astype(np.float64) - t.params.zero_point)


def fake_quantize(values: np.ndarray, params: QuantParams) -> tuple[np.ndarray, np.ndarray]:
    """quantize-dequantize plus the straight-through mask.

    The mask is True where the pre-clamp integer lies inside the representable
    range, i.e. where the straight-through gradient is 1. Float32 input (the
    training loop's) stays float32: the widest grid a model uses is the
    18-bit bias grid of an 8-bit input and weight, so its integers are exact
    in float32's 24-bit significand. Any other input is computed in float64.
    """
    values = np.asarray(values)
    if values.dtype != np.float32:
        values = values.astype(np.float64, copy=False)
    # round_half_away(values / scale) + zero_point, in place on a fresh array
    # (never on ``values``, often a model's own weights; an array even for 0-d)
    raw = np.divide(values, params.scale, out=np.empty_like(values))
    raw += np.copysign(0.5, raw)
    np.trunc(raw, out=raw)
    raw += params.zero_point
    q = np.clip(raw, params.q_min, params.q_max)
    inside = q == raw  # False where clipped, and for NaN
    q -= params.zero_point
    q *= params.scale
    return q, inside


# Requantizer multiplier precision: 31-bit normalized mantissa.
_MULT_BITS = 31
_MAX_SHIFT = 62  # keeps acc * multiplier + rounding inside 64-bit arithmetic


@dataclass(frozen=True)
class Requantizer:
    """Fixed-point approximation of a scale ratio: multiplier * 2**(-shift)."""

    multiplier: int
    shift: int

    def __post_init__(self) -> None:
        if not (1 << (_MULT_BITS - 1)) <= self.multiplier < (1 << _MULT_BITS):
            raise ValueError(f"multiplier {self.multiplier} not 31-bit normalized")
        if not 0 <= self.shift <= _MAX_SHIFT:
            raise ValueError(f"shift {self.shift} outside [0, {_MAX_SHIFT}]")

    @property
    def ratio(self) -> float:
        """The exactly represented ratio (multiplier has < 53 bits, so no rounding)."""
        return self.multiplier * 2.0 ** (-self.shift)


def make_requantizer(s_in: float, s_out: float) -> Requantizer:
    """Approximate s_in/s_out with relative error below 2**-29."""
    if not (s_in > 0 and s_out > 0 and math.isfinite(s_in) and math.isfinite(s_out)):
        raise ValueError(f"scales must be positive and finite, got {s_in}, {s_out}")
    ratio = s_in / s_out
    mantissa, exp = math.frexp(ratio)  # ratio = mantissa * 2**exp, mantissa in [0.5, 1)
    multiplier = round(mantissa * (1 << _MULT_BITS))
    if multiplier == (1 << _MULT_BITS):
        multiplier >>= 1
        exp += 1
    shift = _MULT_BITS - exp
    if not 0 <= shift <= _MAX_SHIFT:
        raise ValueError(
            f"scale ratio {ratio!r} outside representable dynamic range "
            f"[2**-{_MAX_SHIFT - _MULT_BITS}, 2**{_MULT_BITS})"
        )
    return Requantizer(multiplier=multiplier, shift=shift)


_INT64_MIN = np.iinfo(np.int64).min


def rounding_shift(
    p: np.ndarray, shift: int | np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Divide int64 ``p`` by 2**shift (scalar or per element) rounding half away from zero.

    Branch-free ``(p + 2**(s-1) - [p < 0]) >> s``, the shift flooring; at shift 0
    (the identity) the ``[p < 0]`` term compares against the int64 minimum instead.
    The result goes to ``out`` (which may be ``p`` itself) or to a new array.
    """
    half = (np.int64(1) << shift) >> 1
    negative = p < np.where(half > 0, 0, _INT64_MIN)
    out = np.add(p, half, out=out)
    out -= negative
    out >>= shift
    return out


def requantize(
    acc: np.ndarray | int,
    r: Requantizer,
    out_zero_point: int,
    out_bitwidth: int,
    signed: bool = True,
    out: np.ndarray | None = None,
) -> np.ndarray | int:
    """Rescale an integer accumulator onto an output grid.

    Computes ``round(acc * multiplier * 2**(-shift)) + out_zero_point``
    saturated to the output range, in 64-bit integer arithmetic: with
    |acc| < 2**31 and a 31-bit multiplier the product stays below 2**62.
    The result goes to ``out``, an int64 array of ``acc``'s shape (``acc``
    itself when the caller owns it), or to a new array.
    """
    scalar = not isinstance(acc, np.ndarray)
    acc_arr = np.asarray(acc, dtype=np.int64)
    # 32-bit accumulator contract |acc| < 2**31, proven at plan time: anything
    # larger is a planning bug upstream (and would void the exact float matmuls)
    if acc_arr.size and (acc_arr.min() <= -(1 << 31) or acc_arr.max() >= (1 << 31)):
        raise AssertionError("accumulator exceeds 32-bit bound; widen the plan")
    # one array (a fresh one, an array even for 0-d, unless ``out`` is given),
    # every later step in place on it
    if out is None:
        out = np.empty_like(acc_arr)
    q = np.multiply(acc_arr, np.int64(r.multiplier), out=out)
    rounding_shift(q, r.shift, out=q)
    q += out_zero_point
    _clip(q, *int_range(out_bitwidth, signed), out=q)
    return int(q) if scalar else q

"""Threshold filtering and score-based ranking of bitwidth combinations.

The search works on row numbers, never on the 3^10 combinations as objects:
row r is the combination whose base-3 digits (4 < 6 < 8) spell r, so row
order is lexicographic combination order. With the database and thresholds
as integers on a common power-of-ten denominator, one Kronecker (outer) sum
of the ten per-component rows gives every row's four utilization sums, plus
the overhead row it picks. One ``np.lexsort`` ranks the survivors that reach
the k-th best bitwidth sum by that sum (descending), estimated LUTs
(descending) and row number, and only the top k become ``ScoredCandidate``
objects with exact Decimal estimates.
``filter_candidates`` and ``select_top`` give the same answer through objects.
"""

from __future__ import annotations

import functools
import re
import time
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, InvalidOperation, localcontext
from pathlib import Path

import numpy as np

from .components import (
    NUM_KEY_COMPONENTS,
    RESOURCE_ORDER,
    VALID_BITWIDTHS,
    BitwidthCombination,
    ResourceKind,
)
from .estimator import EstimateOptions
from .knowledge import KnowledgeDatabase, ResourceVector, entry_name
from .model import read_utf8

_BASE = len(VALID_BITWIDTHS)
_LUTS = RESOURCE_ORDER.index(ResourceKind.LUTS)
TOTAL_COMBINATIONS = _BASE ** NUM_KEY_COMPONENTS  # 3^10 = 59,049
_INT64_MAX = int(np.iinfo(np.int64).max)
_PLACE = _BASE ** np.arange(NUM_KEY_COMPONENTS - 1, -1, -1)
# a candidate file of lines "d,d,...,d\n" only, each d a single-digit bitwidth
_DIGIT = "[" + "".join(map(str, VALID_BITWIDTHS)) + "]"
_PLAIN_LINES = re.compile(f"(?:{_DIGIT}(?:,{_DIGIT}){{{NUM_KEY_COMPONENTS - 1}}}\\n)+")


@dataclass(frozen=True)
class Thresholds:
    """Per-resource upper limits on estimated utilization (percent)."""

    t_luts: Decimal
    t_dram: Decimal
    t_bram: Decimal
    t_dsps: Decimal

    def __post_init__(self) -> None:
        for kind in RESOURCE_ORDER:
            value = self[kind]
            if not (value.is_finite() and value >= 0):
                raise ValueError(f"threshold t_{kind.value}: must be finite and >= 0, got {value}")

    @classmethod
    def of(cls, t_luts, t_dram, t_bram, t_dsps) -> "Thresholds":
        values = dict(t_luts=t_luts, t_dram=t_dram, t_bram=t_bram, t_dsps=t_dsps)
        for name, raw in values.items():
            try:
                values[name] = Decimal(str(raw))
            except InvalidOperation:
                raise ValueError(f"threshold {name}: {str(raw)!r} is not a number") from None
        return cls(**values)

    def __getitem__(self, kind: ResourceKind) -> Decimal:
        return getattr(self, "t_" + kind.value)


def _bits(codes: np.ndarray) -> np.ndarray:
    """The (rows, 10) bitwidths of the given row numbers."""
    return np.array(VALID_BITWIDTHS)[codes[:, None] // _PLACE % _BASE]


class CandidateSet:
    """Ordered, duplicate-free set of combinations to explore.

    Held as row numbers, ``codes``; built from combinations or from codes,
    it makes the other form on first use.
    """

    def __init__(
        self,
        combos: tuple[BitwidthCombination, ...] | None = None,
        *,
        codes: np.ndarray | None = None,
    ):
        if (combos is None) == (codes is None):
            raise TypeError("give exactly one of combos or codes")
        if combos is not None:
            self.__dict__["combos"] = combos = tuple(combos)
            bits = np.array([c.bits for c in combos]).reshape(-1, NUM_KEY_COMPONENTS)
            codes = np.searchsorted(VALID_BITWIDTHS, bits) @ _PLACE
        self.codes = np.asarray(codes, dtype=np.int64)
        if not len(self.codes):
            raise ValueError("candidate set must be non-empty")
        if (np.diff(np.sort(self.codes)) == 0).any():
            raise ValueError("candidate set contains duplicates")

    @functools.cached_property
    def combos(self) -> tuple[BitwidthCombination, ...]:
        return tuple(BitwidthCombination(tuple(row)) for row in _bits(self.codes).tolist())

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        return iter(self.combos)


@dataclass(frozen=True)
class ScoredCandidate:
    """A surviving combination with its estimate and bitwidth-sum score."""

    combo: BitwidthCombination
    estimate: ResourceVector
    score: int

    def __post_init__(self) -> None:
        if self.score != self.combo.score:
            raise ValueError(f"score {self.score} != sum of bits {self.combo.score}")
        if not 40 <= self.score <= 80:
            raise ValueError(f"score {self.score} outside [40, 80]")


@dataclass(frozen=True)
class SearchResult:
    """A top-k ranking; ``search`` also keeps the survivors' scaled sums, one
    row per resource in RESOURCE_ORDER on the denominator 10^places."""

    selected: tuple[ScoredCandidate, ...]
    filtered_count: int
    total_count: int
    reduction_pct: Decimal
    runtime_seconds: float = 0.0
    places: int = 0
    sums: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "total": self.total_count,
            "passed": self.filtered_count,
            "reduction_pct": str(self.reduction_pct.quantize(Decimal("0.1"))),
            "selected": [
                {
                    "combo": list(c.combo.bits),
                    "score": c.score,
                    "estimate": c.estimate.to_dict(),
                }
                for c in self.selected
            ],
        }

    def histogram(self, resource: ResourceKind, bins: int = 20) -> list[tuple]:
        """Equal-width histogram of the survivors' estimated utilization."""
        return _binned(self.sums[RESOURCE_ORDER.index(resource)], self.places, bins)


def enumerate_all() -> CandidateSet:
    """All 3^10 combinations in lexicographic order (4 < 6 < 8 per position)."""
    return CandidateSet(codes=np.arange(TOTAL_COMBINATIONS))


def _decimal_places(value: Decimal) -> int:
    exp = value.as_tuple().exponent
    return max(0, -exp) if isinstance(exp, int) else 0


def _kronecker(rows, combine=np.add) -> np.ndarray:
    """Fold one row per key component, last axis over VALID_BITWIDTHS, into
    (..., 3^10): entry r combines each row's entry at r's base-3 digit."""
    out = rows[-1]
    for row in rows[-2::-1]:
        out = combine(row[..., :, None], out[..., None, :]).reshape(*row.shape[:-1], -1)
    return out


@functools.cache
def _enumeration() -> tuple[np.ndarray, np.ndarray]:
    """Per-row bitwidth sum, and per-row index of the largest bitwidth, the
    overhead components' database column."""
    digits = [np.arange(_BASE, dtype=np.int8)] * NUM_KEY_COMPONENTS
    score = _kronecker([np.array(VALID_BITWIDTHS, dtype=np.int64)] * NUM_KEY_COMPONENTS)
    return score, _kronecker(digits, np.maximum)


def _utilization(
    db: KnowledgeDatabase, seq_len: int, thresholds: Thresholds, opts: EstimateOptions
) -> tuple[int, np.ndarray, np.ndarray]:
    """(places, sums, limit): sums[j, r] is row r's utilization of resource
    RESOURCE_ORDER[j], limit[j] its threshold, as integers on a common
    denominator 10^places."""
    table = db.table(seq_len)
    values = [*table.flat, *(thresholds[kind] for kind in RESOURCE_ORDER)]
    digits = [_decimal_places(v) for v in values]
    places = max(digits)
    # entries are >= 0, so no partial sum of a row, overhead included,
    # exceeds the sum of the per-component maxima
    worst = table.max(axis=2).sum(axis=0)
    with localcontext(Context(Emax=MAX_EMAX, Emin=MIN_EMIN)):  # exact at any places
        too_wide = max(worst) > Decimal(_INT64_MAX).scaleb(-places)
    if too_wide:
        names = [*(entry_name(seq_len, i) for i in range(table.size)),
                 *(f"threshold t_{kind.value}" for kind in RESOURCE_ORDER)]
        i = digits.index(places)
        raise ValueError(
            f"{names[i]} {values[i]}: its {places} decimal places put the utilization sums on the "
            f"denominator 10^{places}, where they overflow 64 bits"
        )
    # a threshold above every possible sum passes every row, as that bound
    # does; clamped before it is scaled, however large it is
    values[table.size:] = map(min, values[table.size:], worst)
    scaled = np.array([int(v.scaleb(places)) for v in values], dtype=object).astype(np.int64)
    tables, limit = scaled[:table.size].reshape(table.shape), scaled[table.size:]
    sums = _kronecker(tables[:NUM_KEY_COMPONENTS])
    if opts.include_overhead:
        sums += tables[NUM_KEY_COMPONENTS:].sum(axis=0)[:, _enumeration()[1]]
    return places, sums, limit[:, None]


def _survivors(
    db: KnowledgeDatabase, seq_len: int, candidates: CandidateSet | None,
    thresholds: Thresholds, opts: EstimateOptions,
) -> tuple[int, np.ndarray, np.ndarray]:
    """(places, codes, sums) of the candidates within all four thresholds, in
    input order; all 3^10 rows when candidates is None."""
    places, sums, limit = _utilization(db, seq_len, thresholds, opts)
    codes = np.arange(TOTAL_COMBINATIONS)
    if candidates is not None:
        codes = candidates.codes
        sums = sums[:, codes]
    alive = (sums <= limit).all(axis=0)
    return places, codes[alive], sums[:, alive]


def _scored(codes: np.ndarray, sums: np.ndarray, places: int) -> list[ScoredCandidate]:
    """Objects for the given rows, with exact Decimal estimates."""
    result = []
    for row, vec in zip(_bits(codes).tolist(), sums.T.tolist()):
        combo = BitwidthCombination(tuple(row))
        estimate = ResourceVector(*(Decimal(v).scaleb(-places) for v in vec))
        result.append(ScoredCandidate(combo=combo, estimate=estimate, score=combo.score))
    return result


def _reduction(passed: int, total: int) -> Decimal:
    if total == 0:
        return Decimal(100)
    return Decimal(100) * (1 - Decimal(passed) / Decimal(total))


def filter_candidates(
    db: KnowledgeDatabase,
    seq_len: int,
    candidates: CandidateSet,
    thresholds: Thresholds,
    opts: EstimateOptions = EstimateOptions(),
) -> list[ScoredCandidate]:
    """Keep candidates whose estimate meets all four thresholds, in input order."""
    places, codes, sums = _survivors(db, seq_len, candidates, thresholds, opts)
    return _scored(codes, sums, places)


def select_top(
    filtered: list[ScoredCandidate], top_k: int, total_count: int | None = None
) -> SearchResult:
    """Rank by (score desc, estimated LUTs desc, combination asc) and keep top_k."""
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    ordering = sorted(filtered, key=lambda c: (-c.score, -c.estimate.luts, c.combo.bits))
    total = total_count if total_count is not None else len(filtered)
    return SearchResult(
        selected=tuple(ordering[:top_k]),
        filtered_count=len(filtered),
        total_count=total,
        reduction_pct=_reduction(len(filtered), total),
    )


def search(
    db: KnowledgeDatabase,
    seq_len: int,
    thresholds: Thresholds,
    top_k: int = 5,
    candidates: CandidateSet | None = None,
    opts: EstimateOptions = EstimateOptions(),
) -> SearchResult:
    """Sweep all 3^10 combinations (or the given candidates), filter, rank and
    select, building objects for the top_k only."""
    start = time.perf_counter()
    places, codes, sums = _survivors(db, seq_len, candidates, thresholds, opts)
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    score = _enumeration()[0][codes]
    rank = np.arange(len(codes))
    if top_k < len(codes):  # no row below the k-th best score can make the top k
        rank = np.flatnonzero(score >= np.partition(score, -top_k)[-top_k])
    top = rank[np.lexsort((codes[rank], -sums[_LUTS, rank], -score[rank]))[:top_k]]
    total = TOTAL_COMBINATIONS if candidates is None else len(candidates)
    return SearchResult(
        selected=tuple(_scored(codes[top], sums[:, top], places)),
        filtered_count=len(codes),
        total_count=total,
        reduction_pct=_reduction(len(codes), total),
        runtime_seconds=time.perf_counter() - start,
        places=places,
        sums=sums,
    )


def _binned(values: np.ndarray, places: int, bins: int) -> list[tuple[Decimal, Decimal, int]]:
    """Equal-width bins, edges as Decimals, over integers on the denominator
    10^places: v falls in bin (v - lo) * bins // (hi - lo), floored exactly,
    and hi in the last bin, so a value on an interior edge opens the upper bin."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not len(values):
        return []
    low, high = int(values.min()), int(values.max())
    lo, hi = (Decimal(v).scaleb(-places) for v in (low, high))
    if low == high:
        return [(lo, hi, len(values))]
    if (high - low) * bins > _INT64_MAX:
        values = values.astype(object)  # exact Python integers
    index = np.minimum((values - low) * bins // (high - low), bins - 1)
    counts = np.bincount(index.astype(np.intp), minlength=bins)
    width = (hi - lo) / bins
    return [(lo + width * i, lo + width * (i + 1), int(counts[i])) for i in range(bins)]


def histogram(
    filtered: list[ScoredCandidate], resource: ResourceKind, bins: int = 20
) -> list[tuple[Decimal, Decimal, int]]:
    """Equal-width histogram of estimated utilization over the filtered set."""
    values = [c.estimate[resource] for c in filtered]
    places = max((_decimal_places(v) for v in values), default=0)
    scaled = np.array([int(v.scaleb(places)) for v in values], dtype=object)
    return _binned(scaled, places, bins)


def parse_candidate_file(path: str | Path) -> CandidateSet:
    """Read a candidate subset: one comma-separated combination per line.

    A file of plain ``d,d,...,d`` lines goes straight from its bytes to row
    numbers; any other goes line by line, which also names a bad line.
    """
    text = read_utf8(path)
    if _PLAIN_LINES.fullmatch(text):
        chars = np.frombuffer(text.encode(), dtype=np.uint8).reshape(-1, 2 * NUM_KEY_COMPONENTS)
        bits = chars[:, ::2] - ord("0")
    else:
        parsed = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                parsed.append(BitwidthCombination.parse(line).bits)
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from e
        bits = np.array(parsed, dtype=np.int64).reshape(-1, NUM_KEY_COMPONENTS)
    return CandidateSet(codes=np.searchsorted(VALID_BITWIDTHS, bits) @ _PLACE)

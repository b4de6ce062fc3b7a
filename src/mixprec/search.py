"""Threshold filtering and score-based ranking of bitwidth combinations.

The sweep enumerates candidate combinations, estimates each one against the
knowledge database, keeps those within all four resource thresholds, and
ranks survivors by the sum of their bitwidths (descending), with estimated
LUTs (descending) and lexicographic combination order as tie-breakers.

Sums and threshold comparisons are exact: database values are converted to
integers on a common power-of-ten denominator, so the vectorized sweep and
the scalar estimator agree bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np

from .components import (
    KEY_COMPONENTS,
    NUM_KEY_COMPONENTS,
    RESOURCE_ORDER,
    VALID_BITWIDTHS,
    BitwidthCombination,
    ResourceKind,
)
from .estimator import EstimateOptions
from .knowledge import KnowledgeDatabase, ResourceVector

TOTAL_COMBINATIONS = len(VALID_BITWIDTHS) ** NUM_KEY_COMPONENTS  # 3^10 = 59,049


@dataclass(frozen=True)
class Thresholds:
    """Per-resource upper limits on estimated utilization (percent)."""

    t_luts: Decimal
    t_dram: Decimal
    t_bram: Decimal
    t_dsps: Decimal

    def __post_init__(self) -> None:
        for kind in RESOURCE_ORDER:
            if self[kind] < 0:
                raise ValueError(f"threshold for {kind.value} must be >= 0")

    @classmethod
    def of(cls, t_luts, t_dram, t_bram, t_dsps) -> "Thresholds":
        return cls(
            Decimal(str(t_luts)), Decimal(str(t_dram)),
            Decimal(str(t_bram)), Decimal(str(t_dsps)),
        )

    def __getitem__(self, kind: ResourceKind) -> Decimal:
        return getattr(self, "t_" + kind.value)


@dataclass(frozen=True)
class CandidateSet:
    """Ordered, duplicate-free set of combinations to explore."""

    combos: tuple[BitwidthCombination, ...]

    def __post_init__(self) -> None:
        if not self.combos:
            raise ValueError("candidate set must be non-empty")
        if len(set(self.combos)) != len(self.combos):
            raise ValueError("candidate set contains duplicates")

    def __len__(self) -> int:
        return len(self.combos)

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
    selected: tuple[ScoredCandidate, ...]
    filtered_count: int
    total_count: int
    reduction_pct: Decimal
    runtime_seconds: float = 0.0

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


_FULL_ENUMERATION: CandidateSet | None = None


def enumerate_all() -> CandidateSet:
    """All 3^10 combinations in lexicographic order (4 < 6 < 8 per position)."""
    global _FULL_ENUMERATION
    if _FULL_ENUMERATION is None:
        idx = _full_index_array()
        bits = np.array(VALID_BITWIDTHS, dtype=np.int64)[idx]
        combos = tuple(BitwidthCombination(tuple(int(b) for b in row)) for row in bits)
        _FULL_ENUMERATION = CandidateSet(combos=combos)
    return _FULL_ENUMERATION


def _full_index_array() -> np.ndarray:
    """(3^10, 10) array of bitwidth indices, row i = digits of i base 3."""
    n = TOTAL_COMBINATIONS
    place = len(VALID_BITWIDTHS) ** np.arange(NUM_KEY_COMPONENTS - 1, -1, -1, dtype=np.int64)
    return (np.arange(n, dtype=np.int64)[:, None] // place) % len(VALID_BITWIDTHS)


def _decimal_places(value: Decimal) -> int:
    exp = value.as_tuple().exponent
    return max(0, -exp) if isinstance(exp, int) else 0


def _scaled_tables(
    db: KnowledgeDatabase, seq_len: int, thresholds: Thresholds, opts: EstimateOptions
) -> tuple[int, dict[ResourceKind, np.ndarray], dict[ResourceKind, np.ndarray], np.ndarray]:
    """Integer tables on a common denominator 10^places.

    Returns (places, key_tables, overhead_totals, threshold_row) where
    key_tables[kind] has shape (10, 3) and overhead_totals[kind] shape (3,),
    indexed by bitwidth position in VALID_BITWIDTHS.
    """
    values = [
        db.lookup(seq_len, comp, kind, b)
        for comp in KEY_COMPONENTS
        for kind in RESOURCE_ORDER
        for b in VALID_BITWIDTHS
    ]
    values += [thresholds[kind] for kind in RESOURCE_ORDER]
    places = max(_decimal_places(v) for v in values)
    factor = Decimal(10) ** places

    def scaled(v: Decimal) -> int:
        return int(v * factor)

    key_tables = {
        kind: np.array(
            [
                [scaled(db.lookup(seq_len, comp, kind, b)) for b in VALID_BITWIDTHS]
                for comp in KEY_COMPONENTS
            ],
            dtype=np.int64,
        )
        for kind in RESOURCE_ORDER
    }
    from .components import OVERHEAD_COMPONENTS

    overhead_totals = {
        kind: np.array(
            [
                sum(scaled(db.lookup(seq_len, comp, kind, b)) for comp in OVERHEAD_COMPONENTS)
                for b in VALID_BITWIDTHS
            ],
            dtype=np.int64,
        )
        for kind in RESOURCE_ORDER
    }
    threshold_row = np.array([scaled(thresholds[kind]) for kind in RESOURCE_ORDER], dtype=np.int64)
    return places, key_tables, overhead_totals, threshold_row


def _sweep(
    idx: np.ndarray,
    key_tables: dict,
    overhead_totals: dict,
    threshold_row: np.ndarray,
    opts: EstimateOptions,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate every candidate; returns (pass mask, (k, 4) scaled sums)."""
    comp_axis = np.arange(NUM_KEY_COMPONENTS)
    sums = np.empty((idx.shape[0], len(RESOURCE_ORDER)), dtype=np.int64)
    for j, kind in enumerate(RESOURCE_ORDER):
        sums[:, j] = key_tables[kind][comp_axis, idx].sum(axis=1)
    if opts.include_overhead:
        if opts.overhead_bitwidth_rule == "max":
            ob_idx = idx.max(axis=1)
        else:
            counts = np.stack(
                [(idx == i).sum(axis=1) for i in range(len(VALID_BITWIDTHS))], axis=1
            )
            # argmax of counts with ties to the larger bitwidth
            best = counts.max(axis=1, keepdims=True)
            ob_idx = np.where(counts == best, np.arange(len(VALID_BITWIDTHS)), -1).max(axis=1)
        for j, kind in enumerate(RESOURCE_ORDER):
            sums[:, j] += overhead_totals[kind][ob_idx]
    mask = (sums <= threshold_row).all(axis=1)
    return mask, sums


def _combo_index_array(candidates: CandidateSet) -> np.ndarray:
    bw_to_idx = {b: i for i, b in enumerate(VALID_BITWIDTHS)}
    return np.array(
        [[bw_to_idx[b] for b in combo.bits] for combo in candidates], dtype=np.int64
    )


def filter_candidates(
    db: KnowledgeDatabase,
    seq_len: int,
    candidates: CandidateSet,
    thresholds: Thresholds,
    opts: EstimateOptions = EstimateOptions(),
) -> list[ScoredCandidate]:
    """Keep candidates whose estimate meets all four thresholds, in input order."""
    if seq_len not in db.seq_lens:
        covered = ", ".join(str(n) for n in sorted(db.seq_lens))
        from .knowledge import CoverageError

        raise CoverageError(f"seq_len {seq_len} not covered; covered lengths: {covered}")

    idx = _combo_index_array(candidates)
    places, key_tables, overhead_totals, threshold_row = _scaled_tables(
        db, seq_len, thresholds, opts
    )

    mask, sums = _sweep(idx, key_tables, overhead_totals, threshold_row, opts)

    result: list[ScoredCandidate] = []
    combos = candidates.combos
    for i in np.flatnonzero(mask):
        vec = ResourceVector(
            *(Decimal(int(sums[i, j])).scaleb(-places) for j in range(len(RESOURCE_ORDER)))
        )
        combo = combos[i]
        result.append(ScoredCandidate(combo=combo, estimate=vec, score=combo.score))
    return result


def select_top(
    filtered: list[ScoredCandidate], top_k: int, total_count: int | None = None
) -> SearchResult:
    """Rank by (score desc, estimated LUTs desc, combination asc) and keep top_k."""
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    ordering = sorted(filtered, key=lambda c: (-c.score, -c.estimate.luts, c.combo.bits))
    total = total_count if total_count is not None else len(filtered)
    if total == 0:
        reduction = Decimal(100)
    else:
        reduction = Decimal(100) * (1 - Decimal(len(filtered)) / Decimal(total))
    return SearchResult(
        selected=tuple(ordering[: min(top_k, len(ordering))]),
        filtered_count=len(filtered),
        total_count=total,
        reduction_pct=reduction,
    )


def search(
    db: KnowledgeDatabase,
    seq_len: int,
    thresholds: Thresholds,
    top_k: int = 5,
    candidates: CandidateSet | None = None,
    opts: EstimateOptions = EstimateOptions(),
) -> SearchResult:
    """Full sweep: enumerate (or take given candidates), filter, rank, select."""
    start = time.perf_counter()
    if candidates is None:
        candidates = enumerate_all()
    filtered = filter_candidates(db, seq_len, candidates, thresholds, opts)
    result = select_top(filtered, top_k, total_count=len(candidates))
    return SearchResult(
        selected=result.selected,
        filtered_count=result.filtered_count,
        total_count=result.total_count,
        reduction_pct=result.reduction_pct,
        runtime_seconds=time.perf_counter() - start,
    )


def histogram(
    filtered: list[ScoredCandidate], resource: ResourceKind, bins: int = 20
) -> list[tuple[Decimal, Decimal, int]]:
    """Equal-width histogram of estimated utilization over the filtered set."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not filtered:
        return []
    values = [c.estimate[resource] for c in filtered]
    lo, hi = min(values), max(values)
    if lo == hi:
        return [(lo, hi, len(values))]
    width = (hi - lo) / bins
    counts = [0] * bins
    for v in values:
        k = min(int((v - lo) / width), bins - 1)
        counts[k] += 1
    return [(lo + width * i, lo + width * (i + 1), counts[i]) for i in range(bins)]


def parse_candidate_file(path: str | Path) -> CandidateSet:
    """Read a candidate subset: one comma-separated combination per line."""
    combos = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            combos.append(BitwidthCombination.parse(line))
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from e
    return CandidateSet(combos=tuple(combos))

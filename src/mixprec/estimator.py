"""Resource utilization estimates for mixed-precision bitwidth combinations.

An estimate is the sum of the per-component database entries selected by the
combination, optionally plus the overhead components. All arithmetic is exact
decimal addition; nothing is rounded until display.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

from .components import (
    OVERHEAD_COMPONENTS,
    VALID_BITWIDTHS,
    BitwidthCombination,
)
from .knowledge import KnowledgeDatabase, ResourceVector

@dataclass(frozen=True)
class EstimateOptions:
    """Whether the overhead components enter the sum. They are taken at the
    database column of the combination's largest bitwidth (conservative)."""

    include_overhead: bool = False


def estimate(
    db: KnowledgeDatabase,
    seq_len: int,
    combo: BitwidthCombination,
    opts: EstimateOptions = EstimateOptions(),
) -> ResourceVector:
    """Sum per-component utilization for ``combo`` at ``seq_len``: the key
    components' rows at their bitwidths' columns, then the overhead rows."""
    table = db.table(seq_len)
    columns = [VALID_BITWIDTHS.index(b) for b in combo.bits]
    if opts.include_overhead:  # the overhead rows follow the key components' rows
        columns += [VALID_BITWIDTHS.index(max(combo.bits))] * len(OVERHEAD_COMPONENTS)
    # row by row from Decimal(0), so each total rounds as a scalar running sum would
    return ResourceVector(*sum(table[range(len(columns)), :, columns], Decimal(0)))


def estimate_uniform(
    db: KnowledgeDatabase,
    seq_len: int,
    bitwidth: int,
    opts: EstimateOptions = EstimateOptions(),
) -> ResourceVector:
    """Estimate for a uniform-bitwidth model; equals ``estimate`` on the uniform combo."""
    return estimate(db, seq_len, BitwidthCombination.uniform(bitwidth), opts)

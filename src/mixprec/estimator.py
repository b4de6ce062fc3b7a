"""Resource utilization estimates for mixed-precision bitwidth combinations.

An estimate is the sum of the per-component database entries selected by the
combination, optionally plus the overhead components. All arithmetic is exact
decimal addition; nothing is rounded until display.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

from .components import (
    KEY_COMPONENTS,
    OVERHEAD_COMPONENTS,
    RESOURCE_ORDER,
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
    """Sum per-component utilization for ``combo`` at ``seq_len``."""
    totals = {kind: Decimal(0) for kind in RESOURCE_ORDER}
    for comp, bits in zip(KEY_COMPONENTS, combo.bits):
        for kind in RESOURCE_ORDER:
            totals[kind] += db.lookup(seq_len, comp, kind, bits)
    if opts.include_overhead:
        ob = max(combo.bits)
        for comp in OVERHEAD_COMPONENTS:
            for kind in RESOURCE_ORDER:
                totals[kind] += db.lookup(seq_len, comp, kind, ob)
    return ResourceVector(*(totals[kind] for kind in RESOURCE_ORDER))


def estimate_uniform(
    db: KnowledgeDatabase,
    seq_len: int,
    bitwidth: int,
    opts: EstimateOptions = EstimateOptions(),
) -> ResourceVector:
    """Estimate for a uniform-bitwidth model; equals ``estimate`` on the uniform combo."""
    return estimate(db, seq_len, BitwidthCombination.uniform(bitwidth), opts)

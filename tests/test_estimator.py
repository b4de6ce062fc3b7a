"""Estimator: additive utilization sums over the knowledge database."""

from __future__ import annotations

import math
import random
from decimal import Decimal

import numpy as np
import pytest

from mixprec.components import (
    KEY_COMPONENTS,
    OVERHEAD_COMPONENTS,
    RESOURCE_ORDER,
    VALID_BITWIDTHS,
    BitwidthCombination,
    ComponentId,
    ResourceKind,
)
from mixprec.estimator import EstimateOptions, estimate, estimate_uniform
from mixprec.knowledge import TABLE_SHAPE, CoverageError, KnowledgeDatabase, bundled_database


@pytest.fixture(scope="module")
def db():
    return bundled_database()


def zero_db() -> KnowledgeDatabase:
    return KnowledgeDatabase(tables={12: np.full(TABLE_SHAPE, Decimal("0.0"), dtype=object)})


class TestEstimate:
    def test_mixed_combo_key_components_only(self, db):
        combo = BitwidthCombination.parse("6,8,6,8,6,6,8,8,8,8")
        vec = estimate(db, 12, combo)
        assert vec.luts == Decimal("79.9")
        assert vec.dram == Decimal("78.5")
        assert vec.bram == Decimal("100.0")
        assert vec.dsps == Decimal("100.0")

    def test_second_mixed_combo(self, db):
        combo = BitwidthCombination.parse("8,8,6,8,8,4,8,6,8,8")
        vec = estimate(db, 12, combo)
        assert vec.luts == Decimal("78.0")
        assert vec.bram == Decimal("85.0")
        assert vec.dsps == Decimal("100.0")

    def test_uniform_4bit_with_overhead(self, db):
        vec = estimate(
            db, 12, BitwidthCombination.uniform(4), EstimateOptions(include_overhead=True)
        )
        assert vec.luts == Decimal("57.3")

    def test_zero_database_gives_zero(self):
        vec = estimate(zero_db(), 12, BitwidthCombination.uniform(8))
        assert (vec.luts, vec.dram, vec.bram, vec.dsps) == (0, 0, 0, 0)

    def test_uncovered_seq_len(self, db):
        with pytest.raises(CoverageError):
            estimate(db, 6, BitwidthCombination.uniform(4))

    def test_deterministic(self, db):
        combo = BitwidthCombination.parse("8,4,6,8,4,6,8,4,6,8")
        assert estimate(db, 18, combo) == estimate(db, 18, combo)

    @pytest.mark.parametrize("overhead", [False, True])
    def test_rounds_as_a_running_sum_of_lookups(self, overhead):
        # 28-digit entries at exponents 0 to -3 make the additions round,
        # so a different summation order would give different digits
        rng = random.Random(17)
        cells = [Decimal(rng.randrange(10**27, 10**28)).scaleb(-rng.randrange(0, 4))
                 for _ in range(math.prod(TABLE_SHAPE))]
        db = KnowledgeDatabase(tables={12: np.array(cells, dtype=object).reshape(TABLE_SHAPE)})
        for _ in range(20):
            combo = BitwidthCombination(tuple(rng.choice(VALID_BITWIDTHS) for _ in range(10)))
            picked = list(zip(KEY_COMPONENTS, combo.bits))
            if overhead:
                picked += [(comp, max(combo.bits)) for comp in OVERHEAD_COMPONENTS]
            want = []
            for kind in RESOURCE_ORDER:
                total = Decimal(0)
                for comp, bits in picked:
                    total += db.lookup(12, comp, kind, bits)
                want.append(str(total))
            got = estimate(db, 12, combo, EstimateOptions(include_overhead=overhead))
            assert [str(got[kind]) for kind in RESOURCE_ORDER] == want


class TestEstimateUniform:
    def test_equals_estimate_on_uniform_combo(self, db):
        for b in VALID_BITWIDTHS:
            for n in (12, 18, 24):
                assert estimate_uniform(db, n, b) == estimate(
                    db, n, BitwidthCombination.uniform(b)
                )

    def test_n24_6bit_dsps_hand_sum(self, db):
        # 5+10+30+10+5+10+10+5+5+5 over the key components
        vec = estimate_uniform(db, 24, 6)
        assert vec.dsps == Decimal("95.0")

    def test_n18_8bit_bram_saturated(self, db):
        vec = estimate_uniform(db, 18, 8, EstimateOptions(include_overhead=True))
        assert vec.bram == Decimal("100.0")

    def test_n12_4bit_excluding_overhead(self, db):
        assert estimate_uniform(db, 12, 4).luts == Decimal("54.6")


class TestAdditivity:
    def test_single_component_delta_is_entry_difference(self, db):
        base = BitwidthCombination.uniform(4)
        for i, comp in enumerate(KEY_COMPONENTS):
            bits = list(base.bits)
            bits[i] = 8
            raised = BitwidthCombination(tuple(bits))
            for kind in RESOURCE_ORDER:
                delta = estimate(db, 12, raised)[kind] - estimate(db, 12, base)[kind]
                expected = db.lookup(12, comp, kind, 8) - db.lookup(12, comp, kind, 4)
                assert delta == expected

    def test_overhead_linearity(self, db):
        combo = BitwidthCombination.parse("6,8,6,8,6,6,8,8,8,8")
        with_oh = estimate(db, 12, combo, EstimateOptions(include_overhead=True))
        without = estimate(db, 12, combo)
        ob = max(combo.bits)
        for kind in RESOURCE_ORDER:
            overhead_sum = sum(
                db.lookup(12, comp, kind, ob)
                for comp in (
                    ComponentId.O_MODEL,
                    ComponentId.O_ENCODER_LAYER,
                    ComponentId.O_MIDDLEWARE,
                )
            )
            assert with_oh[kind] - without[kind] == overhead_sum


class TestOverheadRule:
    def test_max_rule(self, db):
        # nine 4-bit components and one 6-bit: the overhead takes the 6-bit column
        combo = BitwidthCombination.parse("4,4,4,4,4,4,4,4,4,6")
        with_oh = estimate(db, 12, combo, EstimateOptions(include_overhead=True))
        without = estimate(db, 12, combo)
        for kind in RESOURCE_ORDER:
            overhead = sum(db.lookup(12, comp, kind, 6) for comp in OVERHEAD_COMPONENTS)
            assert with_oh[kind] - without[kind] == overhead

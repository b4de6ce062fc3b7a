"""Search: enumeration, threshold filtering, score ranking."""

from __future__ import annotations

import random
from decimal import Decimal

import pytest

from mixprec.components import RESOURCE_ORDER, BitwidthCombination
from mixprec.estimator import EstimateOptions, estimate
from mixprec.knowledge import bundled_database
from mixprec.search import (
    TOTAL_COMBINATIONS,
    CandidateSet,
    ScoredCandidate,
    Thresholds,
    enumerate_all,
    filter_candidates,
    histogram,
    parse_candidate_file,
    search,
    select_top,
)

DEFAULT_THRESHOLDS = Thresholds.of(80, 100, 100, 100)


@pytest.fixture(scope="module")
def db():
    return bundled_database()


@pytest.fixture(scope="module")
def filtered_n12(db):
    return filter_candidates(db, 12, enumerate_all(), DEFAULT_THRESHOLDS)


def independent_predicate(db, seq_len, combo, thresholds, opts=EstimateOptions()):
    """Re-implementation of the filter predicate through the scalar estimator."""
    vec = estimate(db, seq_len, combo, opts)
    return all(vec[kind] <= thresholds[kind] for kind in RESOURCE_ORDER)


class TestEnumerateAll:
    def test_cardinality_and_bounds(self):
        cs = enumerate_all()
        assert len(cs) == TOTAL_COMBINATIONS == 59049
        assert cs.combos[0] == BitwidthCombination.uniform(4)
        assert cs.combos[-1] == BitwidthCombination.uniform(8)

    def test_lexicographic_order_and_distinct(self):
        cs = enumerate_all()
        sample = random.Random(0).sample(range(len(cs) - 1), 500)
        for i in sample:
            assert cs.combos[i].bits < cs.combos[i + 1].bits
        assert len({c.bits for c in cs}) == len(cs)


class TestFilter:
    def test_zero_thresholds_empty(self, db):
        assert filter_candidates(db, 12, enumerate_all(), Thresholds.of(0, 0, 0, 0)) == []

    def test_single_candidate_uniform4(self, db):
        cs = CandidateSet(combos=(BitwidthCombination.uniform(4),))
        out = filter_candidates(db, 12, cs, Thresholds.of(60, 100, 100, 100))
        assert len(out) == 1
        assert out[0].score == 40
        assert out[0].estimate.luts == Decimal("54.6")

    def test_survivor_count_n12(self, filtered_n12):
        # regression constant from the first verified sweep
        assert len(filtered_n12) == 18118

    def test_soundness(self, db, filtered_n12):
        for cand in random.Random(1).sample(filtered_n12, 200):
            assert independent_predicate(db, 12, cand.combo, DEFAULT_THRESHOLDS)

    def test_completeness_against_independent_predicate(self, db, filtered_n12):
        passing = {c.combo for c in filtered_n12}
        subsample = random.Random(2).sample(enumerate_all().combos, 1000)
        for combo in subsample:
            expected = independent_predicate(db, 12, combo, DEFAULT_THRESHOLDS)
            assert (combo in passing) == expected

    def test_estimates_match_scalar_estimator(self, db, filtered_n12):
        for cand in random.Random(3).sample(filtered_n12, 100):
            assert cand.estimate == estimate(db, 12, cand.combo)

    def test_threshold_monotonicity(self, db, filtered_n12):
        higher = Thresholds.of(90, 100, 100, 100)
        passing_higher = {c.combo for c in filter_candidates(db, 12, enumerate_all(), higher)}
        for cand in filtered_n12:
            assert cand.combo in passing_higher

    def test_input_order_preserved(self, db, filtered_n12):
        order = {c.bits: i for i, c in enumerate(enumerate_all().combos)}
        indices = [order[c.combo.bits] for c in filtered_n12]
        assert indices == sorted(indices)


class TestSelectTop:
    def test_score_is_primary_key(self, db):
        c70 = next(c for c in enumerate_all() if c.score == 70)
        c72 = next(c for c in enumerate_all() if c.score == 72)
        cands = [
            ScoredCandidate(combo=c, estimate=estimate(db, 12, c), score=c.score)
            for c in (c70, c72)
        ]
        result = select_top(cands, top_k=2)
        assert result.selected[0].score == 72

    def test_permutation_invariant(self, filtered_n12):
        shuffled = filtered_n12[:]
        random.Random(4).shuffle(shuffled)
        assert select_top(shuffled, 5).selected == select_top(filtered_n12, 5).selected

    def test_top1_is_brute_force_max(self, filtered_n12):
        best = max(filtered_n12, key=lambda c: (c.score, c.estimate.luts, [-b for b in c.combo.bits]))
        assert select_top(filtered_n12, 1).selected == (best,)

    def test_empty_filtered(self):
        result = select_top([], top_k=5)
        assert result.selected == ()
        assert result.reduction_pct == Decimal(100)

    def test_bad_top_k(self):
        with pytest.raises(ValueError):
            select_top([], top_k=0)


class TestSearch:
    @pytest.mark.parametrize(
        "n,expected_passed,expected_reduction",
        [(12, 18118, "69.3"), (18, 903, "98.5"), (24, 192, "99.7")],
    )
    def test_reductions(self, db, n, expected_passed, expected_reduction):
        result = search(db, n, DEFAULT_THRESHOLDS)
        assert result.filtered_count == expected_passed
        assert result.reduction_pct.quantize(Decimal("0.1")) == Decimal(expected_reduction)

    def test_runtime_bound(self, db):
        result = search(db, 12, DEFAULT_THRESHOLDS)
        assert result.runtime_seconds < 10.0

    def test_candidate_subset(self, db):
        subset = CandidateSet(
            combos=(BitwidthCombination.uniform(4), BitwidthCombination.uniform(8))
        )
        result = search(db, 12, DEFAULT_THRESHOLDS, candidates=subset)
        assert result.total_count == 2
        assert result.filtered_count == 1
        assert result.selected[0].combo == BitwidthCombination.uniform(4)

    def test_json_shape(self, db):
        doc = search(db, 12, DEFAULT_THRESHOLDS).to_dict()
        assert doc["total"] == 59049
        assert doc["passed"] == 18118
        assert len(doc["selected"]) == 5
        assert set(doc["selected"][0]["estimate"]) == {"luts", "dram", "bram", "dsps"}


class TestHistogram:
    def test_counts_sum_to_filtered(self, filtered_n12):
        from mixprec.components import ResourceKind

        bins = histogram(filtered_n12, ResourceKind.LUTS, bins=20)
        assert sum(count for _, _, count in bins) == len(filtered_n12)
        assert len(bins) == 20

    def test_empty(self):
        from mixprec.components import ResourceKind

        assert histogram([], ResourceKind.LUTS) == []


def test_parse_candidate_file(tmp_path):
    path = tmp_path / "combos.txt"
    path.write_text("# comment\n4,4,4,4,4,4,4,4,4,4\n6,8,6,8,6,6,8,8,8,8\n")
    cs = parse_candidate_file(path)
    assert len(cs) == 2
    assert cs.combos[1] == BitwidthCombination.parse("6,8,6,8,6,6,8,8,8,8")

    bad = tmp_path / "bad.txt"
    bad.write_text("4,4,4\n")
    with pytest.raises(ValueError, match="bad.txt:1"):
        parse_candidate_file(bad)

"""Search: enumeration, threshold filtering, score ranking."""

from __future__ import annotations

import importlib
import math
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixprec.cli import run
from mixprec.components import (
    ALL_COMPONENTS,
    KEY_COMPONENTS,
    OVERHEAD_COMPONENTS,
    RESOURCE_ORDER,
    VALID_BITWIDTHS,
    BitwidthCombination,
    ComponentId,
    ResourceKind,
)
from mixprec.estimator import EstimateOptions, estimate
from mixprec.knowledge import (
    TABLE_SHAPE,
    KnowledgeDatabase,
    ResourceVector,
    bundled_database,
    save,
)
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

# the module, not the ``mixprec.search`` function the package re-exports
search_module = importlib.import_module("mixprec.search")

DEFAULT_THRESHOLDS = Thresholds.of(80, 100, 100, 100)
OPTIONS = {
    "no-overhead": EstimateOptions(),
    "max": EstimateOptions(include_overhead=True),
}
THRESHOLD_CASES = {
    "none-pass": Thresholds.of(0, 0, 0, 0),
    "pinned": DEFAULT_THRESHOLDS,
    "all-pass": Thresholds.of(1000, 1000, 1000, 1000),
}


@pytest.fixture(scope="module")
def db():
    return bundled_database()


@pytest.fixture(scope="module")
def all_combos():
    return enumerate_all()


@pytest.fixture(scope="module")
def filtered_n12(db, all_combos):
    return filter_candidates(db, 12, all_combos, DEFAULT_THRESHOLDS)


def independent_predicate(db, seq_len, combo, thresholds, opts=EstimateOptions()):
    """Re-implementation of the filter predicate through the scalar estimator."""
    vec = estimate(db, seq_len, combo, opts)
    return all(vec[kind] <= thresholds[kind] for kind in RESOURCE_ORDER)


class TestEnumerateAll:
    def test_cardinality_and_bounds(self, all_combos):
        cs = all_combos
        assert len(cs) == TOTAL_COMBINATIONS == 59049
        assert cs.combos[0] == BitwidthCombination.uniform(4)
        assert cs.combos[-1] == BitwidthCombination.uniform(8)

    def test_lexicographic_order_and_distinct(self, all_combos):
        cs = all_combos
        sample = random.Random(0).sample(range(len(cs) - 1), 500)
        for i in sample:
            assert cs.combos[i].bits < cs.combos[i + 1].bits
        assert len({c.bits for c in cs}) == len(cs)


class TestFilter:
    def test_zero_thresholds_empty(self, db, all_combos):
        assert filter_candidates(db, 12, all_combos, Thresholds.of(0, 0, 0, 0)) == []

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

    def test_completeness_against_independent_predicate(self, db, all_combos, filtered_n12):
        passing = {c.combo for c in filtered_n12}
        subsample = random.Random(2).sample(all_combos.combos, 1000)
        for combo in subsample:
            expected = independent_predicate(db, 12, combo, DEFAULT_THRESHOLDS)
            assert (combo in passing) == expected

    def test_estimates_match_scalar_estimator(self, db, filtered_n12):
        for cand in random.Random(3).sample(filtered_n12, 100):
            assert cand.estimate == estimate(db, 12, cand.combo)

    def test_threshold_monotonicity(self, db, all_combos, filtered_n12):
        higher = Thresholds.of(90, 100, 100, 100)
        passing_higher = {c.combo for c in filter_candidates(db, 12, all_combos, higher)}
        for cand in filtered_n12:
            assert cand.combo in passing_higher

    def test_input_order_preserved(self, all_combos, filtered_n12):
        order = {c.bits: i for i, c in enumerate(all_combos.combos)}
        indices = [order[c.combo.bits] for c in filtered_n12]
        assert indices == sorted(indices)


class TestSelectTop:
    def test_score_is_primary_key(self, db, all_combos):
        c70 = next(c for c in all_combos if c.score == 70)
        c72 = next(c for c in all_combos if c.score == 72)
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

    def test_overhead_entry_with_more_decimal_places(self, db):
        # the common denominator must cover overhead entries too, not only key ones
        table = db.table(12).copy()
        table[ALL_COMPONENTS.index(ComponentId.O_MODEL), RESOURCE_ORDER.index(ResourceKind.LUTS),
              VALID_BITWIDTHS.index(8)] += Decimal("0.05")
        finer = KnowledgeDatabase(tables={**db.tables, 12: table})
        opts = EstimateOptions(include_overhead=True)
        result = search(finer, 12, Thresholds.of(1000, 1000, 1000, 1000), opts=opts)
        assert result.selected[0].combo == BitwidthCombination.uniform(8)
        for cand in result.selected:
            assert cand.estimate == estimate(finer, 12, cand.combo, opts)

    def test_json_shape(self, db):
        doc = search(db, 12, DEFAULT_THRESHOLDS).to_dict()
        assert doc["total"] == 59049
        assert doc["passed"] == 18118
        assert len(doc["selected"]) == 5
        assert set(doc["selected"][0]["estimate"]) == {"luts", "dram", "bram", "dsps"}


def assert_same_ranking(got, want):
    assert got.selected == want.selected
    assert got.filtered_count == want.filtered_count
    assert got.total_count == want.total_count
    assert got.reduction_pct == want.reduction_pct


class TestIndexSpaceMatchesObjects:
    """search() ranks row numbers; select_top(filter_candidates()) ranks objects."""

    @pytest.mark.parametrize("n,opts,thresholds", [
        pytest.param(n, opts, thresholds, id=f"{n}-{o}-{t}")
        for n in (12, 18, 24)
        for o, opts in OPTIONS.items()
        for t, thresholds in THRESHOLD_CASES.items()
        # every row surviving makes the object reference slow: once per overhead option
        if t != "all-pass" or n == 12
    ])
    def test_full_space(self, db, all_combos, n, opts, thresholds):
        filtered = filter_candidates(db, n, all_combos, thresholds, opts)
        for k in (1, 5, len(filtered) + 1):
            want = select_top(filtered, k, total_count=TOTAL_COMBINATIONS)
            assert_same_ranking(search(db, n, thresholds, top_k=k, opts=opts), want)

    @pytest.mark.parametrize("opts", OPTIONS.values(), ids=OPTIONS)
    def test_shuffled_subset_ties_break_by_combination(self, db, all_combos, opts):
        combos = random.Random(5).sample(all_combos.combos, 3000)
        subset = CandidateSet(combos=tuple(combos))
        filtered = filter_candidates(db, 12, subset, DEFAULT_THRESHOLDS, opts)
        passing = {c.combo for c in filtered}
        assert [c.combo for c in filtered] == [c for c in combos if c in passing]
        for k in (1, 5, len(filtered) + 1):
            want = select_top(filtered, k, total_count=len(subset))
            got = search(db, 12, DEFAULT_THRESHOLDS, top_k=k, candidates=subset, opts=opts)
            assert_same_ranking(got, want)
        # the subset has (score, LUTs) ties that file order would break differently
        position = {c: i for i, c in enumerate(combos)}
        by_file = sorted(filtered, key=lambda c: (-c.score, -c.estimate.luts, position[c.combo]))
        assert by_file != list(want.selected)


def spy_on_scored(monkeypatch) -> list:
    built = []

    class Counted(search_module.ScoredCandidate):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(search_module, "ScoredCandidate", Counted)
    return built


class TestMaterialization:
    @pytest.mark.parametrize(
        "n,thresholds,top_k",
        [(12, DEFAULT_THRESHOLDS, 5), (12, Thresholds.of(0, 0, 0, 0), 5),
         (18, DEFAULT_THRESHOLDS, 1), (24, DEFAULT_THRESHOLDS, 1000)],
    )
    def test_search_builds_only_the_top_k(self, db, monkeypatch, n, thresholds, top_k):
        built = spy_on_scored(monkeypatch)
        result = search(db, n, thresholds, top_k=top_k)
        assert len(built) == min(top_k, result.filtered_count) == len(result.selected)

    def test_histogram_request_sweeps_once(self, db, tmp_path, monkeypatch, capsys):
        kb = tmp_path / "kb.json"
        save(db, kb)
        sweeps = []
        sweep = search_module._utilization
        monkeypatch.setattr(search_module, "_utilization", lambda *a: sweeps.append(a) or sweep(*a))
        built = spy_on_scored(monkeypatch)
        assert run(["search", "--kb", str(kb), "--n", "12", "--t-luts", "80", "--t-dram", "100",
                    "--t-bram", "100", "--t-dsps", "100", "--top", "3",
                    "--histogram", "luts", "--bins", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert sum(int(line.split(",")[2]) for line in lines[1:]) == 18118
        assert len(sweeps) == 1
        assert len(built) == 3


def exact_counts(values: list[Decimal], bins: int) -> list[int]:
    """Bin i holds lo + i*w <= v < lo + (i+1)*w, in exact fractions; hi goes last."""
    values = [Fraction(v) for v in values]
    lo, hi = min(values), max(values)
    width = (hi - lo) / bins
    counts = [0] * bins
    for v in values:
        i = next(i for i in range(bins) if v < lo + (i + 1) * width or i == bins - 1)
        assert lo + i * width <= v
        counts[i] += 1
    return counts


@st.composite
def databases_and_thresholds(draw):
    """A one-length database with entries in [0, high] and thresholds in
    [4 high, 13 high], each with 0 to ``places`` <= 20 decimal places."""
    places = draw(st.integers(0, 20))
    high = draw(st.sampled_from([1, 10, 100]))

    def decimals(count: int, top: int) -> list[Decimal]:
        ks = draw(st.lists(st.integers(0, top * 10**places), min_size=count, max_size=count))
        ps = draw(st.lists(st.integers(0, places), min_size=count, max_size=count))
        return [Decimal(k // 10 ** (places - p)).scaleb(-p) for k, p in zip(ks, ps)]

    table = np.array(decimals(math.prod(TABLE_SHAPE), high), dtype=object).reshape(TABLE_SHAPE)
    db = KnowledgeDatabase(tables={12: table})
    return db, Thresholds(*(4 * high + v for v in decimals(4, 9 * high)))


def decimal_places(value: Decimal) -> int:
    return max(0, -value.as_tuple().exponent)


class TestExactAtAnyDecimalPlaces:
    """search() on integers over 10^places equals the Decimal estimate, or
    raises ValueError (exit 2 in the CLI) exactly when the sum of the
    per-component maxima on that denominator leaves 64 bits."""

    @settings(max_examples=30, deadline=None)
    @given(
        case=databases_and_thresholds(),
        codes=st.lists(st.integers(0, TOTAL_COMBINATIONS - 1), min_size=1, max_size=200,
                       unique=True),
        overhead=st.booleans(),
        bins=st.integers(1, 64),
    )
    def test_subset_matches_decimal_estimate(self, case, codes, overhead, bins):
        db, thresholds = case
        opts = EstimateOptions(include_overhead=overhead)
        subset = CandidateSet(codes=np.array(codes))
        stated = [*db.table(12).flat, *vars(thresholds).values()]
        places = max(decimal_places(v) for v in stated)
        worst = max(
            sum(max(db.lookup(12, comp, kind, b) for b in VALID_BITWIDTHS)
                for comp in KEY_COMPONENTS + OVERHEAD_COMPONENTS)
            for kind in RESOURCE_ORDER
        )
        if worst.scaleb(places) >= 2**63:
            with pytest.raises(ValueError, match="overflow 64 bits"):
                search(db, 12, thresholds, candidates=subset, opts=opts)
            return
        result = search(db, 12, thresholds, top_k=len(subset), candidates=subset, opts=opts)
        want = {}
        for combo in subset.combos:
            vec = estimate(db, 12, combo, opts)
            if all(vec[kind] <= thresholds[kind] for kind in RESOURCE_ORDER):
                want[combo] = vec
        assert result.filtered_count == len(want)
        assert {c.combo: c.estimate for c in result.selected} == want
        values = [vec.luts for vec in want.values()]
        if len(set(values)) > 1:
            got = result.histogram(ResourceKind.LUTS, bins)
            assert [count for _, _, count in got] == exact_counts(values, bins)


def scored_with_luts(luts: str) -> ScoredCandidate:
    return ScoredCandidate(
        combo=BitwidthCombination.uniform(4), estimate=ResourceVector.of(luts, 0, 0, 0), score=40
    )


class TestHistogram:
    def test_value_on_interior_edge_opens_the_upper_bin(self):
        # (95.0 - 80.0) / 9 rounds up at 28 digits, yet 90.0 is exactly edge 6
        bins = histogram([scored_with_luts(v) for v in ("80.0", "90.0", "95.0")], ResourceKind.LUTS, 9)
        assert [count for _, _, count in bins] == [1, 0, 0, 0, 0, 0, 1, 0, 1]
        assert bins[6][0] == Decimal("90.0")

    @pytest.mark.parametrize("bins", [1, 7, 9, 20])
    @pytest.mark.parametrize("kind", list(ResourceKind))
    def test_counts_are_exact_and_search_bins_the_same(self, db, all_combos, kind, bins):
        # n=18 with overhead has BRAM values on interior edges at 9 bins
        opts = EstimateOptions(include_overhead=True)
        filtered = filter_candidates(db, 18, all_combos, DEFAULT_THRESHOLDS, opts)
        got = histogram(filtered, kind, bins)
        values = [c.estimate[kind] for c in filtered]
        assert [count for _, _, count in got] == exact_counts(values, bins)
        assert search(db, 18, DEFAULT_THRESHOLDS, opts=opts).histogram(kind, bins) == got

    def test_spread_times_bins_beyond_int64_stays_exact(self):
        values = np.array([0, 2**61 + 1, 2**62, 2**63 - 1], dtype=np.int64)
        got = search_module._binned(values, 0, 20)
        want = exact_counts([Decimal(int(v)) for v in values], 20)
        assert [count for _, _, count in got] == want

    def test_counts_sum_to_filtered(self, filtered_n12):
        bins = histogram(filtered_n12, ResourceKind.LUTS, bins=20)
        assert sum(count for _, _, count in bins) == len(filtered_n12)
        assert len(bins) == 20

    def test_empty(self):
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


def parse_line_by_line(path) -> CandidateSet:
    """The per-line parse ``parse_candidate_file`` replaced."""
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


def test_parse_candidate_file_matches_the_line_by_line_parse(tmp_path, all_combos):
    rng = random.Random(9)
    edits = [
        lambda t: t.replace("4", "5", 1), lambda t: t + ",4", lambda t: t.rsplit(",", 1)[0],
        lambda t: t.replace("6", "x", 1), lambda t: t.replace("8", "8.0", 1),
        lambda t: t.replace(",", ", ", 3), lambda t: "  " + t, lambda t: "# " + t,
        lambda t: "", lambda t: t.replace("6", "+6"), lambda t: t + ",",
    ]
    path = tmp_path / "combos.txt"
    outcomes = set()
    for case in range(200):
        lines = [str(c) for c in rng.sample(all_combos.combos, rng.randint(0, 40))]
        for _ in range(rng.randint(0, 2)):
            if lines:
                i = rng.randrange(len(lines))
                lines[i] = rng.choice(edits + [lambda t: lines[0]])(lines[i])
        path.write_text("\n".join(lines) + "\n")
        try:
            expected = parse_line_by_line(path)
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                parse_candidate_file(path)
            assert str(got.value) == str(e), case
            outcomes.add(str(e).split(": ", 1)[-1].split()[0])
            continue
        got = parse_candidate_file(path)
        assert got.combos == expected.combos
        assert np.array_equal(got.codes, expected.codes)
        outcomes.add("ok")
    assert outcomes >= {"ok", "bad", "combination", "bitwidth", "candidate"}, outcomes

import pytest

from repro.core import RatioMap, rank_candidates, select_closest, select_top_k
from repro.core.engine import clear_pack_cache, packed_for
from repro.core.selection import rank_packed, rank_scalar
from repro.core.similarity import SimilarityMetric


@pytest.fixture()
def maps():
    client = RatioMap({"rx": 0.2, "ry": 0.8})
    candidates = {
        "b": RatioMap({"rx": 0.6, "ry": 0.4}),   # cos ≈ 0.740
        "c": RatioMap({"rx": 0.1, "ry": 0.9}),   # cos ≈ 0.991
        "far": RatioMap({"rz": 1.0}),            # cos = 0
    }
    return client, candidates


def test_ranking_order(maps):
    client, candidates = maps
    ranked = rank_candidates(client, candidates)
    assert [r.name for r in ranked] == ["c", "b", "far"]
    assert ranked[0].score > ranked[1].score > ranked[2].score


def test_select_closest_is_top1(maps):
    client, candidates = maps
    assert select_closest(client, candidates).name == "c"


def test_select_top_k(maps):
    client, candidates = maps
    top2 = select_top_k(client, candidates, k=2)
    assert [r.name for r in top2] == ["c", "b"]


def test_top_k_validation(maps):
    client, candidates = maps
    with pytest.raises(ValueError):
        select_top_k(client, candidates, k=0)


def test_no_candidates_returns_none():
    client = RatioMap({"rx": 1.0})
    assert select_closest(client, {}) is None
    assert rank_candidates(client, {}) == []


def test_none_maps_skipped(maps):
    client, candidates = maps
    candidates = dict(candidates)
    candidates["ghost"] = None
    ranked = rank_candidates(client, candidates)
    assert "ghost" not in [r.name for r in ranked]


def test_zero_score_has_no_signal(maps):
    client, candidates = maps
    ranked = rank_candidates(client, candidates)
    by_name = {r.name: r for r in ranked}
    assert by_name["c"].has_signal
    assert not by_name["far"].has_signal


def test_ties_break_by_name():
    client = RatioMap({"r": 1.0})
    candidates = {
        "zeta": RatioMap({"r": 1.0}),
        "alpha": RatioMap({"r": 1.0}),
    }
    ranked = rank_candidates(client, candidates)
    assert [r.name for r in ranked] == ["alpha", "zeta"]


def test_alternative_metric_changes_ranking():
    client = RatioMap({"x": 0.99, "y": 0.01})
    candidates = {
        "same-support": RatioMap({"x": 0.01, "y": 0.99}),
        "same-shape": RatioMap({"x": 0.99, "z": 0.01}),
    }
    cosine_pick = select_closest(client, candidates, SimilarityMetric.COSINE)
    jaccard_pick = select_closest(client, candidates, SimilarityMetric.JACCARD)
    assert cosine_pick.name == "same-shape"
    assert jaccard_pick.name == "same-support"


def test_none_maps_skipped_in_top_k_and_closest(maps):
    client, candidates = maps
    candidates = dict(candidates)
    candidates["ghost"] = None
    top = select_top_k(client, candidates, len(candidates))
    assert "ghost" not in [r.name for r in top]
    assert len(top) == 3
    assert select_closest(client, candidates).name == "c"


def test_none_maps_skipped_in_scalar_path(maps):
    client, candidates = maps
    candidates = dict(candidates)
    candidates["ghost"] = None
    ranked = rank_scalar(client, candidates)
    assert "ghost" not in [r.name for r in ranked]


def test_all_none_candidates_rank_empty(maps):
    client, _ = maps
    candidates = {"ghost": None, "phantom": None}
    assert rank_candidates(client, candidates) == []
    assert select_top_k(client, candidates, 2) == []
    assert select_closest(client, candidates) is None


def test_scalar_and_vectorized_agree(maps):
    client, candidates = maps
    for metric in SimilarityMetric:
        vectorized = rank_candidates(client, candidates, metric)
        scalar = rank_scalar(client, candidates, metric)
        assert [r.name for r in vectorized] == [r.name for r in scalar]
        for vec, ref in zip(vectorized, scalar):
            assert vec.score == pytest.approx(ref.score, abs=1e-12)


def test_repeat_query_returns_fresh_equal_list(maps):
    """The memoized path must hand each caller an independent list."""
    client, candidates = maps
    first = rank_candidates(client, candidates)
    second = rank_candidates(client, candidates)
    assert first == second
    assert first is not second
    first.reverse()  # a caller mangling its copy must not poison the memo
    assert rank_candidates(client, candidates) == second


def test_rank_packed_matches_rank_candidates(maps):
    client, candidates = maps
    population = packed_for(candidates)
    assert rank_packed(client, population) == rank_candidates(client, candidates)
    for metric in SimilarityMetric:
        assert rank_packed(client, population, metric) == rank_candidates(
            client, candidates, metric
        )


def test_rank_packed_exclude_drops_self(maps):
    client, candidates = maps
    population = packed_for(candidates)
    ranked = rank_packed(client, population, exclude="c")
    assert [r.name for r in ranked] == ["b", "far"]
    # Excluding an absent name is a no-op.
    assert rank_packed(client, population, exclude="zz") == rank_packed(
        client, population
    )


def test_rank_packed_empty_population(maps):
    client, _ = maps
    assert rank_packed(client, packed_for({})) == []


def test_rank_packed_k_prefix_of_full_ranking(maps):
    client, candidates = maps
    population = packed_for(candidates)
    full = rank_packed(client, population)
    for k in (1, 2, 3, 5):
        assert rank_packed(client, population, k=k) == full[: k]
    with pytest.raises(ValueError):
        rank_packed(client, population, k=0)


def test_rank_packed_k_with_exclude_inside_slice(maps):
    """Exclusion before cutoff: k rows come back even when the excluded
    name would have made the Top-K."""
    client, candidates = maps
    population = packed_for(candidates)
    top = rank_packed(client, population, k=2, exclude="c")
    assert [r.name for r in top] == ["b", "far"]
    # Excluding a name outside the slice (or an absent one) changes nothing.
    assert rank_packed(client, population, k=2, exclude="far") == rank_packed(
        client, population
    )[:2]
    assert rank_packed(client, population, k=2, exclude="zz") == rank_packed(
        client, population
    )[:2]


def test_memo_lru_keeps_hot_entries():
    """A repeatedly-recalled ranking survives > _MEMO_SIZE other
    queries; an untouched one rotates out (eviction is by recency of
    use, not insertion)."""
    from repro.core.selection import _MEMO_SIZE

    candidates = {
        "b": RatioMap({"rx": 0.6, "ry": 0.4}),
        "c": RatioMap({"rx": 0.1, "ry": 0.9}),
    }
    population = packed_for(candidates)
    hot = RatioMap({"rx": 0.2, "ry": 0.8})
    cold = RatioMap({"rx": 0.3, "ry": 0.7})
    rank_candidates(hot, candidates)
    rank_candidates(cold, candidates)
    hot_key = (id(hot), SimilarityMetric.COSINE, None, None, None)
    cold_key = (id(cold), SimilarityMetric.COSINE, None, None, None)
    assert hot_key in population.memo and cold_key in population.memo
    fillers = [
        RatioMap({"rx": 0.1 + 0.8 * i / _MEMO_SIZE, "ry": 0.9 - 0.8 * i / _MEMO_SIZE})
        for i in range(_MEMO_SIZE)
    ]
    for filler in fillers:
        rank_candidates(hot, candidates)  # touch the hot entry...
        rank_candidates(filler, candidates)  # ...then insert a new one
    assert hot_key in population.memo
    assert cold_key not in population.memo


# -- one core behind three entry points --------------------------------------

_TIED = {
    "zeta": RatioMap({"rx": 0.5, "ry": 0.5}),
    "alpha": RatioMap({"rx": 0.5, "ry": 0.5}),
    "mid": RatioMap({"rx": 0.9, "ry": 0.1}),
    "far": RatioMap({"rz": 1.0}),
}

#: (case id, candidate maps, k, exclude, metric)
_AGREEMENT_CASES = [
    ("plain", _TIED, 2, None, SimilarityMetric.COSINE),
    ("none-maps", {**_TIED, "ghost": None, "phantom": None}, 3, None,
     SimilarityMetric.COSINE),
    ("empty", {}, 3, None, SimilarityMetric.COSINE),
    ("all-none", {"ghost": None}, 1, None, SimilarityMetric.COSINE),
    ("k-equals-n", _TIED, 4, None, SimilarityMetric.COSINE),
    ("k-beyond-n", _TIED, 9, "mid", SimilarityMetric.COSINE),
    ("exclude-inside-topk", _TIED, 2, "alpha", SimilarityMetric.COSINE),
    ("exclude-outside-topk", _TIED, 2, "far", SimilarityMetric.COSINE),
    ("exclude-absent", _TIED, 2, "nobody", SimilarityMetric.COSINE),
    ("jaccard", _TIED, 3, "zeta", SimilarityMetric.JACCARD),
    ("overlap", _TIED, 3, None, SimilarityMetric.OVERLAP),
]


@pytest.mark.parametrize(
    "maps,k,exclude,metric",
    [case[1:] for case in _AGREEMENT_CASES],
    ids=[case[0] for case in _AGREEMENT_CASES],
)
def test_entry_points_and_scalar_reference_agree(maps, k, exclude, metric):
    """``rank_candidates``, ``select_top_k`` and ``rank_packed`` are one
    query; ``rank_scalar`` is the oracle for all of them — row for row,
    names exactly (ties by ``(-score, name)``), scores to float
    summation order."""
    client = RatioMap({"rx": 0.5, "ry": 0.5})
    reference = rank_scalar(client, maps, metric)
    assert reference == sorted(reference, key=lambda r: (-r.score, r.name))
    survivors = [r for r in reference if r.name != exclude]
    population = packed_for(maps)

    def same_rows(rows, expected):
        assert [r.name for r in rows] == [r.name for r in expected]
        for row, ref in zip(rows, expected):
            assert row.score == pytest.approx(ref.score, abs=1e-12)

    full = rank_candidates(client, maps, metric)
    same_rows(full, reference)
    assert rank_packed(client, population, metric) == full
    assert select_top_k(client, maps, k, metric) == full[:k]
    assert rank_packed(client, population, metric, k=k) == full[:k]
    same_rows(rank_packed(client, population, metric, exclude=exclude), survivors)
    same_rows(
        rank_packed(client, population, metric, exclude=exclude, k=k), survivors[:k]
    )


def test_entry_points_agree_through_memo_hits_and_population_churn():
    """A memo hit must serve the rows a miss would compute, and churn
    on the population must drop the memo rather than serve rows for a
    membership that no longer exists."""
    client = RatioMap({"rx": 0.5, "ry": 0.5})
    maps = dict(_TIED)
    population = packed_for(maps)
    population.memo.clear()  # the table above queried these same maps
    first = rank_packed(client, population, k=2)
    assert rank_packed(client, population, k=2) == first  # served from the memo
    assert select_top_k(client, maps, 2) == first  # same query, same entry
    assert len(population.memo) == 1

    newcomer = RatioMap({"rx": 0.5, "ry": 0.5})
    population.add("aaa", newcomer)
    maps["aaa"] = newcomer
    assert not population.memo
    reference = rank_scalar(client, maps)
    assert [r.name for r in reference[:2]] == ["aaa", "alpha"]
    assert rank_packed(client, population, k=2) == rank_packed(client, population)[:2]
    assert [r.name for r in rank_packed(client, population)] == [
        r.name for r in reference
    ]
    assert [r.name for r in rank_candidates(client, maps)] == [
        r.name for r in reference
    ]
    clear_pack_cache()  # the cached population was churned out from under it

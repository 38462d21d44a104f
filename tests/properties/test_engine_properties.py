"""Property-based tests: the vectorized engine matches the scalar reference.

The acceptance bar for the engine is *exact agreement*: scores within
float-summation tolerance (1e-12) and bit-identical orderings,
clusterings and tie-breaks, for every metric and any population shape —
including disjoint supports and single-replica maps.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RatioMap, SmfParams, similarity, smf_cluster
from repro.core.clustering import CenterPolicy
from repro.core.engine import PackedPopulation
from repro.core.selection import rank_candidates, rank_scalar, select_top_k
from repro.core.similarity import SimilarityMetric

# Two deliberately overlapping-or-not pools: clients draw from "a",
# candidates from "a" and "b", so disjoint-support pairs (similarity 0)
# occur routinely alongside heavy overlaps.
_A_POOL = [f"a{i}" for i in range(6)]
_B_POOL = [f"b{i}" for i in range(6)]

a_counts = st.dictionaries(
    st.sampled_from(_A_POOL), st.integers(1, 50), min_size=1, max_size=5
)
ab_counts = st.dictionaries(
    st.sampled_from(_A_POOL + _B_POOL), st.integers(1, 50), min_size=1, max_size=6
)
populations = st.dictionaries(
    st.sampled_from([f"n{i}" for i in range(12)]), ab_counts, min_size=1, max_size=12
)
metrics = st.sampled_from(list(SimilarityMetric))


def _maps(population):
    return {name: RatioMap.from_counts(counts) for name, counts in population.items()}


@given(a_counts, populations, metrics)
@settings(max_examples=120, deadline=None)
def test_engine_scores_match_scalar_similarity(client_counts, population, metric):
    client = RatioMap.from_counts(client_counts)
    maps = _maps(population)
    packed = PackedPopulation(maps)
    scores = packed.scores(client, metric)
    for row, name in enumerate(packed.names):
        expected = similarity(client, maps[name], metric)
        assert math.isclose(scores[row], expected, rel_tol=0.0, abs_tol=1e-12), (
            name,
            metric,
            scores[row],
            expected,
        )


@given(a_counts, populations, metrics)
@settings(max_examples=100, deadline=None)
def test_rank_candidates_identical_both_paths(client_counts, population, metric):
    client = RatioMap.from_counts(client_counts)
    maps = _maps(population)
    vectorized = rank_candidates(client, maps, metric)
    scalar = rank_scalar(client, maps, metric)
    assert [r.name for r in vectorized] == [r.name for r in scalar]
    for vec, ref in zip(vectorized, scalar):
        assert math.isclose(vec.score, ref.score, rel_tol=0.0, abs_tol=1e-12)


@given(a_counts, populations, metrics, st.integers(1, 15))
@settings(max_examples=100, deadline=None)
def test_top_k_is_prefix_of_full_ranking(client_counts, population, metric, k):
    client = RatioMap.from_counts(client_counts)
    maps = _maps(population)
    top = select_top_k(client, maps, k, metric)
    full = rank_candidates(client, maps, metric)
    assert top == full[: min(k, len(full))]


@given(
    populations,
    st.sampled_from([0.01, 0.1, 0.3, 0.5]),
    metrics,
    st.sampled_from(list(CenterPolicy)),
    st.booleans(),
    st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_smf_cluster_identical_both_paths(
    population, threshold, metric, policy, second_pass, seed
):
    maps = _maps(population)
    params = SmfParams(
        threshold=threshold,
        metric=metric,
        center_policy=policy,
        second_pass=second_pass,
        seed=seed,
    )
    vectorized = smf_cluster(maps, params)
    scalar = smf_cluster(maps, params, vectorized=False)
    assert vectorized.clusters == scalar.clusters
    assert vectorized.unclustered == scalar.unclustered


@given(populations, populations, metrics, a_counts)
@settings(max_examples=60, deadline=None)
def test_incremental_add_remove_matches_fresh_pack(initial, extra, metric, client_counts):
    """Mutating a population converges to the same state as packing fresh."""
    client = RatioMap.from_counts(client_counts)
    maps = _maps(initial)
    packed = PackedPopulation(maps)
    packed.scores(client, metric)  # force a view so mutations hit the lazy path

    for name, counts in extra.items():
        replacement = RatioMap.from_counts(counts)
        if name in maps:
            packed.remove(name)
            del maps[name]
        packed.add(name, replacement)
        maps[name] = replacement

    fresh = PackedPopulation(maps)
    assert sorted(packed.names) == sorted(fresh.names)
    mutated_scores = dict(zip(packed.names, packed.scores(client, metric)))
    fresh_scores = dict(zip(fresh.names, fresh.scores(client, metric)))
    for name in maps:
        assert math.isclose(
            mutated_scores[name], fresh_scores[name], rel_tol=0.0, abs_tol=1e-12
        )

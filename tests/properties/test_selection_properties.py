"""Property tests tying ``select_top_k`` to ``rank_candidates``.

The contract under test: ``select_top_k(k)`` is exactly
``rank_candidates()[:k]`` — same names, same scores, same tie-breaks —
for every metric, through memo hits and misses, and across population
churn (which must invalidate the memo); and the same for
``rank_packed(k=, exclude=)`` on both sides of the engine's
full-sort / partition crossover.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RatioMap, engine, rank_candidates, select_top_k
from repro.core.engine import PackedPopulation, clear_pack_cache, packed_for
from repro.core.selection import rank_packed, rank_scalar
from repro.core.similarity import SimilarityMetric

replica_names = st.sampled_from([f"r{i}" for i in range(8)])
counts = st.dictionaries(replica_names, st.integers(1, 40), min_size=1, max_size=6)
populations = st.dictionaries(
    st.sampled_from([f"n{i}" for i in range(8)]), counts, min_size=1, max_size=8
)
metrics = st.sampled_from(list(SimilarityMetric))


@given(population=populations, client=counts, k=st.integers(1, 10), metric=metrics)
@settings(max_examples=60, deadline=None)
def test_top_k_is_rank_prefix(population, client, k, metric):
    maps = {name: RatioMap.from_counts(c) for name, c in population.items()}
    client_map = RatioMap.from_counts(client)
    ranked = rank_candidates(client_map, maps, metric)
    assert select_top_k(client_map, maps, k, metric) == ranked[:k]
    # The scalar reference agrees on the full order, hence on every prefix.
    scalar_ranked = rank_scalar(client_map, maps, metric)
    assert [r.name for r in ranked] == [r.name for r in scalar_ranked]


@given(population=populations, client=counts, k=st.integers(1, 6), metric=metrics)
@settings(max_examples=40, deadline=None)
def test_prefix_property_survives_memo_hits(population, client, k, metric):
    maps = {name: RatioMap.from_counts(c) for name, c in population.items()}
    client_map = RatioMap.from_counts(client)
    # First calls prime the memo; repeated calls must serve the same
    # answer from it, and top-k must stay a prefix either way.
    first_rank = rank_candidates(client_map, maps, metric)
    first_top = select_top_k(client_map, maps, k, metric)
    assert first_top == first_rank[:k]
    assert rank_candidates(client_map, maps, metric) == first_rank
    assert select_top_k(client_map, maps, k, metric) == first_top


#: The crossover patched low, so a dozen rows straddle it (building the
#: real constant's worth of rows per example would only test numpy).
LOW_CROSSOVER = 6

#: Few distinct maps over many candidates: whole groups tie at one
#: positive score (so the k-th score is usually shared), and every
#: candidate without an "a"/"b" replica ties at 0.0.
SHAPES = [{"a": 1}, {"a": 1, "b": 1}, {"a": 3, "b": 1}, {"b": 1}, {"c": 1}, {"c": 1, "d": 2}]
CLIENTS = [{"a": 1}, {"a": 1, "b": 2}, {"b": 5, "c": 1}, {"e": 1}]  # the last: all zeros


@st.composite
def tied_populations(draw):
    shapes = draw(st.lists(st.sampled_from(SHAPES), min_size=2, max_size=14))
    # Row order is insertion order; shuffled labels keep it from being
    # name order, which the integer name ranks must not depend on.
    labels = draw(
        st.lists(st.integers(0, 99), unique=True, min_size=len(shapes), max_size=len(shapes))
    )
    return {f"n{label:02d}": RatioMap.from_counts(c) for label, c in zip(labels, shapes)}


@given(
    maps=tied_populations(),
    client=st.sampled_from(CLIENTS),
    metric=metrics,
    k_choice=st.sampled_from(["one", "n-1", "n", "n+1"]),
    exclude_choice=st.sampled_from(["absent", "unknown", "inside", "outside"]),
)
@settings(max_examples=200, deadline=None)
def test_rank_packed_k_is_filtered_prefix_across_the_crossover(
    maps, client, metric, k_choice, exclude_choice
):
    n = len(maps)
    k = {"one": 1, "n-1": n - 1, "n": n, "n+1": n + 1}[k_choice]
    client_map = RatioMap.from_counts(client)
    population = PackedPopulation(maps)
    full = rank_packed(client_map, population, metric)
    exclude = {
        "absent": None,
        "unknown": "ghost",
        "inside": full[0].name,
        "outside": full[-1].name,
    }[exclude_choice]
    expected = [c for c in full if c.name != exclude][:k]
    with mock.patch.object(engine, "_TOP_K_FULL_SORT_ROWS", LOW_CROSSOVER):
        got = rank_packed(client_map, population, metric, k=k, exclude=exclude)
    # Tuple equality: names and float scores, bit for bit.
    assert got == expected
    # The repeat is a memo hit (scoring again would raise) with equal rows.
    with mock.patch.object(population, "scores", side_effect=AssertionError("rescored")):
        assert rank_packed(client_map, population, metric, k=k, exclude=exclude) == got


@given(
    scores=st.lists(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]), min_size=2, max_size=40),
    k=st.integers(1, 41),
)
@settings(max_examples=200, deadline=None)
def test_top_k_indices_is_ranked_prefix_across_the_crossover(scores, k):
    # Names descend with row order, so the tie-break reverses rows.
    population = PackedPopulation(
        {f"n{len(scores) - i:02d}": RatioMap.from_counts({"a": 1}) for i in range(len(scores))}
    )
    scores = np.array(scores)
    prefix = population.ranked_indices(scores)[:k].tolist()
    for crossover in (0, 8, 10**6):
        with mock.patch.object(engine, "_TOP_K_FULL_SORT_ROWS", crossover):
            assert population.top_k_indices(scores, k).tolist() == prefix


def _maps(entries):
    return {name: RatioMap.from_counts(dict(c)) for name, c in entries}


def test_memo_primed_on_query_and_cleared_on_churn():
    maps = _maps(
        (f"n{i}", {"a": i + 1, "b": 3}) for i in range(5)
    )
    client = RatioMap.from_counts({"a": 2, "b": 1})
    population = packed_for(maps)
    population.memo.clear()

    ranked = rank_candidates(client, maps, SimilarityMetric.COSINE)
    assert population.memo  # the ranking was memoised
    top = select_top_k(client, maps, 3, SimilarityMetric.COSINE)
    assert top == ranked[:3]
    assert len(population.memo) == 2  # one entry per (client, metric, k)

    population.add("n9", RatioMap.from_counts({"a": 1}))
    assert not population.memo  # add invalidates

    rank_candidates(client, maps, SimilarityMetric.COSINE)
    assert packed_for(maps).memo  # re-primed (same cached population)
    population.remove("n9")
    assert not population.memo  # remove invalidates
    clear_pack_cache()  # the population was churned out from under the cache


def test_memoised_results_are_defensive_copies():
    maps = _maps((f"n{i}", {"a": i + 1, "b": 2}) for i in range(4))
    client = RatioMap.from_counts({"a": 1, "b": 1})
    for metric in SimilarityMetric:
        ranked = rank_candidates(client, maps, metric)
        ranked.pop()
        ranked_again = rank_candidates(client, maps, metric)
        assert len(ranked_again) == 4  # caller mutation did not leak back
        top = select_top_k(client, maps, 2, metric)
        top.append(top[0])
        assert select_top_k(client, maps, 2, metric) == ranked_again[:2]


def test_prefix_property_across_population_churn():
    maps = _maps((f"n{i}", {"a": i + 1, "b": 5 - i % 3}) for i in range(6))
    client = RatioMap.from_counts({"a": 3, "b": 2})
    for metric in SimilarityMetric:
        for mutate in (
            lambda m: m.pop("n3", None),
            lambda m: m.update(n7=RatioMap.from_counts({"b": 4})),
            lambda m: m.update(n1=RatioMap.from_counts({"a": 1, "b": 9})),
        ):
            mutate(maps)
            ranked = rank_candidates(client, maps, metric)
            for k in (1, 2, len(maps), len(maps) + 3):
                assert select_top_k(client, maps, k, metric) == ranked[:k]

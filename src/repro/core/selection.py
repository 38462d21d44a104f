"""Closest-node selection (Section IV-A of the paper).

Given a client's ratio map and the maps of candidate servers, rank the
candidates by similarity to the client: if ``cos_sim(A, C) >
cos_sim(A, B)`` then ``C`` is the closer of the two to ``A``.  The
evaluation reports both the Top-1 pick and the average over the Top-5
(Figures 4 and 5).

Every public entry point — :func:`rank_candidates`,
:func:`select_top_k`, :func:`rank_packed` — is the same query over a
:class:`~repro.core.engine.PackedPopulation`: one sparse matvec plus an
argsort (for Top-K, only of the rows that can reach the prefix, and
only ``k`` result rows are built; the sketch index for approximate
Top-K), memoised on the population.  :func:`rank_scalar` is the
reference they are checked against — one scalar
:func:`~repro.core.similarity.similarity` per candidate; it produces
identical rankings: same scores up to float summation order, same
``(-score, name)`` tie-break.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Mapping, NamedTuple, Optional

from repro.core.engine import packed_for
from repro.core.ratio_map import RatioMap
from repro.core.similarity import SimilarityMetric, similarity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ann import AnnParams

#: How many finished rankings a packed population remembers.  A CRP
#: service answers many positioning queries per probe round, and a
#: client's ratio map is a stable object between rounds (the service
#: caches maps against tracker versions), so repeat queries are common.
_MEMO_SIZE = 16


class RankedCandidate(NamedTuple):
    """One candidate server with its similarity to the client."""

    name: str
    score: float

    @property
    def has_signal(self) -> bool:
        """False when the maps were orthogonal — CRP can only say
        "probably not nearby", never how far (Section III-B)."""
        return self.score > 0.0


def _build_ranked(
    names: List[str], values: List[float], order: List[int]
) -> List[RankedCandidate]:
    """Materialise ``RankedCandidate`` rows for an index order.

    ``tuple.__new__`` skips the namedtuple constructor's keyword
    plumbing — this loop is the hot remainder of a ranking query once
    the scoring itself is a single matvec.
    """
    make = tuple.__new__
    cls = RankedCandidate
    return [make(cls, (names[i], values[i])) for i in order]


def rank_scalar(
    client_map: RatioMap,
    candidate_maps: Mapping[str, Optional[RatioMap]],
    metric: SimilarityMetric = SimilarityMetric.COSINE,
) -> List[RankedCandidate]:
    """The reference implementation: one scalar similarity per candidate
    (for ``repro.check`` and the tests; no serving or experiment path)."""
    ranked = [
        RankedCandidate(name, similarity(client_map, candidate_map, metric))
        for name, candidate_map in candidate_maps.items()
        if candidate_map is not None
    ]
    ranked.sort(key=lambda c: (-c.score, c.name))
    return ranked


def _rank(
    client_map: RatioMap,
    population,
    metric: SimilarityMetric,
    exclude: Optional[str] = None,
    k: Optional[int] = None,
    approx: Optional["AnnParams"] = None,
) -> List[RankedCandidate]:
    """The one ranking query behind every public entry point.

    The memo key carries ``id(client_map)``; storing the map itself
    pins the id so it cannot be reused while the entry lives, and a hit
    refreshes recency so a hot entry survives eviction rotation (the
    least recently *used* entry goes, not the oldest inserted).  The
    population clears the memo whenever its membership changes.
    """
    if k is not None and k < 1:
        raise ValueError("k must be at least 1")
    if len(population) == 0:
        return []
    if k is None:
        approx = None  # a full ranking needs every score anyway
    memo = population.memo
    memo_key = (id(client_map), metric, exclude, k, approx)
    hit = memo.get(memo_key)
    if hit is not None and hit[0] is client_map:
        memo.move_to_end(memo_key)
        return list(hit[1])
    if approx is not None:
        from repro.core import ann

        result = ann.approx_top_k(
            client_map, population, k, metric, params=approx, exclude=exclude
        )
    else:
        scores = population.scores(client_map, metric)
        dropping = exclude is not None and exclude in population
        names = population.names
        if k is None:
            order = population.ranked_indices(scores)
            result = _build_ranked(names, scores.tolist(), order.tolist())
        else:
            # Exclusion before cutoff: fetch one spare row when the
            # excluded name could land inside the slice.  Only these
            # rows' scores and names become Python objects, so what a
            # Top-K query allocates (and memoises) follows k.
            order = population.top_k_indices(scores, k + 1 if dropping else k)
            result = [
                RankedCandidate(names[i], score)
                for i, score in zip(order.tolist(), scores[order].tolist())
            ]
        if dropping:
            result = [c for c in result if c.name != exclude][:k]
    memo[memo_key] = (client_map, result)
    while len(memo) > _MEMO_SIZE:
        memo.popitem(last=False)
    return list(result)


def rank_candidates(
    client_map: RatioMap,
    candidate_maps: Mapping[str, Optional[RatioMap]],
    metric: SimilarityMetric = SimilarityMetric.COSINE,
) -> List[RankedCandidate]:
    """All candidates, ranked by similarity to the client, best first.

    Candidates with missing (``None``) maps are skipped — a node that
    has not bootstrapped cannot be ranked.  Ties break by name so the
    ranking is deterministic.
    """
    return _rank(client_map, packed_for(candidate_maps), metric)


def rank_packed(
    client_map: RatioMap,
    population,
    metric: SimilarityMetric = SimilarityMetric.COSINE,
    *,
    exclude: Optional[str] = None,
    k: Optional[int] = None,
    approx: Optional["AnnParams"] = None,
) -> List[RankedCandidate]:
    """Rank an already-packed population against a client map.

    The serving path's entry point: the caller owns a long-lived
    :class:`~repro.core.engine.PackedPopulation` kept current through
    its add/remove API, so there is no per-query packing step at all —
    one matvec, one argsort.  ``exclude`` drops a single name from the
    ranking (a client that is itself a tracked candidate must not be
    ranked against itself); exclusion happens *before* any Top-K
    cutoff, so asking for ``k`` rows yields ``k`` even when the
    excluded name would have landed inside the slice.

    ``k`` keeps only the best ``k`` rows — the full ranking's prefix,
    names, scores and ties alike — and only those rows are sorted past
    a partition, materialised and memoised, so the cost beyond the
    matvec follows ``k``, not the population.  ``approx``
    (an :class:`~repro.core.ann.AnnParams`) additionally routes a
    ``k``-query through the sketch index's shortlist + exact rerank —
    sublinear, with true scores; it is ignored without ``k``, since a
    full ranking needs every score anyway.

    Produces the same rows as ``rank_candidates`` over the same maps:
    per-candidate scores sum each row's dot product in map-iteration
    order regardless of packing history, and the ``(-score, name)``
    tie-break is independent of row order.
    """
    return _rank(client_map, population, metric, exclude, k, approx)


def select_top_k(
    client_map: RatioMap,
    candidate_maps: Mapping[str, Optional[RatioMap]],
    k: int,
    metric: SimilarityMetric = SimilarityMetric.COSINE,
    *,
    approx: Optional["AnnParams"] = None,
) -> List[RankedCandidate]:
    """The best ``k`` candidates (the paper's "Top 5" uses k=5).

    The same output as ``rank_candidates(...)[:k]``, ties and all,
    building only those ``k`` rows (see :func:`rank_packed`).  Passing
    ``approx``
    (an :class:`~repro.core.ann.AnnParams`) routes the query through
    the sketch index instead — shortlist gather + exact rerank,
    sublinear in the candidate count, with identical output whenever
    the shortlist covers the exact Top-K (which the ``ann-vs-exact``
    self-check pair verifies at the calibrated widths).
    """
    return _rank(client_map, packed_for(candidate_maps), metric, None, k, approx)


def select_closest(
    client_map: RatioMap,
    candidate_maps: Mapping[str, Optional[RatioMap]],
    metric: SimilarityMetric = SimilarityMetric.COSINE,
) -> Optional[RankedCandidate]:
    """The single best candidate ("Top 1"), or None with no candidates."""
    ranked = select_top_k(client_map, candidate_maps, 1, metric)
    return ranked[0] if ranked else None

"""The ``ann`` experiment: approximate-ranking quality.

:func:`run_ann_point` is the runner's deterministic cell body.  One
seeded clustered population is ranked both exactly and through the
sketch index at a given (probe width, shortlist) operating point; the
cell value records recall@1/recall@5, shortlist⊇Top-5 coverage, and
index counters.  No wall-clock numbers, so the report is byte-stable
across machines and obs-on/off runs; exact-vs-sketch rank time is
measured by ``bench/run.py`` (``core.ann.rank_us`` /
``core.ann.exact_rank_us``).  At the calibrated width (the
:class:`~repro.core.ann.AnnParams` defaults) a recall@5 below 0.95
fails the cell with :class:`RecallFloorError`.

The synthetic workload models the paper's geography: clients in one
region see a small, region-local replica set (Section III observes
under ~20 frequent replicas per host), so candidate maps form clusters
with high within-cluster and near-zero cross-cluster cosine
similarity.  Queries perturb an existing candidate's map — the serving
regime, where a client's nearest candidates really are cosine-close.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.core.ann import AnnParams, index_for
from repro.core.engine import PackedPopulation
from repro.core.ratio_map import RatioMap
from repro.core.selection import rank_packed
from repro.netsim.rng import derive_seed

#: Per-scale candidate-population sizes for the runner's ``ann`` key.
ANN_SIZES: Dict[str, Tuple[int, ...]] = {
    "quick": (400, 2_000),
    "default": (1_000, 10_000),
    "paper": (1_000, 10_000, 100_000),
}

#: The (probe_hamming, shortlist) operating points swept for the
#: recall curve: narrow, the calibrated default, wide.
ANN_WIDTHS: Tuple[Tuple[int, int], ...] = ((0, 32), (1, 64), (2, 128))

#: recall@k the calibrated width must reach at every population.
_RECALL_FLOOR = 0.95

#: Replica-pool size per cluster and per-map support width.  Pools are
#: disjoint between clusters (region-local replica sets), so
#: cross-cluster similarity is exactly zero.
_POOL = 14
_SUPPORT = 9


class RecallFloorError(AssertionError):
    """The calibrated width ranked below the recall floor."""


def synthetic_candidates(
    population: int, seed: int
) -> Tuple[Dict[str, RatioMap], List[int]]:
    """A seeded clustered candidate population.

    Each cluster has a Dirichlet base distribution over ``_SUPPORT``
    replicas from its own pool; candidates multiply the base weights by
    lognormal noise.  Returns the name → map dict (insertion order =
    name order) and each candidate's cluster assignment.
    """
    rng = np.random.default_rng(derive_seed(seed, "ann", "candidates"))
    clusters = max(8, population // 96)
    bases: List[Tuple[np.ndarray, np.ndarray]] = []
    for c in range(clusters):
        cols = rng.choice(_POOL, size=_SUPPORT, replace=False)
        weights = rng.dirichlet(np.full(_SUPPORT, 1.2))
        bases.append((cols, weights))
    maps: Dict[str, RatioMap] = {}
    assignments: List[int] = []
    for i in range(population):
        c = int(rng.integers(clusters))
        cols, weights = bases[c]
        noisy = weights * np.exp(rng.normal(0.0, 0.35, size=_SUPPORT))
        noisy /= noisy.sum()
        replicas = [f"r{c:05d}x{int(j):02d}" for j in cols]
        maps[f"cand{i:06d}"] = RatioMap(dict(zip(replicas, noisy)))
        assignments.append(c)
    return maps, assignments


def synthetic_queries(
    maps: Mapping[str, RatioMap], count: int, seed: int
) -> List[RatioMap]:
    """Query maps: light perturbations of existing candidates."""
    rng = np.random.default_rng(derive_seed(seed, "ann", "queries"))
    names = list(maps)
    queries: List[RatioMap] = []
    for _ in range(count):
        base = maps[names[int(rng.integers(len(names)))]]
        replicas = list(base)
        values = np.fromiter(base.values(), dtype=np.float64, count=len(base))
        noisy = values * np.exp(rng.normal(0.0, 0.15, size=len(values)))
        noisy /= noisy.sum()
        queries.append(RatioMap(dict(zip(replicas, noisy))))
    return queries


def _recall_counts(
    population: PackedPopulation,
    params: AnnParams,
    queries: List[RatioMap],
    k: int,
) -> Dict[str, float]:
    """Exact-vs-approx agreement over a query set."""
    index = index_for(population, params)
    hits_1 = 0
    overlap_k = 0
    covered = 0
    for query in queries:
        exact = rank_packed(query, population, k=k)
        approx = rank_packed(query, population, k=k, approx=params)
        exact_names = [c.name for c in exact]
        shortlist = set(index.shortlist(query, k))
        hits_1 += exact_names[0] == approx[0].name
        overlap_k += len(set(exact_names) & {c.name for c in approx})
        covered += set(exact_names) <= shortlist
    count = len(queries)
    return {
        "recall_at_1": round(hits_1 / count, 4),
        f"recall_at_{k}": round(overlap_k / (count * k), 4),
        f"shortlist_covers_top{k}": round(covered / count, 4),
    }


def run_ann_point(
    population: int,
    seed: int,
    *,
    queries: int = 40,
    probe_hamming: int = 1,
    shortlist: int = 64,
    k: int = 5,
) -> Dict[str, object]:
    """One deterministic quality point: recall of the sketch path.

    Returns only machine-independent fields; the headline is
    ``recall_at_5`` (and coverage) at this operating point.  Raises
    :class:`RecallFloorError` when this is the calibrated width and
    recall@k is below ``_RECALL_FLOOR``.
    """
    maps, assignments = synthetic_candidates(population, seed)
    query_maps = synthetic_queries(maps, queries, seed)
    packed = PackedPopulation(maps)
    params = AnnParams(probe_hamming=probe_hamming, shortlist=shortlist)
    point: Dict[str, object] = {
        "population": population,
        "clusters": max(assignments) + 1,
        "queries": queries,
        "probe_hamming": probe_hamming,
        "shortlist": shortlist,
        "k": k,
    }
    point.update(_recall_counts(packed, params, query_maps, k))
    recall = point[f"recall_at_{k}"]
    if params == AnnParams() and recall < _RECALL_FLOOR:
        raise RecallFloorError(
            f"recall@{k} {recall:.4f} < {_RECALL_FLOOR} at "
            f"population {population} (probe_hamming={probe_hamming}, "
            f"shortlist={shortlist})"
        )
    index = index_for(packed, params)
    stats = index.stats()
    point["index_rows"] = stats["rows"]
    point["index_full_scans"] = stats["full_scans"]
    point["index_gathered_rows"] = stats["gathered_rows"]
    return point

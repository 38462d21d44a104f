"""Seeded fuzz drivers: churn the machinery, cross-check every step.

Each driver generates a random-but-deterministic input sequence (ratio
maps, observation streams, population churn), applies it step by step,
and after *every* step cross-checks the layers that promise
equivalence: ``rank_candidates`` and ``select_top_k`` scalar vs
vectorized, ``smf_cluster`` scalar vs vectorized, windowed and decayed
ratio maps against hand-computed references, plus the structural
invariants from :mod:`repro.check.invariants`.

On failure a driver *shrinks* its input naively — greedily dropping
one operation at a time while the failure still reproduces — and
returns a :class:`FuzzFailure` carrying the minimal reproducing
sequence, so a red self-check is immediately actionable.

Everything is seeded through :mod:`numpy.random` generators; the same
seed always fuzzes the same way.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.check.invariants import (
    check_ratio_map,
    check_smf_result,
    check_tracker,
)
from repro.core.clustering import CenterPolicy, SmfParams, smf_cluster
from repro.core.engine import PackedPopulation
from repro.core.ratio_map import RatioMap
from repro.core.selection import rank_candidates, rank_scalar, select_top_k
from repro.core.similarity import SimilarityMetric, similarity
from repro.core.tracker import RedirectionTracker

#: Score agreement between the scalar and vectorized paths.
_SCORE_TOLERANCE = 1e-12

#: Replica pools: overlapping ("a*") and disjoint-prone ("b*") so
#: orthogonal maps (similarity 0) occur alongside heavy overlaps.
_REPLICAS = [f"a{i}" for i in range(6)] + [f"b{i}" for i in range(6)]

_METRICS = tuple(SimilarityMetric)

#: One fuzz operation: ("add"|"update", node, counts) / ("remove", node).
Op = Tuple


@dataclass(frozen=True)
class FuzzFailure:
    """One reproducing fuzz counterexample, shrunk."""

    driver: str
    seed: int
    step: int
    detail: str
    #: The minimal operation sequence that still reproduces ``detail``.
    shrunk: Tuple[Op, ...]

    def __str__(self) -> str:
        return (
            f"[{self.driver} seed={self.seed}] step {self.step}: {self.detail} "
            f"(shrunk to {len(self.shrunk)} ops: {self.shrunk!r})"
        )


def _random_counts(rng: np.random.Generator) -> Dict[str, int]:
    size = int(rng.integers(1, 6))
    replicas = rng.choice(len(_REPLICAS), size=size, replace=False)
    return {_REPLICAS[int(r)]: int(rng.integers(1, 50)) for r in replicas}


def _random_map(rng: np.random.Generator) -> RatioMap:
    return RatioMap.from_counts(_random_counts(rng))


# -- ranking fuzz ------------------------------------------------------------


def _apply_churn(ops: Sequence[Op]) -> Dict[str, RatioMap]:
    """Replay a churn sequence into a population mapping.

    Tolerant of sequences that shrinking has made inconsistent
    (removing an absent node is a no-op), so the shrink search space
    stays closed under deletion.
    """
    maps: Dict[str, RatioMap] = {}
    for op in ops:
        kind = op[0]
        if kind == "remove":
            maps.pop(op[1], None)
        else:  # "add" / "update"
            maps[op[1]] = RatioMap.from_counts(dict(op[2]))
    return maps


def _check_ranking_once(
    maps: Dict[str, RatioMap], client: RatioMap, k: int
) -> Optional[str]:
    """Cross-check one (population, client) pair; None when clean."""
    if not maps:
        return None
    for metric in _METRICS:
        vectorized = rank_candidates(client, maps, metric)
        scalar = rank_scalar(client, maps, metric)
        if [r.name for r in vectorized] != [r.name for r in scalar]:
            return (
                f"rank order diverged ({metric.value}): "
                f"{[r.name for r in vectorized]} != {[r.name for r in scalar]}"
            )
        for vec, ref in zip(vectorized, scalar):
            if not math.isclose(
                vec.score, ref.score, rel_tol=0.0, abs_tol=_SCORE_TOLERANCE
            ):
                return (
                    f"score diverged ({metric.value}) for {vec.name}: "
                    f"{vec.score!r} != {ref.score!r}"
                )
        top = select_top_k(client, maps, k, metric)
        if top != vectorized[: min(k, len(vectorized))]:
            return (
                f"select_top_k({k}) is not a prefix of rank_candidates "
                f"({metric.value}): {top!r}"
            )
        # Memo hit must return an equal, defensively copied result.
        again = rank_candidates(client, maps, metric)
        if again != vectorized:
            return f"memoised ranking differs from first call ({metric.value})"
        if vectorized:
            again.pop()
            if rank_candidates(client, maps, metric) != vectorized:
                return f"memoised ranking was not defensively copied ({metric.value})"
    return None


def _ranking_failure_at(ops: Sequence[Op], client: RatioMap, k: int) -> Optional[str]:
    """The problem after replaying all of ``ops``, if any."""
    return _check_ranking_once(_apply_churn(ops), client, k)


def fuzz_ranking(seed: int = 0, steps: int = 40) -> Optional[FuzzFailure]:
    """Churn a population, cross-checking the ranking paths each step."""
    rng = np.random.default_rng(seed)
    node_pool = [f"n{i}" for i in range(10)]
    client = _random_map(rng)
    k = int(rng.integers(1, 8))
    ops: List[Op] = []
    for step in range(steps):
        roll = rng.random()
        current = _apply_churn(ops)
        if roll < 0.2 and current:
            victim = sorted(current)[int(rng.integers(0, len(current)))]
            ops.append(("remove", victim))
        elif roll < 0.4 and current:
            victim = sorted(current)[int(rng.integers(0, len(current)))]
            ops.append(("update", victim, tuple(_random_counts(rng).items())))
        else:
            name = node_pool[int(rng.integers(0, len(node_pool)))]
            ops.append(("add", name, tuple(_random_counts(rng).items())))
        detail = _ranking_failure_at(ops, client, k)
        if detail is not None:
            shrunk = _shrink(ops, lambda o: _ranking_failure_at(o, client, k) is not None)
            return FuzzFailure("ranking", seed, step, detail, tuple(shrunk))
    return None


# -- clustering fuzz ---------------------------------------------------------


def fuzz_clustering(seed: int = 0, steps: int = 15) -> Optional[FuzzFailure]:
    """Random populations and parameters through both SMF paths."""
    rng = np.random.default_rng(seed)
    for step in range(steps):
        population = {
            f"n{i}": _random_map(rng) for i in range(int(rng.integers(2, 14)))
        }
        params = SmfParams(
            threshold=float(rng.choice([0.01, 0.1, 0.3, 0.5])),
            metric=_METRICS[int(rng.integers(0, len(_METRICS)))],
            center_policy=CenterPolicy.STRONGEST
            if rng.random() < 0.7
            else CenterPolicy.RANDOM,
            second_pass=bool(rng.random() < 0.8),
            seed=int(rng.integers(0, 4)),
        )
        vectorized = smf_cluster(population, params)
        scalar = smf_cluster(population, params, vectorized=False)
        detail: Optional[str] = None
        if vectorized.clusters != scalar.clusters:
            detail = "clusters diverged between vectorized and scalar SMF"
        elif vectorized.unclustered != scalar.unclustered:
            detail = "unclustered sets diverged between vectorized and scalar SMF"
        else:
            problems = check_smf_result(vectorized, population, params)
            if problems:
                detail = f"SMF post-condition failed: {problems[0]}"
        if detail is not None:
            ops = tuple(
                ("add", name, tuple(_exact_counts(population[name])))
                for name in sorted(population)
            )
            return FuzzFailure("clustering", seed, step, detail, ops)
    return None


def _exact_counts(ratio_map: RatioMap) -> List[Tuple[str, float]]:
    """A reproducible stand-in for a map's construction input."""
    return sorted(ratio_map.items())


# -- observation-stream fuzz -------------------------------------------------


def _window_reference(
    observations: Sequence[Tuple[float, str, Tuple[str, ...]]],
    window_probes: Optional[int],
) -> Optional[RatioMap]:
    """The windowed ratio map computed the obvious way."""
    window = list(observations)
    if window_probes is not None:
        window = window[-window_probes:]
    if not window:
        return None
    counts: Counter = Counter()
    for _, _, addresses in window:
        counts.update(addresses)
    return RatioMap.from_counts(counts)


def _observations_failure_at(
    stream: Sequence[Tuple[float, str, Tuple[str, ...]]],
) -> Optional[str]:
    """Replay a stream into a tracker and cross-check its windows."""
    tracker = RedirectionTracker("fuzz-node")
    for at, name, addresses in stream:
        tracker.observe(at, name, addresses)
    problems = check_tracker(tracker)
    if problems:
        return f"tracker invariant failed: {problems[0]}"
    for window in (None, 1, 3, 10):
        produced = tracker.ratio_map(window_probes=window)
        expected = _window_reference(stream, window)
        if (produced is None) != (expected is None):
            return f"window={window}: map presence diverged from reference"
        if produced is not None:
            if dict(produced) != dict(expected):
                return f"window={window}: map diverged from reference"
            map_problems = check_ratio_map(produced)
            if map_problems:
                return f"window={window}: {map_problems[0]}"
    if stream:
        # An explicit mid-log ``now`` must not erase newer probes:
        # every address observed at or after ``now`` stays in the
        # decayed map's support (future observations clamp to full
        # weight; only genuinely old ones may fall below the floor).
        mid = stream[len(stream) // 2][0]
        decayed = tracker.decayed_ratio_map(half_life_seconds=600.0, now=mid)
        if decayed is None:
            return "decayed map vanished under a mid-log now"
        fresh = {a for at, _, addresses in stream if at >= mid for a in addresses}
        missing = fresh - set(decayed)
        if missing:
            return (
                f"decayed map with mid-log now dropped fresh addresses: "
                f"{sorted(missing)[:3]}"
            )
        problems = check_ratio_map(decayed)
        if problems:
            return f"decayed map: {problems[0]}"
    return None


def fuzz_observations(seed: int = 0, steps: int = 40) -> Optional[FuzzFailure]:
    """Random observation streams through the tracker's window logic."""
    rng = np.random.default_rng(seed)
    names = ("cdn-a.test", "cdn-b.test")
    stream: List[Tuple[float, str, Tuple[str, ...]]] = []
    now = 0.0
    for step in range(steps):
        now += float(rng.uniform(0.0, 900.0))
        name = names[int(rng.integers(0, len(names)))]
        count = int(rng.integers(1, 4))
        picks = rng.choice(len(_REPLICAS), size=count, replace=False)
        addresses = tuple(_REPLICAS[int(p)] for p in picks)
        stream.append((now, name, addresses))
        detail = _observations_failure_at(stream)
        if detail is not None:
            shrunk = _shrink(
                stream, lambda s: _observations_failure_at(s) is not None
            )
            return FuzzFailure("observations", seed, step, detail, tuple(shrunk))
    return None


# -- ratio-map fuzz ----------------------------------------------------------


def fuzz_ratio_maps(seed: int = 0, steps: int = 60) -> Optional[FuzzFailure]:
    """Random maps through construction, merging and the packed engine."""
    rng = np.random.default_rng(seed)
    for step in range(steps):
        a = _random_map(rng)
        b = _random_map(rng)
        detail: Optional[str] = None
        for candidate in (a, b, a.merged_with(b, weight=float(rng.uniform(0.1, 0.9)))):
            problems = check_ratio_map(candidate)
            if problems:
                detail = problems[0]
                break
        if detail is None:
            packed = PackedPopulation({"a": a, "b": b})
            for metric in _METRICS:
                scores = packed.scores(a, metric)
                for row, name in enumerate(packed.names):
                    expected = similarity(a, {"a": a, "b": b}[name], metric)
                    if not math.isclose(
                        float(scores[row]), expected, rel_tol=0.0,
                        abs_tol=_SCORE_TOLERANCE,
                    ):
                        detail = (
                            f"packed score diverged ({metric.value}) for {name}: "
                            f"{float(scores[row])!r} != {expected!r}"
                        )
                        break
                if detail is not None:
                    break
        if detail is not None:
            ops = (
                ("add", "a", tuple(_exact_counts(a))),
                ("add", "b", tuple(_exact_counts(b))),
            )
            return FuzzFailure("ratio_maps", seed, step, detail, ops)
    return None


# -- shrinking ---------------------------------------------------------------


def _shrink(items: Sequence, reproduces) -> List:
    """Naive greedy shrinking: drop one item at a time while the
    failure keeps reproducing.  Quadratic, but counterexamples are
    small and the predicate is cheap."""
    current = list(items)
    changed = True
    while changed:
        changed = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1 :]
            try:
                still_fails = reproduces(candidate)
            except Exception:
                still_fails = True  # a crash reproduces the failure too
            if still_fails:
                current = candidate
                changed = True
                break
    return current


# -- orchestration -----------------------------------------------------------


def run_all_fuzz(
    seeds: Sequence[int] = (0, 1), steps: int = 40
) -> List[FuzzFailure]:
    """Every driver over every seed; the failures found (usually none)."""
    failures: List[FuzzFailure] = []
    for seed in seeds:
        for driver in (fuzz_ratio_maps, fuzz_observations, fuzz_ranking, fuzz_clustering):
            failure = driver(seed=seed, steps=steps)
            if failure is not None:
                failures.append(failure)
    return failures

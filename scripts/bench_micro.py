#!/usr/bin/env python
"""Record similarity-engine micro-benchmarks to ``BENCH_similarity.json``.

Runs the ranking and SMF-clustering hot paths through both the
vectorized engine and the scalar reference (``rank_scalar``,
``smf_cluster(vectorized=False)``), times each with ``time.perf_counter`` loops,
and writes one JSON artifact at the repo root::

    {"results": [{"op": ..., "ns_per_op": ..., "scalar_ns_per_op": ...,
                  "speedup": ...}, ...]}

No pytest involvement — the tier-1 suite stays benchmark-free.  Run
from the repo root::

    PYTHONPATH=src python scripts/bench_micro.py

The workload matches ``benchmarks/test_bench_micro.py``: 240-candidate
ranking queries and a 500-node SMF population built from 12-replica
ratio maps over a 400-address pool (seed 7).
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import (  # noqa: E402
    RatioMap,
    SmfParams,
    rank_candidates,
    select_top_k,
    smf_cluster,
)
from repro.core.engine import clear_pack_cache, packed_for  # noqa: E402
from repro.core.selection import rank_scalar  # noqa: E402
from repro.core.similarity import SimilarityMetric, similarity  # noqa: E402

OUTPUT = REPO_ROOT / "BENCH_similarity.json"


def _random_map(rng: np.random.Generator, replicas: int = 12) -> RatioMap:
    pool = [f"172.0.{i // 100}.{i % 100}" for i in range(400)]
    chosen = rng.choice(len(pool), size=replicas, replace=False)
    counts = {pool[int(i)]: int(rng.integers(1, 40)) for i in chosen}
    return RatioMap.from_counts(counts)


def _time_ns(fn: Callable[[], object], min_seconds: float = 0.4) -> float:
    """Median-of-5 ns/op, each repeat auto-sized to ``min_seconds/5``."""
    fn()  # warm caches: steady-state cost is what a service pays
    # Calibrate the loop count.
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= min_seconds / 10 or n >= 1_000_000:
            break
        n = max(n * 2, int(n * (min_seconds / 10) / max(elapsed, 1e-9)))
    repeats: List[float] = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        repeats.append((time.perf_counter() - t0) / n)
    return float(np.median(repeats)) * 1e9


def _record(
    results: List[dict],
    op: str,
    vectorized: Callable[[], object],
    scalar: Optional[Callable[[], object]] = None,
    note: str = "",
) -> None:
    ns = _time_ns(vectorized)
    row = {"op": op, "ns_per_op": round(ns, 1)}
    if scalar is not None:
        scalar_ns = _time_ns(scalar)
        row["scalar_ns_per_op"] = round(scalar_ns, 1)
        row["speedup"] = round(scalar_ns / ns, 2)
    if note:
        row["note"] = note
    results.append(row)
    speedup = f"  ({row['speedup']}x vs scalar)" if scalar is not None else ""
    print(f"{op:32s} {ns:12,.0f} ns/op{speedup}")


def main() -> int:
    rng = np.random.default_rng(7)
    maps = [_random_map(rng) for _ in range(1000)]
    client = maps[0]
    candidates = {f"cand-{i}": m for i, m in enumerate(maps[1:241])}
    population = {f"node-{i}": m for i, m in enumerate(maps[:500])}

    results: List[dict] = []

    _record(
        results,
        "similarity_scalar_pair",
        lambda: similarity(maps[0], maps[1], SimilarityMetric.COSINE),
        note="scalar reference, one cosine pair",
    )
    _record(
        results,
        "rank_240_candidates",
        lambda: rank_candidates(client, candidates),
        lambda: rank_scalar(client, candidates),
    )
    _record(
        results,
        "select_top5_240_candidates",
        lambda: select_top_k(client, candidates, 5),
        lambda: rank_scalar(client, candidates)[:5],
    )
    _record(
        results,
        "smf_cluster_500_nodes",
        lambda: smf_cluster(population, SmfParams(threshold=0.1)),
        lambda: smf_cluster(population, SmfParams(threshold=0.1), vectorized=False),
    )

    # One cold-start datum: packing a 240-candidate population from
    # scratch (what the first query after membership churn pays).
    def cold_pack():
        clear_pack_cache()
        return packed_for(candidates)

    _record(results, "pack_240_candidates_cold", cold_pack, note="cache cleared each op")

    artifact = {
        "benchmark": "similarity-engine micro-benchmarks",
        "source": "scripts/bench_micro.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "results": results,
    }
    OUTPUT.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"\nwrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

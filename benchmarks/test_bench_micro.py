"""Library micro-benchmarks: throughput of the hot paths.

Unlike the figure benches (single-shot experiment reproductions),
these use pytest-benchmark's repeated timing to characterise the
library itself — what a service embedding CRP would care about:

* cosine similarity over realistic ratio maps,
* full candidate ranking (one positioning query),
* SMF clustering over a population,
* CDN mapping answer selection (the simulator's hot loop),
* tracker windowed-map construction.

The ranking and clustering benches come in pairs: the default
vectorized engine path next to the scalar reference (``rank_scalar``,
``smf_cluster(vectorized=False)``), so the engine's speedup is measured
in-suite (the ratio the acceptance criteria quote).
"""

import numpy as np
import pytest

from repro.cdn import MappingParams, MappingSystem
from repro.cdn.replica import deploy_replicas
from repro.core import RatioMap, SmfParams, cosine_similarity, rank_candidates, smf_cluster
from repro.core.selection import rank_scalar
from repro.core.tracker import RedirectionTracker
from repro.netsim import ASRegistry, HostKind, Network, SimClock, Topology, default_world
from repro.netsim.rng import derive_rng


def _random_map(rng, replicas=12):
    pool = [f"172.0.{i // 100}.{i % 100}" for i in range(400)]
    chosen = rng.choice(len(pool), size=replicas, replace=False)
    counts = {pool[int(i)]: int(rng.integers(1, 40)) for i in chosen}
    return RatioMap.from_counts(counts)


@pytest.fixture(scope="module")
def maps():
    rng = np.random.default_rng(7)
    return [_random_map(rng) for _ in range(1000)]


def test_bench_micro_cosine_similarity(benchmark, maps):
    a, b = maps[0], maps[1]
    benchmark(cosine_similarity, a, b)


def test_bench_micro_rank_240_candidates(benchmark, maps):
    client = maps[0]
    candidates = {f"cand-{i}": m for i, m in enumerate(maps[1:241])}
    result = benchmark(rank_candidates, client, candidates)
    assert len(result) == 240


def test_bench_micro_rank_240_candidates_scalar(benchmark, maps):
    client = maps[0]
    candidates = {f"cand-{i}": m for i, m in enumerate(maps[1:241])}
    result = benchmark(rank_scalar, client, candidates)
    assert len(result) == 240


def test_bench_micro_smf_500_nodes(benchmark, maps):
    population = {f"node-{i}": m for i, m in enumerate(maps[:500])}
    result = benchmark.pedantic(
        smf_cluster, args=(population, SmfParams(threshold=0.1)), rounds=3, iterations=1
    )
    assert result.total_nodes == 500


def test_bench_micro_smf_500_nodes_scalar(benchmark, maps):
    population = {f"node-{i}": m for i, m in enumerate(maps[:500])}
    result = benchmark.pedantic(
        lambda: smf_cluster(population, SmfParams(threshold=0.1), vectorized=False),
        rounds=3,
        iterations=1,
    )
    assert result.total_nodes == 500


def test_bench_micro_tracker_window(benchmark):
    tracker = RedirectionTracker("node")
    rng = np.random.default_rng(3)
    for i in range(1000):
        tracker.observe(float(i), "x.test", [f"r{int(rng.integers(0, 20))}"])
    result = benchmark(tracker.ratio_map, window_probes=10)
    assert result is not None


def test_bench_micro_mapping_select(benchmark):
    world = default_world()
    rng = derive_rng(7, "micro")
    registry = ASRegistry.generate(world, rng)
    topology = Topology(world, registry)
    network = Network(topology, SimClock(), seed=7)
    deployment = deploy_replicas(topology, rng)
    mapping = MappingSystem(network, deployment, seed=7)
    client = topology.create_host(
        "micro-client", HostKind.DNS_SERVER, world.metro("london"), rng
    )
    mapping.ranking(client)  # warm the epoch cache: measure steady state
    result = benchmark(mapping.select, client)
    assert result


def test_bench_micro_network_rtt(benchmark):
    world = default_world()
    rng = derive_rng(8, "micro")
    registry = ASRegistry.generate(world, rng)
    topology = Topology(world, registry)
    network = Network(topology, SimClock(), seed=8)
    a = topology.create_host("rtt-a", HostKind.DNS_SERVER, world.metro("london"), rng)
    b = topology.create_host("rtt-b", HostKind.DNS_SERVER, world.metro("tokyo"), rng)
    network.rtt_ms(a, b)  # warm caches
    value = benchmark(network.rtt_ms, a, b)
    assert value > 0

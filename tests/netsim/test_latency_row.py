"""The static side as a row: row ≡ scalar, nearest ≡ sorted prefix.

The oracle is the base RTT as it stood before the row kernel — one
pair at a time, the seven-update stretch hash, ``geo``'s haversine and
a ``networkx`` search per pair — kept here so the kernel is compared
with something other than itself.  Floats are compared with ``==``.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netsim import (
    ASRegistry,
    AutonomousSystem,
    GeoPoint,
    HostKind,
    LatencyModel,
    LatencyParams,
    Topology,
    default_world,
)
from repro.netsim.geo import propagation_rtt_ms
from repro.netsim.latency import _PRUNE_MIN_HOSTS
from repro.netsim.rng import derive_rng, stable_unit_float
from repro.netsim.topology import Host

WORLD = default_world()
METROS = [metro.name for metro in WORLD.metros]


def reference_base_rtt_ms(model: LatencyModel, seed: int, a: Host, b: Host) -> float:
    if a.host_id == b.host_id:
        return 0.0
    params = model.params
    lo, hi = sorted((a.host_id, b.host_id))
    u = stable_unit_float(seed, "stretch", str(lo), str(hi))
    stretch = params.stretch_min + u * (params.stretch_max - params.stretch_min)
    prop = propagation_rtt_ms(a.location, b.location, stretch=stretch)
    hops = nx.shortest_path_length(model.registry._graph, a.asn, b.asn)
    rtt = a.access_ms + b.access_ms + prop + params.per_hop_ms * hops
    return max(rtt, params.floor_ms)


def generated_hosts(seed: int, metro_names, kinds=(HostKind.DNS_SERVER, HostKind.REPLICA)):
    """A fresh registry and one host per metro name, kinds alternating."""
    rng = derive_rng(seed, "tests", "latency-row")
    registry = ASRegistry.generate(
        WORLD, rng, tier1_count=4, tier2_per_region=3, stubs_per_region=12
    )
    topology = Topology(WORLD, registry)
    tier2 = {
        region: registry.tier2_in_region(region)
        for region in {WORLD.metro(name).region for name in metro_names}
    }
    hosts = []
    for i, name in enumerate(metro_names):
        metro = WORLD.metro(name)
        kind = kinds[i % len(kinds)]
        # Replicas sit in transit ASes, as deployed ones do.
        asn = tier2[metro.region][i % 3].asn if kind is HostKind.REPLICA else None
        hosts.append(topology.create_host(f"h{i}", kind, metro, rng, asn=asn))
    return registry, hosts


def brute_force_nearest(model: LatencyModel, a: Host, others, k: int):
    base = [model.base_rtt_ms(a, b) for b in others]
    return sorted(range(len(others)), key=base.__getitem__)[:k]


# -- (a) row ≡ scalar ≡ the reference ----------------------------------------


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32),
    metro_names=st.lists(st.sampled_from(METROS), min_size=2, max_size=12),
    picks=st.lists(st.integers(0, 11), min_size=1, max_size=20),
    row_first=st.booleans(),
)
def test_row_equals_scalar_equals_reference(seed, metro_names, picks, row_first):
    registry, hosts = generated_hosts(seed, metro_names)
    a = hosts[0]
    # ``a`` itself and repeats are in the row on purpose.
    others = [hosts[i % len(hosts)] for i in picks] + [a]
    by_row = LatencyModel(registry, seed=seed)
    by_pair = LatencyModel(registry, seed=seed)
    expected = [reference_base_rtt_ms(by_row, seed, a, b) for b in others]
    if row_first:
        assert by_row.base_rtts_ms(a, others) == expected
    assert [by_row.base_rtt_ms(a, b) for b in others] == expected
    assert by_row.base_rtts_ms(a, others) == expected
    # Asked from the other end first, a pair still has the same double.
    assert [by_pair.base_rtt_ms(b, a) for b in others] == expected
    assert by_pair.base_rtts_ms(a, others) == expected


def test_row_of_nothing_is_empty():
    registry, hosts = generated_hosts(1, ["london", "tokyo"])
    assert LatencyModel(registry).base_rtts_ms(hosts[0], []) == []


# -- (d) the one-call hash against numbers, not against itself ----------------


@pytest.mark.parametrize(
    "seed, lo, hi, expected",
    [
        (0, 1, 2, 1.2683506288846071),
        (2008, 17, 4242, 1.400065460196017),
        (7, 0, 1000000, 1.1937501683764877),
        (5435856168554863940, 3, 999, 1.2158452735094896),
    ],
)
def test_stretch_literals(seed, lo, hi, expected):
    metro = WORLD.metro("london")

    def host(host_id):
        return Host(host_id, f"h{host_id}", HostKind.END_HOST, metro, metro.location, 100, 1.0)

    model = LatencyModel(ASRegistry(), seed=seed)
    assert model.stretch(host(lo), host(hi)) == expected
    assert model.stretch(host(hi), host(lo)) == expected


# -- (b) nearest ≡ sorted prefix ----------------------------------------------


def many_metros(count: int):
    return [METROS[i % len(METROS)] for i in range(count)]


@pytest.mark.parametrize("seed", [3, 2008])
def test_nearest_is_the_sorted_prefix(seed):
    n = 3 * _PRUNE_MIN_HOSTS
    registry, hosts = generated_hosts(seed, many_metros(n + 1))
    a, others = hosts[0], hosts[1:]
    for k in (1, 20, n - 1, n, n + 5):
        pruned = LatencyModel(registry, seed=seed)
        assert pruned.nearest(a, others, k) == brute_force_nearest(
            LatencyModel(registry, seed=seed), a, others, k
        )
        if k == 20:
            # The point of it: far fewer pairs hashed than hosts.
            assert 20 <= len(pruned._cache) < n // 2


def test_nearest_with_the_vantage_among_the_hosts():
    registry, hosts = generated_hosts(5, many_metros(2 * _PRUNE_MIN_HOSTS))
    a = hosts[7]
    nearest = LatencyModel(registry, seed=5).nearest(a, hosts, 10)
    assert nearest[0] == 7
    assert nearest == brute_force_nearest(LatencyModel(registry, seed=5), a, hosts, 10)


def test_nearest_keeps_exact_ties_in_order_across_the_cut():
    """Co-located hosts with equal access delay in one AS differ only by
    stretch; with stretch pinned they tie exactly, and the cut falls
    inside the tie."""
    registry, hosts = generated_hosts(11, many_metros(2 * _PRUNE_MIN_HOSTS))
    a = hosts[0]
    twin = hosts[1]
    twins = [
        Host(1000 + i, f"twin{i}", twin.kind, twin.metro, twin.location, twin.asn, twin.access_ms)
        for i in range(6)
    ]
    params = LatencyParams(stretch_min=1.3, stretch_max=1.3)
    others = hosts[2:20] + twins[:3] + hosts[20:] + twins[3:]
    positions = [i for i, b in enumerate(others) if b.name.startswith("twin")]
    model = LatencyModel(registry, params, seed=11)
    base = model.base_rtts_ms(a, others)
    assert len({base[i] for i in positions}) == 1
    # Put the cut in the middle of the tie.
    k = sum(1 for rtt in base if rtt < base[positions[0]]) + 3
    fresh = LatencyModel(registry, params, seed=11)
    nearest = fresh.nearest(a, others, k)
    assert nearest == sorted(range(len(others)), key=base.__getitem__)[:k]
    assert nearest[-3:] == positions[:3]


def test_nearest_when_nothing_can_be_pruned():
    """Hosts that differ only in their stretch have the same bounds: all
    are kept, and the order is the exact one."""
    n = 2 * _PRUNE_MIN_HOSTS
    registry, hosts = generated_hosts(13, ["paris", "madrid"])
    a, b = hosts
    others = [
        Host(1000 + i, f"twin{i}", b.kind, b.metro, b.location, b.asn, b.access_ms)
        for i in range(n)
    ]
    model = LatencyModel(registry, seed=13)
    assert model.nearest(a, others, 5) == brute_force_nearest(
        LatencyModel(registry, seed=13), a, others, 5
    )
    assert len(model._cache) == n


def test_nearest_with_the_floor_binding():
    """A floor above every RTT makes every host tie at the floor."""
    n = 2 * _PRUNE_MIN_HOSTS
    registry, hosts = generated_hosts(17, many_metros(n + 1))
    a, others = hosts[0], hosts[1:]
    params = LatencyParams(floor_ms=10_000.0)
    model = LatencyModel(registry, params, seed=17)
    assert model.nearest(a, others, 7) == list(range(7))
    assert set(model.base_rtts_ms(a, others)) == {10_000.0}


def test_nearest_raises_for_an_unreachable_host_as_the_sort_did():
    registry, hosts = generated_hosts(19, many_metros(2 * _PRUNE_MIN_HOSTS))
    island = registry.add(AutonomousSystem(9, "island", tier=3, region=hosts[1].region))
    far = hosts[-1]
    stranded = Host(5000, "stranded", far.kind, far.metro, GeoPoint(-40.0, 170.0), island.asn, 1.0)
    with pytest.raises(nx.NetworkXNoPath):
        LatencyModel(registry, seed=19).nearest(hosts[0], hosts[1:] + [stranded], 3)

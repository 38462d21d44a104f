import networkx as nx
import numpy as np
import pytest

from repro.netsim import ASRegistry, AutonomousSystem, Region, default_world


@pytest.fixture(scope="module")
def registry():
    world = default_world()
    rng = np.random.default_rng(42)
    return ASRegistry.generate(world, rng, tier1_count=6, tier2_per_region=4, stubs_per_region=30)


def test_tier_validation():
    with pytest.raises(ValueError):
        AutonomousSystem(1, "x", tier=4, region=None)


def test_tier1_must_be_global():
    with pytest.raises(ValueError):
        AutonomousSystem(1, "x", tier=1, region=Region.EUROPE)


def test_tier2_needs_region():
    with pytest.raises(ValueError):
        AutonomousSystem(1, "x", tier=2, region=None)


def test_duplicate_asn_rejected():
    registry = ASRegistry()
    registry.add(AutonomousSystem(100, "a", tier=1, region=None))
    with pytest.raises(ValueError):
        registry.add(AutonomousSystem(100, "b", tier=1, region=None))


def test_link_requires_registered_ases():
    registry = ASRegistry()
    registry.add(AutonomousSystem(100, "a", tier=1, region=None))
    with pytest.raises(KeyError):
        registry.link(100, 200)


def test_self_link_rejected():
    registry = ASRegistry()
    registry.add(AutonomousSystem(100, "a", tier=1, region=None))
    with pytest.raises(ValueError):
        registry.link(100, 100)


def test_generated_graph_is_connected(registry):
    asns = registry.all_asns()
    # Every AS can reach every other (spot-check a sample).
    for other in asns[:: max(1, len(asns) // 25)]:
        registry.hops(asns[0], other)


def test_hops_zero_for_same_as(registry):
    asn = registry.all_asns()[0]
    assert registry.hops(asn, asn) == 0


def test_hops_symmetric(registry):
    asns = registry.all_asns()
    assert registry.hops(asns[0], asns[-1]) == registry.hops(asns[-1], asns[0])


def test_stub_regions_partition(registry):
    for region in Region:
        for stub in registry.stubs_in_region(region):
            assert stub.tier == 3
            assert stub.region == region


def test_tier2_lookup(registry):
    providers = registry.tier2_in_region(Region.EUROPE)
    assert providers
    assert all(p.tier == 2 for p in providers)


def test_stubs_one_hop_from_a_provider(registry):
    stub = registry.stubs_in_region(Region.EUROPE)[0]
    providers = registry.tier2_in_region(Region.EUROPE)
    assert any(registry.hops(stub.asn, p.asn) == 1 for p in providers)


def test_metro_stub_slice_is_stable(registry):
    a = registry.stubs_for_metro(Region.EUROPE, "london")
    b = registry.stubs_for_metro(Region.EUROPE, "london")
    assert [s.asn for s in a] == [s.asn for s in b]


def test_metro_stub_slices_differ_between_metros(registry):
    london = {s.asn for s in registry.stubs_for_metro(Region.EUROPE, "london")}
    warsaw = {s.asn for s in registry.stubs_for_metro(Region.EUROPE, "warsaw")}
    assert london != warsaw


def test_sample_stub_respects_metro_slice(registry):
    rng = np.random.default_rng(1)
    allowed = {s.asn for s in registry.stubs_for_metro(Region.ASIA, "tokyo")}
    for _ in range(30):
        stub = registry.sample_stub(Region.ASIA, rng, metro_name="tokyo")
        assert stub.asn in allowed


def test_sample_stub_without_metro_uses_whole_region(registry):
    rng = np.random.default_rng(1)
    seen = {registry.sample_stub(Region.ASIA, rng).asn for _ in range(200)}
    assert len(seen) > 8  # more than one metro slice's worth


# -- hop rows ≡ a search per pair ---------------------------------------------


def test_hops_equal_networkx_for_every_pair_of_a_generated_registry(registry):
    expected = dict(nx.all_pairs_shortest_path_length(registry._graph))
    asns = registry.all_asns()
    for a in asns:
        for b in asns:
            assert registry.hops(a, b) == expected[a][b]


def test_only_transit_networks_get_a_row(registry):
    fresh = ASRegistry.generate(
        default_world(), np.random.default_rng(42),
        tier1_count=6, tier2_per_region=4, stubs_per_region=30,
    )
    stubs = [a for a in fresh.all_asns() if fresh.get(a).tier == 3]
    for a in stubs:
        for b in stubs[::7]:
            fresh.hops(a, b)
    assert all(fresh.get(asn).tier == 2 for asn in fresh._bfs_rows)


def hand_built():
    """Not tiered: a ring of stubs peering with each other, a spur, an
    island.  ``1 → 2 → 3 → 4 → 5 → 1``, ``5 → 6``, ``7`` alone."""
    registry = ASRegistry()
    for asn in range(1, 8):
        registry.add(AutonomousSystem(asn, f"as{asn}", tier=3, region=Region.EUROPE))
    for a, b in [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (5, 6)]:
        registry.link(a, b)
    return registry


def test_hops_on_a_hand_built_graph():
    registry = hand_built()
    for a in range(1, 7):
        for b in range(1, 7):
            assert registry.hops(a, b) == nx.shortest_path_length(registry._graph, a, b)
    assert registry.hops(3, 6) == 3
    assert registry.hops(7, 7) == 0
    for a, b in [(7, 1), (1, 7)]:
        with pytest.raises(nx.NetworkXNoPath):
            registry.hops(a, b)
    for a, b in [(1, 99), (99, 1)]:
        with pytest.raises(nx.NodeNotFound):
            registry.hops(a, b)


def test_a_later_link_shortens_paths_already_asked_for():
    registry = hand_built()
    assert registry.hops(3, 6) == 3
    assert registry.hops(1, 3) == 2
    registry.link(3, 6)
    assert registry.hops(3, 6) == 1
    registry.link(7, 1)
    assert registry.hops(7, 6) == 3
    registry.add(AutonomousSystem(8, "as8", tier=3, region=Region.EUROPE))
    registry.link(8, 1)
    registry.link(8, 3)
    assert registry.hops(8, 3) == 1
    assert registry.hops(1, 3) == 2
    assert len(registry.hop_row(8)) == len(registry)

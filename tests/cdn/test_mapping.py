import pytest

from repro.cdn import MappingParams, MappingSystem
from repro.cdn.loadbalance import SelectionPolicy
from repro.cdn.replica import ReplicaDeployment, ReplicaServer, deploy_replicas
from repro.netsim import HostKind, Network, SimClock
from repro.netsim.dynamics import RegionalSurge


@pytest.fixture()
def mapping_setup(topology, host_rng):
    clock = SimClock()
    network = Network(topology, clock, seed=21)
    deployment = deploy_replicas(topology, host_rng)
    mapping = MappingSystem(network, deployment, seed=21)
    client = topology.create_host(
        "client-ny", HostKind.DNS_SERVER, topology.world.metro("new-york"), host_rng
    )
    return mapping, client, clock, network, deployment


def test_params_validation():
    with pytest.raises(ValueError):
        MappingParams(refresh_seconds=0.0)
    with pytest.raises(ValueError):
        MappingParams(candidate_pool_size=0)
    with pytest.raises(ValueError):
        MappingParams(ttl_seconds=0.0)


def test_empty_deployment_rejected(topology, host_rng):
    network = Network(topology, SimClock(), seed=1)
    with pytest.raises(ValueError):
        MappingSystem(network, ReplicaDeployment())


def test_candidate_pool_is_nearest_by_base_rtt(mapping_setup, topology):
    mapping, client, _, network, deployment = mapping_setup
    pool = mapping.candidate_pool(client)
    assert len(pool) == mapping.params.candidate_pool_size
    pool_max = max(network.base_rtt_ms(client, r.host) for r in pool)
    # The pool holds the nearest *eligible* replicas: everything
    # eligible outside the pool must be at least as far.
    providers = set(topology.registry.transit_providers_of(client.asn))
    eligible_outside = [
        r
        for r in deployment
        if r not in pool and (not r.isp_restricted or r.host.asn in providers)
    ]
    outside_min = min(network.base_rtt_ms(client, r.host) for r in eligible_outside)
    assert pool_max <= outside_min


def test_restricted_replicas_excluded_for_foreign_clients(mapping_setup, topology):
    mapping, client, _, _, deployment = mapping_setup
    providers = set(topology.registry.transit_providers_of(client.asn))
    pool = mapping.candidate_pool(client)
    for replica in pool:
        if replica.isp_restricted:
            assert replica.host.asn in providers


def test_candidate_pool_cached(mapping_setup):
    mapping, client, _, _, _ = mapping_setup
    assert mapping.candidate_pool(client) is mapping.candidate_pool(client)


def test_ranking_sorted_by_measured_rtt(mapping_setup):
    mapping, client, _, _, _ = mapping_setup
    ranking = mapping.ranking(client)
    rtts = [rtt for _, rtt in ranking]
    assert rtts == sorted(rtts)


def test_ranking_cached_within_epoch(mapping_setup):
    mapping, client, _, _, _ = mapping_setup
    before = mapping.measurements_taken
    mapping.ranking(client)
    first = mapping.measurements_taken
    mapping.ranking(client)
    assert mapping.measurements_taken == first
    assert first > before


def test_ranking_refreshes_on_new_epoch(mapping_setup):
    mapping, client, clock, _, _ = mapping_setup
    mapping.ranking(client)
    first = mapping.measurements_taken
    clock.advance(mapping.params.refresh_seconds + 1.0)
    mapping.ranking(client)
    assert mapping.measurements_taken == 2 * first


def test_select_returns_answer_size(mapping_setup):
    mapping, client, _, _, _ = mapping_setup
    answer = mapping.select(client)
    assert len(answer) == mapping.params.answer_size


def test_select_prefers_nearby_metro(mapping_setup):
    mapping, client, clock, network, _ = mapping_setup
    picked_rtts = []
    for _ in range(30):
        for replica in mapping.select(client):
            picked_rtts.append(network.base_rtt_ms(client, replica.host))
        clock.advance(mapping.params.refresh_seconds + 1.0)
    # All picks should be well under transatlantic latency.
    assert max(picked_rtts) < 60.0


def test_select_with_pool_restricts_answers(mapping_setup):
    mapping, client, _, _, deployment = mapping_setup
    subset = deployment.edge[:5]
    allowed = {r.address for r in subset}
    answer = mapping.select(client, pool=subset)
    assert answer
    assert all(r.address in allowed for r in answer)


def test_select_with_disjoint_pool_falls_back(mapping_setup):
    mapping, client, _, network, deployment = mapping_setup
    # Replicas guaranteed outside the client's nearest-20 pool: the
    # farthest ones by base RTT.
    by_distance = sorted(
        deployment.edge, key=lambda r: network.base_rtt_ms(client, r.host)
    )
    far_pool = by_distance[-4:]
    answer = mapping.select(client, pool=far_pool)
    assert answer
    assert all(r.address in {x.address for x in far_pool} for r in answer)


def test_redirections_concentrate_yet_rotate(mapping_setup):
    mapping, client, clock, _, _ = mapping_setup
    from collections import Counter

    counts = Counter()
    for _ in range(60):
        for replica in mapping.select(client):
            counts[replica.address] += 1
        clock.advance(mapping.params.refresh_seconds + 1.0)
    # A handful of frequent replicas (the paper: hosts see a small set
    # frequently), but more than one.
    assert 2 <= len(counts) <= 20
    top_two = sum(c for _, c in counts.most_common(2))
    assert top_two > 0.3 * sum(counts.values())


def test_capacity_validation():
    with pytest.raises(ValueError):
        MappingParams(capacity_per_epoch=0)


def test_load_spills_to_next_replicas(topology, host_rng):
    clock = SimClock()
    network = Network(topology, clock, seed=22)
    deployment = deploy_replicas(topology, host_rng)
    mapping = MappingSystem(
        network,
        deployment,
        params=MappingParams(capacity_per_epoch=2, answer_size=1, spread=2),
        seed=22,
    )
    client = topology.create_host(
        "hot-client", HostKind.DNS_SERVER, topology.world.metro("london"), host_rng
    )
    picks = []
    for _ in range(12):
        picks.extend(r.address for r in mapping.select(client))
    # With capacity 2 per epoch and 12 answers in one epoch, at least
    # six distinct replicas must carry the load.
    assert len(set(picks)) >= 6
    for address in set(picks):
        assert mapping.replica_load(address) <= 2


def test_load_resets_each_epoch(topology, host_rng):
    clock = SimClock()
    network = Network(topology, clock, seed=23)
    deployment = deploy_replicas(topology, host_rng)
    mapping = MappingSystem(
        network,
        deployment,
        params=MappingParams(capacity_per_epoch=1, answer_size=1, spread=1,
                             policy=SelectionPolicy.BEST_ONLY),
        seed=23,
    )
    client = topology.create_host(
        "epoch-client", HostKind.DNS_SERVER, topology.world.metro("paris"), host_rng
    )
    first = mapping.select(client)[0].address
    assert mapping.replica_load(first) == 1
    clock.advance(mapping.params.refresh_seconds + 1.0)
    assert mapping.replica_load(first) == 0


def test_saturation_does_not_cause_outage(topology, host_rng):
    clock = SimClock()
    network = Network(topology, clock, seed=24)
    deployment = deploy_replicas(topology, host_rng)
    mapping = MappingSystem(
        network,
        deployment,
        params=MappingParams(capacity_per_epoch=1, answer_size=2),
        seed=24,
    )
    client = topology.create_host(
        "storm-client", HostKind.DNS_SERVER, topology.world.metro("tokyo"), host_rng
    )
    # Hammer far past total pool capacity within one epoch: answers
    # must keep coming.
    for _ in range(60):
        assert mapping.select(client)


def test_mapping_routes_around_outage(topology, host_rng):
    clock = SimClock()
    network = Network(topology, clock, seed=25)
    deployment = deploy_replicas(topology, host_rng)
    mapping = MappingSystem(network, deployment, seed=25)
    client = topology.create_host(
        "outage-client", HostKind.DNS_SERVER, topology.world.metro("frankfurt"), host_rng
    )
    best = mapping.ranking(client)[0][0]
    deployment.fail(best.address)
    # Same epoch: the cached ranking may still name the dead replica;
    # the next refresh routes around it.
    clock.advance(mapping.params.refresh_seconds + 1.0)
    addresses = {r.address for r, _ in mapping.ranking(client)}
    assert best.address not in addresses
    # Answers keep flowing throughout.
    assert mapping.select(client)
    deployment.restore(best.address)
    clock.advance(mapping.params.refresh_seconds + 1.0)
    addresses = {r.address for r, _ in mapping.ranking(client)}
    assert best.address in addresses


def test_crp_maps_adapt_to_outage(topology, host_rng):
    """End to end: a client's ratio map shifts off a failed replica."""
    from repro.cdn import CDNProvider
    from repro.core import CRPService, CRPServiceParams
    from repro.dnssim import DnsInfrastructure, RecursiveResolver

    clock = SimClock()
    network = Network(topology, clock, seed=26)
    infra = DnsInfrastructure()
    provider = CDNProvider(topology, network, infra, seed=26)
    provider.add_customer("www.outage.test")
    service = CRPService(clock, CRPServiceParams(customer_names=("www.outage.test",)))
    host = topology.create_host(
        "crp-outage", HostKind.DNS_SERVER, topology.world.metro("madrid"), host_rng
    )
    service.register_node("crp-outage", RecursiveResolver(host, infra, network))

    for _ in range(10):
        service.probe("crp-outage")
        clock.advance_minutes(10)
    before = service.ratio_map("crp-outage", window_probes=None)
    favourite = before.strongest()[0]
    provider.deployment.fail(favourite)
    for _ in range(12):
        service.probe("crp-outage")
        clock.advance_minutes(10)
    recent = service.ratio_map("crp-outage", window_probes=10)
    assert favourite not in recent.support


def test_frozen_mapping_serves_stale_across_epoch_edge(mapping_setup):
    mapping, client, clock, _, _ = mapping_setup
    served = mapping.ranking(client)
    measured = mapping.measurements_taken
    mapping.frozen = True
    # Within the same epoch the cache is fresh by definition: serving
    # it is normal amortisation, not staleness.
    assert mapping.ranking(client) is served
    assert mapping.stale_rankings_served == 0
    # Across the epoch edge a refresh is due; the wedged backend keeps
    # serving the old epoch instead, and the counter says so.
    clock.advance(mapping.params.refresh_seconds + 1.0)
    assert mapping.ranking(client) is served
    assert mapping.stale_rankings_served == 1
    assert mapping.measurements_taken == measured
    clock.advance(mapping.params.refresh_seconds)
    assert mapping.ranking(client) is served
    assert mapping.stale_rankings_served == 2
    # Thawing restores the per-epoch refresh; no stale serves accrue.
    mapping.frozen = False
    refreshed = mapping.ranking(client)
    assert mapping.measurements_taken == 2 * measured
    assert mapping.stale_rankings_served == 2
    assert refreshed is mapping.ranking(client)


def test_mid_freeze_deployment_change_is_hidden_until_thaw(mapping_setup):
    mapping, client, clock, _, deployment = mapping_setup
    best = mapping.ranking(client)[0][0]
    mapping.frozen = True
    deployment.fail(best.address)
    # The refresh that would have routed around the dead replica is
    # frozen out: the stale ranking still names it, epoch after epoch.
    clock.advance(mapping.params.refresh_seconds + 1.0)
    assert best.address in {r.address for r, _ in mapping.ranking(client)}
    assert mapping.stale_rankings_served == 1
    mapping.frozen = False
    assert best.address not in {r.address for r, _ in mapping.ranking(client)}


def test_down_replica_mid_pool_is_neither_sampled_nor_drawn_for(mapping_setup, topology):
    mapping, client, _, network, deployment = mapping_setup
    pool = mapping.candidate_pool(client)
    down = pool[len(pool) // 2]
    deployment.fail(down.address)
    ranking = mapping.ranking(client)

    # The same measurements, pair by pair, on a twin network.
    twin = Network(topology, SimClock(), seed=21)
    providers = set(topology.registry.transit_providers_of(client.asn))
    bonus = mapping.params.in_isp_bonus_ms
    expected = []
    for replica in pool:
        if replica is down:
            continue
        rtt = twin.measure_rtt_ms(client, replica.host)
        if replica.host.asn in providers:
            rtt = max(0.1, rtt - bonus)
        expected.append((replica, rtt))
    expected.sort(key=lambda pair: pair[1])
    assert ranking == expected
    assert mapping.measurements_taken == len(pool) - 1
    assert network._measure_rng.random() == twin._measure_rng.random()
    assert down.host.host_id not in network.congestion._per_host


def test_select_answers_under_a_partition_sized_surge(topology, host_rng):
    # One replica this side of a 5 s surge: softmax weights of the rest
    # underflow to 0.0, which used to raise out of the DNS answer.
    world = topology.world
    network = Network(topology, SimClock(), seed=21)
    deployment = ReplicaDeployment()
    for i, metro in enumerate(("london", "new-york", "chicago", "new-york")):
        host = topology.create_host(f"edge-{i}", HostKind.REPLICA, world.metro(metro), host_rng)
        deployment.add(ReplicaServer(host, f"172.0.0.{i}"))
    mapping = MappingSystem(network, deployment, seed=21)
    client = topology.create_host(
        "client-london", HostKind.DNS_SERVER, world.metro("london"), host_rng
    )
    network.congestion.add_surge(RegionalSurge("north-america", 5000.0, 0.0, 3600.0))
    answer = mapping.select(client)
    ranking = mapping.ranking(client)
    assert ranking[1][1] - ranking[0][1] > 4000.0
    assert answer == [replica for replica, _ in ranking[:2]]


def farthest_group(network, client, deployment, size):
    """A customer group guaranteed outside the client's pool."""
    base = network.base_rtts_ms(client, [r.host for r in deployment.edge])
    by_distance = sorted(range(len(base)), key=base.__getitem__)
    # Deployment order, so the group is not handed over pre-sorted.
    return [deployment.edge[i] for i in sorted(by_distance[-size:])]


def test_disjoint_customer_group_is_answered_nearest_first(topology, host_rng):
    clock = SimClock()
    network = Network(topology, clock, seed=21)
    deployment = deploy_replicas(topology, host_rng)
    params = MappingParams(
        policy=SelectionPolicy.BEST_ONLY, candidate_pool_size=3, answer_size=5
    )
    mapping = MappingSystem(network, deployment, params, seed=21)
    client = topology.create_host(
        "client-ny", HostKind.DNS_SERVER, topology.world.metro("new-york"), host_rng
    )
    group = farthest_group(network, client, deployment, 6)
    assert not {r.address for r in group} & {r.address for r in mapping.candidate_pool(client)}
    answer = mapping.select(client, pool=group)
    # The fallback keeps a pool's worth of the group, by base RTT.
    nearest = sorted(group, key=lambda r: network.base_rtt_ms(client, r.host))[:3]
    assert answer == nearest


def test_disjoint_customer_group_answer_is_pinned(mapping_setup):
    """The addresses the fallback answered before it measured each pair
    once instead of twice (seed 21, the default softmax rotation)."""
    mapping, client, clock, network, deployment = mapping_setup
    group = farthest_group(network, client, deployment, 6)
    answers = []
    for _ in range(4):
        answers.append([r.address for r in mapping.select(client, pool=group)])
        clock.advance(mapping.params.refresh_seconds)
    assert answers == PINNED_FALLBACK_ANSWERS


PINNED_FALLBACK_ANSWERS = [
    ["172.0.1.30", "172.0.1.23"],
    ["172.0.1.23", "172.0.1.30"],
    ["172.0.1.23", "172.0.1.39"],
    ["172.0.1.39", "172.0.1.30"],
]

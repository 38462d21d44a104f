"""Unit tests for remap schedules and their enactment."""

import numpy as np
import pytest

from repro.cdn import MappingSystem
from repro.cdn.replica import ReplicaDeployment, ReplicaServer, deploy_replicas
from repro.faults import (
    RemapController,
    RemapEvent,
    RemapKind,
    RemapParams,
    RemapSchedule,
)
from repro.netsim import HostKind, Network, SimClock


REGIONS = ["us-east", "us-west", "europe"]
ADDRESSES = [f"198.51.{i}.1" for i in range(8)]
METROS = ["boston", "new-york", "seattle"]


def generate(params=None, seed=7, regions=REGIONS, addresses=ADDRESSES, metros=METROS):
    return RemapSchedule.generate(
        regions, addresses, metros, params or RemapParams(), seed
    )


# -- events and params ------------------------------------------------------


def test_event_rejects_negative_time():
    with pytest.raises(ValueError):
        RemapEvent(RemapKind.REGION_REHOME, -1.0, "us-east")


def test_params_validation():
    with pytest.raises(ValueError):
        RemapParams(horizon_s=0.0)
    with pytest.raises(ValueError):
        RemapParams(migration_fraction=1.5)
    with pytest.raises(ValueError):
        RemapParams(window=(0.7, 0.3))
    with pytest.raises(ValueError):
        RemapParams(window=(-0.1, 0.5))


def test_scaled_rejects_negative_factor():
    with pytest.raises(ValueError):
        RemapParams().scaled(-0.5)


def test_scaled_zero_generates_no_events():
    schedule = generate(RemapParams().scaled(0.0))
    assert len(schedule) == 0
    assert schedule.events == ()


def test_scaled_multiplies_counts_and_caps_fraction():
    params = RemapParams(
        region_rehomes=2, migration_fraction=0.6, cluster_launches=1, cluster_retires=3
    )
    doubled = params.scaled(2.0)
    assert doubled.region_rehomes == 4
    assert doubled.cluster_launches == 2
    assert doubled.cluster_retires == 6
    assert doubled.migration_fraction == 1.0


# -- schedule generation ----------------------------------------------------


def test_generate_is_deterministic():
    assert generate(seed=13) == generate(seed=13)
    assert generate(seed=13) != generate(seed=14)


def test_generate_sorted_and_inside_window():
    params = RemapParams(horizon_s=10_000.0, window=(0.2, 0.6))
    schedule = generate(params)
    times = [e.at for e in schedule.events]
    assert times == sorted(times)
    for event in schedule.events:
        assert 0.2 * 10_000.0 <= event.at <= 0.6 * 10_000.0


def test_generate_clips_counts_to_target_pools():
    params = RemapParams(region_rehomes=50, cluster_launches=50, cluster_retires=50)
    schedule = generate(params)
    assert len(schedule.by_kind(RemapKind.REGION_REHOME)) == len(REGIONS)
    assert len(schedule.by_kind(RemapKind.CLUSTER_LAUNCH)) == len(METROS)
    assert len(schedule.by_kind(RemapKind.CLUSTER_RETIRE)) == len(METROS)


def test_generate_migration_count_is_fleet_fraction():
    schedule = generate(RemapParams(migration_fraction=0.5))
    assert len(schedule.by_kind(RemapKind.REPLICA_MIGRATION)) == len(ADDRESSES) // 2


def test_per_kind_streams_are_independent():
    """Tuning one kind's count must not move another kind's events."""
    base = generate(RemapParams(region_rehomes=1))
    more = generate(RemapParams(region_rehomes=3))
    for kind in (RemapKind.REPLICA_MIGRATION, RemapKind.CLUSTER_LAUNCH,
                 RemapKind.CLUSTER_RETIRE):
        assert base.by_kind(kind) == more.by_kind(kind)


# -- controller enactment ---------------------------------------------------


@pytest.fixture()
def substrate(topology, host_rng):
    clock = SimClock()
    network = Network(topology, clock, seed=21)
    deployment = deploy_replicas(topology, np.random.default_rng(5))
    mapping = MappingSystem(network, deployment, seed=21)
    return topology, deployment, mapping


def controller_for(events, substrate, seed=3):
    topology, deployment, mapping = substrate
    return RemapController(
        RemapSchedule(events=tuple(events)),
        topology=topology,
        deployment=deployment,
        mapping=mapping,
        seed=seed,
    )


def test_sync_applies_in_order_and_never_backwards(substrate):
    topology, _, _ = substrate
    region = topology.world.metro("boston").region.value
    controller = controller_for(
        [
            RemapEvent(RemapKind.REGION_REHOME, 100.0, region),
            RemapEvent(RemapKind.REGION_REHOME, 200.0, "us-west"),
        ],
        substrate,
    )
    assert controller.sync(50.0) == 0
    assert controller.sync(150.0) == 1
    with pytest.raises(ValueError):
        controller.sync(149.0)
    assert controller.sync(500.0) == 1
    assert controller.applied_times == [100.0, 200.0]


def test_rehome_enacts_once(substrate):
    _, _, mapping = substrate
    controller = controller_for(
        [
            RemapEvent(RemapKind.REGION_REHOME, 10.0, "us-east"),
            RemapEvent(RemapKind.REGION_REHOME, 20.0, "us-east"),
        ],
        substrate,
    )
    controller.sync(100.0)
    assert "us-east" in mapping.rehomed_regions
    # The duplicate is a no-op, not a second applied event.
    assert controller.events_applied[RemapKind.REGION_REHOME] == 1


def test_migration_moves_host_and_keeps_address(substrate, host_rng):
    topology, deployment, mapping = substrate
    client = topology.create_host(
        "client-mig", HostKind.DNS_SERVER, topology.world.metro("boston"), host_rng
    )
    mapping.candidate_pool(client)  # prime the cache the migration must purge
    address = deployment.edge[0].address
    invalidations_before = mapping.invalidations
    controller = controller_for(
        [RemapEvent(RemapKind.REPLICA_MIGRATION, 10.0, address, "seattle")],
        substrate,
    )
    controller.sync(10.0)
    moved = deployment.by_address(address)
    assert moved.host.metro.name == "seattle"
    assert controller.replicas_migrated == 1
    assert mapping.invalidations > invalidations_before


def test_migration_skips_unknown_address_and_empty_destination(substrate):
    _, deployment, _ = substrate
    address = deployment.edge[0].address
    controller = controller_for(
        [
            RemapEvent(RemapKind.REPLICA_MIGRATION, 10.0, "203.0.113.9", "seattle"),
            RemapEvent(RemapKind.REPLICA_MIGRATION, 20.0, address, ""),
        ],
        substrate,
    )
    assert controller.sync(100.0) == 2
    assert controller.applied == []
    assert controller.replicas_migrated == 0


def test_launch_adds_cluster_on_reserved_addresses(substrate):
    _, deployment, _ = substrate
    before = len(deployment)
    existing = {r.address for r in deployment}
    controller = controller_for(
        [RemapEvent(RemapKind.CLUSTER_LAUNCH, 10.0, "boston", "boston", 4)],
        substrate,
    )
    controller.sync(10.0)
    assert len(deployment) == before + 4
    launched = [r.address for r in deployment if r.address not in existing]
    assert len(launched) == 4
    for address in launched:
        assert int(address.split(".")[1]) >= 250
    assert controller.replicas_launched == 4


def test_retire_removes_metro_edge_replicas(substrate):
    _, deployment, _ = substrate
    metro_addresses = [
        r.address for r in deployment.edge if r.host.metro.name == "new-york"
    ]
    assert metro_addresses
    controller = controller_for(
        [RemapEvent(RemapKind.CLUSTER_RETIRE, 10.0, "new-york")],
        substrate,
    )
    controller.sync(10.0)
    for address in metro_addresses:
        assert not deployment.knows_address(address)
        assert address in deployment.retired_addresses
    assert controller.replicas_retired == len(metro_addresses)


def test_retire_refuses_to_empty_the_fleet(topology, host_rng):
    clock = SimClock()
    network = Network(topology, clock, seed=21)
    deployment = ReplicaDeployment()
    metro = topology.world.metro("boston")
    for i in range(3):
        host = topology.create_host(
            f"edge-{i}", HostKind.REPLICA, metro, host_rng
        )
        deployment.add(ReplicaServer(host, f"198.51.0.{i}"))
    mapping = MappingSystem(network, deployment, seed=21)
    controller = RemapController(
        RemapSchedule(
            events=(RemapEvent(RemapKind.CLUSTER_RETIRE, 10.0, "boston"),)
        ),
        topology=topology,
        deployment=deployment,
        mapping=mapping,
        seed=3,
    )
    controller.sync(10.0)
    # Retiring boston would leave fewer edge replicas than one DNS
    # answer needs, so the event is refused.
    assert controller.replicas_retired == 0
    assert len(deployment) == 3


def test_counters_flatten_per_kind(substrate):
    topology, _, _ = substrate
    controller = controller_for(
        [
            RemapEvent(RemapKind.REGION_REHOME, 10.0, "us-east"),
            RemapEvent(RemapKind.CLUSTER_LAUNCH, 20.0, "boston", "boston", 2),
        ],
        substrate,
    )
    controller.sync(100.0)
    counters = controller.counters()
    assert counters["applied.region_rehome"] == 1
    assert counters["applied.cluster_launch"] == 1
    assert counters["replicas_launched"] == 2
    assert counters["replicas_retired"] == 0


def test_pending_event_times_dedupes_and_honours_until(substrate):
    controller = controller_for(
        [
            RemapEvent(RemapKind.REGION_REHOME, 10.0, "us-east"),
            RemapEvent(RemapKind.REGION_REHOME, 10.0, "us-west"),
            RemapEvent(RemapKind.CLUSTER_RETIRE, 30.0, "boston"),
        ],
        substrate,
    )
    assert controller.pending_event_times() == [10.0, 30.0]
    assert controller.pending_event_times(until=30.0) == [10.0]
    controller.sync(10.0)
    assert controller.pending_event_times() == [30.0]


# -- pools after every structural change ≡ a brute-force recomputation ---------


def brute_force_pool(substrate, client):
    """The pool as a full sort over the eligible replicas gives it."""
    topology, deployment, mapping = substrate
    providers = topology.registry.transit_providers_of(client.asn)
    eligible = [r for r in deployment if not r.isp_restricted or r.host.asn in providers]
    if client.region.value in mapping.rehomed_regions:
        eligible = [r for r in eligible if r.host.region is not client.region] or eligible
    by_base = sorted(eligible, key=lambda r: mapping.network.base_rtt_ms(client, r.host))
    return by_base[: mapping.params.candidate_pool_size]


def test_pools_after_each_remap_equal_a_full_sort(substrate, host_rng):
    topology, deployment, mapping = substrate
    clients = [
        topology.create_host(
            f"client-{name}", HostKind.DNS_SERVER, topology.world.metro(name), host_rng
        )
        for name in ("boston", "new-york", "seattle", "london", "tokyo")
    ]
    region = topology.world.metro("boston").region.value
    events = [
        RemapEvent(RemapKind.CLUSTER_LAUNCH, 10.0, "boston", "boston", 4),
        RemapEvent(RemapKind.REPLICA_MIGRATION, 20.0, deployment.edge[0].address, "seattle"),
        RemapEvent(RemapKind.CLUSTER_RETIRE, 30.0, "new-york"),
        RemapEvent(RemapKind.REGION_REHOME, 40.0, region),
    ]
    controller = controller_for(events, substrate)
    for now in (0.0, 10.0, 20.0, 30.0, 40.0):
        controller.sync(now)
        for client in clients:
            assert mapping.candidate_pool(client) == brute_force_pool(substrate, client)
    assert len(controller.applied) == 4
    rehomed = clients[0]
    assert all(r.host.region is not rehomed.region for r in mapping.candidate_pool(rehomed))


def test_partial_invalidate_rebuilds_only_the_named_pool(substrate, host_rng):
    topology, deployment, mapping = substrate
    metro = topology.world.metro("boston")
    near, other = (
        topology.create_host(f"client-{i}", HostKind.DNS_SERVER, metro, host_rng)
        for i in range(2)
    )
    stale = list(mapping.candidate_pool(other))
    mapping.candidate_pool(near)
    host = topology.create_host(
        "edge-new", HostKind.REPLICA, metro, host_rng, location=near.location, access_ms=0.2
    )
    launched = deployment.add(ReplicaServer(host, "198.51.100.1"))
    mapping.invalidate([near.host_id])
    assert launched in mapping.candidate_pool(near)
    assert mapping.candidate_pool(near) == brute_force_pool(substrate, near)
    assert mapping.candidate_pool(other) == stale

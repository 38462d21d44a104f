"""The measurement row consumes the streams exactly as a loop of pairs.

Three networks from one seed: one measured by the one-pair reference
below (the measurement as it stood before the row kernel, kept here as
the oracle), one by a loop of ``measure_rtt_ms(a, b)``, one by a single
``measure_rtts_ms(a, pool)``.  Floats, the measurement generator's next
draw and every congestion process's position must agree.
"""

from __future__ import annotations

import pytest

from repro.netsim import HostKind, Network, SimClock
from repro.netsim.dynamics import RegionalSurge
from repro.netsim.network import MeasurementParams


def reference_measure_rtt_ms(network, a, b):
    """One pair, term by term: the oracle for both arities."""
    if a.host_id == b.host_id:
        return 0.0
    field = network.congestion
    t = network.clock.now
    regional = field._regional_process(a.region, b.region).sample(t)
    host_a = field._host_process(a).sample(t)
    host_b = field._host_process(b).sample(t)
    diurnal = 0.5 * (field._diurnal_ms(a, t) + field._diurnal_ms(b, t))
    congestion = max(0.0, regional + host_a + host_b + diurnal)
    if field.surges:
        congestion += field.surge_ms(a, t) + field.surge_ms(b, t)
    true_rtt = network.base_rtt_ms(a, b) + congestion
    params = network.measurement_params
    rng = network._measure_rng
    sample = true_rtt * float(rng.lognormal(0.0, params.jitter_sigma))
    if rng.random() < params.spike_probability:
        lo, hi = params.spike_fraction_range
        sample += true_rtt * float(rng.uniform(lo, hi))
    return max(sample, network.latency.params.floor_ms)


@pytest.fixture()
def vantage_and_pool(topology, host_rng):
    world = topology.world
    vantage = topology.create_host(
        "ldns", HostKind.DNS_SERVER, world.metro("new-york"), host_rng
    )
    metros = ("new-york", "chicago", "london", "frankfurt", "tokyo", "new-york", "london")
    pool = [
        topology.create_host(f"replica-{i}", HostKind.REPLICA, world.metro(name), host_rng)
        for i, name in enumerate(metros)
    ]
    return vantage, pool


def triplet(topology, **kwargs):
    return [Network(topology, SimClock(), seed=77, **kwargs) for _ in range(3)]


def process_positions(network):
    field = network.congestion
    return {
        kind: {key: (p.last_time, p.sample(p.last_time)) for key, p in processes.items()}
        for kind, processes in (("regional", field._regional), ("host", field._per_host))
    }


def assert_row_is_the_loop(networks, a, pool):
    by_reference, by_pair, by_row = networks
    expected = [reference_measure_rtt_ms(by_reference, a, b) for b in pool]
    assert [by_pair.measure_rtt_ms(a, b) for b in pool] == expected
    assert by_row.measure_rtts_ms(a, pool) == expected
    assert process_positions(by_pair) == process_positions(by_reference)
    assert process_positions(by_row) == process_positions(by_reference)
    return expected


def assert_same_next_draw(networks):
    draws = {network._measure_rng.random() for network in networks}
    assert len(draws) == 1


def test_row_equals_loop_at_fresh_and_repeated_instants(topology, vantage_and_pool):
    a, pool = vantage_and_pool
    networks = triplet(topology)
    for minutes in (0.0, 7.0, 0.0, 45.0):  # 0.0 repeats the instant
        for network in networks:
            network.clock.advance_minutes(minutes)
        assert_row_is_the_loop(networks, a, pool)
    assert_same_next_draw(networks)


def test_row_equals_loop_under_a_surge(topology, vantage_and_pool):
    a, pool = vantage_and_pool
    networks = triplet(topology)
    for network in networks:
        network.congestion.add_surge(RegionalSurge("europe", 250.0, 0.0, 600.0))
        network.congestion.add_surge(RegionalSurge("north-america", 40.0, 0.0, 600.0))
    surged = assert_row_is_the_loop(networks, a, pool)
    assert min(surged[2], surged[3]) > 250.0  # london, frankfurt
    assert_same_next_draw(networks)


def test_row_with_the_vantage_inside_draws_nothing_for_it(topology, vantage_and_pool):
    a, pool = vantage_and_pool
    networks = triplet(topology)
    with_self = pool[:3] + [a] + pool[3:]
    assert assert_row_is_the_loop(networks, a, with_self)[3] == 0.0
    assert_same_next_draw(networks)
    # Only itself to measure: no process is touched, no draw is made.
    lone = Network(topology, SimClock(), seed=77)
    untouched = Network(topology, SimClock(), seed=77)
    assert lone.measure_rtts_ms(a, [a, a]) == [0.0, 0.0]
    assert process_positions(lone) == {"regional": {}, "host": {}}
    assert_same_next_draw([lone, untouched])


def test_row_equals_loop_when_every_sample_spikes(topology, vantage_and_pool):
    a, pool = vantage_and_pool
    always = MeasurementParams(spike_probability=1.0)
    networks = triplet(topology, measurement_params=always)
    assert_row_is_the_loop(networks, a, pool)
    assert_same_next_draw(networks)


def test_empty_row(network, vantage_and_pool):
    a, _ = vantage_and_pool
    assert network.measure_rtts_ms(a, []) == []

"""Scenario-level event driving: dense ≡ event, chaos sync, windows."""

import dataclasses

import pytest

from repro.check import DifferentialRunner, dense_event_pair
from repro.core.service import ProbePolicy
from repro.exec.snapshots import SnapshotStore, events_schedule, window_key
from repro.faults import ChaosParams
from repro.sim import PoissonZipfWorkload
from repro.obs.manifest import fingerprint_params
from repro.workloads.scenario import Scenario, ScenarioParams, driven_scenario_events

TINY = ScenarioParams(
    seed=11,
    dns_servers=10,
    planetlab_nodes=6,
    build_meridian=False,
    probe_policy=ProbePolicy(),
)


def test_degenerate_workload_reproduces_dense_loop():
    rounds = 4
    dense = Scenario(TINY)
    dense.run_probe_rounds(rounds)

    evented = Scenario(TINY)
    loop = evented.run_events(evented.dense_workload(rounds))

    assert evented.clock.now == dense.clock.now
    assert evented.crp.probes_issued == dense.crp.probes_issued
    assert evented.crp.probe_failures == dense.crp.probe_failures
    for client in dense.client_names:
        left = dense.crp.position(client, dense.candidate_names)
        right = evented.crp.position(client, evented.candidate_names)
        assert [r.name for r in left.top(5)] == [r.name for r in right.top(5)]
    probe_events = loop.dispatched_by_kind["client_probe"]
    assert probe_events == rounds * len(dense.crp.active_nodes)
    # The event side really ran its housekeeping — TTL sweeps and
    # mapping-epoch heartbeats, neither of which the dense loop has —
    # so the equalities above are what prove both behaviour-neutral.
    assert loop.dispatched_by_kind["ttl_expiry"] > 0
    assert loop.dispatched_by_kind["mapping_epoch"] > 0


def test_dense_event_differential_pair_is_clean():
    pair = dense_event_pair(TINY, probe_rounds=3)
    assert DifferentialRunner([pair]).run() == []


def test_chaos_boundaries_sync_identically():
    params = dataclasses.replace(TINY, seed=3, chaos=ChaosParams())
    rounds = 6

    dense = Scenario(params)
    dense.run_probe_rounds(rounds)

    evented = Scenario(params)
    loop = evented.run_events(evented.dense_workload(rounds))

    assert evented.chaos is not None
    assert evented.chaos.counters() == dense.chaos.counters()
    assert evented.crp.probes_issued == dense.crp.probes_issued
    assert evented.crp.probe_failures == dense.crp.probe_failures
    # At least one boundary actually fired through the event path,
    # otherwise this test proves nothing.
    assert loop.dispatched_by_kind["fault_boundary"] > 0


def test_sparse_workload_dispatches_fewer_probes_than_dense():
    scenario = Scenario(TINY)
    active = scenario.crp.active_nodes
    rounds = 6
    horizon = rounds * 600.0
    workload = PoissonZipfWorkload(
        active, TINY.seed, aggregate_rate_per_s=len(active) / 600.0 * 0.1
    )
    loop = scenario.run_events(workload, until_s=horizon)
    dense_dispatches = rounds * len(active)
    assert 0 < loop.dispatched_by_kind["client_probe"] < dense_dispatches / 2
    assert scenario.clock.now == horizon


def test_run_events_rejects_workload_without_horizon():
    scenario = Scenario(TINY)
    workload = PoissonZipfWorkload(scenario.crp.active_nodes, 1)
    with pytest.raises(ValueError):
        scenario.run_events(workload)  # no until_s, no workload horizon


def test_event_window_key_tracks_params_workload_and_horizon():
    workload_key = "poisson-zipf:n=4:alpha=1.1:rate=1:seed=0"

    def key_of(params, until_s):
        return window_key(
            fingerprint_params(params), events_schedule(workload_key, until_s)
        )

    key = key_of(TINY, 600.0)
    assert key != key_of(TINY, 1200.0)
    assert key != key_of(dataclasses.replace(TINY, seed=12), 600.0)
    assert key == key_of(TINY, 600.0)


def test_driven_scenario_events_hits_the_store():
    store = SnapshotStore()
    until = 2 * 600.0

    def build(scenario):
        return scenario.dense_workload(2)

    first, first_stats = driven_scenario_events(TINY, build, until, store=store)
    assert store.misses == 1 and store.hits == 0
    second, second_stats = driven_scenario_events(TINY, build, until, store=store)
    assert store.hits == 1
    assert second.clock.now == first.clock.now
    assert second.crp.probes_issued == first.crp.probes_issued
    assert second_stats == first_stats  # stats survive the snapshot

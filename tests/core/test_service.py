import pytest

from repro.core import CRPService, CRPServiceParams
from repro.core.clustering import SmfParams
from repro.dnssim import DnsInfrastructure, RecursiveResolver
from repro.netsim import HostKind, Network, SimClock
from repro.cdn import CDNProvider


NAMES = ("images.yahoo.test", "www.foxnews.test")


@pytest.fixture()
def service_world(topology, host_rng):
    clock = SimClock()
    network = Network(topology, clock, seed=41)
    infra = DnsInfrastructure()
    cdn = CDNProvider(topology, network, infra, seed=41)
    for name in NAMES:
        cdn.add_customer(name)
    service = CRPService(clock, CRPServiceParams(customer_names=NAMES))
    hosts = {}
    for metro in ("new-york", "boston", "london", "tokyo"):
        host = topology.create_host(
            f"n-{metro}", HostKind.DNS_SERVER, topology.world.metro(metro), host_rng
        )
        hosts[f"n-{metro}"] = host
        service.register_node(f"n-{metro}", RecursiveResolver(host, infra, network))
    return service, clock, hosts, network


def probe(service, clock, rounds=12, minutes=10):
    for _ in range(rounds):
        service.probe_all()
        clock.advance_minutes(minutes)


def test_params_require_names():
    with pytest.raises(ValueError):
        CRPServiceParams(customer_names=())


def test_params_window_validation():
    with pytest.raises(ValueError):
        CRPServiceParams(customer_names=NAMES, window_probes=0)


def test_register_twice_rejected(service_world, topology, host_rng):
    service, _, _, _ = service_world
    with pytest.raises(ValueError):
        service.register_node("n-tokyo", None)


def test_unregister_removes_node(service_world):
    service, _, _, _ = service_world
    service.unregister_node("n-tokyo")
    assert "n-tokyo" not in service.nodes
    with pytest.raises(KeyError):
        service.tracker("n-tokyo")


def test_probe_records_observations(service_world):
    service, clock, _, _ = service_world
    observations = service.probe("n-new-york")
    assert len(observations) == len(NAMES)
    assert service.tracker("n-new-york").probe_count == len(NAMES)
    assert service.probes_issued == len(NAMES)


def test_probe_all_covers_every_node(service_world):
    service, clock, _, _ = service_world
    total = service.probe_all()
    assert total == len(service.nodes) * len(NAMES)


def test_ratio_map_none_before_bootstrap(service_world):
    service, _, _, _ = service_world
    assert service.ratio_map("n-london") is None


def test_ratio_map_after_probing(service_world):
    service, clock, _, _ = service_world
    probe(service, clock)
    ratio_map = service.ratio_map("n-london")
    assert ratio_map is not None
    assert abs(sum(ratio_map.values()) - 1.0) < 1e-9


def test_window_override(service_world):
    service, clock, _, _ = service_world
    probe(service, clock, rounds=15)
    small = service.ratio_map("n-london", window_probes=2)
    full = service.ratio_map("n-london", window_probes=None)
    assert len(small) <= len(full)


def test_rank_servers_prefers_nearby(service_world):
    service, clock, hosts, network = service_world
    probe(service, clock, rounds=15)
    ranked = service.rank_servers("n-new-york", ["n-boston", "n-london", "n-tokyo"])
    assert ranked[0].name == "n-boston"


def test_rank_excludes_client_itself(service_world):
    service, clock, _, _ = service_world
    probe(service, clock)
    ranked = service.rank_servers("n-new-york", ["n-new-york", "n-boston"])
    assert all(r.name != "n-new-york" for r in ranked)


def test_closest_server_returns_top1(service_world):
    service, clock, _, _ = service_world
    probe(service, clock, rounds=15)
    pick = service.closest_server("n-new-york", ["n-boston", "n-tokyo"])
    assert pick.name == "n-boston"


def test_rank_empty_for_unbootstrapped_client(service_world):
    service, _, _, _ = service_world
    assert service.rank_servers("n-new-york", ["n-boston"]) == []


def test_passive_observation_feeds_maps(service_world):
    service, clock, _, _ = service_world
    service.observe("n-london", NAMES[0], ["172.0.0.9"])
    ratio_map = service.ratio_map("n-london")
    assert ratio_map is not None
    assert ratio_map.ratio("172.0.0.9") == 1.0


def test_cluster_over_nodes(service_world):
    service, clock, _, _ = service_world
    probe(service, clock, rounds=15)
    result = service.cluster(smf_params=SmfParams(threshold=0.1))
    assert result.total_nodes == 4
    seen = list(result.unclustered) + [m for c in result.clusters for m in c.members]
    assert sorted(seen) == sorted(service.nodes)


def test_failure_counting(service_world):
    service, clock, hosts, network = service_world
    # A node whose names cannot resolve: register with a resolver over
    # an empty infrastructure.
    empty_infra = DnsInfrastructure()
    lonely = RecursiveResolver(hosts["n-tokyo"], empty_infra, network)
    service.unregister_node("n-tokyo")
    service.register_node("n-tokyo", lonely)
    before = service.probe_failures
    service.probe("n-tokyo")
    assert service.probe_failures == before + len(NAMES)


def test_passive_only_node(service_world):
    service, clock, _, _ = service_world
    service.register_node("watcher", None)
    with pytest.raises(ValueError):
        service.probe("watcher")
    # probe_all skips it without error.
    service.probe_all()
    assert service.tracker("watcher").probe_count == 0
    service.observe("watcher", NAMES[0], ["172.0.0.1"])
    assert service.ratio_map("watcher") is not None


def test_closer_of_matches_paper_primitive(service_world):
    service, clock, _, _ = service_world
    probe(service, clock, rounds=15)
    # The primitive agrees with the full ranking wherever there is
    # signal, and answers None when both pairs are orthogonal.
    for target, a, b in (
        ("n-new-york", "n-boston", "n-tokyo"),
        ("n-london", "n-boston", "n-tokyo"),
        ("n-tokyo", "n-london", "n-boston"),
    ):
        ranked = service.rank_servers(target, [a, b])
        expected = (
            ranked[0].name if ranked and ranked[0].has_signal else None
        )
        assert service.closer_of(target, a, b) == expected


def test_closer_of_unmapped_target(service_world):
    service, _, _, _ = service_world
    assert service.closer_of("n-new-york", "n-boston", "n-tokyo") is None


# -- resilience: errors, churn, caching ---------------------------------------


def test_unknown_node_error_names_the_node(service_world):
    service, _, _, _ = service_world
    from repro.core import UnknownNodeError

    for call in (
        lambda: service.probe("n-ghost"),
        lambda: service.tracker("n-ghost"),
        lambda: service.unregister_node("n-ghost"),
        lambda: service.health("n-ghost"),
        lambda: service.position("n-ghost", ["n-tokyo"]),
    ):
        with pytest.raises(UnknownNodeError) as excinfo:
            call()
        assert "n-ghost" in str(excinfo.value)
        assert isinstance(excinfo.value, KeyError)  # old guards keep working


def test_reregister_after_unregister_starts_fresh(service_world, topology, host_rng):
    service, clock, hosts, network = service_world
    probe(service, clock, rounds=5)
    assert service.tracker("n-tokyo").probe_count > 0
    service.unregister_node("n-tokyo")
    assert "n-tokyo" not in service.nodes
    # Same name comes back with clean history and health.
    from repro.dnssim import DnsInfrastructure

    service.register_node(
        "n-tokyo",
        RecursiveResolver(hosts["n-tokyo"], DnsInfrastructure(), network),
    )
    assert "n-tokyo" in service.nodes
    assert service.tracker("n-tokyo").probe_count == 0
    assert service.ratio_map("n-tokyo") is None
    from repro.core import NodeState

    assert service.health("n-tokyo").state is NodeState.HEALTHY


def test_map_cache_evicts_superseded_versions(service_world):
    service, clock, _, _ = service_world
    probe(service, clock, rounds=6)
    # Ad-hoc window overrides each cache an entry...
    for window in (2, 3, 4, 5, None):
        assert service.ratio_map("n-london", window_probes=window) is not None
    assert len(service._map_cache["n-london"]) == 5
    # ...but the next access after new probes evicts every superseded one.
    probe(service, clock, rounds=1)
    service.ratio_map("n-london", window_probes=3)
    assert set(service._map_cache["n-london"]) == {3}


def test_unregister_drops_cached_maps(service_world):
    service, clock, _, _ = service_world
    probe(service, clock, rounds=3)
    service.ratio_map("n-boston")
    assert "n-boston" in service._map_cache
    service.unregister_node("n-boston")
    assert "n-boston" not in service._map_cache
    assert "n-boston" not in service._last_good


# -- resilience: retry, backoff, health machine --------------------------------


@pytest.fixture()
def flaky_world(topology, host_rng):
    """A service with one always-failing node under a resilient policy."""
    from repro.core import ProbePolicy

    clock = SimClock()
    network = Network(topology, clock, seed=43)
    infra = DnsInfrastructure()
    cdn = CDNProvider(topology, network, infra, seed=43)
    for name in NAMES:
        cdn.add_customer(name)
    policy = ProbePolicy(
        max_attempts=3,
        backoff_base_s=2.0,
        backoff_multiplier=2.0,
        round_deadline_s=30.0,
        degraded_after=1,
        quarantine_after=2,
        recovery_interval_rounds=2,
    )
    service = CRPService(
        clock, CRPServiceParams(customer_names=NAMES, probe_policy=policy)
    )
    hosts = {}
    for metro in ("new-york", "boston"):
        host = topology.create_host(
            f"f-{metro}", HostKind.DNS_SERVER, topology.world.metro(metro), host_rng
        )
        hosts[f"f-{metro}"] = host
        service.register_node(f"f-{metro}", RecursiveResolver(host, infra, network))
    dead_host = topology.create_host(
        "f-dead", HostKind.DNS_SERVER, topology.world.metro("london"), host_rng
    )
    dead_resolver = RecursiveResolver(dead_host, infra, network, failure_rate=0.999999)
    service.register_node("f-dead", dead_resolver)
    return service, clock, dead_resolver


def test_retries_and_backoff_advance_sim_time(flaky_world):
    service, clock, _ = flaky_world
    before = clock.now
    service.probe("f-dead")
    # Two names, three attempts each: 4 retries beyond the first tries.
    assert service.probe_retries == 4
    assert service.probes_issued == 6
    assert service.probe_failures == 6
    # Backoff of 2 + 4 s per name elapsed on the simulated clock.
    assert clock.now == pytest.approx(before + 12.0)


def test_round_deadline_caps_retries(flaky_world):
    from repro.core import CRPServiceParams, ProbePolicy

    service, clock, _ = flaky_world
    tight = ProbePolicy(
        max_attempts=3,
        backoff_base_s=2.0,
        backoff_multiplier=2.0,
        round_deadline_s=2.0,
        quarantine_after=None,
    )
    service.params = CRPServiceParams(customer_names=NAMES, probe_policy=tight)
    before = clock.now
    service.probe("f-dead")
    # Budget covers only the first 2 s backoff; everything after stops.
    assert clock.now == pytest.approx(before + 2.0)
    assert service.probe_retries == 1


def test_health_machine_quarantines_and_recovers(flaky_world):
    from repro.core import NodeState

    service, clock, dead_resolver = flaky_world
    probe(service, clock, rounds=1)
    assert service.health("f-dead").state is NodeState.DEGRADED
    probe(service, clock, rounds=1)
    health = service.health("f-dead")
    assert health.state is NodeState.QUARANTINED
    assert health.quarantines == 1
    assert service.quarantined_nodes() == ["f-dead"]
    assert service.health_summary()["quarantined"] == 1

    # While quarantined, the node leaves the regular rotation: only
    # every second round issues a recovery probe.
    issued_before = service.probes_issued
    probe(service, clock, rounds=1)  # rounds_in=1 -> skipped entirely
    skipped_round_cost = service.probes_issued - issued_before
    assert skipped_round_cost == len(NAMES) * 2  # only the healthy nodes

    # The node comes back: next recovery probe succeeds and restores it.
    dead_resolver.failure_rate = 0.0
    probe(service, clock, rounds=1)  # rounds_in=2 -> recovery probe
    health = service.health("f-dead")
    assert health.state is NodeState.HEALTHY
    assert health.recoveries == 1
    assert service.recovery_probes >= 1
    assert len(service.recovery_times_s) == 1
    assert service.recovery_times_s[0] > 0.0
    # Back in the regular rotation immediately.
    issued_before = service.probes_issued
    probe(service, clock, rounds=1)
    assert service.probes_issued - issued_before == len(NAMES) * 3


def test_default_policy_keeps_legacy_single_attempt(service_world):
    service, clock, _, _ = service_world
    assert service.params.probe_policy.max_attempts == 1
    assert service.params.probe_policy.quarantine_after is None
    before = clock.now
    probe(service, clock, rounds=1, minutes=0)
    assert service.probe_retries == 0
    assert clock.now == before  # no backoff ever touches the clock


def test_probe_policy_validation():
    from repro.core import ProbePolicy

    with pytest.raises(ValueError):
        ProbePolicy(max_attempts=0)
    with pytest.raises(ValueError):
        ProbePolicy(backoff_multiplier=0.5)
    with pytest.raises(ValueError):
        ProbePolicy(degraded_after=3, quarantine_after=2)
    with pytest.raises(ValueError):
        ProbePolicy(recovery_interval_rounds=0)
    with pytest.raises(ValueError):
        ProbePolicy(stale_after_s=0.0)


# -- resilience: positioning answers ------------------------------------------


def test_position_fresh_answer_has_full_confidence(service_world):
    service, clock, _, _ = service_world
    probe(service, clock, rounds=12)
    answer = service.position("n-new-york", ["n-boston", "n-london", "n-tokyo"])
    assert answer.answerable
    assert not answer.stale
    assert answer.confidence == 1.0
    assert answer.map_age_s is not None and answer.map_age_s >= 0.0
    # The ranking agrees with the metadata-free path.
    ranked = service.rank_servers("n-new-york", ["n-boston", "n-london", "n-tokyo"])
    assert [r.name for r in answer.ranked] == [r.name for r in ranked]
    assert answer.top(1)[0].name == ranked[0].name


def test_position_unbootstrapped_node_is_unanswerable(service_world):
    service, _, _, _ = service_world
    answer = service.position("n-london", ["n-tokyo"])
    assert not answer.answerable
    assert answer.confidence == 0.0
    assert answer.map_age_s is None


def test_position_marks_old_maps_stale(service_world):
    service, clock, _, _ = service_world
    probe(service, clock, rounds=12)
    clock.advance(service.params.probe_policy.stale_after_s + 60.0)
    answer = service.position("n-new-york", ["n-boston", "n-tokyo"])
    assert answer.answerable
    assert answer.stale
    assert answer.confidence == pytest.approx(0.5)
    assert answer.map_age_s > service.params.probe_policy.stale_after_s
    assert service.stale_answers == 1


def test_position_serves_last_good_map_when_window_goes_dark(service_world):
    service, clock, _, _ = service_world
    probe(service, clock, rounds=12)
    assert service.position("n-new-york", ["n-boston"]).answerable
    # Simulate the window going dark (what a time-based window or log
    # truncation produces): the fresh map disappears but the last good
    # one was retained.
    tracker = service.tracker("n-new-york")
    tracker._log.clear()
    tracker.version += 1
    answer = service.position("n-new-york", ["n-boston"])
    assert answer.answerable
    assert answer.stale
    assert answer.confidence == pytest.approx(0.5)


def test_position_confidence_tracks_health(flaky_world):
    service, clock, dead_resolver = flaky_world
    # Give the dead node history first, then let it fail into quarantine.
    dead_resolver.failure_rate = 0.0
    probe(service, clock, rounds=6)
    dead_resolver.failure_rate = 0.999999
    probe(service, clock, rounds=2)
    answer = service.position("f-dead", ["f-new-york", "f-boston"])
    from repro.core import NodeState

    assert answer.client_state is NodeState.QUARANTINED
    assert answer.answerable
    assert answer.confidence == pytest.approx(0.4)


# -- resilience: churn vs. fallback state, retry accounting --------------------


def test_reregister_leaves_no_stale_last_good_fallback(service_world):
    """register -> probe -> unregister -> re-register must not leave the
    predecessor's last-good map around to be served as a stale fallback
    for the fresh node."""
    service, clock, hosts, network = service_world
    probe(service, clock, rounds=12)
    assert service.ratio_map("n-tokyo") is not None
    assert service.params.window_probes in service._last_good["n-tokyo"]
    service.unregister_node("n-tokyo")
    assert "n-tokyo" not in service._last_good
    assert "n-tokyo" not in service._map_cache
    service.register_node(
        "n-tokyo",
        RecursiveResolver(hosts["n-tokyo"], DnsInfrastructure(), network),
    )
    assert service.params.probe_policy.stale_fallback  # fallback is on...
    answer = service.position("n-tokyo", ["n-boston"])
    assert not answer.answerable  # ...yet nothing stale is served
    assert not answer.stale
    assert "n-tokyo" not in service._last_good


def test_last_good_window_overrides_pruned_on_churn(service_world):
    """Churning through ad-hoc window overrides must not pin last-good
    maps forever: superseded overrides are pruned, except the window
    being queried (which stale-fallback may still need)."""
    service, clock, _, _ = service_world
    probe(service, clock, rounds=12)
    for window in (2, 3, 4, None):
        assert service.ratio_map("n-london", window_probes=window) is not None
    assert {2, 3, 4, None} <= set(service._last_good["n-london"])
    probe(service, clock, rounds=1)
    service.ratio_map("n-london", window_probes=3)
    assert set(service._last_good["n-london"]) == {3}


def test_retry_accounting_matches_registry_and_resolver(topology, host_rng):
    """The registry's retry count must equal both the service's own
    bookkeeping and the count implied by resolver queries (every
    attempt, first try or retry, is exactly one resolver query)."""
    from repro import obs as obs_layer
    from repro.core import ProbePolicy

    with obs_layer.observed() as ob:
        clock = SimClock()
        network = Network(topology, clock, seed=43)
        infra = DnsInfrastructure()
        cdn = CDNProvider(topology, network, infra, seed=43)
        for name in NAMES:
            cdn.add_customer(name)
        policy = ProbePolicy(
            max_attempts=3,
            backoff_base_s=2.0,
            backoff_multiplier=2.0,
            round_deadline_s=60.0,
            degraded_after=1,
            quarantine_after=None,
        )
        service = CRPService(
            clock, CRPServiceParams(customer_names=NAMES, probe_policy=policy)
        )
        ok_host = topology.create_host(
            "r-ok", HostKind.DNS_SERVER, topology.world.metro("boston"), host_rng
        )
        service.register_node("r-ok", RecursiveResolver(ok_host, infra, network))
        dead_host = topology.create_host(
            "r-dead", HostKind.DNS_SERVER, topology.world.metro("london"), host_rng
        )
        service.register_node(
            "r-dead",
            RecursiveResolver(dead_host, infra, network, failure_rate=0.999999),
        )
        for _ in range(3):
            service.probe_all()
            clock.advance_minutes(10)

    counters = ob.metrics.snapshot()["counters"]
    attempts = counters["crp.probe.attempts"]
    retries = counters["crp.probe.retries"]
    resolver_queries = counters["dns.resolver.queries"]
    assert retries > 0  # the dead node forced real retries
    # Registry agrees with the service's own bookkeeping.
    assert attempts == service.probes_issued
    assert retries == service.probe_retries
    # One attempt == one resolver query, so retries implied by resolver
    # query counts (queries minus first tries) match the registry.
    first_tries = ob.trace.counts_by_kind()["probe.attempt"]
    assert resolver_queries == attempts
    assert retries == resolver_queries - first_tries


def test_invalidate_windows_resets_bootstrap_and_fallbacks(service_world):
    service, clock, _, _ = service_world
    probe(service, clock)
    assert service.ratio_map("n-boston") is not None
    dropped = service.invalidate_windows(before=clock.now)
    assert dropped > 0
    assert service.window_invalidations == 1
    assert service.observations_invalidated == dropped
    # Pre-change history is gone: the node must re-bootstrap, and the
    # last-good fallback map (which would keep serving the old world)
    # is gone with it.
    assert service.ratio_map("n-boston") is None
    assert "n-boston" not in service._last_good
    probe(service, clock)
    assert service.ratio_map("n-boston") is not None


def test_invalidate_windows_respects_node_subset_and_cutoff(service_world):
    service, clock, _, _ = service_world
    probe(service, clock)
    cutoff = clock.now / 2.0
    before = service.tracker("n-boston").probe_count
    dropped = service.invalidate_windows(nodes=["n-boston"], before=cutoff)
    tracker = service.tracker("n-boston")
    assert 0 < dropped < before
    assert tracker.probe_count == before - dropped
    assert all(o.at >= cutoff for o in tracker.observations)
    # Untouched nodes keep their full history and their maps.
    assert service.tracker("n-london").probe_count == before
    assert service.ratio_map("n-london") is not None


def test_invalidate_windows_keeps_edge_observation_and_repeat_is_noop(service_world):
    """The window-edge contract: an observation at exactly ``before``
    survives (it describes the post-change world), and re-invalidating
    at the same edge finds nothing further to drop."""
    service, clock, _, _ = service_world
    probe(service, clock)
    tracker = service.tracker("n-boston")
    edge = tracker.observations[len(tracker.observations) // 2].at
    dropped = service.invalidate_windows(before=edge)
    assert dropped > 0
    assert all(o.at >= edge for o in tracker.observations)
    assert any(o.at == edge for o in tracker.observations)
    # Same-edge re-invalidation: zero observations dropped everywhere
    # (no double truncation), even though the recovery is recorded.
    assert service.invalidate_windows(before=edge) == 0


def test_invalidate_windows_leaves_no_dangling_last_good_for_any_window(service_world):
    """After a full invalidation no window — default or ad-hoc — may
    keep serving its last-good fallback: positioning must come back
    honestly cold rather than ranked against the pre-change world."""
    service, clock, _, _ = service_world
    probe(service, clock)
    # Materialize last-good maps for the default window and an ad-hoc
    # override; both would keep serving stale answers if left behind.
    assert service.ratio_map("n-boston") is not None
    assert service.ratio_map("n-boston", window_probes=4) is not None
    assert "n-boston" in service._last_good
    service.invalidate_windows(before=clock.now)
    assert "n-boston" not in service._last_good
    for window in (-1, 4):
        answer = service.position(
            "n-boston", ["n-london", "n-tokyo"], window_probes=window
        )
        assert answer.ranked == ()
        assert not answer.stale
        assert answer.confidence == 0.0
        assert answer.map_age_s is None


def test_params_max_observations_validation():
    with pytest.raises(ValueError):
        CRPServiceParams(customer_names=NAMES, max_observations=0)
    with pytest.raises(ValueError):
        CRPServiceParams(customer_names=NAMES, window_probes=10, max_observations=5)
    params = CRPServiceParams(customer_names=NAMES, max_observations=10)
    assert params.max_observations == 10


def test_max_observations_bounds_tracker_logs():
    clock = SimClock()
    service = CRPService(
        clock,
        CRPServiceParams(customer_names=NAMES, window_probes=4, max_observations=4),
    )
    service.register_node("bounded", None)
    for i in range(10):
        service.observe("bounded", NAMES[0], [f"replica-{i}"])
    assert service.tracker("bounded").probe_count == 4


def test_is_registered(service_world):
    service, _, _, _ = service_world
    assert service.is_registered("n-boston")
    assert not service.is_registered("ghost")
    service.unregister_node("n-boston")
    assert not service.is_registered("n-boston")


def test_track_candidates_requires_registered_names(service_world):
    service, _, _, _ = service_world
    from repro.core.service import UnknownNodeError

    with pytest.raises(UnknownNodeError):
        service.track_candidates(["n-boston", "ghost"])
    assert service.tracked_candidates is None


def test_tracked_packed_path_matches_dict_path(service_world):
    """The streaming packed path must rank exactly like the per-query
    dict path — same candidates, same scores, same order — both before
    and after incremental updates to the tracked maps."""
    service, clock, _, _ = service_world
    probe(service, clock)
    candidates = ("n-london", "n-new-york", "n-tokyo")
    service.track_candidates(candidates)
    assert service.tracked_candidates == candidates

    def both():
        packed = service.position("n-boston", candidates)
        # A reordered list cannot be the tracked tuple: dict path.
        dict_path = service.position("n-boston", list(reversed(candidates)))
        return packed, dict_path

    packed, dict_path = both()
    assert packed.ranked == dict_path.ranked
    assert packed.ranked, "probed world should produce a ranking"
    assert service.candidate_population is not None
    # Incremental: more probes dirty the tracked maps; the packed
    # population must absorb the updates, not serve the stale rows.
    probe(service, clock, rounds=3)
    packed, dict_path = both()
    assert packed.ranked == dict_path.ranked


def test_tracked_client_excluded_from_own_ranking(service_world):
    service, clock, _, _ = service_world
    probe(service, clock)
    candidates = ("n-boston", "n-london", "n-tokyo")
    service.track_candidates(candidates)
    answer = service.position("n-boston", candidates)
    assert "n-boston" not in [r.name for r in answer.ranked]


def test_unregister_tracked_candidate_shrinks_population(service_world):
    service, clock, _, _ = service_world
    probe(service, clock)
    candidates = ("n-london", "n-new-york", "n-tokyo")
    service.track_candidates(candidates)
    service.position("n-boston", candidates)  # materialise the population
    service.unregister_node("n-tokyo")
    assert service.tracked_candidates == ("n-london", "n-new-york")
    answer = service.position("n-boston", service.tracked_candidates)
    assert {r.name for r in answer.ranked} <= {"n-london", "n-new-york"}


def test_position_k_is_the_full_rankings_prefix_with_the_same_metadata():
    """Exact mode honours ``k``: the rows are the full ranking's prefix
    and nothing else about the answer moves."""
    clock = SimClock()
    service = CRPService(clock, CRPServiceParams(customer_names=NAMES))
    candidates = tuple(f"cand-{i}" for i in range(8))
    for i, name in enumerate(candidates + ("client", "dark")):
        service.register_node(name, None)
        service.observe(name, NAMES[0], (f"replica-{i % 3}", f"replica-{(i + 1) % 4}"))
    service.track_candidates(candidates)
    clock.advance(60.0)

    def top_and_full(client, k):
        full = service.position(client, candidates)
        top = service.position(client, candidates, k=k)
        assert top.ranked == full.ranked[:k]
        assert (top.stale, top.confidence, top.map_age_s, top.client_state) == (
            full.stale, full.confidence, full.map_age_s, full.client_state
        )
        return top, full

    top, full = top_and_full("client", 5)
    assert len(top.ranked) == 5 and len(full.ranked) == 8
    # A tracked candidate asking about itself: excluded before the cut.
    top, full = top_and_full("cand-2", 5)
    assert len(top.ranked) == 5 and len(full.ranked) == 7
    assert "cand-2" not in [r.name for r in top.ranked]
    # k past the population returns what there is.
    assert len(top_and_full("client", 11)[0].ranked) == 8
    assert len(top_and_full("cand-2", 11)[0].ranked) == 7
    # Served from the last good map once the window goes dark.
    service.position("dark", candidates)
    tracker = service.tracker("dark")
    tracker._log.clear()
    tracker.version += 1
    top, _ = top_and_full("dark", 5)
    assert top.stale and len(top.ranked) == 5

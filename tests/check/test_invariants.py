"""The invariant registry and its built-in checks."""

import pytest

from repro import obs as obs_layer
from repro.check import InvariantRegistry, Violation, default_registry
from repro.check.invariants import (
    check_candidate_pool,
    check_engine,
    check_health_transitions,
    check_ratio_map,
    check_smf_result,
    check_tracker,
    check_ttl_cache,
)
from repro.core import RatioMap
from repro.core.clustering import SmfParams, smf_cluster
from repro.core.engine import PackedPopulation
from repro.core.tracker import RedirectionTracker
from repro.dnssim import Question, RecordType, ResourceRecord, TtlCache
from repro.obs.trace import TraceEvent
from tests.conftest import make_scenario


def maps_fixture():
    return {
        "n1": RatioMap.from_counts({"r1": 3, "r2": 7}),
        "n2": RatioMap.from_counts({"r1": 5, "r3": 5}),
        "n3": RatioMap.from_counts({"r2": 1}),
    }


# -- registry ----------------------------------------------------------------


def test_default_registry_has_all_builtins():
    registry = default_registry()
    assert registry.names() == (
        "ann_index",
        "candidate_pool",
        "engine",
        "event_loop",
        "health_transitions",
        "ratio_map",
        "service_health",
        "smf_result",
        "snapshot_restore",
        "tracker",
        "ttl_cache",
    )
    assert "ratio_map" in registry
    assert "nope" not in registry


def test_registry_rejects_duplicate_names():
    registry = InvariantRegistry()
    registry.register("x", lambda obj: [])
    with pytest.raises(ValueError):
        registry.register("x", lambda obj: [])


def test_registry_unknown_invariant_raises():
    with pytest.raises(KeyError):
        InvariantRegistry().check("missing", "subject", object())


def test_check_returns_violations_and_emits_trace():
    registry = InvariantRegistry()
    registry.register("always_bad", lambda obj: ["it broke", "twice"])
    with obs_layer.observed() as obs:
        violations = registry.check("always_bad", "widget", object(), now=42.0)
    assert violations == [
        Violation("always_bad", "widget", "it broke"),
        Violation("always_bad", "widget", "twice"),
    ]
    events = obs.trace.events(kind="check.violation")
    assert len(events) == 2
    assert events[0].subject == "widget"
    assert events[0].ts == 42.0
    assert events[0].get("invariant") == "always_bad"
    assert events[0].get("detail") == "it broke"
    assert obs.metrics.counter_value("check.violations", invariant="always_bad") == 2


def test_check_clean_object_emits_nothing():
    registry = default_registry()
    with obs_layer.observed() as obs:
        assert registry.check("ratio_map", "n1", RatioMap({"a": 1.0})) == []
    assert obs.trace.events(kind="check.violation") == []


# -- ratio_map ---------------------------------------------------------------


def test_healthy_ratio_map_passes():
    assert check_ratio_map(RatioMap.from_counts({"a": 3, "b": 7})) == []


def test_tampered_ratio_sum_detected():
    ratio_map = RatioMap.from_counts({"a": 1, "b": 1})
    ratio_map._ratios["a"] = 0.9  # 0.9 + 0.5 != 1
    problems = check_ratio_map(ratio_map)
    assert any("sum to" in p for p in problems)


def test_tampered_cached_norm_detected():
    ratio_map = RatioMap.from_counts({"a": 1, "b": 1})
    ratio_map._norm += 0.25
    problems = check_ratio_map(ratio_map)
    assert any("norm" in p for p in problems)


def test_nonpositive_ratio_detected():
    ratio_map = RatioMap({"a": 1.0})
    ratio_map._ratios["ghost"] = 0.0
    assert any("not positive" in p for p in check_ratio_map(ratio_map))


# -- tracker -----------------------------------------------------------------


def test_healthy_tracker_passes():
    tracker = RedirectionTracker("node")
    tracker.observe(0.0, "cdn.test", ("a", "b"))
    tracker.observe(10.0, "cdn.test", ("a",))
    assert check_tracker(tracker) == []


def test_tampered_version_detected():
    tracker = RedirectionTracker("node")
    tracker.observe(0.0, "cdn.test", ("a",))
    tracker.version += 3
    assert any("version" in p for p in check_tracker(tracker))


def test_out_of_order_log_detected():
    tracker = RedirectionTracker("node")
    tracker.observe(0.0, "cdn.test", ("a",))
    tracker.observe(10.0, "cdn.test", ("b",))
    tracker._log.reverse()
    assert any("out of order" in p for p in check_tracker(tracker))


def test_bound_overflow_detected():
    tracker = RedirectionTracker("node", max_observations=2)
    for at in (0.0, 1.0):
        tracker.observe(at, "cdn.test", ("a",))
    tracker.max_observations = 1
    assert any("bound" in p for p in check_tracker(tracker))


# -- engine ------------------------------------------------------------------


def test_healthy_packed_population_passes():
    assert check_engine(PackedPopulation(maps_fixture())) == []


def test_healthy_population_survives_churn():
    population = PackedPopulation(maps_fixture())
    population.remove("n2")
    population.add("n4", RatioMap.from_counts({"r3": 2, "r4": 8}))
    assert check_engine(population) == []


def test_tampered_packed_norm_detected():
    population = PackedPopulation(maps_fixture())
    population._ensure_view().norms[0] = 99.0
    assert any("norm" in p for p in check_engine(population))


def test_tampered_packed_data_detected():
    population = PackedPopulation(maps_fixture())
    view = population._ensure_view()
    view.data[0] = view.data[0] + 0.125
    assert any("packs" in p for p in check_engine(population))


def test_tampered_row_mapping_detected():
    population = PackedPopulation(maps_fixture())
    view = population._ensure_view()
    view.row_of["n1"], view.row_of["n2"] = view.row_of["n2"], view.row_of["n1"]
    assert any("does not map back" in p for p in check_engine(population))


# -- ttl_cache ---------------------------------------------------------------


def _cached(ttl=30.0):
    cache = TtlCache()
    question = Question("a.test")
    cache.put(question, (ResourceRecord("a.test", RecordType.A, "1.1.1.1", ttl),), now=0.0)
    return cache


def test_healthy_cache_passes_at_all_instants():
    cache = _cached(ttl=30.0)
    for now in (0.0, 15.0, 29.999, 30.0, 31.0):
        assert check_ttl_cache(cache, now) == [], f"at t={now}"


def test_read_purge_disagreement_detected():
    class BadCache(TtlCache):
        def would_purge(self, key, now):
            return False  # purge path claims everything is fresh

    cache = BadCache()
    question = Question("a.test")
    cache.put(question, (ResourceRecord("a.test", RecordType.A, "1.1.1.1", 30.0),), now=0.0)
    problems = check_ttl_cache(cache, 30.0)
    assert any("disagree" in p for p in problems)


def test_expired_entry_served_detected():
    class BadCache(TtlCache):
        def peek_entry(self, key, now):
            # A read path that ignores expiry and serves stale records.
            for entry_key, entry in self.entries():
                if entry_key == key:
                    return entry.records
            return None

    cache = BadCache()
    question = Question("a.test")
    cache.put(question, (ResourceRecord("a.test", RecordType.A, "1.1.1.1", 30.0),), now=0.0)
    problems = check_ttl_cache(cache, 32.0)
    assert any("read path serves=True" in p for p in problems)


# -- health transitions ------------------------------------------------------


def _transition(src, dst, subject="n1", ts=1.0):
    return TraceEvent(
        ts=ts, kind="health.transition", subject=subject,
        fields=(("src", src), ("dst", dst)),
    )


def test_legal_transitions_pass():
    events = [
        _transition("healthy", "degraded"),
        _transition("degraded", "quarantined"),
        _transition("quarantined", "healthy"),
        _transition("degraded", "healthy"),
        _transition("healthy", "quarantined"),
    ]
    assert check_health_transitions(events) == []


def test_illegal_transition_detected():
    problems = check_health_transitions([_transition("quarantined", "degraded")])
    assert problems and "illegal transition" in problems[0]


def test_other_event_kinds_ignored():
    event = TraceEvent(ts=0.0, kind="probe.failure", subject="n1")
    assert check_health_transitions([event]) == []


# -- smf_result --------------------------------------------------------------


def clustered_population():
    # Two tight groups plus one orthogonal loner.
    return {
        "a1": RatioMap.from_counts({"r1": 9, "r2": 1}),
        "a2": RatioMap.from_counts({"r1": 8, "r2": 2}),
        "b1": RatioMap.from_counts({"r3": 9, "r4": 1}),
        "b2": RatioMap.from_counts({"r3": 8, "r4": 2}),
        "loner": RatioMap.from_counts({"r9": 1}),
    }


def test_healthy_clustering_passes():
    population = clustered_population()
    params = SmfParams(threshold=0.5)
    result = smf_cluster(population, params)
    assert result.clusters  # sanity: something clustered
    assert check_smf_result(result, population, params) == []


def test_smuggled_member_below_threshold_detected():
    population = clustered_population()
    params = SmfParams(threshold=0.5)
    result = smf_cluster(population, params)
    result.clusters[0].members.append("loner")
    result.unclustered.remove("loner")
    problems = check_smf_result(result, population, params)
    assert any("threshold" in p for p in problems)


def test_unaccounted_node_detected():
    population = clustered_population()
    params = SmfParams(threshold=0.5)
    result = smf_cluster(population, params)
    result.unclustered.remove("loner")
    problems = check_smf_result(result, population, params)
    assert any("unaccounted" in p for p in problems)


def test_double_membership_detected():
    population = clustered_population()
    params = SmfParams(threshold=0.5)
    result = smf_cluster(population, params)
    assert len(result.clusters) >= 2
    stowaway = result.clusters[0].members[0]
    result.clusters[1].members.append(stowaway)
    problems = check_smf_result(result, population, params)
    assert any("appears in clusters" in p for p in problems)


# -- candidate pools -----------------------------------------------------------


def pool_fixture():
    scenario = make_scenario(seed=2008, dns_servers=6, planetlab_nodes=4)
    return scenario.cdn.mapping, scenario.host(scenario.client_names[0])


def test_healthy_candidate_pool_passes():
    mapping, ldns = pool_fixture()
    assert check_candidate_pool(mapping, ldns) == []
    mapping.rehome_region(ldns.region.value)
    assert check_candidate_pool(mapping, ldns) == []


def test_tampered_candidate_pools_detected():
    mapping, ldns = pool_fixture()
    pool = mapping.candidate_pool(ldns)
    pool.reverse()
    assert any("not sorted" in p for p in check_candidate_pool(mapping, ldns))
    pool.reverse()
    members = {r.address for r in pool}
    farthest = max(
        (r for r in mapping.eligible_replicas(ldns) if r.address not in members),
        key=lambda r: mapping.network.base_rtt_ms(ldns, r.host),
    )
    dropped, pool[0] = pool[0], farthest
    problems = check_candidate_pool(mapping, ldns)
    assert any(dropped.address in p and "left out" in p for p in problems)
    del pool[0]
    assert any("expected" in p for p in check_candidate_pool(mapping, ldns))
    mapping.invalidate()
    mapping.deployment.retire(mapping.candidate_pool(ldns)[0].address)
    assert any("active deployment" in p for p in check_candidate_pool(mapping, ldns))

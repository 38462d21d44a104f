"""The snapshot store and probing-window snapshot reuse."""

import pickle
import sys
import types

import pytest

from repro.check.invariants import check_snapshot_restore, default_registry
from repro.exec import SnapshotStore
from repro.exec.snapshots import (
    SnapshotCorruptError,
    WindowSnapshot,
    events_schedule,
    rounds_schedule,
    window_key,
)
from repro.obs import Observability, observed
from repro.obs.manifest import fingerprint_params
from repro.workloads.scenario import Scenario, ScenarioParams, driven_scenario

TINY = ScenarioParams(seed=42, dns_servers=10, planetlab_nodes=6, build_meridian=False)
TINY_FP = fingerprint_params(TINY)


# -- the store ---------------------------------------------------------------


def test_store_counts_hits_and_misses():
    store = SnapshotStore()
    assert store.get("k") is None
    store.put("k", {"a": 1})
    assert store.get("k") == {"a": 1}
    assert (store.hits, store.misses, store.puts) == (1, 1, 1)
    assert "k" in store and len(store) == 1


def test_store_returns_fresh_copies():
    store = SnapshotStore()
    store.put("k", {"a": 1})
    first = store.get("k")
    first["a"] = 99
    assert store.get("k") == {"a": 1}


def test_get_or_compute_runs_once():
    store = SnapshotStore()
    calls = []

    def compute():
        calls.append(1)
        return [1, 2, 3]

    assert store.get_or_compute("k", compute) == [1, 2, 3]
    assert store.get_or_compute("k", compute) == [1, 2, 3]
    assert calls == [1]


def test_store_persists_to_disk(tmp_path):
    SnapshotStore(directory=tmp_path).put("k", "payload")
    fresh = SnapshotStore(directory=tmp_path)
    assert fresh.get("k") == "payload"
    assert fresh.hits == 1


def test_key_for_is_stable_and_injective_enough():
    key = SnapshotStore.key_for("closest-outcome", "abc123", 24, 10.0)
    assert key == SnapshotStore.key_for("closest-outcome", "abc123", 24, 10.0)
    assert key != SnapshotStore.key_for("closest-outcome", "abc123", 25, 10.0)


# -- probe-trace snapshots ---------------------------------------------------


def test_driven_scenario_restores_identical_state():
    store = SnapshotStore()
    first = driven_scenario(TINY, rounds=6, store=store)
    second = driven_scenario(TINY, rounds=6, store=store)
    assert store.hits == 1 and store.misses == 1
    assert second.clock.now == first.clock.now
    assert second.crp.probes_issued == first.crp.probes_issued
    # The restored service answers positioning queries identically.
    for client in first.client_names:
        a = first.crp.position(client, first.candidate_names)
        b = second.crp.position(client, second.candidate_names)
        assert [r.name for r in a.top(5)] == [r.name for r in b.top(5)]


def test_driven_scenario_equals_fresh_drive():
    cold = driven_scenario(TINY, rounds=6)
    store = SnapshotStore()
    driven_scenario(TINY, rounds=6, store=store)
    warm = driven_scenario(TINY, rounds=6, store=store)
    maps_cold = cold.crp.ratio_maps(cold.client_names)
    maps_warm = warm.crp.ratio_maps(warm.client_names)
    assert {n: repr(m) for n, m in maps_cold.items()} == {
        n: repr(m) for n, m in maps_warm.items()
    }


def test_params_change_misses_the_cache():
    store = SnapshotStore()
    driven_scenario(TINY, rounds=6, store=store)
    import dataclasses

    other = dataclasses.replace(TINY, seed=43)
    driven_scenario(other, rounds=6, store=store)
    driven_scenario(TINY, rounds=8, store=store)
    assert store.hits == 0 and store.misses == 3
    # The params change forces a full re-simulation; the rounds change
    # does not — it prefix-extends the cached 6-round window by 2.
    assert store.full_runs == 2
    assert store.prefix_hits == 1
    assert (store.rounds_saved, store.rounds_extended) == (6, 6 + 6 + 2)
    schedule = rounds_schedule(6, 10.0)
    assert window_key(TINY_FP, schedule) != window_key(
        fingerprint_params(other), schedule
    )


def _drive_rounds(scenario):
    scenario.run_probe_rounds(2)
    return rounds_schedule(2, 10.0), rounds_schedule(3, 10.0), None


def _drive_events(scenario):
    loop = scenario.run_events(scenario.dense_workload(2))
    stats = loop.stats().as_dict()
    until = scenario.clock.now
    return events_schedule("lattice:r2:i10", until), events_schedule(
        "lattice:r3:i10", until
    ), stats


@pytest.mark.parametrize(
    "drive", [_drive_rounds, _drive_events], ids=["rounds", "events"]
)
def test_window_snapshot_roundtrip(drive):
    """One snapshot type serves both schedule kinds: the key names the
    window (guarding collisions), a store round-trip keeps every field,
    and the restored scenario is at the captured state."""
    scenario = Scenario(TINY)
    schedule, other_schedule, stats = drive(scenario)
    snapshot = WindowSnapshot.capture(scenario, schedule, stats)
    assert snapshot.key == window_key(TINY_FP, schedule)
    assert snapshot.key != window_key(TINY_FP, other_schedule)
    store = SnapshotStore()
    store.put(snapshot.key, snapshot)
    stored = store.get(snapshot.key)
    assert stored == snapshot and stored.stats == (stats or {})
    restored = stored.restore()
    assert restored.clock.now == scenario.clock.now == snapshot.sim_now
    assert restored.crp.probes_issued == scenario.crp.probes_issued
    assert check_snapshot_restore(scenario, restored) == []


# -- the restore invariant ---------------------------------------------------


def test_snapshot_restore_invariant_passes():
    store = SnapshotStore()
    original = driven_scenario(TINY, rounds=6, store=store)
    restored = driven_scenario(TINY, rounds=6, store=store)
    assert check_snapshot_restore(original, restored) == []
    registry = default_registry()
    assert "snapshot_restore" in registry
    assert registry.check("snapshot_restore", "tiny", original, restored) == []


def test_snapshot_restore_invariant_catches_drift():
    store = SnapshotStore()
    original = driven_scenario(TINY, rounds=6, store=store)
    restored = driven_scenario(TINY, rounds=6, store=store)
    restored.clock.advance_minutes(10.0)
    restored.crp.probe_all()
    problems = check_snapshot_restore(original, restored)
    assert problems, "drifted restore must be flagged"


def test_snapshot_restore_mismatch_raises():
    store = SnapshotStore()
    key = window_key(TINY_FP, rounds_schedule(6, 10.0))
    scenario = Scenario(TINY)
    scenario.run_probe_rounds(2)
    store.put(key, WindowSnapshot.capture(scenario, rounds_schedule(2, 10.0)))
    with pytest.raises(ValueError) as excinfo:
        driven_scenario(TINY, rounds=6, store=store)
    # Triage-ready: the fingerprint and both schedules are named.
    message = str(excinfo.value)
    assert TINY_FP in message
    assert "r2:i10" in message and "r6:i10" in message


# -- damaged state on disk ---------------------------------------------------


def test_truncated_payload_raises_typed_error_naming_the_key(tmp_path):
    driven_scenario(TINY, rounds=3, store=SnapshotStore(directory=tmp_path))
    key = window_key(TINY_FP, rounds_schedule(3, 10.0))
    (payload_path,) = tmp_path.glob("*.pkl")
    payload_path.write_bytes(payload_path.read_bytes()[:100])
    obs = Observability()
    with observed(obs):
        store = SnapshotStore(directory=tmp_path)
        with pytest.raises(SnapshotCorruptError) as excinfo:
            driven_scenario(TINY, rounds=3, store=store)
    assert excinfo.value.key == key and key in str(excinfo.value)
    assert isinstance(excinfo.value.__cause__, Exception)
    assert obs.metrics.counter("snapshot.corrupt").value == 1
    assert store.hits == 0  # a payload that cannot be read is not a hit


def test_sidecar_naming_a_garbage_payload_raises_from_best_prefix(tmp_path):
    """A fresh process discovers prefixes through ``.key`` sidecars; one
    whose payload is garbage must fail loudly, not re-simulate."""
    key = window_key(TINY_FP, rounds_schedule(3, 10.0))
    writer = SnapshotStore(directory=tmp_path)
    writer.put(key, "placeholder")
    (payload_path,) = tmp_path.glob("*.pkl")
    payload_path.write_bytes(b"not a pickle at all")
    obs = Observability()
    with observed(obs):
        store = SnapshotStore(directory=tmp_path)
        with pytest.raises(SnapshotCorruptError) as excinfo:
            driven_scenario(TINY, rounds=6, store=store)
    assert excinfo.value.key == key
    assert obs.metrics.counter("snapshot.corrupt").value == 1
    assert (store.prefix_hits, store.full_runs) == (0, 0)


def test_window_payload_from_another_code_version_is_corrupt():
    """``restore()`` meets a pickle whose class no longer imports."""
    module = types.ModuleType("repro_removed_code_version")
    removed = type("Removed", (), {"__module__": module.__name__})
    module.Removed = removed
    sys.modules[module.__name__] = module
    try:
        foreign = pickle.dumps(removed())
    finally:
        del sys.modules[module.__name__]
    snapshot = WindowSnapshot(
        TINY_FP, rounds_schedule(2, 10.0), sim_now=0.0, probes_issued=0, payload=foreign
    )
    with pytest.raises(SnapshotCorruptError) as excinfo:
        snapshot.restore()
    assert excinfo.value.key == snapshot.key
    assert isinstance(excinfo.value.__cause__, ImportError)

"""Invariant registry: cheap, registrable predicates over live objects.

An *invariant* here is a function that inspects one live object (plus
whatever context it needs — the current simulated time, the maps a
result was computed from) and returns a list of human-readable problem
strings, empty when the object is healthy.  The registry gives each a
name, runs it on demand, and emits every problem as a
``check.violation`` trace event through :mod:`repro.obs`, so a run's
manifest records that it was checked (and what failed).

The built-ins cover the objects whose correctness the positioning
machinery leans on hardest:

``ratio_map``
    Ratios strictly positive, summing to one, with the cached norm
    matching a recomputation.
``tracker``
    The observation log is time-ordered, the change counter is
    consistent with ingests minus drops, and the bound is respected.
``engine``
    The packed CSR view agrees *exactly* with the scalar ratio maps it
    packs: row contents, vocabulary columns, cached norms, name/row
    bijection.
``ttl_cache``
    The cache never serves an expired record, and the read path and
    the purge path classify every entry identically at any instant —
    including exactly at ``expires_at``.
``service_health``
    Per-node health bookkeeping is internally consistent (quarantine
    timestamps exactly when quarantined, recovery counters bounded by
    quarantine counters).
``health_transitions``
    A trace of ``health.transition`` events only contains legal moves
    of the healthy → degraded → quarantined machine.
``smf_result``
    SMF post-conditions: every member's similarity to its center
    exceeds the threshold, clusters are disjoint and at least pairs,
    and every input node is accounted for exactly once.
``snapshot_restore``
    A scenario restored from a probe-trace snapshot matches the
    original: params, simulated time, probe accounting, node sets, and
    per-node tracker logs — and the restored trackers themselves pass
    ``tracker``.
``ann_index``
    A sketch index agrees with the population it listens to: same
    membership, name/row bijection intact, every stored sketch equal
    to a recomputation from the live ratio map, and every bucket
    table's entries consistent with the rows' own keys.
``candidate_pool``
    A resolver's candidate pool is what a brute-force sort of its
    eligible replicas gives: the right size, nearest first, nobody
    left out who is strictly nearer than a member, and no retired or
    ISP-ineligible replica in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.cdn.mapping import MappingSystem
from repro.core.clustering import ClusteringResult, SmfParams
from repro.core.engine import PackedPopulation
from repro.core.ratio_map import RatioMap
from repro.core.service import CRPService, NodeState
from repro.core.similarity import similarity
from repro.core.tracker import RedirectionTracker
from repro.dnssim.cache import TtlCache
from repro.netsim.topology import Host
from repro.obs import Observability, get_observability
from repro.obs.trace import TraceEvent

#: Slack allowed when re-summing ratios (the constructor renormalises
#: exactly; only float accumulation order can move the sum).
_SUM_TOLERANCE = 1e-9

#: Slack allowed between a cached norm and its recomputation.
_NORM_TOLERANCE = 1e-12

#: The legal moves of the service's health state machine.
_LEGAL_TRANSITIONS = frozenset(
    {
        (NodeState.HEALTHY.value, NodeState.DEGRADED.value),
        (NodeState.HEALTHY.value, NodeState.QUARANTINED.value),
        (NodeState.DEGRADED.value, NodeState.QUARANTINED.value),
        (NodeState.DEGRADED.value, NodeState.HEALTHY.value),
        (NodeState.QUARANTINED.value, NodeState.HEALTHY.value),
    }
)


@dataclass(frozen=True)
class Violation:
    """One failed invariant on one subject."""

    invariant: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.subject}: {self.detail}"


#: An invariant implementation: object (plus context) → problem strings.
CheckFn = Callable[..., List[str]]


class InvariantRegistry:
    """Named invariants, checkable on demand.

    ``check`` runs one invariant on one subject and returns the
    violations found; every violation is also emitted as a
    ``check.violation`` trace event (and counted on the
    ``check.violations`` metric) through the active or supplied
    :class:`~repro.obs.Observability`.
    """

    def __init__(self) -> None:
        self._checks: Dict[str, CheckFn] = {}

    def register(self, name: str, check: CheckFn) -> None:
        """Add an invariant (ValueError on a duplicate name)."""
        if name in self._checks:
            raise ValueError(f"invariant {name!r} already registered")
        self._checks[name] = check

    def names(self) -> Tuple[str, ...]:
        """Registered invariant names, sorted."""
        return tuple(sorted(self._checks))

    def __contains__(self, name: str) -> bool:
        return name in self._checks

    def check(
        self,
        name: str,
        subject: str,
        *args: object,
        now: float = 0.0,
        obs: Optional[Observability] = None,
        **kwargs: object,
    ) -> List[Violation]:
        """Run one invariant; returns (and traces) its violations.

        ``subject`` labels what was checked (a node name, ``"cache"``,
        …); ``now`` timestamps the trace events; the remaining
        arguments go to the invariant function.
        """
        try:
            check = self._checks[name]
        except KeyError:
            raise KeyError(f"no invariant named {name!r}") from None
        problems = check(*args, **kwargs)
        obs = obs if obs is not None else get_observability()
        violations = [Violation(name, subject, problem) for problem in problems]
        for violation in violations:
            obs.metrics.counter("check.violations", invariant=name).inc()
            obs.trace.emit(
                "check.violation", now, subject,
                invariant=name, detail=violation.detail,
            )
        return violations


# -- built-in invariants ----------------------------------------------------


def check_ratio_map(ratio_map: RatioMap) -> List[str]:
    """Ratios positive and normalised; cached norm matches."""
    problems: List[str] = []
    if len(ratio_map) == 0:
        return ["ratio map has no entries"]
    total = 0.0
    for replica, ratio in ratio_map.items():
        if not ratio > 0.0:
            problems.append(f"ratio for {replica!r} is {ratio}, not positive")
        total += ratio
    if abs(total - 1.0) > _SUM_TOLERANCE:
        problems.append(f"ratios sum to {total!r}, not 1")
    norm = math.sqrt(sum(v * v for v in ratio_map.values()))
    if abs(norm - ratio_map.norm) > _NORM_TOLERANCE:
        problems.append(f"cached norm {ratio_map.norm!r} != recomputed {norm!r}")
    return problems


def check_tracker(tracker: RedirectionTracker) -> List[str]:
    """Log monotonic in time; version counter consistent with ingests."""
    problems: List[str] = []
    log = tracker.observations
    for previous, current in zip(log, log[1:]):
        if current.at < previous.at:
            problems.append(
                f"log out of order: {current.at} after {previous.at}"
            )
            break
    expected_version = len(log) + tracker.observations_dropped
    if tracker.version != expected_version:
        problems.append(
            f"version {tracker.version} != retained {len(log)} "
            f"+ dropped {tracker.observations_dropped}"
        )
    if (
        tracker.max_observations is not None
        and len(log) > tracker.max_observations
    ):
        problems.append(
            f"log holds {len(log)} observations, bound is {tracker.max_observations}"
        )
    return problems


def check_engine(population: PackedPopulation) -> List[str]:
    """The packed CSR view agrees exactly with its scalar ratio maps."""
    problems: List[str] = []
    view = population._ensure_view()
    indptr = view.indptr
    if len(indptr) != len(view.names) + 1:
        return [f"indptr has {len(indptr)} boundaries for {len(view.names)} rows"]
    if indptr[0] != 0:
        problems.append(f"indptr starts at {indptr[0]}, not 0")
    if (view.lens < 0).any():
        problems.append("indptr is not non-decreasing")
    if len(view.maps) != len(view.names):
        problems.append(
            f"{len(view.maps)} maps packed for {len(view.names)} names"
        )
    if len(population) != len(view.names):
        problems.append(
            f"population reports {len(population)} rows, view has {len(view.names)}"
        )
    for name, row in view.row_of.items():
        if not (0 <= row < len(view.names)) or view.names[row] != name:
            problems.append(f"row_of[{name!r}] = {row} does not map back")
    replicas = population.vocab.replicas()
    width = len(replicas)
    for row, (name, ratio_map) in enumerate(zip(view.names, view.maps)):
        start, end = int(indptr[row]), int(indptr[row + 1])
        columns = view.indices[start:end]
        data = view.data[start:end]
        if len(columns) != len(ratio_map):
            problems.append(
                f"row {name!r} packs {len(columns)} entries, map has {len(ratio_map)}"
            )
            continue
        if len(set(columns.tolist())) != len(columns):
            problems.append(f"row {name!r} has duplicate columns")
            continue
        if len(columns) and (columns.min() < 0 or columns.max() >= width):
            problems.append(f"row {name!r} has columns outside the vocabulary")
            continue
        packed = {replicas[int(c)]: float(v) for c, v in zip(columns, data)}
        for replica, ratio in ratio_map.items():
            if packed.get(replica) != ratio:
                problems.append(
                    f"row {name!r} packs {replica!r} as "
                    f"{packed.get(replica)!r}, map has {ratio!r}"
                )
                break
        if view.norms[row] != ratio_map.norm:
            problems.append(
                f"row {name!r} caches norm {view.norms[row]!r}, "
                f"map has {ratio_map.norm!r}"
            )
    return problems


def check_ttl_cache(cache: TtlCache, now: float) -> List[str]:
    """The read path never serves an expired record, and agrees with
    the purge path about aliveness at any instant (boundary included)."""
    problems: List[str] = []
    if len(cache) > cache.max_entries:
        problems.append(
            f"cache holds {len(cache)} entries, bound is {cache.max_entries}"
        )
    for key, entry in cache.entries():
        name = key[0]
        if not entry.expires_at > entry.stored_at:
            problems.append(
                f"{name!r} expires at {entry.expires_at}, "
                f"stored at {entry.stored_at} (non-positive lifetime)"
            )
        # The documented boundary contract: dead at exactly expires_at.
        contract_alive = now < entry.expires_at
        served = cache.peek_entry(key, now) is not None
        purged = cache.would_purge(key, now)
        if served != contract_alive:
            problems.append(
                f"{name!r} at t={now}: read path serves={served}, "
                f"contract says alive={contract_alive}"
            )
        if purged == served:
            problems.append(
                f"{name!r} at t={now}: read path serves={served} "
                f"but purge path drops={purged} — paths disagree"
            )
        if served:
            records = cache.peek_entry(key, now)
            if any(r.ttl <= 0 for r in records):
                problems.append(f"{name!r} served with non-positive remaining TTL")
    return problems


def check_service_health(service: CRPService) -> List[str]:
    """Per-node health bookkeeping is internally consistent."""
    problems: List[str] = []
    for node in service.nodes:
        health = service.health(node)
        if health.state is NodeState.QUARANTINED:
            if health.quarantined_at is None or health.quarantined_round is None:
                problems.append(
                    f"{node}: quarantined without quarantine timestamp/round"
                )
        elif health.quarantined_at is not None or health.quarantined_round is not None:
            problems.append(
                f"{node}: {health.state.value} but carries quarantine bookkeeping"
            )
        if health.recoveries > health.quarantines:
            problems.append(
                f"{node}: {health.recoveries} recoveries from "
                f"{health.quarantines} quarantines"
            )
        if health.consecutive_failed_rounds < 0:
            problems.append(f"{node}: negative failed-round counter")
    return problems


def check_health_transitions(events: Iterable[TraceEvent]) -> List[str]:
    """A trace of ``health.transition`` events only takes legal moves."""
    problems: List[str] = []
    for event in events:
        if event.kind != "health.transition":
            continue
        src = event.get("src")
        dst = event.get("dst")
        if (src, dst) not in _LEGAL_TRANSITIONS:
            problems.append(
                f"{event.subject}: illegal transition {src} -> {dst} at t={event.ts}"
            )
    return problems


def check_smf_result(
    result: ClusteringResult,
    maps: Mapping[str, Optional[RatioMap]],
    params: Optional[SmfParams] = None,
) -> List[str]:
    """SMF post-conditions over a finished clustering.

    Every member of every cluster is similar enough to its center
    (strictly above the threshold, the join rule), clusters are
    disjoint with at least two members each, and clustered plus
    unclustered is exactly the input population.
    """
    problems: List[str] = []
    if params is None:
        params = result.params
    seen: Dict[str, str] = {}
    for cluster in result.clusters:
        if cluster.size < 2:
            problems.append(f"cluster {cluster.center!r} has size {cluster.size}")
        if cluster.center not in cluster.members:
            problems.append(f"cluster {cluster.center!r} does not contain its center")
        if len(set(cluster.members)) != len(cluster.members):
            problems.append(f"cluster {cluster.center!r} repeats a member")
        for member in cluster.members:
            if member in seen:
                problems.append(
                    f"{member!r} appears in clusters {seen[member]!r} "
                    f"and {cluster.center!r}"
                )
            seen[member] = cluster.center
        if params is None:
            continue
        center_map = maps.get(cluster.center)
        if center_map is None:
            problems.append(f"cluster center {cluster.center!r} has no ratio map")
            continue
        for member in cluster.members:
            if member == cluster.center:
                continue
            member_map = maps.get(member)
            if member_map is None:
                problems.append(f"member {member!r} has no ratio map")
                continue
            score = similarity(member_map, center_map, params.metric)
            if not score > params.threshold:
                problems.append(
                    f"{member!r} joined {cluster.center!r} at similarity "
                    f"{score!r}, threshold {params.threshold}"
                )
    accounted = set(seen) | set(result.unclustered)
    population = set(maps)
    if accounted != population:
        missing = sorted(population - accounted)
        extra = sorted(accounted - population)
        if missing:
            problems.append(f"nodes unaccounted for: {missing[:5]}")
        if extra:
            problems.append(f"unknown nodes in result: {extra[:5]}")
    overlap = set(seen) & set(result.unclustered)
    if overlap:
        problems.append(f"nodes both clustered and unclustered: {sorted(overlap)[:5]}")
    if result.total_nodes != len(maps):
        problems.append(
            f"total_nodes {result.total_nodes} != population {len(maps)}"
        )
    return problems


def check_snapshot_restore(original: object, restored: object) -> List[str]:
    """A restored probe-trace snapshot equals the scenario it captured.

    ``original``/``restored`` are
    :class:`~repro.workloads.scenario.Scenario` objects (typed loosely
    to keep this module import-light).  Checks identity (params repr),
    simulated time, probe accounting, node membership, and per-node
    tracker state — and re-runs :func:`check_tracker` on every restored
    tracker, so a restore that resurrects a corrupt log is caught even
    when it matches the (equally corrupt) original.
    """
    problems: List[str] = []
    if repr(original.params) != repr(restored.params):
        problems.append("restored params repr differs from original")
    if original.clock.now != restored.clock.now:
        problems.append(
            f"restored clock at {restored.clock.now}, original {original.clock.now}"
        )
    if original.crp.probes_issued != restored.crp.probes_issued:
        problems.append(
            f"restored probes_issued {restored.crp.probes_issued} "
            f"!= original {original.crp.probes_issued}"
        )
    original_nodes = set(original.crp.nodes)
    restored_nodes = set(restored.crp.nodes)
    if original_nodes != restored_nodes:
        problems.append(
            f"node sets differ: {sorted(original_nodes ^ restored_nodes)[:5]}"
        )
        return problems
    for node in sorted(original_nodes):
        a = original.crp.tracker(node)
        b = restored.crp.tracker(node)
        if a.version != b.version:
            problems.append(
                f"{node}: tracker version {b.version} != original {a.version}"
            )
        if len(a.observations) != len(b.observations):
            problems.append(
                f"{node}: {len(b.observations)} observations "
                f"!= original {len(a.observations)}"
            )
        elif a.observations != b.observations:
            problems.append(f"{node}: observation log contents differ")
        for problem in check_tracker(b):
            problems.append(f"{node} (restored): {problem}")
    return problems


def check_event_loop(loop: object) -> List[str]:
    """A finished event loop terminated cleanly and dispatched in order.

    ``loop`` is a :class:`~repro.sim.loop.EventLoop` (typed loosely to
    keep this module import-light).  Checks monotone dispatch keys
    (time, then priority, then schedule order — the loop records the
    first regression it ever observes), empty-heap termination, the
    scheduling ledger (scheduled = dispatched + still-queued, with
    out-of-horizon events suppressed rather than queued), and that the
    clock landed on the horizon.
    """
    problems: List[str] = []
    if loop.order_violation is not None:
        problems.append(loop.order_violation)
    if loop.finished and len(loop) != 0:
        problems.append(
            f"finished loop still holds {len(loop)} queued events"
        )
    if loop.scheduled != loop.dispatched + len(loop):
        problems.append(
            f"scheduling ledger broken: {loop.scheduled} scheduled != "
            f"{loop.dispatched} dispatched + {len(loop)} queued"
        )
    by_kind_total = sum(loop.dispatched_by_kind.values())
    if by_kind_total != loop.dispatched:
        problems.append(
            f"per-kind dispatch counts sum to {by_kind_total}, "
            f"not {loop.dispatched}"
        )
    if loop.max_heap_depth < len(loop):
        problems.append(
            f"max heap depth {loop.max_heap_depth} below current "
            f"depth {len(loop)}"
        )
    if loop.finished and loop.clock.now < loop.horizon_s:
        problems.append(
            f"finished loop left the clock at {loop.clock.now}, "
            f"short of the horizon {loop.horizon_s}"
        )
    if loop.last_dispatched_key is not None:
        at = loop.last_dispatched_key[0]
        if at >= loop.horizon_s:
            problems.append(
                f"dispatched an event at {at}, past the horizon "
                f"{loop.horizon_s}"
            )
    return problems


def check_ann_index(index: object, population: PackedPopulation) -> List[str]:
    """A sketch index is internally consistent and in sync with its
    population.

    ``index`` is a :class:`~repro.core.ann.SketchIndex` (typed loosely
    to keep this module import-light).  Checks the name/row bijection,
    membership equality with the population, stored-sketch equality
    with a fresh recomputation from each live ratio map (so a listener
    bug or a botched swap-removal repair shows up no matter how the
    index got here), and bucket-table consistency: every bucket entry
    points at a live row whose own key selects that bucket, and the
    tables together hold exactly ``tables × rows`` entries.
    """
    problems: List[str] = []
    names = index._names
    row_of = index._row_of
    if len(row_of) != len(names):
        problems.append(
            f"{len(row_of)} row mappings for {len(names)} names"
        )
    for name, row in row_of.items():
        if not (0 <= row < len(names)) or names[row] != name:
            problems.append(f"row_of[{name!r}] = {row} does not map back")
    view = population._ensure_view()
    if set(names) != set(view.names):
        drift = sorted(set(names) ^ set(view.names))
        problems.append(f"membership differs from population: {drift[:5]}")
        return problems
    maps = dict(zip(view.names, view.maps))
    for name, row in row_of.items():
        fresh = index.sketch(maps[name])
        if not (index._rows[row] == fresh).all():
            problems.append(f"stored sketch for {name!r} != recomputation")
    total_entries = 0
    for table_index, table in enumerate(index._buckets):
        for key, members in table.items():
            total_entries += len(members)
            if len(set(members)) != len(members):
                problems.append(
                    f"table {table_index} bucket {key:#x} repeats a row"
                )
            for row in members:
                if not 0 <= row < len(names):
                    problems.append(
                        f"table {table_index} bucket {key:#x} holds "
                        f"dead row {row}"
                    )
                    continue
                expected = index._keys_of(index._rows[row])[table_index]
                if expected != key:
                    problems.append(
                        f"{names[row]!r} filed under table {table_index} "
                        f"bucket {key:#x}, its key is {expected:#x}"
                    )
    expected_entries = len(index._buckets) * len(names)
    if total_entries != expected_entries:
        problems.append(
            f"bucket tables hold {total_entries} entries, "
            f"expected {expected_entries}"
        )
    return problems


def check_candidate_pool(mapping: MappingSystem, ldns: Host) -> List[str]:
    """A resolver's candidate pool against a brute-force recomputation."""
    problems: List[str] = []
    pool = mapping.candidate_pool(ldns)
    eligible = mapping.eligible_replicas(ldns)
    expected = min(mapping.params.candidate_pool_size, len(eligible))
    if len(pool) != expected:
        problems.append(f"pool holds {len(pool)} replicas, expected {expected}")
    providers = mapping.network.topology.registry.transit_providers_of(ldns.asn)
    for replica in pool:
        if not mapping.deployment.knows_address(replica.address):
            problems.append(f"{replica.address} is not in the active deployment")
        if replica.isp_restricted and replica.host.asn not in providers:
            problems.append(f"{replica.address} is restricted to an ISP {ldns} is not in")
    base = mapping.network.base_rtts_ms(ldns, [r.host for r in pool])
    if base != sorted(base):
        problems.append(f"pool is not sorted by base RTT: {base}")
    members = {r.address for r in pool}
    outside = [r for r in eligible if r.address not in members]
    for replica, rtt in zip(outside, mapping.network.base_rtts_ms(ldns, [r.host for r in outside])):
        if base and rtt < base[-1]:
            problems.append(
                f"{replica.address} at {rtt} ms is left out of a pool reaching {base[-1]} ms"
            )
    return problems


def default_registry() -> InvariantRegistry:
    """A fresh registry with every built-in invariant registered."""
    registry = InvariantRegistry()
    registry.register("ratio_map", check_ratio_map)
    registry.register("tracker", check_tracker)
    registry.register("engine", check_engine)
    registry.register("ttl_cache", check_ttl_cache)
    registry.register("service_health", check_service_health)
    registry.register("health_transitions", check_health_transitions)
    registry.register("smf_result", check_smf_result)
    registry.register("snapshot_restore", check_snapshot_restore)
    registry.register("event_loop", check_event_loop)
    registry.register("ann_index", check_ann_index)
    registry.register("candidate_pool", check_candidate_pool)
    return registry

"""The CRP service facade.

Ties the pipeline together for callers: register nodes (each with the
recursive resolver that defines its network identity), probe CDN names
periodically or feed passive observations, then ask positioning
questions — rank candidate servers for a client, or cluster the node
population.

The service keeps per-(node, name) history in
:class:`~repro.core.tracker.RedirectionTracker` objects and builds
ratio maps over the configured window on demand.  It is deliberately
O(1) per node per probe round: no pairwise measurements anywhere —
that is the paper's core scalability claim.

Derived ratio maps are cached per (node, window) against the tracker's
change counter, so repeated positioning queries between probe rounds
hand the *same* :class:`~repro.core.ratio_map.RatioMap` objects to the
ranking path — which lets the vectorized engine
(:mod:`repro.core.engine`) reuse one packed candidate population for
every client instead of repacking per query.

Resilience (the degradation story the paper's Meridian comparison
motivates) is layered on without touching the happy path:

* A :class:`ProbePolicy` adds sim-time retry with exponential backoff
  and a per-round deadline budget to active probing.
* Each active node carries a :class:`NodeHealth` state machine
  (healthy → degraded → quarantined); quarantined nodes drop out of
  the regular probe rotation and receive periodic recovery probes that
  bring them back the moment their resolver answers again.
* :meth:`CRPService.position` answers positioning questions with
  staleness and confidence metadata — falling back to the last good
  ratio map when a node's window has gone dark — instead of silently
  returning an empty ranking.

The default :class:`ProbePolicy` keeps all of this inert (single
attempt, no quarantine), so existing experiments are bit-identical;
:meth:`ProbePolicy.resilient` is the operating point chaos experiments
use.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.ann import AnnParams
from repro.core.clustering import ClusteringResult, SmfParams, smf_cluster
from repro.core.engine import PackedPopulation, packed_for
from repro.core.ratio_map import RatioMap
from repro.core.selection import RankedCandidate, rank_packed
from repro.core.similarity import SimilarityMetric
from repro.core.tracker import Observation, RedirectionTracker
from repro.dnssim.resolver import RecursiveResolver, ResolutionError
from repro.netsim.clock import SimClock
from repro.obs import Observability, get_observability


class UnknownNodeError(KeyError):
    """A service call named a node that is not registered.

    Subclasses :class:`KeyError` so callers that guarded the old bare
    ``KeyError`` keep working, but the message now names the node.
    """

    def __init__(self, node: str) -> None:
        super().__init__(node)
        self.node = node

    def __str__(self) -> str:
        return f"node {self.node!r} is not registered with this CRP service"


class NodeState(str, Enum):
    """Health of an actively probed node."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    QUARANTINED = "quarantined"


@dataclass
class NodeHealth:
    """One node's probe-health bookkeeping (see :class:`ProbePolicy`)."""

    state: NodeState = NodeState.HEALTHY
    #: Consecutive probe rounds in which *every* lookup failed.
    consecutive_failed_rounds: int = 0
    last_success_at: Optional[float] = None
    quarantined_at: Optional[float] = None
    #: Round index at which the node entered quarantine.
    quarantined_round: Optional[int] = None
    quarantines: int = 0
    recoveries: int = 0


@dataclass(frozen=True)
class ProbePolicy:
    """Retry, backoff and health-transition rules for active probing.

    The default policy reproduces the legacy behaviour exactly: one
    attempt per lookup, failures counted and skipped, no quarantine.
    Retries advance the *simulated* clock by the backoff delay — a real
    client waits out its timeout — bounded per probe round by
    ``round_deadline_s`` so a wedged resolver cannot stall the round.
    """

    #: Lookup attempts per customer name per round (1 = no retries).
    max_attempts: int = 1
    #: First retry backoff, simulated seconds.
    backoff_base_s: float = 2.0
    #: Backoff multiplier per further retry.
    backoff_multiplier: float = 2.0
    #: Total backoff budget per probe round per node (None = unbounded).
    round_deadline_s: Optional[float] = 30.0
    #: Consecutive fully-failed rounds before a node counts as degraded
    #: (None disables the transition).
    degraded_after: Optional[int] = 2
    #: Consecutive fully-failed rounds before quarantine (None disables
    #: quarantine entirely — the legacy default).
    quarantine_after: Optional[int] = None
    #: While quarantined, the node gets one recovery probe every this
    #: many rounds instead of the full per-name probe.
    recovery_interval_rounds: int = 3
    #: A map older than this counts as stale in positioning answers.
    stale_after_s: float = 3600.0
    #: Serve the last good ratio map (marked stale) when a node's
    #: current window is empty.
    stale_fallback: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s cannot be negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be at least 1")
        if self.round_deadline_s is not None and self.round_deadline_s < 0:
            raise ValueError("round_deadline_s cannot be negative")
        for name in ("degraded_after", "quarantine_after"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1 (or None)")
        if (
            self.degraded_after is not None
            and self.quarantine_after is not None
            and self.quarantine_after < self.degraded_after
        ):
            raise ValueError("quarantine_after cannot come before degraded_after")
        if self.recovery_interval_rounds < 1:
            raise ValueError("recovery_interval_rounds must be at least 1")
        if self.stale_after_s <= 0:
            raise ValueError("stale_after_s must be positive")

    @classmethod
    def resilient(cls) -> "ProbePolicy":
        """The chaos-experiment operating point: retries on, health
        machine armed."""
        return cls(
            max_attempts=3,
            backoff_base_s=2.0,
            backoff_multiplier=2.0,
            round_deadline_s=30.0,
            degraded_after=2,
            quarantine_after=4,
            recovery_interval_rounds=3,
        )


#: Confidence weight per health state (see :meth:`CRPService.position`).
_STATE_CONFIDENCE = {
    NodeState.HEALTHY: 1.0,
    NodeState.DEGRADED: 0.7,
    NodeState.QUARANTINED: 0.4,
}

#: Confidence multiplier applied to stale answers.
_STALE_CONFIDENCE = 0.5

#: Sentinel marking the tracked-candidate population as not yet built
#: for any window (``None`` is a real window value, so it cannot serve).
_NO_WINDOW = object()


@dataclass(frozen=True)
class PositioningAnswer:
    """A ranking plus the metadata that says how much to trust it.

    ``confidence`` composes the client's health state with map
    freshness: 1.0 is a healthy client ranked from a fresh window;
    a quarantined client answered from a stale fallback map bottoms
    out at 0.2; no map at all is 0.0 (and an empty ranking).
    """

    client: str
    ranked: Tuple[RankedCandidate, ...]
    #: True when the map is older than the policy's staleness horizon
    #: or was served from the last-good fallback.
    stale: bool
    #: [0, 1] — see class docstring.
    confidence: float
    #: Age of the newest observation behind the map (None = no map).
    map_age_s: Optional[float]
    client_state: NodeState

    @property
    def answerable(self) -> bool:
        """False when the service had nothing at all to rank with."""
        return bool(self.ranked)

    def top(self, k: int) -> Tuple[RankedCandidate, ...]:
        """The best ``k`` candidates."""
        return self.ranked[:k]


@dataclass(frozen=True)
class CRPServiceParams:
    """Service-level defaults (the paper's operating point)."""

    #: Names to probe (the paper hand-picked two Akamai-accelerated
    #: names: a Yahoo image server and www.foxnews.com).
    customer_names: Tuple[str, ...] = ()
    #: Ratio-map window in probes; None = use the full history
    #: ("all probes").  Figure 9: 10 probes suffice.
    window_probes: Optional[int] = 10
    #: Similarity metric for selection and clustering.
    metric: SimilarityMetric = SimilarityMetric.COSINE
    #: Probes needed before a node is considered positioned.
    bootstrap_min_probes: int = 1
    #: Retry/backoff/health policy for active probing.
    probe_policy: ProbePolicy = ProbePolicy()
    #: Per-node observation-log bound handed to each tracker (None =
    #: unbounded, the batch default).  A long-running service sets this
    #: to its window size so per-client memory cannot grow with uptime;
    #: maps over windows ≤ the bound are unaffected by the trim.
    max_observations: Optional[int] = None
    #: Approximate-ranking configuration (:class:`repro.core.ann.AnnParams`).
    #: None — the default — keeps every ranking exact; set, it routes
    #: Top-K :meth:`CRPService.position` queries through the sketch
    #: index's shortlist + exact rerank (queries without a ``k`` stay
    #: exact either way).
    ann: Optional[AnnParams] = None

    def __post_init__(self) -> None:
        if not self.customer_names:
            raise ValueError("CRP needs at least one CDN customer name to probe")
        if self.window_probes is not None and self.window_probes < 1:
            raise ValueError("window_probes must be at least 1 (or None)")
        if self.max_observations is not None:
            if self.max_observations < 1:
                raise ValueError("max_observations must be at least 1 (or None)")
            if (
                self.window_probes is not None
                and self.max_observations < self.window_probes
            ):
                raise ValueError(
                    "max_observations cannot be smaller than window_probes"
                )


class CRPService:
    """A relative-network-positioning service for a set of nodes."""

    def __init__(
        self,
        clock: SimClock,
        params: CRPServiceParams,
        obs: Optional[Observability] = None,
    ) -> None:
        self.clock = clock
        self.params = params
        obs = obs if obs is not None else get_observability()
        self._obs = obs
        self._trace = obs.trace
        metrics = obs.metrics
        self._metrics = metrics
        self._m_probe_attempts = metrics.counter("crp.probe.attempts")
        self._m_probe_retries = metrics.counter("crp.probe.retries")
        self._m_probe_failures = metrics.counter("crp.probe.failures")
        self._m_probe_deadline = metrics.counter("crp.probe.deadline_hits")
        self._m_probe_rounds = metrics.counter("crp.probe.rounds")
        self._m_recovery_probes = metrics.counter("crp.probe.recoveries")
        self._m_observations = metrics.counter("crp.observations")
        self._m_map_cache_hits = metrics.counter("crp.map_cache.hits")
        self._m_map_cache_misses = metrics.counter("crp.map_cache.misses")
        self._m_position_queries = metrics.counter("crp.position.queries")
        self._m_position_stale = metrics.counter("crp.position.stale")
        self._m_position_fallbacks = metrics.counter("crp.position.fallbacks")
        self._resolvers: Dict[str, RecursiveResolver] = {}
        self._trackers: Dict[str, RedirectionTracker] = {}
        self._health: Dict[str, NodeHealth] = {}
        #: node → window → (tracker version, map).  Entries from
        #: superseded tracker versions are evicted the first time a
        #: newer version is seen, so ad-hoc window overrides cannot
        #: accumulate stale keys forever.
        self._map_cache: Dict[
            str, Dict[Optional[int], Tuple[int, Optional[RatioMap]]]
        ] = {}
        #: node → window → (observed-at, map): the last non-empty map,
        #: kept for stale-fallback positioning when a window goes dark.
        self._last_good: Dict[
            str, Dict[Optional[int], Tuple[float, RatioMap]]
        ] = {}
        #: Serving-path incremental engine state (see
        #: :meth:`track_candidates`): a long-lived packed population of
        #: the candidate set, updated in place through the engine's
        #: add/remove API instead of repacked per query.
        self._tracked_candidates: Optional[Tuple[str, ...]] = None
        self._tracked_set: frozenset = frozenset()
        self._candidate_population: Optional[PackedPopulation] = None
        self._candidate_rows: Dict[str, Optional[RatioMap]] = {}
        self._candidate_window: object = _NO_WINDOW
        self._candidate_dirty = True
        self._round_index = 0
        self.probes_issued = 0
        self.probe_failures = 0
        self.probe_retries = 0
        self.probe_deadline_hits = 0
        self.recovery_probes = 0
        self.stale_answers = 0
        #: Sim-seconds from quarantine entry to recovery, per recovery.
        self.recovery_times_s: List[float] = []
        #: Structural-change recovery (see :meth:`invalidate_windows`).
        self.window_invalidations = 0
        self.observations_invalidated = 0

    # -- membership --------------------------------------------------------

    def register_node(self, name: str, resolver: Optional[RecursiveResolver]) -> None:
        """Add a node; its resolver is what the CDN mapping sees.

        ``resolver=None`` registers a *passive-only* node: it can be
        fed with :meth:`observe` (browsing traffic, rewritten URLs) and
        positioned like any other, but :meth:`probe` refuses it and
        :meth:`probe_all` skips it.
        """
        if name in self._resolvers:
            raise ValueError(f"node {name!r} already registered")
        self._resolvers[name] = resolver
        self._trackers[name] = RedirectionTracker(
            name, max_observations=self.params.max_observations
        )
        self._health[name] = NodeHealth()

    def unregister_node(self, name: str) -> None:
        """Remove a node and its history (churn support)."""
        if name not in self._resolvers:
            raise UnknownNodeError(name)
        del self._resolvers[name]
        del self._trackers[name]
        del self._health[name]
        self._map_cache.pop(name, None)
        self._last_good.pop(name, None)
        if name in self._tracked_set:
            # A tracked candidate left the population: drop its engine
            # row and shrink the tracked set (callers passing the old
            # tuple fall back to the generic ranking path).
            if self._candidate_rows.pop(name, None) is not None:
                self._candidate_population.remove(name)
            self._tracked_candidates = tuple(
                n for n in self._tracked_candidates if n != name
            )
            self._tracked_set = frozenset(self._tracked_candidates)
            self._candidate_dirty = True

    def is_registered(self, name: str) -> bool:
        """O(1) membership check (``nodes`` sorts the full population —
        never call it on a per-request path)."""
        return name in self._resolvers

    @property
    def nodes(self) -> List[str]:
        """Registered node names, sorted."""
        return sorted(self._resolvers)

    @property
    def active_nodes(self) -> List[str]:
        """Probeable (non-passive) node names, sorted — the population
        :meth:`probe_all` walks and event workloads cover."""
        return [n for n in self.nodes if self._resolvers[n] is not None]

    def tracker(self, name: str) -> RedirectionTracker:
        """A node's redirection history."""
        try:
            return self._trackers[name]
        except KeyError:
            raise UnknownNodeError(name) from None

    # -- serving-path incremental engine ------------------------------------

    def track_candidates(self, names: Sequence[str]) -> None:
        """Keep a long-lived packed population of this candidate set.

        The serving layer's streaming entry point: once tracked,
        :meth:`position` calls naming exactly this candidate set skip
        per-query packing entirely — candidate map changes stream into
        one :class:`~repro.core.engine.PackedPopulation` through its
        add/remove API, and a query is a single matvec over it.  All
        names must already be registered.  Rankings are identical to
        the generic path (see :func:`~repro.core.selection.rank_packed`).
        """
        names = tuple(names)
        for name in names:
            if name not in self._resolvers:
                raise UnknownNodeError(name)
        self._tracked_candidates = names
        self._tracked_set = frozenset(names)
        self._candidate_population = PackedPopulation()
        self._candidate_rows = {}
        self._candidate_window = _NO_WINDOW
        self._candidate_dirty = True

    @property
    def tracked_candidates(self) -> Optional[Tuple[str, ...]]:
        """The candidate set under incremental tracking (None = off)."""
        return self._tracked_candidates

    @property
    def candidate_population(self) -> Optional[PackedPopulation]:
        """The live packed candidate population (None until tracked)."""
        return self._candidate_population

    def _packed_candidates(self, window_probes: Optional[int]) -> PackedPopulation:
        """The tracked population, refreshed for one window.

        Cheap when nothing moved: a dirty flag set by the ingest paths
        gates the refresh, so a burst of positioning queries between
        observations touches no candidate state at all.  On refresh,
        only candidates whose cached map *object* changed (the map
        cache is versioned, so object identity is change detection) are
        re-streamed through the engine's remove/add API.
        """
        if window_probes == -1:
            window_probes = self.params.window_probes
        population = self._candidate_population
        if not self._candidate_dirty and window_probes == self._candidate_window:
            return population
        rows = self._candidate_rows
        for name in self._tracked_candidates:
            current = self.ratio_map(name, window_probes=window_probes)
            previous = rows.get(name)
            if current is previous:
                continue
            if previous is not None:
                population.remove(name)
            if current is not None:
                population.add(name, current)
            rows[name] = current
        self._candidate_dirty = False
        self._candidate_window = window_probes
        return population

    # -- structural-change recovery ------------------------------------------

    def invalidate_windows(
        self,
        nodes: Optional[Iterable[str]] = None,
        before: Optional[float] = None,
    ) -> int:
        """Drop pre-change history so ratio maps rebuild from scratch.

        The recovery action for a detected CDN remap
        (:mod:`repro.core.change`): observations older than ``before``
        (default: now) describe a mapping that no longer exists, so
        instead of letting windows blend pre- and post-change
        redirections, each affected node's tracker log is truncated and
        its cached maps — including the last-good fallback maps, which
        would otherwise keep serving the old world — are dropped.
        Returns the number of observations discarded.
        """
        if before is None:
            before = self.clock.now
        if nodes is None:
            names = self.nodes
        else:
            names = list(nodes)
        dropped = 0
        for node in names:
            dropped += self.tracker(node).discard_before(before)
            self._map_cache.pop(node, None)
            self._last_good.pop(node, None)
        if self._tracked_set:
            self._candidate_dirty = True
        self.window_invalidations += 1
        self.observations_invalidated += dropped
        self._metrics.counter("crp.windows_invalidated").inc()
        self._trace.emit(
            "remap.recovery",
            self.clock.now,
            "crp-service",
            nodes=len(names),
            dropped=dropped,
            before=before,
        )
        return dropped

    # -- health ------------------------------------------------------------

    def health(self, name: str) -> NodeHealth:
        """A node's probe-health record."""
        try:
            return self._health[name]
        except KeyError:
            raise UnknownNodeError(name) from None

    def health_summary(self) -> Dict[str, int]:
        """Node counts per health state (active nodes only)."""
        counts = {state.value: 0 for state in NodeState}
        for name, health in self._health.items():
            if self._resolvers[name] is not None:
                counts[health.state.value] += 1
        return counts

    def quarantined_nodes(self) -> List[str]:
        """Names currently quarantined, sorted."""
        return sorted(
            name
            for name, health in self._health.items()
            if health.state is NodeState.QUARANTINED
        )

    def _transition(self, node: str, health: NodeHealth, to_state: NodeState) -> None:
        """Move a node's health state, recording the transition."""
        from_state = health.state
        if from_state is to_state:
            return
        health.state = to_state
        self._metrics.counter(
            "crp.health.transitions", src=from_state.value, dst=to_state.value
        ).inc()
        self._trace.emit(
            "health.transition",
            self.clock.now,
            node,
            src=from_state.value,
            dst=to_state.value,
        )

    def _record_round_outcome(self, node: str, succeeded: bool) -> None:
        """Advance the health state machine after one probe round."""
        health = self._health[node]
        policy = self.params.probe_policy
        now = self.clock.now
        if succeeded:
            if health.state is NodeState.QUARANTINED:
                health.recoveries += 1
                if health.quarantined_at is not None:
                    self.recovery_times_s.append(now - health.quarantined_at)
            self._transition(node, health, NodeState.HEALTHY)
            health.consecutive_failed_rounds = 0
            health.last_success_at = now
            health.quarantined_at = None
            health.quarantined_round = None
            return
        health.consecutive_failed_rounds += 1
        failed = health.consecutive_failed_rounds
        if (
            policy.quarantine_after is not None
            and failed >= policy.quarantine_after
            and health.state is not NodeState.QUARANTINED
        ):
            self._transition(node, health, NodeState.QUARANTINED)
            health.quarantines += 1
            health.quarantined_at = now
            health.quarantined_round = self._round_index
        elif (
            policy.degraded_after is not None
            and failed >= policy.degraded_after
            and health.state is NodeState.HEALTHY
        ):
            self._transition(node, health, NodeState.DEGRADED)

    # -- probing ------------------------------------------------------------

    def _resolve_with_retry(self, node, resolver, customer_name, budget: List[float]):
        """One lookup under the probe policy; returns a result or None.

        ``budget`` is a single-cell mutable holding the remaining
        backoff budget for this probe round (shared across names).
        """
        policy = self.params.probe_policy
        backoff = policy.backoff_base_s
        for attempt in range(policy.max_attempts):
            self.probes_issued += 1
            self._m_probe_attempts.inc()
            if attempt > 0:
                self.probe_retries += 1
                self._m_probe_retries.inc()
                self._trace.emit(
                    "probe.retry", self.clock.now, node,
                    name=customer_name, attempt=attempt,
                )
            else:
                self._trace.emit(
                    "probe.attempt", self.clock.now, node, name=customer_name
                )
            try:
                return resolver.resolve(customer_name)
            except ResolutionError:
                self.probe_failures += 1
                self._m_probe_failures.inc()
                self._trace.emit(
                    "probe.failure", self.clock.now, node,
                    name=customer_name, attempt=attempt,
                )
                if attempt + 1 >= policy.max_attempts:
                    return None
                if budget[0] < backoff:
                    # Round deadline: stop retrying this name.
                    self.probe_deadline_hits += 1
                    self._m_probe_deadline.inc()
                    self._trace.emit(
                        "probe.deadline", self.clock.now, node, name=customer_name
                    )
                    return None
                budget[0] -= backoff
                self.clock.advance(backoff)
                backoff *= policy.backoff_multiplier
        return None

    def probe(self, node: str) -> List[Observation]:
        """Actively probe all customer names once for one node.

        Failed lookups are retried under the probe policy (sim-time
        backoff within the round's deadline budget), then counted and
        skipped — a flaky resolver degrades gracefully rather than
        wedging the probe loop.  The node's health state advances on
        the round's outcome.
        """
        resolver = self._resolvers.get(node)
        if node not in self._resolvers:
            raise UnknownNodeError(node)
        if resolver is None:
            raise ValueError(f"node {node!r} is passive-only and cannot be probed")
        tracker = self._trackers[node]
        policy = self.params.probe_policy
        deadline = policy.round_deadline_s
        budget = [float("inf") if deadline is None else deadline]
        recorded = []
        for customer_name in self.params.customer_names:
            result = self._resolve_with_retry(node, resolver, customer_name, budget)
            if result is not None and result.addresses:
                recorded.append(
                    tracker.observe(self.clock.now, customer_name, result.addresses)
                )
        if recorded:
            self._m_observations.inc(len(recorded))
            if node in self._tracked_set:
                self._candidate_dirty = True
        self._record_round_outcome(node, succeeded=bool(recorded))
        return recorded

    def probe_scheduled(self, node: str) -> List[Observation]:
        """One node's event-driven probe (the engine's entry point).

        Equivalent to the node's slice of :meth:`probe_all`, minus the
        round counter (event mode has no rounds): quarantined nodes get
        recovery-probe accounting, then probe as usual.  Workloads — not
        a round-modulus — set the recovery cadence in event mode, by
        deciding when a quarantined node's next probe event fires.
        """
        health = self._health.get(node)
        if health is not None and health.state is NodeState.QUARANTINED:
            self.recovery_probes += 1
            self._m_recovery_probes.inc()
            self._trace.emit("probe.recovery", self.clock.now, node)
        return self.probe(node)

    def probe_all(self) -> int:
        """One probe round over every active node; returns observations
        made.

        Passive-only nodes are skipped.  Quarantined nodes leave the
        regular rotation: they get a single recovery probe every
        ``recovery_interval_rounds`` rounds and re-enter service on the
        first success.
        """
        policy = self.params.probe_policy
        total = 0
        for node in self.nodes:
            if self._resolvers[node] is None:
                continue
            health = self._health[node]
            if (
                health.state is NodeState.QUARANTINED
                and health.quarantined_round is not None
            ):
                rounds_in = self._round_index - health.quarantined_round
                if rounds_in % policy.recovery_interval_rounds != 0:
                    continue
                self.recovery_probes += 1
                self._m_recovery_probes.inc()
                self._trace.emit("probe.recovery", self.clock.now, node)
            total += len(self.probe(node))
        self._round_index += 1
        self._m_probe_rounds.inc()
        return total

    def observe(self, node: str, customer_name: str, addresses: Sequence[str]) -> None:
        """Ingest a passively-seen redirection (Section VI's zero-probe
        mode: reuse user-generated DNS translations)."""
        self.tracker(node).observe(self.clock.now, customer_name, addresses)
        if node in self._tracked_set:
            self._candidate_dirty = True

    # -- positioning -----------------------------------------------------------

    def ratio_map(
        self,
        node: str,
        window_probes: Optional[int] = -1,
    ) -> Optional[RatioMap]:
        """A node's current ratio map over the configured window.

        Pass ``window_probes`` explicitly to override the service
        default (``None`` means all probes); the sentinel ``-1`` keeps
        the default.  Returns ``None`` for nodes that have not
        bootstrapped.

        Maps are cached against the node's tracker version: between
        probe rounds, repeated queries return the identical object, so
        the vectorized engine's packed-population cache stays hot.
        When the tracker moves on, every cached window from the
        superseded version is evicted at once, and last-good fallback
        maps held for superseded window overrides (other than the one
        being queried) are pruned with it — so churning through ad-hoc
        windows cannot pin stale maps forever.
        """
        tracker = self.tracker(node)
        if tracker.probe_count < self.params.bootstrap_min_probes:
            return None
        if window_probes == -1:
            window_probes = self.params.window_probes
        node_cache = self._map_cache.setdefault(node, {})
        cached = node_cache.get(window_probes)
        if cached is not None and cached[0] == tracker.version:
            self._m_map_cache_hits.inc()
            return cached[1]
        self._m_map_cache_misses.inc()
        # Superseded: drop every window cached against an old version.
        stale_windows = [
            window
            for window, (version, _) in node_cache.items()
            if version != tracker.version
        ]
        for window in stale_windows:
            del node_cache[window]
        # Last-good maps follow the same churn, except for the window
        # being queried right now — that one is exactly what
        # stale-fallback positioning may still need if the fresh window
        # has gone dark.
        node_last_good = self._last_good.get(node)
        if node_last_good is not None and stale_windows:
            for window in stale_windows:
                if window != window_probes:
                    node_last_good.pop(window, None)
            if not node_last_good:
                del self._last_good[node]
        ratio_map = tracker.ratio_map(window_probes=window_probes)
        node_cache[window_probes] = (tracker.version, ratio_map)
        if ratio_map is not None and tracker.last_observation_at is not None:
            self._last_good.setdefault(node, {})[window_probes] = (
                tracker.last_observation_at,
                ratio_map,
            )
        return ratio_map

    def ratio_maps(
        self,
        nodes: Optional[Iterable[str]] = None,
        window_probes: Optional[int] = -1,
    ) -> Dict[str, Optional[RatioMap]]:
        """Ratio maps for many nodes (None entries for unbootstrapped)."""
        if nodes is None:
            nodes = self.nodes
        return {n: self.ratio_map(n, window_probes=window_probes) for n in nodes}

    def _map_with_fallback(
        self, node: str, window_probes: Optional[int]
    ) -> Tuple[Optional[RatioMap], Optional[float], bool]:
        """A node's map plus (observed-at, served-stale) for metadata.

        Prefers the fresh window; when it is empty and the policy
        allows, serves the last good map for the same window instead.
        """
        fresh = self.ratio_map(node, window_probes=window_probes)
        if window_probes == -1:
            window_probes = self.params.window_probes
        if fresh is not None:
            tracker = self._trackers[node]
            return fresh, tracker.last_observation_at, False
        if not self.params.probe_policy.stale_fallback:
            return None, None, False
        held = self._last_good.get(node, {}).get(window_probes)
        if held is None:
            return None, None, False
        observed_at, ratio_map = held
        self._m_position_fallbacks.inc()
        self._trace.emit(
            "position.fallback", self.clock.now, node, observed_at=observed_at
        )
        return ratio_map, observed_at, True

    def _rank(
        self,
        client: str,
        client_map: RatioMap,
        candidates: Sequence[str],
        window_probes: Optional[int],
        k: Optional[int] = None,
    ) -> List[RankedCandidate]:
        """Rank ``candidates`` (never the client itself) for a client —
        the best ``k`` of them, or all without ``k``."""
        tracked = self._tracked_candidates
        if tracked is not None and (
            candidates is tracked or tuple(candidates) == tracked
        ):
            # Streaming path: the long-lived packed population absorbs
            # candidate-map changes incrementally; no per-query packing.
            population = self._packed_candidates(window_probes)
            exclude = client if client in self._tracked_set else None
        else:
            population = packed_for(
                {
                    name: self.ratio_map(name, window_probes=window_probes)
                    for name in candidates
                    if name != client
                }
            )
            exclude = None
        return rank_packed(
            client_map, population, self.params.metric,
            exclude=exclude, k=k, approx=self.params.ann,
        )

    def position(
        self,
        client: str,
        candidates: Sequence[str],
        window_probes: Optional[int] = -1,
        *,
        k: Optional[int] = None,
    ) -> PositioningAnswer:
        """Rank candidates for a client, with degradation metadata.

        Unlike :meth:`rank_servers` (which silently returns an empty
        list), the answer says *why* it should or should not be
        trusted: the client's health state, the age of the map behind
        the ranking, whether a stale fallback was used, and a scalar
        confidence composing the two.

        With ``k`` the answer carries only the best ``k`` rows: in
        exact mode byte for byte the full ranking's prefix (and only
        those rows are built), with :attr:`CRPServiceParams.ann` the
        sketch shortlist's exact rerank.  Without ``k`` it carries the
        full ranking.  The metadata never depends on ``k``.
        """
        if client not in self._resolvers:
            raise UnknownNodeError(client)
        self._m_position_queries.inc()
        client_map, observed_at, from_fallback = self._map_with_fallback(
            client, window_probes
        )
        state = self._health[client].state
        now = self.clock.now
        age = None if observed_at is None else max(0.0, now - observed_at)
        if client_map is None:
            return PositioningAnswer(
                client=client,
                ranked=(),
                stale=False,
                confidence=0.0,
                map_age_s=None,
                client_state=state,
            )
        ranked = self._rank(client, client_map, candidates, window_probes, k)
        stale = from_fallback or (
            age is not None and age > self.params.probe_policy.stale_after_s
        )
        if stale:
            self.stale_answers += 1
            self._m_position_stale.inc()
            self._trace.emit(
                "position.stale", now, client,
                fallback=from_fallback, age_s=age,
            )
        confidence = _STATE_CONFIDENCE[state] * (_STALE_CONFIDENCE if stale else 1.0)
        return PositioningAnswer(
            client=client,
            ranked=tuple(ranked),
            stale=stale,
            confidence=confidence,
            map_age_s=age,
            client_state=state,
        )

    def rank_servers(
        self,
        client: str,
        candidates: Sequence[str],
        window_probes: Optional[int] = -1,
    ) -> List[RankedCandidate]:
        """Candidates ranked by similarity to the client, best first.

        Returns an empty list when the client has no map yet (see
        :meth:`position` for the metadata-carrying variant).
        """
        client_map = self.ratio_map(client, window_probes=window_probes)
        if client_map is None:
            return []
        return self._rank(client, client_map, candidates, window_probes)

    def closest_server(
        self,
        client: str,
        candidates: Sequence[str],
        window_probes: Optional[int] = -1,
    ) -> Optional[RankedCandidate]:
        """The Top-1 server pick for a client."""
        ranked = self.rank_servers(client, candidates, window_probes=window_probes)
        return ranked[0] if ranked else None

    def closer_of(
        self,
        target: str,
        a: str,
        b: str,
        window_probes: Optional[int] = -1,
    ) -> Optional[str]:
        """The paper's primitive: which of ``a``, ``b`` is closer to
        ``target``?  ("if cos_sim(A, C) < cos_sim(B, C), then host B is
        the closer to C", Section III-B.)

        Returns ``None`` when the question is unanswerable — the
        target has no map, or both similarities are zero (CRP can only
        say neither is likely nearby).
        """
        ranked = self.rank_servers(target, [a, b], window_probes=window_probes)
        if not ranked or not ranked[0].has_signal:
            return None
        return ranked[0].name

    def cluster(
        self,
        nodes: Optional[Sequence[str]] = None,
        smf_params: Optional[SmfParams] = None,
        window_probes: Optional[int] = -1,
    ) -> ClusteringResult:
        """SMF-cluster the node population (Section IV-B)."""
        if smf_params is None:
            smf_params = SmfParams(metric=self.params.metric)
        maps = self.ratio_maps(nodes, window_probes=window_probes)
        return smf_cluster(maps, smf_params)

"""One shard of the sharded CRP service.

A shard owns the slice of the client population whose keys hash to it
(:func:`repro.serve.sharding.shard_of`) and carries a complete copy of
the candidate set — so a POSITION query touches exactly one shard.  It
wraps a passive :class:`~repro.core.service.CRPService` with:

* **its own** :class:`~repro.netsim.clock.SimClock`, advanced to each
  request's timestamp as the shard processes it.  Per-shard clocks are
  what make the asyncio front end deterministic: each shard sees the
  global request script restricted to its own clients, in script
  order, regardless of how the event loop interleaves shards.
* **bounded tracker memory**: clients are LRU-tracked and the coldest
  are evicted (tracker, health record, cached maps — everything) once
  the shard exceeds ``max_trackers``.  Candidates are exempt.
* **evict-safe ingest**: ``observe``/``position`` re-register a client
  that was evicted (or never seen) before touching it, so an eviction
  racing an in-flight observation recreates the tracker instead of
  dropping the observation on the floor.

Evictions and recreations are surfaced through the obs layer
(``serve.shard.evictions`` / ``serve.shard.recreations`` counters and
``client.evict`` / ``client.recreate`` trace events).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.core.ann import AnnParams, index_stats
from repro.core.service import (
    CRPService,
    CRPServiceParams,
    PositioningAnswer,
    ProbePolicy,
)
from repro.core.similarity import SimilarityMetric
from repro.netsim.clock import SimClock
from repro.obs import Observability, get_observability


@dataclass(frozen=True)
class ServeParams:
    """The serving configuration shared by every shard.

    One instance fully determines service behaviour, so the sharded
    service and the unsharded reference replay built from the same
    instance are comparable byte-for-byte.
    """

    #: The candidate (landmark) set every shard carries in full.
    candidates: Tuple[str, ...]
    shards: int = 4
    #: The CDN customer name observations arrive under.
    customer_name: str = "cdn.customer.example"
    #: Ratio-map window in probes (None = full history).
    window_probes: Optional[int] = 10
    metric: SimilarityMetric = SimilarityMetric.COSINE
    #: Resident client-tracker bound per shard (None = unbounded; the
    #: differential pair runs unbounded so eviction cannot perturb it).
    max_trackers: Optional[int] = None
    #: Ranking length returned to clients when a request names no k.
    top_k: int = 10
    #: Maps older than this answer as stale.
    stale_after_s: float = 3600.0
    #: Approximate-ranking configuration.  None (the default) keeps
    #: every POSITION exact; set, each shard answers Top-K queries
    #: through its sketch index (shortlist + exact rerank), maintained
    #: incrementally alongside the candidate population.
    approx: Optional[AnnParams] = None

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError("the serving layer needs at least one candidate")
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if self.max_trackers is not None and self.max_trackers < 1:
            raise ValueError("max_trackers must be at least 1 (or None)")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")

    def rows_for(self, k: Optional[int]) -> int:
        """The ranking length a POSITION gets: the ``k`` it names, else
        the configured ``top_k`` — the one rule the shards and the
        unsharded reference share, exact and approximate alike."""
        return k if k is not None else self.top_k

    def service_params(self) -> CRPServiceParams:
        """The per-shard :class:`CRPServiceParams` this config implies.

        ``max_observations`` is pinned to the window size: a serving
        tracker never needs more history than one window, which is what
        bounds per-client memory independently of uptime.
        """
        return CRPServiceParams(
            customer_names=(self.customer_name,),
            window_probes=self.window_probes,
            metric=self.metric,
            probe_policy=ProbePolicy(stale_after_s=self.stale_after_s),
            max_observations=self.window_probes,
            ann=self.approx,
        )


@dataclass
class ShardStats:
    """One shard's resident-state and traffic counters."""

    index: int
    resident_clients: int
    observations: int
    positions: int
    evictions: int
    recreations: int
    clock_s: float
    engine: Dict[str, int] = field(default_factory=dict)
    #: Sketch-index counters (empty when approximate ranking is off).
    ann: Dict[str, int] = field(default_factory=dict)


class ShardWorker:
    """One shard: a passive CRPService over its client slice."""

    def __init__(
        self,
        index: int,
        params: ServeParams,
        obs: Optional[Observability] = None,
    ) -> None:
        self.index = index
        self.params = params
        obs = obs if obs is not None else get_observability()
        self._trace = obs.trace
        label = str(index)
        self._m_evictions = obs.metrics.counter("serve.shard.evictions", shard=label)
        self._m_recreations = obs.metrics.counter(
            "serve.shard.recreations", shard=label
        )
        self.clock = SimClock(obs=obs)
        self.service = CRPService(self.clock, params.service_params(), obs=obs)
        for candidate in params.candidates:
            self.service.register_node(candidate, None)
        self.service.track_candidates(params.candidates)
        self._candidates = frozenset(params.candidates)
        #: Resident client keys, least-recently-touched first.
        self._lru: "OrderedDict[str, None]" = OrderedDict()
        #: Keys evicted and not yet recreated — distinguishes "evicted,
        #: came back" from "never seen" for the recreation accounting.
        self._evicted: set = set()
        self.observations = 0
        self.positions = 0
        self.evictions = 0
        self.recreations = 0

    # -- residency ----------------------------------------------------------

    def _touch(self, client: str) -> None:
        """Register the client if absent, mark it most-recently-used,
        and evict the coldest residents past the memory bound.

        The evict-then-observe safety hinge: a client evicted while its
        observation was in flight is recreated here (fresh tracker, the
        observation lands in it) rather than dropped.
        """
        service = self.service
        if not service.is_registered(client):
            service.register_node(client, None)
            if client in self._evicted:
                self._evicted.discard(client)
                self.recreations += 1
                self._m_recreations.inc()
                self._trace.emit("client.recreate", self.clock.now, client)
        self._lru[client] = None
        self._lru.move_to_end(client)
        bound = self.params.max_trackers
        if bound is not None:
            while len(self._lru) > bound:
                cold, _ = self._lru.popitem(last=False)
                self._evict(cold)

    def _evict(self, client: str) -> None:
        self.service.unregister_node(client)
        self._evicted.add(client)
        self.evictions += 1
        self._m_evictions.inc()
        self._trace.emit("client.evict", self.clock.now, client)

    def evict(self, client: str) -> bool:
        """Administratively evict one resident client (False if it is
        not resident; candidates refuse)."""
        if client in self._candidates:
            raise ValueError(f"candidate {client!r} cannot be evicted")
        if client not in self._lru:
            return False
        del self._lru[client]
        self._evict(client)
        return True

    @property
    def resident_clients(self) -> int:
        return len(self._lru)

    # -- data plane ---------------------------------------------------------

    def observe(
        self, at: float, client: str, name: str, addresses: Sequence[str]
    ) -> None:
        """Ingest one client observation at a request timestamp."""
        self.clock.advance_to(at)
        self._touch(client)
        self.service.observe(client, name, addresses)
        self.observations += 1

    def observe_candidate(
        self, at: float, candidate: str, name: str, addresses: Sequence[str]
    ) -> None:
        """Ingest one candidate observation (broadcast by the front
        end to every shard; candidates are not LRU-tracked)."""
        self.clock.advance_to(at)
        self.service.observe(candidate, name, addresses)
        self.observations += 1

    def position(
        self, at: float, client: str, k: Optional[int] = None
    ) -> PositioningAnswer:
        """Answer one POSITION query at a request timestamp.

        The answer carries :meth:`ServeParams.rows_for` ``(k)`` rows —
        the service ranks, builds and returns that many and no more, so
        the front end formats it as it stands.
        """
        self.clock.advance_to(at)
        self._touch(client)
        self.positions += 1
        return self.service.position(
            client, self.params.candidates, k=self.params.rows_for(k)
        )

    # -- admin --------------------------------------------------------------

    def invalidate(self, before: float) -> int:
        """Structural-change recovery across this shard's residents."""
        return self.service.invalidate_windows(before=before)

    def stats(self) -> ShardStats:
        population = self.service.candidate_population
        return ShardStats(
            index=self.index,
            resident_clients=len(self._lru),
            observations=self.observations,
            positions=self.positions,
            evictions=self.evictions,
            recreations=self.recreations,
            clock_s=self.clock.now,
            engine=population.stats() if population is not None else {},
            ann=index_stats(population) if population is not None else {},
        )

"""The CDN mapping system: latency-driven, per-resolver replica ranking.

This is the simulated analogue of the measurement subsystem behind
Akamai's low-level DNS.  Its behaviour follows what the authors
established about the real system in their SIGMOMM 2006 study ("Drafting
behind Akamai", reference [42] of the paper):

* Redirections are **driven by network latency** between the
  requesting resolver (LDNS) and candidate replicas.
* Rankings are **refreshed frequently** (tens of seconds to minutes),
  so redirections track current network conditions.
* Answers come from a **small set** of good replicas per resolver —
  the paper observes hosts see fewer than ~20 replicas frequently.

Implementation notes:

* Per LDNS, a static **candidate pool** of the nearest replicas (by
  base RTT) is computed on the resolver's first query and kept until
  :meth:`MappingSystem.invalidate` — the analogue of Akamai's coarse
  geographic/topological pre-clustering of resolvers.  It costs what a
  neighbourhood costs, not what the deployment costs: geometry and AS
  hops bound every replica's base RTT, and only those that can make
  the pool are measured exactly (DESIGN §6).  Dynamic measurement then
  ranks only the pool.
* Each refresh epoch, the mapping takes one *noisy* measurement per
  candidate (jitter + spikes via the network's measurement model) and
  sorts.  Noise makes rankings churn exactly the way CRP needs: the
  truly-closest replicas win most epochs, near-ties alternate.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.cdn.loadbalance import SelectionPolicy, select_replicas
from repro.cdn.replica import ReplicaDeployment, ReplicaServer
from repro.netsim.network import Network
from repro.netsim.rng import derive_rng
from repro.netsim.topology import Host

#: (replica, measured RTT in ms), best first.
RankedReplica = Tuple[ReplicaServer, float]


class _Pool(NamedTuple):
    """A resolver's cached candidate pool and what is static with it."""

    replicas: List[ReplicaServer]
    #: Per replica: hosted inside one of the resolver's transit providers.
    in_isp: List[bool]


@dataclass(frozen=True)
class MappingParams:
    """Tunables of the mapping system."""

    #: How often per-resolver rankings are re-measured, seconds.
    refresh_seconds: float = 120.0
    #: Size of the static per-resolver candidate pool.
    candidate_pool_size: int = 20
    #: A records per DNS answer.
    answer_size: int = 2
    #: Rotation window over the ranking (see loadbalance).
    spread: int = 4
    #: Latency-gap scale for rotation weights, ms.
    temperature_ms: float = 3.0
    #: TTL of answers, seconds (Akamai used 20 s).
    ttl_seconds: float = 20.0
    #: Selection policy.
    policy: SelectionPolicy = SelectionPolicy.SOFTMAX
    #: Ranking bonus (ms subtracted from the measured RTT) for replicas
    #: hosted inside one of the resolver's own transit providers.  CDNs
    #: prefer in-ISP delivery: it is cheaper for the ISP and usually
    #: faster for the user, and it sharpens per-ISP map granularity.
    in_isp_bonus_ms: float = 6.0
    #: Per-replica answer budget per refresh epoch; replicas at budget
    #: are deprioritised so load spills to the next-best candidates
    #: (None = unlimited).  Redirections being partly load-driven is
    #: part of why real ratio maps have spread.
    capacity_per_epoch: Optional[int] = None

    def __post_init__(self) -> None:
        if self.refresh_seconds <= 0:
            raise ValueError("refresh_seconds must be positive")
        if self.candidate_pool_size < 1:
            raise ValueError("candidate_pool_size must be at least 1")
        if self.ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        if self.capacity_per_epoch is not None and self.capacity_per_epoch < 1:
            raise ValueError("capacity_per_epoch must be at least 1 (or None)")


class MappingSystem:
    """Per-resolver dynamic replica ranking and answer selection."""

    def __init__(
        self,
        network: Network,
        deployment: ReplicaDeployment,
        params: MappingParams = MappingParams(),
        seed: int = 0,
    ) -> None:
        if len(deployment) == 0:
            raise ValueError("mapping system needs at least one replica")
        self.network = network
        self.deployment = deployment
        self.params = params
        self._rng = derive_rng(seed, "mapping", "selection")
        self._pools: Dict[int, _Pool] = {}
        self._rankings: Dict[int, Tuple[int, List[RankedReplica]]] = {}
        #: (epoch, address) load bookkeeping for the current epoch only.
        self._load_epoch = -1
        self._load: Dict[str, int] = {}
        self.measurements_taken = 0
        #: Staleness injection (fault layer): while frozen, the mapping
        #: keeps serving each resolver's last measured ranking instead
        #: of refreshing per epoch — the behaviour of a mapping system
        #: whose measurement backend has wedged while its DNS frontend
        #: keeps answering (YouLighter's "abrupt cache-fleet change"
        #: episodes look exactly like this from the outside).
        self.frozen = False
        self.stale_rankings_served = 0
        #: Regions whose resolvers have been re-homed away from their
        #: local replicas (see :meth:`rehome_region`).
        self._rehomed_regions: set = set()
        self.invalidations = 0

    # -- structural change -------------------------------------------------

    def invalidate(self, host_ids: Optional[Sequence[int]] = None) -> int:
        """Purge cached pools and rankings so they are recomputed.

        Without this, ``candidate_pool`` caches forever and rankings
        only turn over by epoch — a revived or newly launched replica
        never enters an already-cached pool.  Call after any deployment
        change (launch, retire, migration) or re-homing; ``host_ids``
        restricts the purge to specific resolvers.  Returns the number
        of cache entries dropped.
        """
        if host_ids is None:
            dropped = len(self._pools) + len(self._rankings)
            self._pools.clear()
            self._rankings.clear()
        else:
            dropped = 0
            for host_id in host_ids:
                dropped += self._pools.pop(host_id, None) is not None
                dropped += self._rankings.pop(host_id, None) is not None
        if dropped:
            self.invalidations += 1
        return dropped

    def rehome_region(self, region: str) -> None:
        """Permanently re-home a region's resolvers off their local replicas.

        After this, resolvers located in ``region`` (a
        :class:`~repro.netsim.world.Region` value) no longer get
        same-region replicas in their candidate pools — the simulated
        form of a CDN re-mapping a whole region to different serving
        infrastructure.  Cached pools for the region are invalidated.
        """
        self._rehomed_regions.add(region)
        self.invalidate()

    @property
    def rehomed_regions(self) -> frozenset:
        """Regions currently re-homed."""
        return frozenset(self._rehomed_regions)

    # -- candidate pools ---------------------------------------------------

    def candidate_pool(self, ldns: Host) -> List[ReplicaServer]:
        """The static nearest-replica pool for a resolver (cached):
        the ``candidate_pool_size`` :meth:`eligible_replicas` with the
        smallest base RTT, nearest first, ties in deployment order.
        """
        return self._pool(ldns).replicas

    def eligible_replicas(self, ldns: Host) -> List[ReplicaServer]:
        """The replicas a resolver may be served from, in deployment order.

        ISP-restricted replicas are eligible only when the resolver's
        stub AS buys transit from the replica's hosting provider — the
        simulated form of Akamai's access-restricted in-ISP clusters.
        """
        providers = self.network.topology.registry.transit_providers_of(ldns.asn)
        eligible = [
            r
            for r in self.deployment
            if not r.isp_restricted or r.host.asn in providers
        ]
        if ldns.region.value in self._rehomed_regions:
            rehomed = [r for r in eligible if r.host.region is not ldns.region]
            # Never leave a resolver with nothing: if the exclusion
            # empties the pool, the rehome is ignored for it.
            if rehomed:
                eligible = rehomed
        return eligible

    def _pool(self, ldns: Host) -> _Pool:
        pool = self._pools.get(ldns.host_id)
        if pool is None:
            eligible = self.eligible_replicas(ldns)
            # Only the replicas that can make the pool get a base RTT
            # (``LatencyModel.nearest``); the rest are never hashed.
            nearest = self.network.nearest(
                ldns, [r.host for r in eligible], self.params.candidate_pool_size
            )
            replicas = [eligible[i] for i in nearest]
            providers = self.network.topology.registry.transit_providers_of(ldns.asn)
            pool = _Pool(replicas, [r.host.asn in providers for r in replicas])
            self._pools[ldns.host_id] = pool
        return pool

    # -- dynamic ranking -----------------------------------------------------

    def current_epoch(self) -> int:
        """Index of the current refresh epoch."""
        return int(self.network.clock.now // self.params.refresh_seconds)

    def ranking(self, ldns: Host) -> List[RankedReplica]:
        """The current measured ranking for a resolver.

        Re-measured once per refresh epoch per resolver; measurements
        within an epoch are reused, as the real mapping system amortises
        its probing across queries.
        """
        epoch = self.current_epoch()
        cached = self._rankings.get(ldns.host_id)
        if cached is not None and cached[0] == epoch:
            return cached[1]
        if cached is not None and self.frozen:
            # Measurement backend wedged: keep serving the stale epoch.
            self.stale_rankings_served += 1
            return cached[1]
        pool = self._pool(ldns)
        # A down replica fails its measurement — nothing is sampled or
        # drawn for it — and the mapping routes around it from this
        # epoch on.
        is_up = self.deployment.is_up
        live = [
            (replica, in_isp)
            for replica, in_isp in zip(pool.replicas, pool.in_isp)
            if is_up(replica.address)
        ]
        rtts = self.network.measure_rtts_ms(ldns, [replica.host for replica, _ in live])
        bonus = self.params.in_isp_bonus_ms
        measured = [
            (replica, max(0.1, rtt - bonus) if in_isp else rtt)
            for (replica, in_isp), rtt in zip(live, rtts)
        ]
        self.measurements_taken += len(measured)
        measured.sort(key=itemgetter(1))
        self._rankings[ldns.host_id] = (epoch, measured)
        return measured

    # -- answers ----------------------------------------------------------------

    def select(self, ldns: Host, pool: Optional[Sequence[ReplicaServer]] = None) -> List[ReplicaServer]:
        """The replicas to return for one DNS answer to ``ldns``.

        ``pool`` optionally restricts the answer to a customer-specific
        replica subset (deployment groups); ranking positions are kept.
        """
        ranked = self.ranking(ldns)
        if pool is not None:
            allowed = {r.address for r in pool}
            ranked = [(r, rtt) for r, rtt in ranked if r.address in allowed]
            if not ranked:
                # The resolver's pool misses this customer's group
                # entirely: fall back to the customer's replicas ranked
                # by base RTT (a cold, coarse answer — like real CDNs'
                # fallback mapping).
                base = self.network.base_rtts_ms(ldns, [r.host for r in pool])
                by_base = sorted(range(len(base)), key=base.__getitem__)
                ranked = [
                    (pool[i], base[i])
                    for i in by_base[: self.params.candidate_pool_size]
                ]
        ranked = self._apply_load(ranked)
        chosen = select_replicas(
            ranked,
            self._rng,
            answer_size=self.params.answer_size,
            spread=self.params.spread,
            temperature_ms=self.params.temperature_ms,
            policy=self.params.policy,
        )
        if self.params.capacity_per_epoch is not None:
            for replica in chosen:
                self._load[replica.address] = self._load.get(replica.address, 0) + 1
        return chosen

    # -- load -------------------------------------------------------------------

    def replica_load(self, address: str) -> int:
        """Answers given for a replica in the current epoch."""
        if self.current_epoch() != self._load_epoch:
            return 0
        return self._load.get(address, 0)

    def _apply_load(self, ranked: List[RankedReplica]) -> List[RankedReplica]:
        """Move at-capacity replicas behind the rest (stable order).

        Load counters reset each refresh epoch, mirroring how real
        mapping systems rebalance on their measurement cadence.  If
        *every* candidate is saturated the original order stands —
        overload does not turn into an outage.
        """
        capacity = self.params.capacity_per_epoch
        if capacity is None:
            return ranked
        epoch = self.current_epoch()
        if epoch != self._load_epoch:
            self._load_epoch = epoch
            self._load = {}
        fresh = [
            pair for pair in ranked if self._load.get(pair[0].address, 0) < capacity
        ]
        if not fresh:
            return ranked
        saturated = [
            pair for pair in ranked if self._load.get(pair[0].address, 0) >= capacity
        ]
        return fresh + saturated

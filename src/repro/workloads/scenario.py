"""The fully wired experiment world.

A :class:`Scenario` assembles every subsystem the paper's evaluation
needs — topology and latency model, DNS infrastructure, the CDN with
its customers, the King-data-set client population, the PlanetLab-like
candidate servers, a CRP service covering both populations, the King
estimator, and (optionally) a Meridian overlay over the candidates —
under a single seed, so experiments, examples and tests can start from
one deterministic object.

Scale is parameterised: the paper's full scale (1,000 DNS servers, 240
PlanetLab nodes) is what the benches use; tests and examples run
smaller worlds with identical structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.cdn.mapping import MappingParams
from repro.cdn.provider import CDNProvider
from repro.core.change import ChangeDetector, ChangeDetectorParams, RecoveryPolicy
from repro.core.service import CRPService, CRPServiceParams, ProbePolicy
from repro.dnssim.infrastructure import DnsInfrastructure
from repro.faults import (
    ChaosController,
    ChaosParams,
    FaultKind,
    FaultSchedule,
    RemapController,
    RemapParams,
    RemapSchedule,
    episodes_from_failure_plan,
)
from repro.dnssim.king import KingEstimator
from repro.dnssim.resolver import RecursiveResolver
from repro.meridian.failures import FailurePlan, FailureRates
from repro.meridian.overlay import MeridianOverlay, MeridianParams
from repro.netsim.asn import ASRegistry
from repro.netsim.clock import SimClock
from repro.netsim.network import Network
from repro.netsim.rng import derive_rng, derive_seed
from repro.netsim.topology import Host, HostKind, Topology
from repro.obs import get_observability
from repro.obs.manifest import fingerprint_params
from repro.netsim.world import World, default_world
from repro.workloads.kingset import KingDataSet, build_king_dataset
from repro.workloads.planetlab import PlanetLabDeployment, deploy_planetlab

if TYPE_CHECKING:  # pragma: no cover - repro.exec imports this module
    from repro.exec.snapshots import SnapshotStore


@dataclass(frozen=True)
class ScenarioParams:
    """Scale and configuration of one experiment world."""

    seed: int = 42
    #: DNS-server clients sampled from the King-like pool.
    dns_servers: int = 120
    #: Raw King pool size; None = four times the sample.
    king_raw_pool: Optional[int] = None
    #: PlanetLab-like candidate servers.
    planetlab_nodes: int = 60
    #: CDN customer names CRP probes (the paper used a Yahoo image
    #: server and www.foxnews.com, both Akamai customers).
    customer_domains: Tuple[str, ...] = ("us.i1.yimg.test", "www.foxnews.test")
    #: Metro-density flattening for the client population (lower =
    #: more broadly distributed; the paper's clustering data set was
    #: deliberately broad).
    king_weight_power: float = 0.6
    #: Fraction of clients in metros' wider catchments.
    king_rural_fraction: float = 0.4
    #: Fraction of DNS-server clients that are flaky (their resolvers
    #: time out a share of queries — like the real King population).
    client_flaky_fraction: float = 0.0
    #: Per-query timeout probability for flaky clients.
    flaky_failure_rate: float = 0.5
    #: CDN mapping-system configuration.
    mapping: MappingParams = MappingParams()
    #: Edge replicas per fully covered metro.
    replicas_per_full_coverage: int = 3
    #: CRP ratio-map window (probes); None = all probes.
    crp_window_probes: Optional[int] = 10
    #: Build the Meridian overlay over the PlanetLab nodes.
    build_meridian: bool = True
    meridian: MeridianParams = MeridianParams()
    #: Meridian deployment pathologies; None = pristine overlay.
    meridian_failures: Optional[FailureRates] = None
    #: Samples per King estimate.
    king_samples: int = 3
    #: Chaos episode processes; None (the default) builds no fault
    #: schedule and leaves every substrate untouched — scenarios
    #: without chaos are bit-identical to before the fault layer
    #: existed.
    chaos: Optional[ChaosParams] = None
    #: CRP probe policy; None picks the legacy single-attempt policy
    #: for plain scenarios and :meth:`ProbePolicy.resilient` when
    #: chaos is enabled.
    probe_policy: Optional[ProbePolicy] = None
    #: Structural CDN change (remap schedule); None (the default)
    #: builds no schedule — scenarios without remap are bit-identical
    #: to before the remap layer existed.
    remap: Optional[RemapParams] = None
    #: YouLighter-style change detection; None runs no detector.
    #: Detection is read-only, so enabling it never perturbs probing.
    change_detection: Optional[ChangeDetectorParams] = None
    #: What CRP does when the detector flags change.
    recovery_policy: RecoveryPolicy = RecoveryPolicy.PASSIVE

    def __post_init__(self) -> None:
        if self.dns_servers < 1:
            raise ValueError("need at least one DNS server client")
        if self.planetlab_nodes < 1:
            raise ValueError("need at least one candidate server")
        if not self.customer_domains:
            raise ValueError("need at least one CDN customer domain")


class Scenario:
    """One deterministic, fully wired experiment world."""

    def __init__(self, params: ScenarioParams = ScenarioParams()) -> None:
        self.params = params
        seed = params.seed
        self.world: World = default_world()
        topo_rng = derive_rng(seed, "scenario", "topology")
        self.registry = ASRegistry.generate(self.world, topo_rng)
        self.topology = Topology(self.world, self.registry)
        self.clock = SimClock()
        self.network = Network(self.topology, self.clock, seed=derive_seed(seed, "network"))
        self.infrastructure = DnsInfrastructure()

        # The CDN and its customers.
        self.cdn = CDNProvider(
            self.topology,
            self.network,
            self.infrastructure,
            seed=derive_seed(seed, "cdn"),
            mapping_params=params.mapping,
            replicas_per_full_coverage=params.replicas_per_full_coverage,
        )
        for domain in params.customer_domains:
            self.cdn.add_customer(domain)

        # Client population (King data set) and candidate servers.
        king_rng = derive_rng(seed, "scenario", "kingset")
        raw_pool = params.king_raw_pool or params.dns_servers * 4
        self.king_dataset: KingDataSet = build_king_dataset(
            self.topology,
            king_rng,
            sample_size=params.dns_servers,
            raw_pool_size=raw_pool,
            weight_power=params.king_weight_power,
            rural_fraction=params.king_rural_fraction,
        )
        pl_rng = derive_rng(seed, "scenario", "planetlab")
        self.planetlab: PlanetLabDeployment = deploy_planetlab(
            self.topology, pl_rng, active_count=params.planetlab_nodes
        )

        # Resolvers: every participating host resolves through itself
        # (DNS servers *are* resolvers; PlanetLab nodes ran local ones).
        # A configurable fraction of clients are flaky.
        flaky_rng = derive_rng(seed, "scenario", "flaky")
        flaky_count = int(round(params.client_flaky_fraction * len(self.clients)))
        flaky_order = list(range(len(self.clients)))
        flaky_rng.shuffle(flaky_order)
        flaky_indices = set(flaky_order[:flaky_count])
        self.resolvers: Dict[str, RecursiveResolver] = {}
        self.flaky_clients: List[str] = []
        for index, host in enumerate(self.clients):
            failure_rate = (
                params.flaky_failure_rate if index in flaky_indices else 0.0
            )
            if failure_rate > 0.0:
                self.flaky_clients.append(host.name)
            self.resolvers[host.name] = RecursiveResolver(
                host, self.infrastructure, self.network, failure_rate=failure_rate
            )
        for host in self.candidates:
            self.resolvers[host.name] = RecursiveResolver(
                host, self.infrastructure, self.network
            )

        # The CRP service over both populations.
        probe_policy = params.probe_policy
        if probe_policy is None:
            probe_policy = (
                ProbePolicy.resilient() if params.chaos is not None else ProbePolicy()
            )
        self.crp = CRPService(
            self.clock,
            CRPServiceParams(
                customer_names=params.customer_domains,
                window_probes=params.crp_window_probes,
                probe_policy=probe_policy,
            ),
        )
        for name, resolver in sorted(self.resolvers.items()):
            self.crp.register_node(name, resolver)

        # King: vantage point plus per-client registration.
        vantage = self.topology.create_host(
            "king-vantage",
            HostKind.INFRA,
            self.world.metro("chicago"),
            derive_rng(seed, "scenario", "vantage"),
        )
        self.king = KingEstimator(
            self.network,
            self.infrastructure,
            vantage,
            samples=params.king_samples,
        )
        for host in self.clients:
            self.king.register_node(self.resolvers[host.name])

        # Meridian over the candidate servers.
        self.meridian: Optional[MeridianOverlay] = None
        self.failure_plan: Optional[FailurePlan] = None
        if params.build_meridian:
            rates = params.meridian_failures
            if rates is not None:
                self.failure_plan = FailurePlan.generate(
                    self.candidates, rates, seed=derive_seed(seed, "failures")
                )
            self.meridian = MeridianOverlay(
                self.network,
                params=params.meridian,
                seed=derive_seed(seed, "meridian"),
                failure_plan=self.failure_plan,
            )
            self.meridian.build(self.candidates)

        # Chaos (strictly opt-in): draw the fault schedule from its own
        # seed stream and hand the controller every substrate knob.
        self.chaos: Optional[ChaosController] = None
        if params.chaos is not None:
            targets = {
                FaultKind.RESOLVER_FLAKY: sorted(self.resolvers),
                FaultKind.AUTHORITY_OUTAGE: list(params.customer_domains),
                FaultKind.REPLICA_OUTAGE: sorted(
                    r.address for r in self.cdn.deployment
                ),
                FaultKind.MAPPING_STALE: [self.cdn.domain],
                FaultKind.REGIONAL_CONGESTION: sorted(
                    {m.region.value for m in self.world.metros}
                ),
            }
            schedule = FaultSchedule.generate(
                targets, params.chaos, seed=derive_seed(seed, "chaos")
            )
            if self.failure_plan is not None:
                schedule = schedule.with_episodes(
                    episodes_from_failure_plan(
                        self.failure_plan, params.chaos.horizon_s
                    )
                )
            self.chaos = ChaosController(
                schedule,
                resolvers=self.resolvers,
                infrastructure=self.infrastructure,
                deployment=self.cdn.deployment,
                mapping=self.cdn.mapping,
                congestion=self.network.congestion,
            )

        # Structural change (strictly opt-in): a seeded remap schedule
        # enacted as permanent transitions, plus an optional
        # YouLighter-style detector watching the client clustering.
        self.remap: Optional[RemapController] = None
        if params.remap is not None:
            remap_schedule = RemapSchedule.generate(
                regions=sorted({m.region.value for m in self.world.metros}),
                replica_addresses=sorted(
                    r.address for r in self.cdn.deployment.edge
                ),
                metros=sorted(
                    m.name for m in self.world.metros if m.cdn_coverage > 0
                ),
                params=params.remap,
                seed=derive_seed(seed, "remap"),
            )
            self.remap = RemapController(
                remap_schedule,
                topology=self.topology,
                deployment=self.cdn.deployment,
                mapping=self.cdn.mapping,
                seed=derive_seed(seed, "remap-enact"),
            )
        self.detector: Optional[ChangeDetector] = None
        if params.change_detection is not None:
            self.detector = ChangeDetector(
                self.crp, self.client_names, params.change_detection
            )
        #: Injection→detection lags, sim-seconds (one per injected
        #: event attributed to a detection).
        self.remap_detection_lags_s: List[float] = []
        self._lag_cursor = 0

    # -- populations -------------------------------------------------------

    @property
    def clients(self) -> List[Host]:
        """The DNS-server clients (King data set sample)."""
        return self.king_dataset.servers

    @property
    def candidates(self) -> List[Host]:
        """The PlanetLab-like candidate servers."""
        return self.planetlab.active

    @property
    def client_names(self) -> List[str]:
        return [h.name for h in self.clients]

    @property
    def candidate_names(self) -> List[str]:
        return [h.name for h in self.candidates]

    # -- conveniences -----------------------------------------------------------

    def host(self, name: str) -> Host:
        """Any participating host by name."""
        return self.topology.host_named(name)

    def rtt_ms(self, a: str, b: str) -> float:
        """True instantaneous RTT between two named hosts."""
        return self.network.rtt_ms(self.host(a), self.host(b))

    def measure_rtt_ms(self, a: str, b: str, samples: int = 3) -> float:
        """A median-of-samples measured RTT between two named hosts."""
        return self.network.measure_rtt_median_ms(self.host(a), self.host(b), samples=samples)

    def king_rtt_ms(self, a: str, b: str) -> float:
        """King-estimated RTT between two registered DNS servers."""
        return self.king.estimate_ms(self.host(a), self.host(b))

    def run_probe_rounds(self, rounds: int, interval_minutes: float = 10.0) -> None:
        """Drive CRP probing: ``rounds`` rounds, clock advancing between.

        Probes all registered nodes each round, then advances the
        clock, so the next round sees fresh mapping epochs.
        """
        if rounds < 1:
            raise ValueError("need at least one round")
        for _ in range(rounds):
            if self.chaos is not None:
                self.chaos.sync(self.clock.now)
            if self.remap is not None:
                self.remap.sync(self.clock.now)
            self.crp.probe_all()
            self.detect_step(self.clock.now)
            self.clock.advance_minutes(interval_minutes)

    def detect_step(self, now: float) -> None:
        """Run the change detector (if any) and apply the recovery policy.

        Safe to call on any cadence: the detector gates itself on its
        snapshot interval.  On a flagged detection, injection→detection
        lags are recorded for every not-yet-attributed remap event, and
        under :attr:`RecoveryPolicy.INVALIDATE` the CRP service drops
        ratio-map history from before the flagged snapshot itself: the
        *previous* snapshot is the pre-change world by construction
        (that is what the distance spiked against), so observations
        taken between the two snapshots straddle the change and cannot
        be trusted either way.
        """
        if self.detector is None:
            return
        signal = self.detector.step(now)
        if signal is None or not signal.flagged:
            return
        if self.remap is not None:
            obs = get_observability()
            lag_histogram = obs.metrics.histogram("remap.detection_lag_s")
            applied_times = self.remap.applied_times
            while (
                self._lag_cursor < len(applied_times)
                and applied_times[self._lag_cursor] <= now
            ):
                lag = now - applied_times[self._lag_cursor]
                self.remap_detection_lags_s.append(lag)
                lag_histogram.observe(lag)
                self._lag_cursor += 1
        if self.params.recovery_policy is RecoveryPolicy.INVALIDATE:
            self.crp.invalidate_windows(before=signal.at)

    # -- event-driven probing ----------------------------------------------

    def dense_workload(self, rounds: int, interval_minutes: float = 10.0):
        """The degenerate workload reproducing :meth:`run_probe_rounds`.

        Every active node probes at every round instant, in the sorted
        order ``probe_all`` uses; feeding it to :meth:`run_events` with
        its ``horizon_s`` yields bit-identical probe behaviour to the
        dense loop (see DESIGN.md §11 for the full argument and its one
        precondition: a probe policy that never advances the clock,
        i.e. the default single-attempt policy).
        """
        from repro.sim.workload import LatticeWorkload

        return LatticeWorkload(self.crp.active_nodes, interval_minutes, rounds)

    def run_events(self, workload, until_s: Optional[float] = None):
        """Drive CRP probing event-by-event (opt-in; the dense
        :meth:`run_probe_rounds` reference path is untouched).

        ``workload`` supplies per-client arrival times (see
        :mod:`repro.sim.workload`); cost scales with dispatched events,
        not population — idle clients never enter the heap.  Fault
        boundaries become events (no per-round polling), TTL expiries
        sweep resolver caches at the moment they fall due, and
        mapping-epoch boundaries emit an observability heartbeat while
        the refresh itself stays lazy.  Returns the finished
        :class:`~repro.sim.loop.EventLoop` (stats via ``.stats()``).
        """
        import numpy as np

        from repro.sim.events import EventKind
        from repro.sim.loop import EventLoop

        if until_s is None:
            until_s = getattr(workload, "horizon_s", None)
            if until_s is None:
                raise ValueError(
                    "until_s is required for workloads without a horizon_s"
                )
        loop = EventLoop(self.clock, horizon_s=float(until_s))
        crp = self.crp
        resolvers = self.resolvers
        clock = self.clock
        #: Nodes with a TTL sweep already queued (at most one pending
        #: sweep per node keeps housekeeping O(active nodes)).
        pending_sweeps: Dict[str, float] = {}

        def _queue_sweep(name: str) -> None:
            expiry = resolvers[name].cache.next_expiry()
            if expiry is not None and name not in pending_sweeps:
                if loop.schedule(EventKind.TTL_EXPIRY, expiry, name):
                    pending_sweeps[name] = expiry

        def _on_probe(event) -> None:
            name = workload.name_of(event.subject)
            crp.probe_scheduled(name)
            _queue_sweep(name)
            nxt = workload.next_arrival(event.subject, event.at)
            if nxt is not None:
                loop.schedule(EventKind.CLIENT_PROBE, nxt, event.subject)

        def _on_ttl(event) -> None:
            pending_sweeps.pop(event.subject, None)
            cache = resolvers[event.subject].cache
            cache.sweep(clock.now)
            _queue_sweep(event.subject)

        def _on_fault(event) -> None:
            # The clock already sits at (or past) the boundary; sync
            # replays every boundary due, so clustered boundaries cost
            # one handler call each but converge on the same state.
            self.chaos.sync(clock.now)

        def _on_remap(event) -> None:
            self.remap.sync(clock.now)

        def _on_scan(event) -> None:
            # The detector gates itself on its own interval, so the
            # heartbeat just needs to fire at least that often.
            self.detect_step(clock.now)
            loop.schedule(
                EventKind.CHANGE_SCAN,
                event.at + self.detector.params.interval_s,
            )

        def _on_epoch(event) -> None:
            # Observational heartbeat only: the epoch refresh itself
            # stays lazy (an eager refresh would consume network RNG
            # and break dense ≡ event equivalence).
            obs = get_observability()
            epoch = self.cdn.mapping.current_epoch()
            obs.trace.emit("sim.epoch", clock.now, self.cdn.domain, epoch=epoch)
            obs.metrics.gauge("sim.mapping_epoch").set(epoch)
            loop.schedule(
                EventKind.MAPPING_EPOCH,
                event.at + self.cdn.mapping.params.refresh_seconds,
            )

        loop.on(EventKind.CLIENT_PROBE, _on_probe)
        loop.on(EventKind.TTL_EXPIRY, _on_ttl)
        loop.on(EventKind.FAULT_BOUNDARY, _on_fault)
        loop.on(EventKind.REMAP, _on_remap)
        loop.on(EventKind.MAPPING_EPOCH, _on_epoch)
        loop.on(EventKind.CHANGE_SCAN, _on_scan)

        if self.chaos is not None:
            for at in self.chaos.pending_boundary_times(loop.horizon_s):
                loop.schedule(EventKind.FAULT_BOUNDARY, max(at, clock.now))
        if self.remap is not None:
            for at in self.remap.pending_event_times(loop.horizon_s):
                loop.schedule(EventKind.REMAP, max(at, clock.now))
        if self.detector is not None:
            interval = self.detector.params.interval_s
            first_scan = (clock.now // interval + 1) * interval
            loop.schedule(EventKind.CHANGE_SCAN, first_scan)
        refresh = self.cdn.mapping.params.refresh_seconds
        first_epoch = (clock.now // refresh + 1) * refresh
        loop.schedule(EventKind.MAPPING_EPOCH, first_epoch)

        population = len(workload.names)
        first_arrivals = getattr(workload, "first_arrivals", None)
        if first_arrivals is not None:
            arrivals = first_arrivals()
            active = np.nonzero(arrivals < loop.horizon_s)[0]
            loop.count_idle_skips(population - len(active))
            for index in active:
                loop.schedule(
                    EventKind.CLIENT_PROBE, float(arrivals[index]), int(index)
                )
        else:
            for index in range(population):
                arrival = workload.first_arrival(index)
                if arrival is None or arrival >= loop.horizon_s:
                    loop.count_idle_skips()
                else:
                    loop.schedule(EventKind.CLIENT_PROBE, arrival, index)
        loop.run()
        return loop


# -- snapshot-cached probing windows -----------------------------------------


def _cached_window(store: SnapshotStore, key: str):
    """The window snapshot stored under ``key`` (None on a miss),
    refused when it describes a different window than its key does."""
    snapshot = store.get(key)
    if snapshot is not None and snapshot.key != key:
        raise ValueError(f"snapshot under {key!r} holds the window {snapshot.key!r}")
    return snapshot


def driven_checkpoints(
    params: ScenarioParams,
    checkpoints: Sequence[int],
    interval_minutes: float = 10.0,
    store: Optional[SnapshotStore] = None,
    scenario: Optional[Scenario] = None,
):
    """Drive one scenario through ascending round checkpoints, yielding
    ``(rounds, scenario)`` at each — prefix-extended through the store.

    The same live scenario is carried between checkpoints (probing only
    the delta), so a store-less sweep costs exactly one straight run.
    With a store, each checkpoint first tries its exact snapshot, then
    — when nothing is live yet — the longest cached prefix
    (:meth:`~repro.exec.SnapshotStore.best_prefix`), and only then a
    from-scratch build; the state reached at every checkpoint is
    snapshotted before it is yielded.  Because the round loop is
    stateless across iterations, restore-then-extend is behaviourally
    identical to a straight run (the ``snapshot_restore`` invariant and
    the prefix tests pin this down).

    ``scenario`` optionally seeds the drive with an existing *virgin*
    world (no probes issued, clock at zero) built from ``params``.

    Accounting: exact restores and prefix restores add the rounds they
    skipped to ``rounds_saved``; probed deltas add to
    ``rounds_extended``; a from-scratch build counts on ``full_runs``;
    mirrored on obs counters under ``snapshot.window.*``.
    """
    from repro.exec.snapshots import WindowSnapshot, rounds_schedule, window_key

    targets = sorted(set(int(c) for c in checkpoints))
    if not targets or targets[0] < 1:
        raise ValueError("checkpoints must be positive round counts")
    obs = get_observability()
    params_fp = fingerprint_params(params)
    live = scenario
    if (
        store is not None
        and live is not None
        and (live.crp.probes_issued or live.clock.now)
    ):
        # Window keys describe schedules driven from a fresh world; a
        # pre-probed seed would poison every snapshot written under it.
        raise ValueError("a seed scenario must be virgin (no probes, clock at 0)")
    current = 0
    for target in targets:
        schedule = rounds_schedule(target, interval_minutes)
        key = window_key(params_fp, schedule)
        snapshot = _cached_window(store, key) if store is not None else None
        if snapshot is not None:
            live = snapshot.restore()
            store.rounds_saved += target - current
            obs.metrics.counter("snapshot.window.restored").inc()
            obs.metrics.counter("snapshot.window.rounds_saved").inc(
                target - current
            )
            current = target
            yield target, live
            continue
        if live is None:
            prefix = (
                store.best_prefix(params_fp, interval_minutes, target)
                if store is not None
                else None
            )
            if prefix is not None:
                current, prefix_snapshot = prefix
                live = prefix_snapshot.restore()
                store.rounds_saved += current
                obs.metrics.counter("snapshot.window.prefix_restored").inc()
                obs.metrics.counter("snapshot.window.rounds_saved").inc(current)
            else:
                live = Scenario(params)
                if store is not None:
                    store.full_runs += 1
                    obs.metrics.counter("snapshot.window.full_runs").inc()
        if target > current:
            live.run_probe_rounds(target - current, interval_minutes)
            if store is not None:
                store.rounds_extended += target - current
                obs.metrics.counter("snapshot.window.rounds_extended").inc(
                    target - current
                )
            current = target
        if store is not None:
            store.put(key, WindowSnapshot.capture(live, schedule))
        yield target, live


def driven_scenario(
    params: ScenarioParams,
    rounds: int,
    interval_minutes: float = 10.0,
    store: Optional[SnapshotStore] = None,
) -> Scenario:
    """A scenario with its probing window driven, snapshot-cached: the
    single-checkpoint case of :func:`driven_checkpoints` (without a
    store, ``Scenario(params)`` then :meth:`Scenario.run_probe_rounds`).
    """
    ((_, scenario),) = driven_checkpoints(
        params, [rounds], interval_minutes, store=store
    )
    return scenario


def driven_scenario_events(
    params: ScenarioParams,
    build_workload,
    until_s: float,
    store: Optional[SnapshotStore] = None,
) -> Tuple[Scenario, Dict[str, object]]:
    """A scenario with an event window driven, snapshot-cached.

    ``build_workload`` is a callable taking the constructed scenario
    and returning a workload (the population usually comes from the
    scenario itself); its result must expose a stable ``key``, which
    addresses the window — so a cache hit pays world construction but
    not simulation.  Returns the scenario plus the window's event-loop
    stats (from the snapshot on a cache hit).
    """
    from repro.exec.snapshots import WindowSnapshot, events_schedule, window_key

    scenario = Scenario(params)
    workload = build_workload(scenario)
    schedule = events_schedule(workload.key, until_s)
    key = window_key(fingerprint_params(params), schedule)
    if store is not None:
        snapshot = _cached_window(store, key)
        if snapshot is not None:
            return snapshot.restore(), dict(snapshot.stats)
    loop = scenario.run_events(workload, until_s)
    stats = loop.stats().as_dict()
    if store is not None:
        store.put(key, WindowSnapshot.capture(scenario, schedule, stats))
    return scenario, stats

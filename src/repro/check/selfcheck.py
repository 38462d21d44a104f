"""The self-check harness behind ``runner <exp> --selfcheck``.

One call runs the whole correctness battery at small scale:

1. **Invariant sweep** — build a tiny probed scenario and run every
   built-in invariant over its live objects: each node's tracker and
   ratio map, the packed engine population behind the candidate maps,
   every resolver's TTL cache, the service health machine (records and
   emitted transitions), an SMF clustering's post-conditions, and a
   prefix-extended probing window (restore a cached half-schedule,
   probe the rest) against the straight-through scenario.
2. **Differential pairs** — the equivalences the repo promises:
   vectorized vs scalar positioning, obs-on vs obs-off experiment
   reports (for the selected experiment producers), a
   present-but-disabled chaos stanza vs an absent one, the dense
   round loop vs the event engine under the degenerate workload,
   and the sketch-based approximate ranker vs the exact engine (plus
   the exact-mode byte-identity of the k/exclude fast path).
3. **Fuzz drivers** — seeded churn/observation/clustering fuzz with
   scalar↔vectorized cross-checks after every step and input
   shrinking on failure.

Every violation is emitted as a ``check.violation`` trace event
through :mod:`repro.obs` (and counted on ``check.violations``), and
the report renders green-or-first-failure, so CI can upload it as an
artifact and exit non-zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.check.differential import (
    DifferentialPair,
    DifferentialRunner,
    Divergence,
    ann_exact_mode_pair,
    ann_exact_pair,
    chaos_stanza_pair,
    dense_event_pair,
    remap_stanza_pair,
    obs_pair,
    scalar_vector_pair,
    sharded_service_pair,
)
from repro.check.fuzz import FuzzFailure, run_all_fuzz
from repro.check.invariants import InvariantRegistry, Violation, default_registry
from repro.core.clustering import SmfParams
from repro.core.engine import packed_for
from repro.obs import get_observability
from repro.workloads.scenario import Scenario, ScenarioParams


@dataclass(frozen=True)
class SelfCheckConfig:
    """Knobs of one self-check run (defaults: small and fast)."""

    seed: int = 2008
    #: Scale label handed to experiment producers for the obs pairs.
    scale: str = "quick"
    #: Clients / candidates / probe rounds of the invariant-sweep and
    #: differential scenarios (deliberately tiny: the harness checks
    #: machinery, not statistics).
    clients: int = 16
    candidates: int = 8
    probe_rounds: int = 6
    #: Steps per fuzz driver and the seeds swept.
    fuzz_steps: int = 40
    fuzz_seeds: Tuple[int, ...] = (0, 1)
    #: Run the (scenario-building, comparatively slow) differential
    #: pairs; the invariant sweep and fuzz always run.
    differential: bool = True


@dataclass
class SelfCheckReport:
    """Everything one self-check run found (ideally: nothing)."""

    violations: List[Violation] = field(default_factory=list)
    divergences: List[Divergence] = field(default_factory=list)
    fuzz_failures: List[FuzzFailure] = field(default_factory=list)
    invariants_checked: int = 0
    pairs_run: int = 0
    fuzz_drivers_run: int = 0

    @property
    def ok(self) -> bool:
        """True when every check passed."""
        return not (self.violations or self.divergences or self.fuzz_failures)

    @property
    def failure_count(self) -> int:
        return len(self.violations) + len(self.divergences) + len(self.fuzz_failures)

    def render(self) -> str:
        """The human-readable report the runner prints."""
        lines = [
            "self-check: "
            + ("OK" if self.ok else f"{self.failure_count} FAILURE(S)"),
            f"  invariant checks run: {self.invariants_checked}",
            f"  differential pairs run: {self.pairs_run}",
            f"  fuzz drivers run: {self.fuzz_drivers_run}",
        ]
        if self.violations:
            lines.append(f"invariant violations ({len(self.violations)}):")
            lines.extend(f"  {v}" for v in self.violations)
        if self.divergences:
            lines.append(f"differential divergences ({len(self.divergences)}):")
            lines.extend(f"  {d}" for d in self.divergences)
        if self.fuzz_failures:
            lines.append(f"fuzz failures ({len(self.fuzz_failures)}):")
            lines.extend(f"  {f}" for f in self.fuzz_failures)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-friendly record (the CI artifact format)."""
        return {
            "ok": self.ok,
            "invariants_checked": self.invariants_checked,
            "pairs_run": self.pairs_run,
            "fuzz_drivers_run": self.fuzz_drivers_run,
            "violations": [
                {"invariant": v.invariant, "subject": v.subject, "detail": v.detail}
                for v in self.violations
            ],
            "divergences": [
                {
                    "pair": d.pair,
                    "field": d.field,
                    "left": repr(d.left),
                    "right": repr(d.right),
                }
                for d in self.divergences
            ],
            "fuzz_failures": [
                {
                    "driver": f.driver,
                    "seed": f.seed,
                    "step": f.step,
                    "detail": f.detail,
                    "shrunk": repr(f.shrunk),
                }
                for f in self.fuzz_failures
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _sweep_scenario_invariants(
    config: SelfCheckConfig, registry: InvariantRegistry, report: SelfCheckReport
) -> None:
    """Build a tiny probed scenario and check every live object."""
    scenario = Scenario(
        ScenarioParams(
            seed=config.seed,
            dns_servers=config.clients,
            planetlab_nodes=config.candidates,
            build_meridian=False,
        )
    )
    scenario.run_probe_rounds(config.probe_rounds)
    crp = scenario.crp
    now = scenario.clock.now

    def run(name: str, subject: str, *args: object, **kwargs: object) -> None:
        report.invariants_checked += 1
        report.violations.extend(
            registry.check(name, subject, *args, now=now, **kwargs)
        )

    for node in crp.nodes:
        run("tracker", node, crp.tracker(node))
        ratio_map = crp.ratio_map(node)
        if ratio_map is not None:
            run("ratio_map", node, ratio_map)
    candidate_maps = crp.ratio_maps(scenario.candidate_names)
    population = packed_for(candidate_maps)
    run("engine", "candidate-population", population)

    # The sketch index rides the same population: build it, churn one
    # candidate through the listener path, and check it stayed in sync.
    from repro.core.ann import AnnParams, index_for

    ann_index = index_for(population, AnnParams())
    churned = next(
        (name for name, m in candidate_maps.items() if m is not None), None
    )
    if churned is not None:
        churned_map = candidate_maps[churned]
        population.remove(churned)
        population.add(churned, churned_map)
    run("ann_index", "candidate-ann-index", ann_index, population)
    for node, resolver in sorted(scenario.resolvers.items()):
        run("ttl_cache", node, resolver.cache, now)
        run("candidate_pool", node, scenario.cdn.mapping, resolver.host)
    run("service_health", "crp-service", crp)
    obs = get_observability()
    run(
        "health_transitions",
        "crp-service",
        obs.trace.events(kind="health.transition"),
    )
    smf_params = SmfParams(metric=crp.params.metric)
    client_maps = crp.ratio_maps(scenario.client_names)
    result = crp.cluster(scenario.client_names, smf_params=smf_params)
    run("smf_result", "smf-clustering", result, client_maps, smf_params)

    # Prefix-extended windows: restoring a cached shorter window and
    # probing the remainder must be indistinguishable from the straight
    # run above (same params, same schedule) — the promise fig8/fig9's
    # checkpointed probing rests on (DESIGN §17).
    from repro.exec.snapshots import SnapshotStore
    from repro.workloads.scenario import driven_scenario

    prefix_store = SnapshotStore()
    driven_scenario(
        scenario.params, max(1, config.probe_rounds // 2), store=prefix_store
    )
    extended = driven_scenario(
        scenario.params, config.probe_rounds, store=prefix_store
    )
    run("snapshot_restore", "prefix-extended-window", scenario, extended)

    # A second, event-driven scenario exercises the engine end to end
    # (sparse Zipf workload) and checks the loop's own invariant.
    from repro.sim.workload import PoissonZipfWorkload

    evented = Scenario(
        ScenarioParams(
            seed=config.seed,
            dns_servers=config.clients,
            planetlab_nodes=config.candidates,
            build_meridian=False,
        )
    )
    workload = PoissonZipfWorkload(
        evented.crp.active_nodes,
        config.seed,
        aggregate_rate_per_s=len(evented.crp.active_nodes) / 600.0,
    )
    loop = evented.run_events(workload, until_s=config.probe_rounds * 600.0)
    report.invariants_checked += 1
    report.violations.extend(registry.check("event_loop", "event-loop", loop))


def _standard_pairs(
    config: SelfCheckConfig,
    producers: Optional[Mapping[str, Callable[[str], Mapping[str, str]]]],
) -> List[DifferentialPair]:
    params = ScenarioParams(
        seed=config.seed,
        dns_servers=config.clients,
        planetlab_nodes=config.candidates,
        build_meridian=False,
    )
    pairs = [
        scalar_vector_pair(params, probe_rounds=config.probe_rounds),
        chaos_stanza_pair(params, probe_rounds=config.probe_rounds),
        remap_stanza_pair(params, probe_rounds=config.probe_rounds),
        dense_event_pair(params, probe_rounds=config.probe_rounds),
        sharded_service_pair(
            seed=config.seed,
            clients=config.clients * 3,
            candidates=config.candidates,
        ),
        ann_exact_pair(seed=config.seed),
        ann_exact_mode_pair(seed=config.seed),
    ]
    if producers:
        seen: List[Callable[[str], Mapping[str, str]]] = []
        for name in sorted(producers):
            producer = producers[name]
            if producer in seen:  # one producer can serve several keys
                continue
            seen.append(producer)
            pairs.append(obs_pair(name, producer, config.scale))
    return pairs


def run_selfcheck(
    config: SelfCheckConfig = SelfCheckConfig(),
    producers: Optional[Mapping[str, Callable[[str], Mapping[str, str]]]] = None,
    registry: Optional[InvariantRegistry] = None,
    extra_pairs: Sequence[DifferentialPair] = (),
) -> SelfCheckReport:
    """Run the whole battery; see the module docstring.

    ``producers`` maps experiment keys to report producers (the
    runner's table) for the obs-on/off pairs; ``extra_pairs`` lets
    callers bolt on their own differentials; ``registry`` defaults to
    the built-in invariant set.
    """
    if registry is None:
        registry = default_registry()
    report = SelfCheckReport()

    _sweep_scenario_invariants(config, registry, report)

    if config.differential:
        pairs = _standard_pairs(config, producers) + list(extra_pairs)
        runner = DifferentialRunner(pairs)
        report.divergences.extend(runner.run())
        report.pairs_run = len(pairs)

    report.fuzz_failures.extend(
        run_all_fuzz(seeds=config.fuzz_seeds, steps=config.fuzz_steps)
    )
    report.fuzz_drivers_run = 4 * len(config.fuzz_seeds)

    return report

"""Experiment work-cells: producers, plans, and sweep combiners.

Every runner experiment is expressed as an :class:`ExperimentPlan` — a
list of :class:`~repro.exec.executor.Cell` s plus a ``combine`` that
reassembles their results into named report strings.  Grids that used
to be in-line for-loops (the fig8 interval sweep, the chaos intensity
sweep, the ablation axes, bootstrap replications) become one cell per
point; experiments that share expensive state (fig4/fig5's closest-node
outcome, table1/fig6/fig7's clustering study, the similarity and
center-policy ablations' probed scenario) become cells in one shard
``group``, warm-starting from the shard's
:class:`~repro.exec.SnapshotStore` so the shared window simulates at
most once per unique params fingerprint.

Producers take ``(cell, seed, store)`` and return a
:class:`~repro.exec.executor.CellOutput`; they apply the cell's
``ScenarioParams`` overrides through
:func:`~repro.experiments.harness.scenario_params_for`, so the same
producer serves full-scale runs and the tiny differential-check cells.

The paper experiments keep their historical pinned seeds (2008, 177,
8, 9, 13, 1906, 360) for bit-compatibility with the serial runner;
cells that are new here (ablations, bootstrap replications) derive
seeds via :func:`~repro.exec.executor.seed_for`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.check.differential import DifferentialPair
from repro.exec.executor import (
    Cell,
    CellOutput,
    CellResult,
    run_cells,
    seed_for,
)
from repro.exec.snapshots import SnapshotStore
from repro.experiments.ablations import (
    HEALTH_AXIS,
    HEALTH_DEPLOYMENTS,
    HEALTH_HEADERS,
    SPREAD_AXIS,
    SPREAD_HEADERS,
    SPREAD_VALUES,
    AblationResult,
    run_center_policy_ablation,
    run_meridian_budget_ablation,
    run_meridian_health_row,
    run_similarity_ablation,
    run_spread_ablation_row,
)
from repro.experiments.bootstrap import run_bootstrap_experiment
from repro.experiments.chaos import CHAOS_FACTORS, ChaosResult, run_chaos_point
from repro.experiments.clustering import (
    ClusteringStudy,
    evaluate_clustering_study,
)
from repro.experiments.detour import run_detour
from repro.experiments.fig4_closest import Fig4Result
from repro.experiments.fig5_relerr import Fig5Result
from repro.experiments.fig6_cdf import run_fig6
from repro.experiments.fig7_buckets import run_fig7
from repro.experiments.fig8_interval import FIG8_INTERVALS, Fig8Result
from repro.experiments.fig8_interval import run_fig8_point as _fig8_point_fn
from repro.experiments.fig9_window import run_fig9
from repro.experiments.harness import (
    SCALES,
    ClosestNodeOutcome,
    evaluate_closest_node,
    scenario_params_for,
)
from repro.experiments.overhead import run_overhead
from repro.experiments.remap import (
    RemapResult,
    remap_grid,
    run_remap_point,
)
from repro.experiments.table1_summary import run_table1
from repro.core.change import RecoveryPolicy
from repro.obs.manifest import fingerprint_params
from repro.workloads.scenario import (
    Scenario,
    ScenarioParams,
    driven_scenario,
    driven_scenario_events,
)

#: kind → producer(cell, seed, store) → CellOutput.
Producer = Callable[[Cell, int, SnapshotStore], CellOutput]
PRODUCERS: Dict[str, Producer] = {}


def producer(kind: str) -> Callable[[Producer], Producer]:
    def register(fn: Producer) -> Producer:
        if kind in PRODUCERS:
            raise ValueError(f"producer {kind!r} already registered")
        PRODUCERS[kind] = fn
        return fn

    return register


def _params(
    cell: Cell, seed: int, profile: str, meridian: bool = False
) -> ScenarioParams:
    return scenario_params_for(
        cell.scale, seed, profile, meridian, **dict(cell.overrides)
    )


# -- shared artifacts (computed at most once per shard) ----------------------


def _closest_outcome(
    cell: Cell, seed: int, store: SnapshotStore
) -> ClosestNodeOutcome:
    """Fig4/fig5's shared closest-node outcome, snapshot-backed."""
    params = _params(cell, seed, "selection", meridian=True)
    rounds = int(cell.option("probe_rounds", SCALES[cell.scale].probe_rounds))
    key = store.key_for("closest-outcome", fingerprint_params(params), rounds, 10.0)

    def compute() -> ClosestNodeOutcome:
        scenario = driven_scenario(params, rounds, 10.0, store=store)
        return evaluate_closest_node(scenario)

    return store.get_or_compute(key, compute)


def _clustering_study(cell: Cell, seed: int, store: SnapshotStore) -> ClusteringStudy:
    """Table1/fig6/fig7's shared study, snapshot-backed."""
    params = _params(cell, seed, "clustering")
    rounds = int(
        cell.option("probe_rounds", 24 if cell.scale == "quick" else 60)
    )
    key = store.key_for("clustering-study", fingerprint_params(params), rounds, 10.0)

    def compute() -> ClusteringStudy:
        scenario = driven_scenario(params, rounds, 10.0, store=store)
        return evaluate_clustering_study(scenario)

    return store.get_or_compute(key, compute)


def _ablation_scenario(cell: Cell, seed: int, store: SnapshotStore) -> Scenario:
    """The probed scenario the map-reading ablations share."""
    params = _params(cell, seed, "selection", meridian=False)
    rounds = int(cell.option("probe_rounds", 24 if cell.scale == "quick" else 48))
    return driven_scenario(params, rounds, 10.0, store=store)


# -- producers ---------------------------------------------------------------


@producer("fig4")
def _fig4(cell: Cell, seed: int, store: SnapshotStore) -> CellOutput:
    outcome = _closest_outcome(cell, seed, store)
    return CellOutput(reports={"fig4": Fig4Result(outcome=outcome).report()})


@producer("fig5")
def _fig5(cell: Cell, seed: int, store: SnapshotStore) -> CellOutput:
    outcome = _closest_outcome(cell, seed, store)
    return CellOutput(reports={"fig5": Fig5Result(outcome=outcome).report()})


@producer("table1")
def _table1(cell: Cell, seed: int, store: SnapshotStore) -> CellOutput:
    study = _clustering_study(cell, seed, store)
    return CellOutput(reports={"table1": run_table1(None, study=study).report()})


@producer("fig6")
def _fig6(cell: Cell, seed: int, store: SnapshotStore) -> CellOutput:
    study = _clustering_study(cell, seed, store)
    return CellOutput(reports={"fig6": run_fig6(None, study=study).report()})


@producer("fig7")
def _fig7(cell: Cell, seed: int, store: SnapshotStore) -> CellOutput:
    study = _clustering_study(cell, seed, store)
    return CellOutput(reports={"fig7": run_fig7(None, study=study).report()})


@producer("fig8.point")
def _fig8_point(cell: Cell, seed: int, store: SnapshotStore) -> CellOutput:
    params = _params(cell, seed, "selection", meridian=False)
    point = _fig8_point_fn(
        params,
        float(cell.option("interval_minutes")),
        float(cell.option("duration_minutes")),
        evaluations=int(cell.option("evaluations", 4)),
        window_probes=cell.option("window_probes"),
        store=store,
    )
    return CellOutput(value=point)


@producer("fig9")
def _fig9(cell: Cell, seed: int, store: SnapshotStore) -> CellOutput:
    scenario = Scenario(_params(cell, seed, "selection", meridian=False))
    rounds = int(
        cell.option("probe_rounds", 48 if cell.scale == "quick" else 144)
    )
    result = run_fig9(scenario, probe_rounds=rounds, store=store)
    return CellOutput(reports={"fig9": result.report()})


@producer("detour")
def _detour(cell: Cell, seed: int, store: SnapshotStore) -> CellOutput:
    scenario = Scenario(_params(cell, seed, "clustering"))
    pairs = int(cell.option("pairs", 120 if cell.scale == "quick" else 300))
    result = run_detour(scenario, pairs=pairs)
    return CellOutput(reports={"detour": result.report()})


@producer("overhead")
def _overhead(cell: Cell, seed: int, store: SnapshotStore) -> CellOutput:
    scenario = Scenario(_params(cell, seed, "clustering"))
    result = run_overhead(scenario)
    return CellOutput(reports={"overhead": result.report()})


@producer("chaos.point")
def _chaos_point(cell: Cell, seed: int, store: SnapshotStore) -> CellOutput:
    params = _params(cell, seed, "selection", meridian=False)
    point = run_chaos_point(
        params,
        float(cell.option("factor")),
        rounds=int(cell.option("rounds")),
        interval_minutes=float(cell.option("interval_minutes", 10.0)),
    )
    return CellOutput(value=point)


@producer("events.point")
def _events_point(cell: Cell, seed: int, store: SnapshotStore) -> CellOutput:
    """One sparse event-driven window at a fraction of the dense rate.

    ``rate_factor`` scales the population's aggregate probe rate
    relative to the dense loop's (every node every
    ``interval_minutes``); the cell value records the dispatch ratio
    alongside positioning coverage, quantifying what sparse probing
    costs in answerability.
    """
    from repro.sim.workload import PoissonZipfWorkload

    params = _params(cell, seed, "selection", meridian=False)
    rate_factor = float(cell.option("rate_factor"))
    interval_minutes = float(cell.option("interval_minutes", 10.0))
    duration_minutes = float(cell.option("duration_minutes"))
    until_s = duration_minutes * 60.0

    def build(scenario: Scenario) -> PoissonZipfWorkload:
        names = scenario.crp.active_nodes
        dense_rate = len(names) / (interval_minutes * 60.0)
        return PoissonZipfWorkload(
            names, seed, aggregate_rate_per_s=dense_rate * rate_factor
        )

    scenario, stats = driven_scenario_events(params, build, until_s, store=store)
    crp = scenario.crp
    active = crp.active_nodes
    dense_dispatches = len(active) * int(duration_minutes // interval_minutes)
    dispatched_probes = stats["dispatched_by_kind"]["client_probe"]
    positioned = sum(1 for name in active if crp.ratio_map(name) is not None)
    return CellOutput(
        value={
            "rate_factor": rate_factor,
            "population": len(active),
            "events_dispatched": stats["dispatched"],
            "probe_events": dispatched_probes,
            "idle_skips": stats["idle_skips"],
            "max_heap_depth": stats["max_heap_depth"],
            "probes_issued": crp.probes_issued,
            "dense_dispatches": dense_dispatches,
            "dispatch_ratio": (
                dense_dispatches / dispatched_probes if dispatched_probes else None
            ),
            "positioned": positioned,
        }
    )


@producer("service.point")
def _service_point(cell: Cell, seed: int, store: SnapshotStore) -> CellOutput:
    """One sharded serving run checked against the unsharded reference.

    Deliberately records no wall-clock numbers: the cell value (and so
    the combined report) is byte-stable across machines and across the
    obs-on/off pair.  A fingerprint mismatch fails the cell.  Throughput
    lives in the ``serve_*`` workloads of ``bench/run.py``.
    """
    from repro.experiments.service import run_service_point

    return CellOutput(
        value=run_service_point(cell.scale, seed, int(cell.option("shards")))
    )


@producer("remap.point")
def _remap_point(cell: Cell, seed: int, store: SnapshotStore) -> CellOutput:
    params = _params(cell, seed, "selection", meridian=False)
    point = run_remap_point(
        params,
        float(cell.option("magnitude")),
        float(cell.option("threshold")),
        policy=RecoveryPolicy(str(cell.option("policy"))),
        rounds=int(cell.option("rounds")),
        interval_minutes=float(cell.option("interval_minutes", 10.0)),
    )
    return CellOutput(value=point)


@producer("bootstrap.rep")
def _bootstrap_rep(cell: Cell, seed: int, store: SnapshotStore) -> CellOutput:
    scenario = Scenario(_params(cell, seed, "selection", meridian=False))
    joiners = int(cell.option("joiners"))
    max_probes = int(cell.option("max_probes"))
    result = run_bootstrap_experiment(
        scenario,
        joiners=joiners,
        warmup_rounds=int(cell.option("warmup_rounds")),
        max_probes=max_probes,
        seed=seed,
    )
    minutes = result.convergence_minutes()
    return CellOutput(
        value={
            "rep": int(cell.option("rep")),
            "seed": seed,
            "joiners": joiners,
            "convergence_minutes": minutes,
            "steady_rank": result.steady_state_rank(),
            "final_signal": result.signal_fraction_by_probe.get(max_probes, 0.0),
        }
    )


@producer("ann.point")
def _ann_point(cell: Cell, seed: int, store: SnapshotStore) -> CellOutput:
    """One approximate-ranking quality point at a (probe, shortlist)
    operating width.

    Like ``service.point``, the cell value carries no wall-clock
    numbers — recall and index counters only — so the combined report
    is byte-stable across machines; rank times live in ``bench/run.py``.
    """
    from repro.experiments.ann import run_ann_point

    return CellOutput(
        value=run_ann_point(
            int(cell.option("population")),
            seed,
            queries=int(cell.option("queries", 40)),
            probe_hamming=int(cell.option("probe_hamming")),
            shortlist=int(cell.option("shortlist")),
        )
    )


@producer("ablation.similarity")
def _ablation_similarity(cell: Cell, seed: int, store: SnapshotStore) -> CellOutput:
    return CellOutput(value=run_similarity_ablation(_ablation_scenario(cell, seed, store)))


@producer("ablation.centers")
def _ablation_centers(cell: Cell, seed: int, store: SnapshotStore) -> CellOutput:
    return CellOutput(
        value=run_center_policy_ablation(_ablation_scenario(cell, seed, store))
    )


@producer("ablation.spread")
def _ablation_spread(cell: Cell, seed: int, store: SnapshotStore) -> CellOutput:
    params = _params(cell, seed, "selection", meridian=False)
    rounds = int(cell.option("probe_rounds", 24 if cell.scale == "quick" else 48))
    row = run_spread_ablation_row(
        params, int(cell.option("spread")), probe_rounds=rounds
    )
    return CellOutput(value=row)


@producer("ablation.meridian_budget")
def _ablation_budget(cell: Cell, seed: int, store: SnapshotStore) -> CellOutput:
    params = _params(cell, seed, "selection", meridian=False)
    queries = int(cell.option("queries", 60 if cell.scale == "quick" else 120))
    return CellOutput(value=run_meridian_budget_ablation(params, queries=queries))


@producer("ablation.meridian_health")
def _ablation_health(cell: Cell, seed: int, store: SnapshotStore) -> CellOutput:
    params = _params(cell, seed, "selection", meridian=False)
    queries = int(cell.option("queries", 60 if cell.scale == "quick" else 150))
    row = run_meridian_health_row(
        params, str(cell.option("deployment")), queries=queries
    )
    return CellOutput(value=row)


# -- plans -------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment key's cells plus its result combiner."""

    key: str
    cells: Tuple[Cell, ...]
    combine: Callable[[Sequence[CellResult]], Dict[str, str]]


def _combine_reports(results: Sequence[CellResult]) -> Dict[str, str]:
    merged: Dict[str, str] = {}
    for result in results:
        merged.update(result.reports)
    return merged


#: The historical runner experiment set (the default sweep).
DEFAULT_EXPERIMENTS = (
    "chaos",
    "detour",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "overhead",
    "table1",
)

#: Every plannable experiment key.  ``ann``, ``events``, ``remap`` and
#: ``service`` stay out of the default sweep so the historical report
#: fingerprints are unchanged.
EXPERIMENT_KEYS = DEFAULT_EXPERIMENTS + (
    "ablations",
    "ann",
    "bootstrap",
    "events",
    "remap",
    "service",
)

#: Aggregate-rate factors (relative to the dense every-node-every-
#: interval rate) swept by the ``events`` experiment.
EVENT_RATE_FACTORS = (0.02, 0.1)


def plan_for(key: str, scale: str, root_seed: int = 0) -> ExperimentPlan:
    """The cell list and combiner for one experiment key."""
    if key not in EXPERIMENT_KEYS:
        raise KeyError(f"unknown experiment {key!r}")
    spec = SCALES[scale]

    if key in ("fig4", "fig5"):
        cell = Cell(kind=key, scale=scale, seed=2008, group=f"closest:{scale}")
        return ExperimentPlan(key, (cell,), _combine_reports)

    if key in ("table1", "fig6", "fig7"):
        cell = Cell(kind=key, scale=scale, seed=177, group=f"clustering:{scale}")
        return ExperimentPlan(key, (cell,), _combine_reports)

    if key == "fig8":
        duration = spec.sweep_minutes
        cells = tuple(
            Cell(
                kind="fig8.point",
                scale=scale,
                seed=8,
                options=(
                    ("interval_minutes", interval),
                    ("duration_minutes", duration),
                ),
            )
            for interval in FIG8_INTERVALS
        )

        def combine_fig8(results: Sequence[CellResult]) -> Dict[str, str]:
            points = {
                interval: result.value
                for interval, result in zip(FIG8_INTERVALS, results)
            }
            report = Fig8Result(points=points, duration_minutes=duration).report()
            return {"fig8": report}

        return ExperimentPlan(key, cells, combine_fig8)

    if key == "fig9":
        return ExperimentPlan(
            key, (Cell(kind="fig9", scale=scale, seed=9),), _combine_reports
        )

    if key == "detour":
        return ExperimentPlan(
            key, (Cell(kind="detour", scale=scale, seed=1906),), _combine_reports
        )

    if key == "overhead":
        return ExperimentPlan(
            key, (Cell(kind="overhead", scale=scale, seed=360),), _combine_reports
        )

    if key == "chaos":
        rounds = spec.probe_rounds
        cells = tuple(
            Cell(
                kind="chaos.point",
                scale=scale,
                seed=13,
                options=(
                    ("factor", factor),
                    ("rounds", rounds),
                    ("interval_minutes", 10.0),
                ),
            )
            for factor in CHAOS_FACTORS
        )

        def combine_chaos(results: Sequence[CellResult]) -> Dict[str, str]:
            chaos_result = ChaosResult(
                points=[result.value for result in results],
                rounds=rounds,
                interval_minutes=10.0,
            )
            return {"chaos": chaos_result.report()}

        return ExperimentPlan(key, cells, combine_chaos)

    if key == "events":
        duration = spec.probe_rounds * 10.0
        cells = tuple(
            Cell(
                kind="events.point",
                scale=scale,
                options=(
                    ("rate_factor", factor),
                    ("duration_minutes", duration),
                    ("interval_minutes", 10.0),
                ),
            )
            for factor in EVENT_RATE_FACTORS
        )

        def combine_events(results: Sequence[CellResult]) -> Dict[str, str]:
            rows = []
            for result in results:
                point = result.value
                ratio = point["dispatch_ratio"]
                rows.append(
                    [
                        f"{point['rate_factor']:g}",
                        point["population"],
                        point["probe_events"],
                        point["dense_dispatches"],
                        "-" if ratio is None else f"{ratio:.1f}x",
                        point["positioned"],
                        point["max_heap_depth"],
                    ]
                )
            report = format_table(
                [
                    "rate",
                    "nodes",
                    "probe events",
                    "dense dispatches",
                    "savings",
                    "positioned",
                    "heap depth",
                ],
                rows,
                title=(
                    "Event-driven probing vs the dense schedule "
                    f"({duration:g} simulated minutes)"
                ),
            )
            return {"events": report}

        return ExperimentPlan(key, cells, combine_events)

    if key == "remap":
        rounds = spec.probe_rounds
        grid = remap_grid()
        cells = tuple(
            Cell(
                kind="remap.point",
                scale=scale,
                seed=2008,
                options=(
                    ("magnitude", magnitude),
                    ("threshold", threshold),
                    ("policy", policy.value),
                    ("rounds", rounds),
                    ("interval_minutes", 10.0),
                ),
            )
            for magnitude, threshold, policy in grid
        )

        def combine_remap(results: Sequence[CellResult]) -> Dict[str, str]:
            remap_result = RemapResult(
                points=[result.value for result in results],
                rounds=rounds,
                interval_minutes=10.0,
            )
            return {"remap": remap_result.report()}

        return ExperimentPlan(key, cells, combine_remap)

    if key == "service":
        from repro.experiments.service import SERVICE_SHARD_COUNTS, SERVICE_SIZES

        size = SERVICE_SIZES[scale]
        cells = tuple(
            Cell(
                kind="service.point",
                scale=scale,
                seed=2008,
                options=(("shards", shards),),
            )
            for shards in SERVICE_SHARD_COUNTS
        )

        def combine_service(results: Sequence[CellResult]) -> Dict[str, str]:
            rows = []
            for result in results:
                point = result.value
                rows.append(
                    [
                        point["shards"],
                        point["ops"],
                        point["positions"],
                        point["resident_clients"],
                        point["engine_rows"],
                        point["fingerprint"][:16],
                        "yes",  # a mismatch fails the cell
                    ]
                )
            report = format_table(
                [
                    "shards",
                    "ops",
                    "positions",
                    "clients",
                    "engine rows",
                    "fingerprint",
                    "match",
                ],
                rows,
                title=(
                    "Sharded serving path vs the unsharded reference "
                    f"({size['clients']:g} clients, {size['horizon_s']:g}s script)"
                ),
            )
            return {"service": report}

        return ExperimentPlan(key, cells, combine_service)

    if key == "ann":
        from repro.experiments.ann import ANN_SIZES, ANN_WIDTHS

        cells = tuple(
            Cell(
                kind="ann.point",
                scale=scale,
                seed=2008,
                options=(
                    ("population", population),
                    ("probe_hamming", probe),
                    ("shortlist", shortlist),
                ),
            )
            for population in ANN_SIZES[scale]
            for probe, shortlist in ANN_WIDTHS
        )

        def combine_ann(results: Sequence[CellResult]) -> Dict[str, str]:
            rows = []
            for result in results:
                point = result.value
                rows.append(
                    [
                        point["population"],
                        point["probe_hamming"],
                        point["shortlist"],
                        f"{point['recall_at_1']:.4f}",
                        f"{point['recall_at_5']:.4f}",
                        f"{point['shortlist_covers_top5']:.4f}",
                        point["index_full_scans"],
                        point["index_gathered_rows"],
                    ]
                )
            report = format_table(
                [
                    "population",
                    "probe",
                    "shortlist",
                    "recall@1",
                    "recall@5",
                    "covers top5",
                    "scans",
                    "gathered",
                ],
                rows,
                title="Sketch-based approximate ranking vs the exact engine",
            )
            return {"ann": report}

        return ExperimentPlan(key, cells, combine_ann)

    if key == "bootstrap":
        quick = scale == "quick"
        joiners = 8 if quick else 20
        warmup = 12 if quick else 24
        max_probes = 12 if quick else 24
        cells = tuple(
            Cell(
                kind="bootstrap.rep",
                scale=scale,
                options=(
                    ("rep", rep),
                    ("joiners", joiners),
                    ("warmup_rounds", warmup),
                    ("max_probes", max_probes),
                ),
            )
            for rep in range(3)
        )

        def combine_bootstrap(results: Sequence[CellResult]) -> Dict[str, str]:
            rows = []
            for result in results:
                value = result.value
                minutes = value["convergence_minutes"]
                rows.append(
                    [
                        value["rep"],
                        value["seed"],
                        "-" if minutes is None else f"{minutes:g}",
                        f"{value['steady_rank']:.2f}",
                        f"{value['final_signal']:.0%}",
                    ]
                )
            table = format_table(
                ["rep", "seed", "converges (min)", "steady rank", "signal at end"],
                rows,
                title=(
                    f"Bootstrap replications ({joiners} joiners each, "
                    f"seeds derived per cell)"
                ),
            )
            return {"bootstrap": table}

        return ExperimentPlan(key, cells, combine_bootstrap)

    # key == "ablations"
    shared_seed = seed_for(f"ablations@{scale}", root_seed)
    group = f"ablations:{scale}"
    cells = (
        Cell(kind="ablation.similarity", scale=scale, seed=shared_seed, group=group),
        *(
            Cell(kind="ablation.spread", scale=scale, options=(("spread", spread),))
            for spread in SPREAD_VALUES
        ),
        Cell(kind="ablation.centers", scale=scale, seed=shared_seed, group=group),
        Cell(kind="ablation.meridian_budget", scale=scale),
        *(
            Cell(
                kind="ablation.meridian_health",
                scale=scale,
                options=(("deployment", deployment),),
            )
            for deployment in HEALTH_DEPLOYMENTS
        ),
    )

    def combine_ablations(results: Sequence[CellResult]) -> Dict[str, str]:
        by_kind: Dict[str, List[CellResult]] = {}
        for result in results:
            by_kind.setdefault(result.kind, []).append(result)
        sections: List[str] = []
        sections.append(by_kind["ablation.similarity"][0].value.report())
        spread = AblationResult(
            axis=SPREAD_AXIS,
            rows=[r.value for r in by_kind["ablation.spread"]],
            headers=list(SPREAD_HEADERS),
        )
        sections.append(spread.report())
        sections.append(by_kind["ablation.centers"][0].value.report())
        sections.append(by_kind["ablation.meridian_budget"][0].value.report())
        health = AblationResult(
            axis=HEALTH_AXIS,
            rows=[r.value for r in by_kind["ablation.meridian_health"]],
            headers=list(HEALTH_HEADERS),
        )
        sections.append(health.report())
        return {"ablations": "\n\n".join(sections)}

    return ExperimentPlan(key, cells, combine_ablations)


def plans_for(
    keys: Sequence[str], scale: str, root_seed: int = 0
) -> List[ExperimentPlan]:
    """Plans for several keys, deduplicated and in request order."""
    ordered: List[str] = []
    for key in keys:
        if key not in ordered:
            ordered.append(key)
    return [plan_for(key, scale, root_seed) for key in ordered]


# -- differential: the parallel path equals the serial path ------------------


def equivalence_cells(scale: str = "quick") -> List[Cell]:
    """A tiny mixed fig8+chaos cell list for equivalence checks."""
    shrink = (("dns_servers", 12), ("planetlab_nodes", 6))
    fig8 = [
        Cell(
            kind="fig8.point",
            scale=scale,
            seed=8,
            overrides=shrink,
            options=(
                ("interval_minutes", interval),
                ("duration_minutes", 240.0),
                ("evaluations", 2),
            ),
        )
        for interval in (60.0, 120.0)
    ]
    chaos = [
        Cell(
            kind="chaos.point",
            scale=scale,
            seed=13,
            overrides=shrink,
            options=(("factor", factor), ("rounds", 4), ("interval_minutes", 10.0)),
        )
        for factor in (0.0, 1.5)
    ]
    return fig8 + chaos


def sweep_fields(results: Sequence[CellResult]) -> Dict[str, object]:
    """A flat field map over cell results (for differential pairs)."""
    fields: Dict[str, object] = {}
    for result in results:
        fields[f"{result.cell_key}.ok"] = result.ok
        fields[f"{result.cell_key}.seed"] = result.seed
        fields[f"{result.cell_key}.value"] = repr(result.value)
        for name in sorted(result.reports):
            fields[f"{result.cell_key}.report.{name}"] = result.reports[name]
    return fields


def parallel_equivalence_pair(
    scale: str = "quick", jobs: int = 2, root_seed: int = 0
) -> DifferentialPair:
    """``run_cells(jobs=1)`` vs ``run_cells(jobs=N)`` on mixed cells."""
    cells = equivalence_cells(scale)

    def side(n: int) -> Callable[[], Dict[str, object]]:
        def produce() -> Dict[str, object]:
            sweep = run_cells(cells, jobs=n, root_seed=root_seed, manifest=False)
            return sweep_fields(sweep.results)

        return produce

    return DifferentialPair(
        name=f"parallel-vs-serial.jobs{jobs}", left=side(1), right=side(jobs)
    )

"""Differential execution: one experiment, paired configurations.

A :class:`DifferentialPair` names two ways of producing the same
*field map* — an ordered mapping of field name → value — that are
promised to agree: the vectorized engine against the scalar reference,
an observed run against an unobserved one, a scenario with a
present-but-disabled chaos stanza against one with no stanza at all.
The :class:`DifferentialRunner` executes both sides and reports the
**first divergent field** per pair (first key order is the left
side's), which is the thing an operator actually wants: not "the
reports differ" but *where* they start differing.

Field values compare exactly, except floats (and sequences of floats),
which compare within the pair's tolerance — the engine's contract is
bit-identical *orderings* with scores equal up to float summation
order, so name fields use zero tolerance and score fields a tiny one.

The standard pair builders cover the equivalences the repo promises:

* :func:`scalar_vector_pair` — rankings, Top-K selections (through
  all three ranking entry points) and SMF clusterings over one probed
  scenario, vectorized vs scalar;
* :func:`obs_pair` — an experiment producer's reports with
  observability enabled vs fully disabled;
* :func:`chaos_stanza_pair` — a scenario carrying a zero-rate chaos
  stanza vs one with the stanza absent;
* :func:`remap_stanza_pair` — a zero-magnitude remap schedule (with
  the change detector armed) vs no remap configuration at all;
* :func:`dense_event_pair` — the dense round loop against the event
  engine under the degenerate "every client, every interval" workload;
* :func:`sharded_service_pair` — the N-shard asyncio serving path
  against the unsharded :class:`~repro.core.service.CRPService` on one
  seeded load script, compared answer line by answer line;
* :func:`ann_exact_pair` — sketch-shortlist Top-K against the exact
  engine on a seeded clustered population (names, true-cosine scores,
  and shortlist⊇exact-Top-K coverage);
* :func:`ann_exact_mode_pair` — ``rank_packed``'s k/exclude fast path
  against the legacy rank-everything-then-slice composition, byte for
  byte (the exact-mode identity promise).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs as obs_layer
from repro.core.clustering import SmfParams, smf_cluster
from repro.core.engine import packed_for
from repro.core.selection import rank_candidates, rank_packed, rank_scalar, select_top_k
from repro.core.service import ProbePolicy
from repro.faults import ChaosParams
from repro.obs import NOOP, get_observability
from repro.workloads.scenario import Scenario, ScenarioParams

#: Score agreement between the vectorized and scalar similarity paths
#: (the engine's documented bound is ≤ 1e-12; leave headroom).
SCORE_TOLERANCE = 1e-9

#: A producer of one side of a pair: () → ordered field map.
FieldProducer = Callable[[], Mapping[str, object]]


@dataclass(frozen=True)
class Divergence:
    """The first field on which a pair's two sides disagree."""

    pair: str
    field: str
    left: object
    right: object

    def __str__(self) -> str:
        return (
            f"[{self.pair}] first divergent field {self.field!r}: "
            f"{self.left!r} != {self.right!r}"
        )


@dataclass(frozen=True)
class DifferentialPair:
    """Two runs promised to produce the same field map."""

    name: str
    left: FieldProducer = field(repr=False)
    right: FieldProducer = field(repr=False)
    #: Absolute tolerance for float-valued fields (0.0 = exact).
    tolerance: float = 0.0


def _values_equal(left: object, right: object, tolerance: float) -> bool:
    """Equality with float slack, applied recursively to sequences."""
    if isinstance(left, float) and isinstance(right, float):
        return abs(left - right) <= tolerance
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        if len(left) != len(right):
            return False
        return all(
            _values_equal(a, b, tolerance) for a, b in zip(left, right)
        )
    return left == right


def first_divergence(
    pair: str,
    left: Mapping[str, object],
    right: Mapping[str, object],
    tolerance: float = 0.0,
) -> Optional[Divergence]:
    """The first field (left-side order, then right-only extras) on
    which two field maps disagree, or None when they match."""
    for key in left:
        if key not in right:
            return Divergence(pair, key, left[key], "<missing>")
        if not _values_equal(left[key], right[key], tolerance):
            return Divergence(pair, key, left[key], right[key])
    for key in right:
        if key not in left:
            return Divergence(pair, key, "<missing>", right[key])
    return None


class DifferentialRunner:
    """Execute differential pairs and collect their first divergences.

    Each divergence is also emitted as a ``check.violation`` trace
    event through the active observability, so manifests record
    differential failures the same way invariant failures are.
    """

    def __init__(self, pairs: Sequence[DifferentialPair]) -> None:
        self.pairs = list(pairs)

    def run(self) -> List[Divergence]:
        """Run every pair; at most one divergence (the first) per pair."""
        divergences: List[Divergence] = []
        for pair in self.pairs:
            left = pair.left()
            right = pair.right()
            divergence = first_divergence(pair.name, left, right, pair.tolerance)
            if divergence is not None:
                divergences.append(divergence)
                obs = get_observability()
                obs.metrics.counter("check.violations", invariant="differential").inc()
                obs.trace.emit(
                    "check.violation", 0.0, pair.name,
                    invariant="differential",
                    detail=str(divergence),
                )
        return divergences


# -- report/field plumbing ---------------------------------------------------


def report_fields(reports: Mapping[str, str]) -> Dict[str, object]:
    """Flatten named report strings into per-line fields, so a diff
    names the exact first line that changed."""
    fields: Dict[str, object] = {}
    for name in sorted(reports):
        for index, line in enumerate(reports[name].splitlines()):
            fields[f"{name}:{index}"] = line
    return fields


# -- standard pairs ----------------------------------------------------------


def _positioning_fields(scenario: Scenario, *, vectorized: bool) -> Dict[str, object]:
    """Rankings, Top-K picks and clusterings for one probed scenario,
    computed through one similarity path (the vectorized side through
    all three ranking entry points; ``rank_packed(k=1)`` is figure
    8/9's checkpoint evaluation)."""
    fields: Dict[str, object] = {}
    crp = scenario.crp
    metric = crp.params.metric
    candidate_maps = crp.ratio_maps(scenario.candidate_names)
    for client in scenario.client_names:
        client_map = crp.ratio_map(client)
        if client_map is None:
            fields[f"rank.{client}"] = None
            continue
        if vectorized:
            ranked = rank_candidates(client_map, candidate_maps, metric)
            top = select_top_k(client_map, candidate_maps, 5, metric)
            top1 = rank_packed(client_map, packed_for(candidate_maps), metric, k=1)
        else:
            ranked = rank_scalar(client_map, candidate_maps, metric)
            top, top1 = ranked[:5], ranked[:1]
        fields[f"rank.{client}.names"] = tuple(r.name for r in ranked)
        fields[f"rank.{client}.scores"] = tuple(r.score for r in ranked)
        fields[f"top5.{client}"] = tuple(r.name for r in top)
        fields[f"top1.{client}"] = tuple(r.name for r in top1)
    client_maps = crp.ratio_maps(scenario.client_names)
    for threshold in (0.1, 0.5):
        result = smf_cluster(
            client_maps,
            SmfParams(threshold=threshold, metric=metric),
            vectorized=vectorized,
        )
        key = f"smf.t{threshold:g}"
        fields[f"{key}.clusters"] = tuple(
            (c.center, tuple(c.members)) for c in result.clusters
        )
        fields[f"{key}.unclustered"] = tuple(result.unclustered)
    return fields


def scalar_vector_pair(
    params: ScenarioParams, probe_rounds: int = 6
) -> DifferentialPair:
    """Vectorized vs scalar positioning over one probed scenario.

    The scenario is built and probed once (lazily, on first use) and
    both sides read the same ratio maps, so the only degree of freedom
    is the similarity path itself.
    """
    state: Dict[str, Scenario] = {}

    def scenario() -> Scenario:
        if "scenario" not in state:
            built = Scenario(params)
            built.run_probe_rounds(probe_rounds)
            state["scenario"] = built
        return state["scenario"]

    return DifferentialPair(
        name="vectorized-vs-scalar",
        left=lambda: _positioning_fields(scenario(), vectorized=True),
        right=lambda: _positioning_fields(scenario(), vectorized=False),
        tolerance=SCORE_TOLERANCE,
    )


def obs_pair(
    name: str,
    producer: Callable[[str], Mapping[str, str]],
    scale: str,
) -> DifferentialPair:
    """An experiment producer's reports, observed vs unobserved.

    The observability layer promises bit-identical outputs either way;
    the left side runs under a fresh enabled scope, the right under
    the disabled :data:`~repro.obs.NOOP`.
    """

    def observed_side() -> Mapping[str, object]:
        with obs_layer.observed():
            return report_fields(producer(scale))

    def unobserved_side() -> Mapping[str, object]:
        with obs_layer.observed(NOOP):
            return report_fields(producer(scale))

    return DifferentialPair(
        name=f"obs-on-vs-off.{name}", left=observed_side, right=unobserved_side
    )


def _scenario_summary_fields(params: ScenarioParams, probe_rounds: int) -> Dict[str, object]:
    """A compact behavioural fingerprint of one probed scenario."""
    scenario = Scenario(params)
    scenario.run_probe_rounds(probe_rounds)
    return _summary_fields_of(scenario)


def _summary_fields_of(scenario: Scenario) -> Dict[str, object]:
    """The behavioural fingerprint of an already-driven scenario."""
    crp = scenario.crp
    fields: Dict[str, object] = {
        "sim.now": scenario.clock.now,
        "crp.probes_issued": crp.probes_issued,
        "crp.probe_failures": crp.probe_failures,
        "crp.health": tuple(sorted(crp.health_summary().items())),
    }
    for client in scenario.client_names:
        answer = crp.position(client, scenario.candidate_names)
        fields[f"position.{client}.top"] = tuple(r.name for r in answer.top(5))
        fields[f"position.{client}.stale"] = answer.stale
        fields[f"position.{client}.confidence"] = answer.confidence
    result = crp.cluster(scenario.client_names)
    fields["smf.clusters"] = tuple(
        (c.center, tuple(c.members)) for c in result.clusters
    )
    fields["smf.unclustered"] = tuple(result.unclustered)
    return fields


def dense_event_pair(
    params: ScenarioParams,
    probe_rounds: int = 6,
    interval_minutes: float = 10.0,
) -> DifferentialPair:
    """Dense round loop vs event loop under the degenerate workload.

    With the workload degenerated to "every client, every interval"
    the event engine must reproduce ``run_probe_rounds`` bit for bit:
    same clock values at every probe, same probe order, same substrate
    state at every boundary.  The pair pins the single-attempt probe
    policy — retry backoff advances the shared clock mid-round, which
    shifts subsequent dense rounds off the event lattice; that is the
    one documented precondition of the equivalence (DESIGN.md §11).
    """
    base = dataclasses.replace(
        params, build_meridian=False, probe_policy=ProbePolicy()
    )

    def dense() -> Dict[str, object]:
        scenario = Scenario(base)
        scenario.run_probe_rounds(probe_rounds, interval_minutes)
        return _summary_fields_of(scenario)

    def evented() -> Dict[str, object]:
        scenario = Scenario(base)
        scenario.run_events(scenario.dense_workload(probe_rounds, interval_minutes))
        return _summary_fields_of(scenario)

    return DifferentialPair(
        name="dense-vs-event-degenerate", left=dense, right=evented
    )


def chaos_stanza_pair(
    params: ScenarioParams, probe_rounds: int = 6
) -> DifferentialPair:
    """A zero-rate chaos stanza vs no chaos stanza at all.

    A chaos configuration whose episode rates are all scaled to zero
    draws an empty fault schedule; a scenario carrying it must behave
    exactly like one built with ``chaos=None``.  This also exercises
    the promise that the resilient probe policy (which a chaos stanza
    arms) is inert when nothing actually fails: no retries, no
    quarantines, no fallbacks — the same positioning answers, bit for
    bit.
    """
    base = dataclasses.replace(params, build_meridian=False)
    absent = dataclasses.replace(base, chaos=None)
    disabled = dataclasses.replace(base, chaos=ChaosParams().scaled(0.0))
    return DifferentialPair(
        name="chaos-disabled-vs-absent",
        left=lambda: _scenario_summary_fields(disabled, probe_rounds),
        right=lambda: _scenario_summary_fields(absent, probe_rounds),
    )


def sharded_service_pair(
    seed: int = 2008,
    shards: int = 4,
    clients: int = 48,
    candidates: int = 8,
) -> DifferentialPair:
    """The N-shard serving path vs the unsharded CRPService reference.

    One seeded load script (:func:`repro.serve.loadgen.iter_ops`) feeds
    both sides; every POSITION answer is compared as a canonical
    protocol line, byte for byte, plus the blake2b fingerprint over the
    whole answer stream.  The sharded side runs through the *actual*
    asyncio request loop (per-shard queues and workers), so the pair
    also proves event-loop scheduling cannot perturb answers.  Eviction
    is left unbounded here — a memory bound genuinely changes answers
    (evicted trackers restart cold), which is the one documented
    divergence between the two deployments.
    """
    import asyncio

    from repro.serve import (
        CRPServer,
        LoadgenParams,
        ServeParams,
        ShardedCRPService,
        fingerprint_answers,
        iter_ops,
        replay_unsharded,
        run_script,
    )

    lparams = LoadgenParams(
        clients=clients,
        candidates=candidates,
        seed=seed,
        horizon_s=1800.0,
        aggregate_rate_per_s=clients / 120.0,
    )
    sparams = ServeParams(candidates=lparams.candidate_names(), shards=shards)

    def answer_fields(answers: Sequence[str]) -> Dict[str, object]:
        fields: Dict[str, object] = {"answers": len(answers)}
        for index, line in enumerate(answers):
            fields[f"answer.{index:05d}"] = line
        fields["fingerprint"] = fingerprint_answers(answers)
        return fields

    def sharded_side() -> Dict[str, object]:
        ops = list(iter_ops(lparams))
        server = CRPServer(ShardedCRPService(sparams))
        return answer_fields(asyncio.run(run_script(server, ops)))

    def unsharded_side() -> Dict[str, object]:
        ops = list(iter_ops(lparams))
        return answer_fields(replay_unsharded(sparams, ops))

    return DifferentialPair(
        name=f"sharded-service-vs-unsharded.s{shards}",
        left=sharded_side,
        right=unsharded_side,
    )


def ann_exact_pair(
    seed: int = 2008,
    population: int = 220,
    queries: int = 12,
    k: int = 5,
) -> DifferentialPair:
    """Sketch-shortlist Top-K vs the exact engine, per query.

    One seeded clustered candidate population (the ``ann``
    experiment's workload) is ranked both ways at the calibrated
    default :class:`~repro.core.ann.AnnParams`.  Because the rerank is
    exact, the two sides must agree on names and scores whenever the
    shortlist covers the exact Top-K — and at this population the
    coverage promise is part of the pair: the right side recomputes
    the exact Top-K and checks containment in the shortlist, so a
    calibration regression shows up as a ``covered`` divergence even
    if the final rows happen to agree.
    """
    from repro.core.ann import AnnParams, index_for
    from repro.core.engine import PackedPopulation
    from repro.core.selection import rank_packed
    from repro.experiments.ann import synthetic_candidates, synthetic_queries

    params = AnnParams()
    state: Dict[str, object] = {}

    def built() -> Tuple[object, List[object]]:
        if "packed" not in state:
            maps, _ = synthetic_candidates(population, seed)
            state["packed"] = PackedPopulation(maps)
            state["queries"] = synthetic_queries(maps, queries, seed)
        return state["packed"], state["queries"]  # type: ignore[return-value]

    def exact_side() -> Dict[str, object]:
        packed, query_maps = built()
        fields: Dict[str, object] = {}
        for i, query in enumerate(query_maps):
            ranked = rank_packed(query, packed, k=k)
            fields[f"q{i:03d}.names"] = tuple(r.name for r in ranked)
            fields[f"q{i:03d}.scores"] = tuple(r.score for r in ranked)
            fields[f"q{i:03d}.covered"] = True
        return fields

    def approx_side() -> Dict[str, object]:
        packed, query_maps = built()
        index = index_for(packed, params)
        fields: Dict[str, object] = {}
        for i, query in enumerate(query_maps):
            ranked = rank_packed(query, packed, k=k, approx=params)
            exact_names = {r.name for r in rank_packed(query, packed, k=k)}
            shortlist = set(index.shortlist(query, k))
            fields[f"q{i:03d}.names"] = tuple(r.name for r in ranked)
            fields[f"q{i:03d}.scores"] = tuple(r.score for r in ranked)
            fields[f"q{i:03d}.covered"] = exact_names <= shortlist
        return fields

    return DifferentialPair(
        name="ann-vs-exact",
        left=exact_side,
        right=approx_side,
        tolerance=SCORE_TOLERANCE,
    )


def ann_exact_mode_pair(
    seed: int = 2008,
    population: int = 180,
    queries: int = 10,
    k: int = 5,
) -> DifferentialPair:
    """``rank_packed``'s k/exclude fast path vs the legacy composition.

    Pre-existing callers ranked the whole population, filtered the
    excluded name, and sliced ``[:k]``; the k-aware path (exclusion
    applied *before* the cutoff) must reproduce that byte for byte —
    same names, same float scores, zero tolerance — which is what lets
    every exact-mode ``POSITION`` honour its ``k``.  The excluded
    name is each query's global Top-1, making the exclusion actually
    bite on every query.  Both sides run at ``population`` (Top-K by
    full sort and slice) and at twice the engine's crossover (Top-K by
    partition), so neither branch of ``top_k_indices`` goes unchecked.
    """
    from repro.core import engine
    from repro.experiments.ann import synthetic_candidates, synthetic_queries

    sizes = (population, 2 * engine._TOP_K_FULL_SORT_ROWS)
    state: Dict[int, Tuple[object, List[object]]] = {}

    def built(size: int) -> Tuple[object, List[object]]:
        if size not in state:
            maps, _ = synthetic_candidates(size, seed)
            state[size] = (
                engine.PackedPopulation(maps),
                synthetic_queries(maps, queries, seed),
            )
        return state[size]

    def side(fast: bool) -> Dict[str, object]:
        fields: Dict[str, object] = {}
        for size in sizes:
            packed, query_maps = built(size)
            for i, query in enumerate(query_maps):
                full = rank_packed(query, packed)
                excluded = full[0].name
                if fast:
                    ranked = rank_packed(query, packed, k=k, exclude=excluded)
                else:
                    ranked = [r for r in full if r.name != excluded][:k]
                fields[f"n{size}.q{i:03d}.excluded"] = excluded
                fields[f"n{size}.q{i:03d}.names"] = tuple(r.name for r in ranked)
                fields[f"n{size}.q{i:03d}.scores"] = tuple(r.score for r in ranked)
        return fields

    return DifferentialPair(
        name="ann-exact-mode-identity",
        left=lambda: side(fast=False),
        right=lambda: side(fast=True),
    )


def remap_stanza_pair(
    params: ScenarioParams, probe_rounds: int = 6
) -> DifferentialPair:
    """A zero-magnitude remap stanza vs no remap stanza at all.

    A remap configuration scaled to magnitude zero generates an empty
    schedule, so a scenario carrying it — *with the change detector
    armed* — must behave exactly like one built with ``remap=None``
    and no detector.  This checks two promises at once: an empty
    schedule enacts nothing, and detection is read-only (its
    clustering snapshots draw from their own RNG and never touch
    probe behaviour).  The recovery policy stays passive so the
    equivalence holds even if clustering noise on this deliberately
    tiny population trips the detector — what a detection *does* is
    the recovery layer's contract, exercised by its own tests.
    """
    from repro.core.change import ChangeDetectorParams, RecoveryPolicy
    from repro.faults import RemapParams

    base = dataclasses.replace(params, build_meridian=False)
    absent = dataclasses.replace(base, remap=None, change_detection=None)
    disabled = dataclasses.replace(
        base,
        remap=RemapParams().scaled(0.0),
        change_detection=ChangeDetectorParams(interval_s=1200.0),
        recovery_policy=RecoveryPolicy.PASSIVE,
    )
    return DifferentialPair(
        name="remap-disabled-vs-absent",
        left=lambda: _scenario_summary_fields(disabled, probe_rounds),
        right=lambda: _scenario_summary_fields(absent, probe_rounds),
    )

"""Figure 8 — average selection rank vs probe interval.

The paper sweeps the redirection-request interval (20, 100, 500,
2000 minutes) over the experiment window and plots, per DNS server
(sorted), the average rank of CRP's Top-1 pick in the RTT-ordered
candidate list.  Findings this reproduction tracks:

* 100-minute probing is essentially as good as 20-minute probing — a
  "virtually insignificant overhead" given the CDN's 20 s TTLs;
* very long intervals (2000 min) degrade rank *and* shrink the set of
  clients that can be ranked at all ("some DNS servers may not be able
  to find PlanetLab nodes with common replica servers"), which is why
  fewer servers are plotted there.

Probing runs through prefix-extended snapshot windows
(:func:`~repro.workloads.scenario.driven_checkpoints`, DESIGN §17):
each evaluation checkpoint restores the longest cached prefix of its
probing schedule, probes only the delta, and is snapshotted itself, so
warm runs collapse to evaluation cost.  Evaluation itself goes through
the packed engine (one shared candidate vocabulary per checkpoint,
``rank_packed(k=1)``), which the ``vectorized-vs-scalar`` differential
pair holds to the scalar ranking reference.
"""

from __future__ import annotations

import dataclasses
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.analysis.stats import mean, sorted_series
from repro.analysis.tables import format_series, format_table
from repro.core.engine import packed_for
from repro.core.selection import rank_packed
from repro.obs import get_observability
from repro.obs.manifest import fingerprint_params
from repro.workloads.scenario import Scenario, ScenarioParams, driven_checkpoints

if TYPE_CHECKING:  # pragma: no cover - repro.exec imports this module
    from repro.exec.snapshots import SnapshotStore


@dataclass
class RankSweepPoint:
    """Results for one sweep setting (an interval or a window size)."""

    label: str
    #: Per-client average rank, for clients that had CRP signal.
    avg_rank_by_client: Dict[str, float]
    #: Clients that never produced a rankable (non-orthogonal) pick.
    unplottable_clients: int

    @property
    def series(self) -> List[float]:
        """Sorted average ranks — one figure curve."""
        return sorted_series(list(self.avg_rank_by_client.values()))

    @property
    def overall_mean(self) -> float:
        if not self.avg_rank_by_client:
            return float("nan")
        return mean(list(self.avg_rank_by_client.values()))


def _base_orderings(scenario: Scenario) -> Dict[str, List[str]]:
    """Per-client candidate ordering by base RTT (the rank yardstick)."""
    names = scenario.candidate_names
    hosts = [scenario.host(name) for name in names]
    orderings: Dict[str, List[str]] = {}
    for client in scenario.client_names:
        base = scenario.network.base_rtts_ms(scenario.host(client), hosts)
        orderings[client] = [name for _, name in sorted(zip(base, names))]
    return orderings


_ORDERINGS_CACHE: "OrderedDict[str, Dict[str, List[str]]]" = OrderedDict()
_ORDERINGS_CACHE_SIZE = 8


def base_orderings_for(
    scenario: Scenario, store: Optional[SnapshotStore] = None
) -> Dict[str, List[str]]:
    """Per-client base-RTT orderings, cached under the params fingerprint.

    Orderings depend only on the scenario's world (topology is static
    absent a remap schedule), not on probing, so cells sharing params
    reuse them: first from a small in-process LRU (reuse counted on
    ``fig8.orderings.reused``), then from the snapshot store as a
    derived artifact, and only then recomputed.  Worlds with a remap
    schedule mutate topology mid-run and bypass the cache.  Callers
    must treat the result as read-only.
    """
    if scenario.params.remap is not None:
        return _base_orderings(scenario)
    params_fp = fingerprint_params(scenario.params)
    cached = _ORDERINGS_CACHE.get(params_fp)
    if cached is not None:
        _ORDERINGS_CACHE.move_to_end(params_fp)
        get_observability().metrics.counter("fig8.orderings.reused").inc()
        return cached
    if store is not None:
        orderings = store.get_or_compute(
            f"base-orderings:{params_fp}", lambda: _base_orderings(scenario)
        )
    else:
        orderings = _base_orderings(scenario)
    _ORDERINGS_CACHE[params_fp] = orderings
    while len(_ORDERINGS_CACHE) > _ORDERINGS_CACHE_SIZE:
        _ORDERINGS_CACHE.popitem(last=False)
    return orderings


def _evaluate_top1(
    scenario: Scenario,
    window_probes: Optional[int],
    orderings: Dict[str, List[str]],
    ranks: Dict[str, List[int]],
) -> None:
    """Append each client's current Top-1 rank to ``ranks`` (in place).

    Candidate maps are shared across clients: built once per
    checkpoint, packed once into a shared vocabulary, and ranked
    through the engine's ``k=1`` path (argpartition plus one
    materialised row per client).
    """
    crp = scenario.crp
    population = packed_for(
        crp.ratio_maps(scenario.candidate_names, window_probes=window_probes)
    )
    for client in scenario.client_names:
        client_map = crp.ratio_map(client, window_probes=window_probes)
        if client_map is None:
            continue
        top = rank_packed(client_map, population, k=1)
        if not top or not top[0].has_signal:
            continue
        ranks[client].append(orderings[client].index(top[0].name))


def collect_ranks(
    params: ScenarioParams,
    rounds: int,
    interval_minutes: float,
    evaluations: int,
    window_probes: Optional[int],
    *,
    store: Optional[SnapshotStore] = None,
    orderings: Optional[Dict[str, List[str]]] = None,
) -> RankSweepPoint:
    """Probe for ``rounds`` rounds, evaluating rank at checkpoints.

    Evaluation happens ``evaluations`` times, evenly spread over the
    probing schedule; each client's ranks are averaged over the
    checkpoints where its Top-1 pick had signal.  Probing is driven
    through prefix-extended snapshot windows
    (:func:`~repro.workloads.scenario.driven_checkpoints`): with a
    store, each checkpoint restores the longest cached prefix of the
    schedule, probes only the delta, and is snapshotted itself, so a
    warm run pays evaluation cost only.
    """
    if evaluations < 1:
        raise ValueError("need at least one evaluation")
    checkpoints = {
        max(1, round((i + 1) * rounds / evaluations)) for i in range(evaluations)
    }
    ranks: Dict[str, List[int]] = {}
    clients = 0
    for _, scenario in driven_checkpoints(
        params, sorted(checkpoints), interval_minutes, store=store
    ):
        if not ranks:
            ranks = {c: [] for c in scenario.client_names}
            clients = len(scenario.client_names)
            if orderings is None:
                orderings = base_orderings_for(scenario, store)
        _evaluate_top1(scenario, window_probes, orderings, ranks)
    avg = {c: mean(r) for c, r in ranks.items() if r}
    return RankSweepPoint(
        label=f"{interval_minutes:g}min/{'all' if window_probes is None else window_probes}p",
        avg_rank_by_client=avg,
        unplottable_clients=clients - len(avg),
    )


def format_mean_rank(value: float) -> str:
    """A mean-rank table cell; ``—`` for a fully-unplottable point.

    ``overall_mean`` is nan when no client could be ranked at all;
    ``:.1f`` would render the literal string ``nan``.
    """
    return "—" if math.isnan(value) else f"{value:.1f}"


@dataclass
class Fig8Result:
    """One curve per probe interval."""

    points: Dict[float, RankSweepPoint]
    duration_minutes: float

    def report(self) -> str:
        series = format_series(
            {
                f"Top1 {interval:g} mins": point.series
                for interval, point in sorted(self.points.items())
            },
            title="Figure 8: average rank per client by probe interval (sorted; lower is better)",
        )
        rows = [
            [
                f"{interval:g} min",
                len(point.avg_rank_by_client),
                point.unplottable_clients,
                format_mean_rank(point.overall_mean),
            ]
            for interval, point in sorted(self.points.items())
        ]
        stats = format_table(
            ["interval", "clients plotted", "unplottable", "mean rank"],
            rows,
            title=f"Probe-interval sweep over {self.duration_minutes:g} minutes",
        )
        return series + "\n\n" + stats


#: The paper's probe-interval grid (minutes).
FIG8_INTERVALS = (20.0, 100.0, 500.0, 2000.0)


def run_fig8_point(
    base_params: ScenarioParams,
    interval_minutes: float,
    duration_minutes: float,
    evaluations: int = 4,
    window_probes: Optional[int] = None,
    store: Optional[SnapshotStore] = None,
) -> RankSweepPoint:
    """One interval's curve — the sweep's independent work cell.

    A fresh scenario from the (meridian-disabled) parameters, probed at
    this cadence for the window, evaluated at evenly spread
    checkpoints.  ``run_fig8`` is exactly a loop over this function, so
    the executor's per-interval cells reproduce the sweep bit for bit.
    With a snapshot store, checkpoints restore and extend cached
    probing prefixes instead of re-simulating.
    """
    params = dataclasses.replace(base_params, build_meridian=False)
    rounds = max(1, int(duration_minutes // interval_minutes))
    return collect_ranks(
        params,
        rounds=rounds,
        interval_minutes=interval_minutes,
        evaluations=min(evaluations, rounds),
        window_probes=window_probes,
        store=store,
    )


def run_fig8(
    base_params: ScenarioParams,
    intervals_minutes: Sequence[float] = FIG8_INTERVALS,
    duration_minutes: float = 4.0 * 1440.0,
    evaluations: int = 4,
    window_probes: Optional[int] = None,
    store: Optional[SnapshotStore] = None,
) -> Fig8Result:
    """Run the Figure 8 sweep.

    Each interval gets a fresh scenario from the same parameters (and
    seed), so curves differ only by probing cadence.  Meridian is not
    needed and is disabled to keep the sweep affordable.
    """
    points: Dict[float, RankSweepPoint] = {}
    for interval in intervals_minutes:
        points[interval] = run_fig8_point(
            base_params,
            interval,
            duration_minutes,
            evaluations=evaluations,
            window_probes=window_probes,
            store=store,
        )
    return Fig8Result(points=points, duration_minutes=duration_minutes)

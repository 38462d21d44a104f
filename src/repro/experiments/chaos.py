"""Chaos sweep — positioning accuracy vs injected failure intensity.

The paper's strongest claim for CRP is operational, not numerical: a
positioning service built on passively observed CDN redirections keeps
answering while direct-measurement infrastructure (their deployed
Meridian catalogued restarts, never-joined nodes, isolated sites)
falls over.  This experiment quantifies the reproduction's version of
that claim: sweep the chaos layer's episode rates from zero upward and
measure what a *resilient* CRP service retains.

Per intensity factor the sweep reports:

* **Top-1 / Top-5 accuracy** — fraction of positioned clients whose
  true RTT-closest candidate appears in CRP's top pick / top five;
* **clustering quality** — good clusters under the paper's 75 ms
  diameter cap (Section IV-B's yardstick);
* **time-to-recover** — mean simulated seconds a quarantined node
  spent out of service before its recovery probe succeeded;
* the full resilience counter snapshot
  (:func:`~repro.analysis.resilience.resilience_snapshot`).

Factor 0.0 is the fault-free baseline the retention ratios divide by.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.resilience import resilience_snapshot
from repro.analysis.tables import format_table
from repro.core.quality import evaluate_clustering
from repro.faults import ChaosParams
from repro.workloads.scenario import Scenario, ScenarioParams


@dataclass
class ChaosPoint:
    """Accuracy and degradation metrics at one chaos intensity."""

    factor: float
    clients_positioned: int
    clients_total: int
    top1_accuracy: float
    top5_accuracy: float
    good_clusters: int
    mean_confidence: float
    mean_recovery_s: Optional[float]
    quarantined_at_end: int
    counters: Dict[str, Union[int, float]]

    @property
    def positioned_fraction(self) -> float:
        if self.clients_total == 0:
            return 0.0
        return self.clients_positioned / self.clients_total


def _true_closest(scenario: Scenario) -> Dict[str, str]:
    """Per client, the candidate with the smallest base RTT."""
    names = scenario.candidate_names
    hosts = [scenario.host(name) for name in names]
    return {
        client: min(zip(scenario.network.base_rtts_ms(scenario.host(client), hosts), names))[1]
        for client in scenario.client_names
    }


def evaluate_point(scenario: Scenario, factor: float) -> ChaosPoint:
    """Measure one already-probed scenario."""
    truth = _true_closest(scenario)
    top1_hits = 0
    top5_hits = 0
    positioned = 0
    confidences: List[float] = []
    for client in scenario.client_names:
        answer = scenario.crp.position(client, scenario.candidate_names)
        confidences.append(answer.confidence)
        if not answer.answerable:
            continue
        positioned += 1
        top_names = [r.name for r in answer.top(5) if r.has_signal]
        if not top_names:
            positioned -= 1
            continue
        if truth[client] == top_names[0]:
            top1_hits += 1
        if truth[client] in top_names:
            top5_hits += 1
    clustering = scenario.crp.cluster(scenario.client_names)
    qualities = evaluate_clustering(clustering, scenario.rtt_ms)
    good = sum(1 for q in qualities if q.is_good)
    recovery = scenario.crp.recovery_times_s
    return ChaosPoint(
        factor=factor,
        clients_positioned=positioned,
        clients_total=len(scenario.client_names),
        top1_accuracy=top1_hits / positioned if positioned else 0.0,
        top5_accuracy=top5_hits / positioned if positioned else 0.0,
        good_clusters=good,
        mean_confidence=(
            sum(confidences) / len(confidences) if confidences else 0.0
        ),
        mean_recovery_s=(sum(recovery) / len(recovery)) if recovery else None,
        quarantined_at_end=len(scenario.crp.quarantined_nodes()),
        counters=resilience_snapshot(scenario),
    )


@dataclass
class ChaosResult:
    """The full sweep: one :class:`ChaosPoint` per intensity factor."""

    points: List[ChaosPoint]
    rounds: int
    interval_minutes: float

    def point(self, factor: float) -> ChaosPoint:
        for p in self.points:
            if p.factor == factor:
                return p
        raise KeyError(f"no chaos point at factor {factor}")

    @property
    def baseline(self) -> ChaosPoint:
        """The fault-free (factor 0) point."""
        return self.point(0.0)

    def top5_retention(self, factor: float) -> float:
        """Fraction of fault-free Top-5 accuracy retained at a factor."""
        base = self.baseline.top5_accuracy
        if base <= 0.0:
            return 1.0
        return self.point(factor).top5_accuracy / base

    def report(self) -> str:
        rows = []
        for p in self.points:
            recover = "-" if p.mean_recovery_s is None else f"{p.mean_recovery_s:.0f}s"
            rows.append(
                [
                    f"{p.factor:g}x",
                    f"{p.clients_positioned}/{p.clients_total}",
                    f"{p.top1_accuracy:.0%}",
                    f"{p.top5_accuracy:.0%}",
                    f"{self.top5_retention(p.factor):.0%}",
                    p.good_clusters,
                    f"{p.mean_confidence:.2f}",
                    recover,
                    p.quarantined_at_end,
                ]
            )
        table = format_table(
            [
                "chaos",
                "positioned",
                "top1",
                "top5",
                "top5 kept",
                "good clusters",
                "confidence",
                "mean recover",
                "quarantined",
            ],
            rows,
            title=(
                f"Chaos sweep: accuracy vs injected failure intensity "
                f"({self.rounds} rounds @ {self.interval_minutes:g} min)"
            ),
        )
        counter_rows = []
        for p in self.points:
            if p.factor == 0.0:
                continue
            started = sum(
                v for k, v in p.counters.items() if k.startswith("chaos.started.")
            )
            counter_rows.append(
                [
                    f"{p.factor:g}x",
                    started,
                    p.counters.get("crp.probe_failures", 0),
                    p.counters.get("crp.probe_retries", 0),
                    p.counters.get("crp.recovery_probes", 0),
                    p.counters.get("cdn.stale_rankings_served", 0),
                    p.counters.get("dns.authority_queries_failed_down", 0),
                ]
            )
        if counter_rows:
            table += "\n\n" + format_table(
                [
                    "chaos",
                    "episodes",
                    "probe fails",
                    "retries",
                    "recovery probes",
                    "stale rankings",
                    "auth fails",
                ],
                counter_rows,
                title="Injected failures and the service's response",
            )
        return table


#: The default chaos-intensity grid (0 is the mandatory baseline).
CHAOS_FACTORS = (0.0, 1.0, 2.0)


def run_chaos_point(
    base_params: ScenarioParams,
    factor: float,
    rounds: int = 24,
    interval_minutes: float = 10.0,
    chaos_params: Optional[ChaosParams] = None,
) -> ChaosPoint:
    """One intensity factor's point — the sweep's independent cell.

    Factor 0 runs with chaos fully disabled (not a zero-rate schedule),
    so it exercises exactly the code path every other experiment uses.
    ``run_chaos`` is exactly a loop over this function.
    """
    if chaos_params is None:
        horizon = rounds * interval_minutes * 60.0
        chaos_params = dataclasses.replace(ChaosParams(), horizon_s=horizon)
    chaos = None if factor == 0.0 else chaos_params.scaled(factor)
    params = dataclasses.replace(base_params, build_meridian=False, chaos=chaos)
    scenario = Scenario(params)
    scenario.run_probe_rounds(rounds, interval_minutes=interval_minutes)
    return evaluate_point(scenario, factor)


def run_chaos(
    base_params: ScenarioParams,
    factors: Sequence[float] = CHAOS_FACTORS,
    rounds: int = 24,
    interval_minutes: float = 10.0,
    chaos_params: Optional[ChaosParams] = None,
) -> ChaosResult:
    """Run the sweep: a fresh scenario per factor, same seed throughout.

    Meridian is disabled — the sweep measures CRP degradation, and the
    overlay's failure story has its own plan-driven experiments.
    """
    if 0.0 not in factors:
        factors = (0.0,) + tuple(factors)
    if chaos_params is None:
        horizon = rounds * interval_minutes * 60.0
        chaos_params = dataclasses.replace(ChaosParams(), horizon_s=horizon)
    points: List[ChaosPoint] = []
    for factor in factors:
        points.append(
            run_chaos_point(
                base_params,
                factor,
                rounds=rounds,
                interval_minutes=interval_minutes,
                chaos_params=chaos_params,
            )
        )
    return ChaosResult(points=points, rounds=rounds, interval_minutes=interval_minutes)

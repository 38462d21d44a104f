"""Bootstrap time — how fast a joining node becomes positionable.

Section VI: "given a 10-probe window size and a probe interval of 10
minutes, a CRP client will need a bootstrapping time of ∼100 minutes"
before effective CRP-based decisions can be made from its first
observed redirection.

This experiment measures that directly, which the paper only infers
from Figure 9: fresh nodes join a warmed-up system, and after every
probe we record (a) whether the joiner has any CRP signal against the
candidate set and (b) the rank of its Top-1 pick.  The result is the
convergence curve rank-vs-probes-since-join and the probe count at
which accuracy reaches its steady state.

Churn is the flip side of bootstrap: because a node's position is
derived from its *own* probe history only, departures require no
repair anywhere else — unlike coordinate systems, where churn
compounds embedding error (the paper's Section II critique).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.stats import mean
from repro.analysis.tables import format_table
from repro.core.selection import rank_candidates
from repro.dnssim.resolver import RecursiveResolver
from repro.netsim.rng import derive_rng
from repro.netsim.topology import HostKind
from repro.workloads.scenario import Scenario


@dataclass
class BootstrapResult:
    """Convergence data for a cohort of joining nodes."""

    #: probes-since-join (1-based) → mean Top-1 rank over rankable joiners.
    mean_rank_by_probe: Dict[int, float]
    #: probes-since-join → fraction of joiners with CRP signal.
    signal_fraction_by_probe: Dict[int, float]
    joiners: int
    interval_minutes: float

    def steady_state_rank(self) -> float:
        """Mean rank over the last quarter of the curve."""
        probes = sorted(self.mean_rank_by_probe)
        tail = probes[-max(1, len(probes) // 4) :]
        return mean([self.mean_rank_by_probe[p] for p in tail])

    def convergence_probes(self, slack: float = 1.0) -> Optional[int]:
        """First probe count whose mean rank is within ``slack`` of the
        steady state (None if the curve never settles)."""
        target = self.steady_state_rank() + slack
        for probe in sorted(self.mean_rank_by_probe):
            if self.mean_rank_by_probe[probe] <= target:
                return probe
        return None

    def convergence_minutes(self, slack: float = 1.0) -> Optional[float]:
        """Bootstrap time in simulated minutes (the paper's ~100)."""
        probes = self.convergence_probes(slack)
        if probes is None:
            return None
        return probes * self.interval_minutes

    def report(self) -> str:
        rows = []
        for probe in sorted(self.mean_rank_by_probe):
            rows.append(
                [
                    probe,
                    f"{probe * self.interval_minutes:g}",
                    f"{self.mean_rank_by_probe[probe]:.2f}",
                    f"{self.signal_fraction_by_probe[probe]:.0%}",
                ]
            )
        table = format_table(
            ["probes since join", "minutes", "mean Top-1 rank", "joiners with signal"],
            rows,
            title=f"Bootstrap convergence ({self.joiners} joining nodes)",
        )
        minutes = self.convergence_minutes()
        footer = (
            f"\nconverges after ~{minutes:g} minutes"
            if minutes is not None
            else "\nno convergence within the horizon"
        )
        return table + footer


def run_bootstrap_experiment(
    scenario: Scenario,
    joiners: int = 20,
    warmup_rounds: int = 24,
    max_probes: int = 24,
    interval_minutes: float = 10.0,
    window_probes: Optional[int] = 10,
    seed: int = 0,
) -> BootstrapResult:
    """Measure positioning accuracy as a function of probes since join.

    The existing population warms up first (candidates need stable
    maps); then ``joiners`` fresh DNS-server nodes register and the
    cohort's rank curve is recorded after every subsequent probe round.
    """
    if joiners < 1:
        raise ValueError("need at least one joining node")
    scenario.run_probe_rounds(warmup_rounds, interval_minutes)

    rng = derive_rng(seed, "bootstrap")
    joined: List[str] = []
    for index in range(joiners):
        metro = scenario.world.sample_metro(rng)
        host = scenario.topology.create_host(
            f"joiner-{index}", HostKind.DNS_SERVER, metro, rng
        )
        scenario.crp.register_node(
            host.name,
            RecursiveResolver(host, scenario.infrastructure, scenario.network),
        )
        joined.append(host.name)

    candidates = scenario.candidate_names
    candidate_hosts = [scenario.host(n) for n in candidates]
    orderings = {}
    for name in joined:
        base = scenario.network.base_rtts_ms(scenario.host(name), candidate_hosts)
        orderings[name] = [candidates[i] for i in sorted(range(len(base)), key=base.__getitem__)]

    mean_rank: Dict[int, float] = {}
    signal_fraction: Dict[int, float] = {}
    for probe_count in range(1, max_probes + 1):
        scenario.crp.probe_all()
        scenario.clock.advance_minutes(interval_minutes)
        candidate_maps = scenario.crp.ratio_maps(
            scenario.candidate_names, window_probes=window_probes
        )
        candidate_maps = {n: m for n, m in candidate_maps.items() if m is not None}
        ranks = []
        with_signal = 0
        for name in joined:
            joiner_map = scenario.crp.ratio_map(name, window_probes=window_probes)
            if joiner_map is None:
                continue
            ranked = rank_candidates(joiner_map, candidate_maps)
            if not ranked or not ranked[0].has_signal:
                continue
            with_signal += 1
            ranks.append(orderings[name].index(ranked[0].name))
        if ranks:
            mean_rank[probe_count] = mean(ranks)
        signal_fraction[probe_count] = with_signal / joiners

    return BootstrapResult(
        mean_rank_by_probe=mean_rank,
        signal_fraction_by_probe=signal_fraction,
        joiners=joiners,
        interval_minutes=interval_minutes,
    )

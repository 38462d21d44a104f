"""Per-client diagnostics: why did positioning work (or not) here?

Section V-A of the paper spends a page on root-cause anecdotes — the
New Zealand resolver redirected to 27 replicas spread from
Massachusetts to Japan, the Iceland and Russia servers with no nearby
candidates, the Meridian nodes answering with themselves.  This module
turns that analysis into a reusable tool: given a scenario and a
client, :func:`diagnose_client` reports everything those anecdotes
were built from.

It is also the human-readable view over the observability layer's run
manifests: :func:`summarize_manifest` renders what one run's
redirection machinery actually did, and the module doubles as a small
CLI for inspecting and diffing manifest files::

    python -m repro.analysis.diagnostics reports/fig4.manifest.json
    python -m repro.analysis.diagnostics a.manifest.json b.manifest.json
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.obs import RunManifest, diff_manifests
from repro.workloads.scenario import Scenario


@dataclass
class ClientDiagnosis:
    """Everything worth knowing about one client's CRP position."""

    client: str
    metro: str
    region: str
    #: Distinct replicas in the client's (full-history) map.
    map_support: int
    #: (replica metro, ratio mass) aggregated over the map.
    replica_metros: List[Tuple[str, float]]
    #: Base RTT to the nearest replica in the map, ms.
    nearest_replica_ms: Optional[float]
    #: Base RTT to the farthest replica in the map, ms.
    farthest_replica_ms: Optional[float]
    #: Candidates the client has positive similarity with.
    candidates_with_signal: int
    candidates_total: int
    #: Base RTT to the truly nearest candidate, ms.
    nearest_candidate_ms: Optional[float]

    @property
    def is_poorly_served(self) -> bool:
        """The paper's tail case: the CDN has nothing near this client
        (its New Zealand example had only far-flung replicas).  Well
        served clients see their nearest replica within ~15 ms; a
        25 ms+ nearest replica means the closest deployment is in
        another metro entirely.
        """
        return self.nearest_replica_ms is not None and self.nearest_replica_ms > 25.0

    @property
    def is_isolated_from_candidates(self) -> bool:
        """No candidate server is near (the Iceland/Russia case)."""
        return (
            self.nearest_candidate_ms is not None
            and self.nearest_candidate_ms > 60.0
        )

    @property
    def has_positioning_signal(self) -> bool:
        return self.candidates_with_signal > 0

    def report(self) -> str:
        lines = [
            f"client {self.client} — {self.metro} ({self.region})",
            f"  ratio-map support: {self.map_support} replicas, spread over "
            f"{len(self.replica_metros)} metros",
        ]
        if self.nearest_replica_ms is not None:
            lines.append(
                f"  replica distance: {self.nearest_replica_ms:.1f}–"
                f"{self.farthest_replica_ms:.1f} ms"
                + ("  ← poorly served by the CDN" if self.is_poorly_served else "")
            )
        top = ", ".join(f"{m} ({w:.0%})" for m, w in self.replica_metros[:4])
        lines.append(f"  redirected toward: {top}")
        lines.append(
            f"  CRP signal: {self.candidates_with_signal}/{self.candidates_total} candidates"
            + ("" if self.has_positioning_signal else "  ← orthogonal to every candidate")
        )
        if self.nearest_candidate_ms is not None:
            lines.append(
                f"  nearest candidate: {self.nearest_candidate_ms:.1f} ms"
                + (
                    "  ← no candidate is near this client"
                    if self.is_isolated_from_candidates
                    else ""
                )
            )
        return "\n".join(lines)


def diagnose_client(scenario: Scenario, client: str) -> ClientDiagnosis:
    """Build a diagnosis for one client (full-history map)."""
    host = scenario.host(client)
    ratio_map = scenario.crp.ratio_map(client, window_probes=None)

    replica_metros: Counter = Counter()
    replica_hosts = []
    support = 0
    if ratio_map is not None:
        support = len(ratio_map)
        for address, ratio in ratio_map.items():
            if not scenario.cdn.deployment.knows_address(address):
                continue
            replica = scenario.cdn.deployment.by_address(address)
            replica_metros[replica.host.metro.name] += ratio
            replica_hosts.append(replica.host)
    replica_rtts = scenario.network.base_rtts_ms(host, replica_hosts)

    ranked = scenario.crp.rank_servers(client, scenario.candidate_names)
    with_signal = sum(1 for r in ranked if r.has_signal)
    candidate_rtts = scenario.network.base_rtts_ms(
        host, [scenario.host(name) for name in scenario.candidate_names]
    )
    return ClientDiagnosis(
        client=client,
        metro=host.metro.name,
        region=host.region.value,
        map_support=support,
        replica_metros=sorted(
            replica_metros.items(), key=lambda item: -item[1]
        ),
        nearest_replica_ms=min(replica_rtts) if replica_rtts else None,
        farthest_replica_ms=max(replica_rtts) if replica_rtts else None,
        candidates_with_signal=with_signal,
        candidates_total=len(scenario.candidate_names),
        nearest_candidate_ms=min(candidate_rtts) if candidate_rtts else None,
    )


def tail_summary(
    scenario: Scenario, clients: Optional[Sequence[str]] = None
) -> str:
    """A table of the clients that explain a figure's tail.

    Mirrors the paper's Section V-A analysis: for each client flagged
    poorly-served or candidate-isolated, one row of evidence.
    """
    if clients is None:
        clients = scenario.client_names
    rows = []
    for client in clients:
        diagnosis = diagnose_client(scenario, client)
        if not (diagnosis.is_poorly_served or diagnosis.is_isolated_from_candidates):
            continue
        causes = []
        if diagnosis.is_poorly_served:
            causes.append("CDN-poor region")
        if diagnosis.is_isolated_from_candidates:
            causes.append("no nearby candidate")
        rows.append(
            [
                diagnosis.client,
                diagnosis.metro,
                f"{diagnosis.nearest_replica_ms:.0f}" if diagnosis.nearest_replica_ms else "-",
                f"{diagnosis.nearest_candidate_ms:.0f}" if diagnosis.nearest_candidate_ms else "-",
                " + ".join(causes),
            ]
        )
    if not rows:
        return "no tail clients found"
    return format_table(
        ["client", "metro", "nearest replica (ms)", "nearest candidate (ms)", "cause"],
        rows,
        title="Tail-client diagnosis (the paper's Sec. V-A root causes)",
    )


# -- run-manifest views -------------------------------------------------------

#: (section, counter flat-name, row label) for the summary table; only
#: counters present in the manifest are rendered.
_MANIFEST_ROWS: Tuple[Tuple[str, str, str], ...] = (
    ("probing", "crp.probe.attempts", "probe attempts"),
    ("probing", "crp.probe.retries", "probe retries"),
    ("probing", "crp.probe.failures", "probe failures"),
    ("probing", "crp.probe.deadline_hits", "round-deadline cutoffs"),
    ("probing", "crp.probe.recoveries", "recovery probes"),
    ("probing", "crp.probe.rounds", "probe rounds"),
    ("probing", "crp.observations", "observations recorded"),
    ("dns", "dns.resolver.queries", "resolver queries"),
    ("dns", "dns.resolver.failures", "resolver timeouts (injected)"),
    ("dns", "dns.resolver.errors", "resolution errors"),
    ("dns", "dns.resolver.negative_hits", "negative-cache hits"),
    ("dns", "dns.cache.hits", "TTL-cache hits"),
    ("dns", "dns.cache.misses", "TTL-cache misses"),
    ("dns", "dns.cache.expirations", "TTL-cache expirations"),
    ("dns", "dns.cache.evictions", "TTL-cache LRU evictions"),
    ("dns", "dns.authority.queries", "authoritative queries"),
    ("dns", "dns.authority.down_servfails", "SERVFAILs while down"),
    ("positioning", "crp.position.queries", "positioning queries"),
    ("positioning", "crp.position.stale", "stale answers"),
    ("positioning", "crp.position.fallbacks", "last-good fallbacks"),
    ("positioning", "crp.map_cache.hits", "map-cache hits"),
    ("positioning", "crp.map_cache.misses", "map-cache misses"),
    ("engine", "engine.flushes", "pack flushes"),
    ("engine", "engine.compactions", "compactions"),
    ("engine", "engine.rows_flushed", "rows flushed"),
    ("engine", "engine.rows_dropped", "tombstones dropped"),
)


def summarize_manifest(manifest: RunManifest) -> str:
    """A run manifest rendered for humans.

    Groups the counters every instrumented layer reports (probing,
    DNS, positioning, engine), plus health transitions, fault
    episodes, and the trace-event census.
    """
    header = (
        f"run {manifest.run_key!r}"
        + (f"  scale={manifest.scale}" if manifest.scale else "")
        + (f"  seed={manifest.seed}" if manifest.seed is not None else "")
        + f"  params={manifest.params_fingerprint}"
    )
    lines = [
        header,
        f"  wall {manifest.wall_duration_s:g} s · simulated "
        f"{manifest.sim_duration_s:g} s",
    ]
    counters = manifest.counters()
    rows = []
    for section, name, label in _MANIFEST_ROWS:
        if name in counters:
            rows.append([section, label, counters[name]])
    transitions = {
        name: value
        for name, value in counters.items()
        if name.startswith("crp.health.transitions")
    }
    for name, value in sorted(transitions.items()):
        detail = name.partition("{")[2].rstrip("}")
        rows.append(["health", detail or "transitions", value])
    faults = {
        name: value
        for name, value in counters.items()
        if name.startswith("fault.")
    }
    for name, value in sorted(faults.items()):
        rows.append(["faults", name[len("fault."):], value])
    if rows:
        lines.append(format_table(["layer", "event", "count"], rows))
    else:
        lines.append("  (no counters recorded — observability was disabled?)")
    if manifest.trace_counts:
        trace_rows = [
            [kind, count] for kind, count in sorted(manifest.trace_counts.items())
        ]
        lines.append(format_table(["trace event", "emitted"], trace_rows))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Inspect one manifest, or diff two."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Summarise a RunManifest JSON, or diff two of them."
    )
    parser.add_argument("manifest", help="path to a .manifest.json file")
    parser.add_argument(
        "other",
        nargs="?",
        default=None,
        help="second manifest: print the counter-level diff instead",
    )
    args = parser.parse_args(argv)
    first = RunManifest.load(args.manifest)
    try:
        if args.other is None:
            print(summarize_manifest(first))
        else:
            print(diff_manifests(first, RunManifest.load(args.other)))
    except BrokenPipeError:
        pass  # output piped into head & co.
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())

"""``events_sparse``: a sparse event-driven scenario, workload to report.

``Scenario(scenario_params_for("default", seed, dns_servers=4000))``
driven by ``run_events`` under a Zipf-weighted Poisson workload at 6 %
of the dense probing cadence, then ``crp.position`` for every client
and ``crp.cluster`` over them (the report), then the report again
(three times; ``warm_wall_s`` is the median).

It crosses the same probe layers as the cold pipeline, but with a
population some 66 times the quick scale's and Zipf-sparse arrivals:
almost every probe meets cold per-resolver state, the event loop and
its TTL-expiry sweeps are on the path, and building the scenario
(4 240 resolvers) is large enough for ``setup_s`` to mean something.
A cache that helps the dense lattice must not cost here.

The second report finds every ratio map cached and the candidate
population packed: ``warm_wall_s`` is the evaluation path alone.
"""

from __future__ import annotations

import json
from typing import Optional

import layers
from common import SETUP_REPS, Context, Outcome, read_summary
from procs import BENCH_DIR, Finished, run_child
from stats import median, summarize_us

NAME = "events_sparse"

DNS_SERVERS = 4000

#: Aggregate arrival rate as a share of the dense cadence (every
#: client once per 600 s).
RATE_FACTOR = 0.06

#: Simulated horizon at the nominal ``--seconds``.
HORIZON_MINUTES = 400.0

#: Times the repeat report is timed (``warm_wall_s`` is the median).
REREPORTS = 3

#: Counts that must not depend on whether spans are recorded.
DETERMINISTIC = (
    "events_dispatched", "probe_events", "ttl_sweeps", "probes_issued",
    "probe_failures", "clients", "positioned", "clusters",
)


def _child(ctx: Context, tag: str, traced: bool, setup_reps: int):
    summary_path = ctx.work / f"summary-{tag}.json"
    config = {
        "seed": ctx.seed,
        "dns_servers": DNS_SERVERS // 5 if ctx.smoke else DNS_SERVERS,
        "rate_factor": RATE_FACTOR,
        "until_s": HORIZON_MINUTES * 60.0 * ctx.scale,
        "setup_reps": setup_reps,
        "rereports": REREPORTS,
        "trace": traced,
        "trace_path": str(ctx.out / f"trace-{NAME}.json"),
        "summary_path": str(summary_path),
    }
    finished = run_child(
        [str(BENCH_DIR / "batch_child.py"), "events", json.dumps(config)],
        ctx.work / f"child-{tag}.log",
    )
    return finished, read_summary(summary_path)


def _check(outcome: Outcome, label: str, finished: Finished, summary: Optional[dict]) -> bool:
    if not outcome.check(
        finished.exit_code == 0 and summary is not None,
        f"{label} child exited with code {finished.exit_code}",
    ):
        return False
    counts = summary["counts"]
    outcome.tally(
        counts["probes_issued"], counts["probe_failures"],
        f"{label}: {counts['probe_failures']} probes failed",
    )
    outcome.check(
        counts["positioned"] > 0, f"{label}: no client could be positioned",
        operations=2 * counts["clients"],
    )
    outcome.check(counts["clusters"] > 0, f"{label}: clustering found no cluster")
    outcome.check(
        (counts["positioned"], counts["clusters"])
        == (counts["positioned_again"], counts["clusters_again"]),
        f"{label}: the second report disagrees with the first",
    )
    return True


def run(ctx: Context) -> Outcome:
    outcome = Outcome(NAME)
    finished, summary = _child(
        ctx, "untraced", traced=False, setup_reps=1 if ctx.trace else SETUP_REPS
    )
    if not _check(outcome, "untraced", finished, summary):
        return outcome
    outcome.detail.update(
        counts=summary["counts"],
        position_latency_us=summarize_us(summary["position_s"]),
        samples={
            "setup_s": len(summary["build_s"]), "cold_wall_s": 1,
            "warm_wall_s": REREPORTS,
        },
    )
    if not ctx.trace:
        outcome.metrics = {
            "setup_s": median(summary["build_s"]),
            "cold_wall_s": summary["run_events_s"] + summary["report_s"],
            "warm_wall_s": median(summary["rereport_s"]),
            "peak_rss_mb": finished.peak_rss_mib,
        }
        return outcome

    traced_finished, traced = _child(ctx, "traced", traced=True, setup_reps=1)
    if not _check(outcome, "traced", traced_finished, traced):
        return outcome
    for name in DETERMINISTIC:
        outcome.check(
            traced["counts"][name] == summary["counts"][name],
            f"{name} differs with spans recorded: {traced['counts'][name]} vs "
            f"{summary['counts'][name]} (a wrapper changed behaviour)",
        )

    def timed(s: dict) -> float:
        return (
            s["build_s"][-1] + s["run_events_s"] + s["report_s"] + sum(s["rereport_s"])
        )

    spans = traced["spans"]
    counts = traced["counts"]
    hits, misses = traced["dns_cache_hits"], traced["dns_cache_misses"]
    metrics = layers.span_metrics(spans)
    loop_self = metrics["sim.loop_self_s"]
    metrics.update({
        "dnssim.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "dnssim.resolve_failures": counts["probe_failures"],
        "core.engine.flushes": traced["engine_flushes"],
        "sim.events_dispatched": counts["events_dispatched"],
        "sim.ttl_sweeps": counts["ttl_sweeps"],
        "sim.us_per_event": loop_self / counts["events_dispatched"] * 1e6,
        "trace.overhead_share": (timed(traced) - timed(summary)) / timed(summary),
        "trace.unaccounted_share": (
            timed(traced) - layers.accounted_seconds(spans)
        ) / timed(traced),
    })
    outcome.metrics = metrics
    outcome.detail["spans_recorded"] = traced["spans_recorded"]
    outcome.notes.append(
        f"  self-time budget, traced run ({timed(traced):.2f} s: build, events, "
        f"{1 + REREPORTS} reports):\n" + layers.budget_table(spans, timed(traced))
    )
    return outcome

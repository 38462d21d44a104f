"""``pipeline_quick``: the experiment runner at quick scale, cold then
warm.

The path every user of the reproduction runs:
``python -m repro.experiments.runner --scale quick --jobs 1
--snapshot-cache DIR --out DIR`` over the ten default experiments,
once on an empty snapshot cache (cold) and once more on the cache that
run left behind (warm), each a separate child process.

Cold spends about half its wall in the probe path (CDN mapping,
network RTTs, DNS resolution, tracker appends) that warm skips by
restoring probe windows from snapshots; warm pays only evaluation
(packing, ranking, clustering, Meridian, the chaos cells).  A
probe-path optimisation must therefore move ``cold_wall_s`` and not
``warm_wall_s``, a snapshot or evaluation one the reverse.

The default experiments pin their own seeds, so the job is the same
for every ``--seed`` (it is passed on as ``--root-seed``).  ``--seconds``
does not shorten it either: the job is the unit users wait for.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import layers
from common import SETUP_REPS, Context, Outcome, read_summary
from procs import BENCH_DIR, Finished, run_child
from stats import median

NAME = "pipeline_quick"

#: The ten experiments of the runner's default set.
EXPERIMENTS = (
    "table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "detour", "overhead", "chaos",
)

#: ``--smoke`` runs the closest-node and clustering reports only.
SMOKE_EXPERIMENTS = ("table1", "fig4", "fig5", "fig6", "fig7")


class PipelineRun:
    """One runner invocation and what it left on disk."""

    def __init__(self, finished: Finished, out: Path, summary: Optional[dict]) -> None:
        self.finished = finished
        self.out = out
        #: The traced child's summary (None for the plain CLI).
        self.summary = summary
        manifest = out / "sweep.manifest.json"
        self.counters: Dict[str, float] = {}
        if manifest.exists():
            self.counters = json.loads(manifest.read_text())["metrics"]["counters"]

    def reports(self) -> Dict[str, str]:
        """SHA-256 per report file."""
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(self.out.glob("*.txt"))
        }

    @property
    def wall_s(self) -> float:
        """Process wall, less the time a traced child spent writing
        its spans out."""
        dump = self.summary["dump_s"] if self.summary else 0.0
        return self.finished.wall_s - dump


def fingerprint(reports: Dict[str, str]) -> str:
    digest = hashlib.sha256()
    for name, sha in sorted(reports.items()):
        digest.update(f"{name}:{sha}\n".encode())
    return digest.hexdigest()


def _experiments(ctx: Context) -> List[str]:
    return list(SMOKE_EXPERIMENTS if ctx.smoke else EXPERIMENTS)


def _run(
    ctx: Context, tag: str, cache: Path, extra=(), traced=False, jobs: int = 1
) -> PipelineRun:
    out = ctx.work / f"reports-{tag}"
    args = [
        "--scale", "quick", "--jobs", str(jobs), "--root-seed", str(ctx.seed),
        "--snapshot-cache", str(cache), "--out", str(out), *extra,
    ]
    if ctx.smoke:
        # The full run names no experiment: it is the default set.
        args += ["--only", *SMOKE_EXPERIMENTS]
    log = ctx.work / f"runner-{tag}.log"
    if not traced:
        return PipelineRun(
            run_child(["-m", "repro.experiments.runner", *args], log), out, None
        )
    summary_path = ctx.work / f"summary-{tag}.json"
    config = {
        "argv": args,
        "experiments": _experiments(ctx),
        "seed": ctx.seed,
        "trace_path": str(ctx.out / f"trace-{NAME}-{tag}.json"),
        "summary_path": str(summary_path),
    }
    finished = run_child(
        [str(BENCH_DIR / "batch_child.py"), "pipeline", json.dumps(config)], log
    )
    return PipelineRun(finished, out, read_summary(summary_path))


def _setup(ctx: Context) -> float:
    """Set-up: an empty cache directory, plus what the runner pays
    before its first cell — interpreter start, importing the program
    and building the experiment plans."""
    config = {
        "experiments": _experiments(ctx),
        "seed": ctx.seed,
        "summary_path": str(ctx.work / "plan.json"),
    }
    walls = []
    for rep in range(SETUP_REPS):
        started = perf_counter()
        (ctx.work / f"setup-cache-{rep}").mkdir()
        run_child([str(BENCH_DIR / "batch_child.py"), "plan", json.dumps(config)])
        walls.append(perf_counter() - started)
    return median(walls)


def _check_pair(outcome: Outcome, label: str, cold: PipelineRun, warm: PipelineRun) -> str:
    """Tally one cold/warm pair's checks; returns the report fingerprint."""
    for which, run in (("cold", cold), ("warm", warm)):
        outcome.check(
            run.finished.exit_code == 0,
            f"{label} {which} run exited with code {run.finished.exit_code}",
        )
        cells_ok = int(run.counters.get("exec.cells.ok", 0))
        cells_failed = int(run.counters.get("exec.cells.failed", 0))
        outcome.check(cells_ok > 0, f"{label} {which} run executed no cell")
        outcome.tally(
            cells_ok + cells_failed, cells_failed,
            f"{label} {which}: {cells_failed} cells failed",
        )
    cold_reports, warm_reports = cold.reports(), warm.reports()
    outcome.check(bool(cold_reports), f"{label} cold run wrote no report")
    for name in sorted(set(cold_reports) | set(warm_reports)):
        outcome.check(
            cold_reports.get(name) == warm_reports.get(name),
            f"{label}: report {name} differs between cold and warm",
        )
    full_runs = warm.counters.get("exec.snapshot.full_runs")
    outcome.check(
        full_runs == 0,
        f"{label} warm run re-simulated {full_runs} windows (expected 0)",
    )
    return fingerprint(cold_reports)


def run(ctx: Context) -> Outcome:
    outcome = Outcome(NAME)
    cache = ctx.work / "cache"
    if not ctx.trace:
        setup_s = _setup(ctx)
    cold = _run(ctx, "cold", cache)
    warm = _run(ctx, "warm", cache)
    report_fp = _check_pair(outcome, "untraced", cold, warm)
    outcome.detail.update(
        report_fingerprint=report_fp,
        cells=int(cold.counters.get("exec.cells.ok", 0)),
        reports=len(cold.reports()),
        experiments=_experiments(ctx),
        samples={"cold_wall_s": 1, "warm_wall_s": 1},
    )
    if not ctx.trace:
        outcome.detail["samples"]["setup_s"] = SETUP_REPS
        outcome.metrics = {
            "setup_s": setup_s,
            "cold_wall_s": cold.finished.wall_s,
            "warm_wall_s": warm.finished.wall_s,
            "peak_rss_mb": max(cold.finished.peak_rss_mib, warm.finished.peak_rss_mib),
        }
        return outcome

    traced_cache = ctx.work / "cache-traced"
    traced_cold = _run(ctx, "traced-cold", traced_cache, traced=True)
    traced_warm = _run(ctx, "traced-warm", traced_cache, traced=True)
    traced_fp = _check_pair(outcome, "traced", traced_cold, traced_warm)
    outcome.check(
        traced_fp == report_fp,
        "reports of the traced run differ from the untraced run's "
        "(a wrapper changed behaviour)",
    )
    plain = _run(ctx, "no-manifest", cache, extra=("--no-manifest",))
    outcome.check(plain.finished.exit_code == 0, "--no-manifest warm run failed")
    outcome.check(
        fingerprint(plain.reports()) == report_fp,
        "reports of the --no-manifest run differ",
    )
    jobs2 = _run(ctx, "jobs2", cache, jobs=2)
    outcome.check(jobs2.finished.exit_code == 0, "--jobs 2 warm run failed")
    outcome.check(
        fingerprint(jobs2.reports()) == report_fp,
        "reports of the --jobs 2 run differ",
    )
    if traced_cold.summary is None or traced_warm.summary is None:
        outcome.check(False, "a traced child left no summary")
        return outcome
    _layer_metrics(
        outcome, cold, warm, traced_cold, traced_warm, plain, jobs2, traced_cache
    )
    return outcome


def _layer_metrics(
    outcome: Outcome,
    cold: PipelineRun, warm: PipelineRun,
    traced_cold: PipelineRun, traced_warm: PipelineRun,
    plain: PipelineRun, jobs2: PipelineRun, traced_cache: Path,
) -> None:
    """Per-layer metrics: spans and counters summed over the traced
    cold and warm runs (the budget of each is printed separately)."""
    merged: Dict[str, Dict[str, float]] = {}
    for run in (traced_cold, traced_warm):
        for name, row in run.summary["spans"].items():
            into = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += row[key]
    metrics = layers.span_metrics(merged)

    def counter(name: str) -> float:
        return sum(run.counters.get(name, 0) for run in (traced_cold, traced_warm))

    hits, misses = counter("dns.cache.hits"), counter("dns.cache.misses")
    metrics.update({
        "dnssim.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "dnssim.resolve_failures": counter("dns.resolver.failures"),
        "core.service.probe_retries": counter("crp.probe.retries"),
        "core.engine.flushes": counter("engine.flushes"),
        "exec.cells": counter("exec.cells.ok") + counter("exec.cells.failed"),
        "exec.snapshot_hits": counter("exec.snapshot.hits"),
        "exec.snapshot_misses": counter("exec.snapshot.misses"),
        "exec.rounds_saved": counter("exec.snapshot.rounds_saved"),
        "exec.full_runs": counter("exec.snapshot.full_runs"),
        "exec.snapshot_bytes": sum(
            path.stat().st_size for path in traced_cache.rglob("*") if path.is_file()
        ),
        "exec.jobs2_warm_wall_s": jobs2.finished.wall_s,
        "obs.manifest_overhead_s": warm.finished.wall_s - plain.finished.wall_s,
    })
    for key in EXPERIMENTS:
        metrics[f"experiments.wall_s.{key}"] = traced_cold.summary.get(
            "experiment_wall_s", {}
        ).get(key, 0.0)
        metrics[f"experiments.warm_wall_s.{key}"] = traced_warm.summary.get(
            "experiment_wall_s", {}
        ).get(key, 0.0)

    untraced = cold.finished.wall_s + warm.finished.wall_s
    traced = traced_cold.wall_s + traced_warm.wall_s
    metrics["trace.overhead_share"] = (traced - untraced) / untraced
    metrics["trace.unaccounted_share"] = (
        traced - layers.accounted_seconds(merged)
    ) / traced
    outcome.metrics = metrics
    outcome.detail["spans_recorded"] = (
        traced_cold.summary["spans_recorded"] + traced_warm.summary["spans_recorded"]
    )
    for label, run in (("cold", traced_cold), ("warm", traced_warm)):
        outcome.notes.append(
            f"  self-time budget, traced {label} run ({run.wall_s:.2f} s wall):\n"
            + layers.budget_table(run.summary["spans"], run.wall_s)
        )

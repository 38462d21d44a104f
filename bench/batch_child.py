"""Child process for the batch workloads.

Run as ``python batch_child.py <mode> '<json config>'`` with ``src``
on ``PYTHONPATH``; each mode writes one JSON summary to
``config["summary_path"]``.

``plan``
    Import the runner and build the experiment plans: what
    ``pipeline_quick`` pays before its first cell runs (its set-up).
``pipeline``
    ``repro.experiments.runner.main(argv)`` with the span recorder
    installed.  The untraced pipeline runs are the plain
    ``python -m repro.experiments.runner`` and never come through here.
``events``
    Build the scenario (several times: set-up is timed as a median),
    run the sparse event workload on the last one, then position every
    client and cluster them (the report), then the report again a few
    times.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

def plan(config: dict) -> dict:
    started = perf_counter()
    from repro.exec import plans_for

    plans = plans_for(config["experiments"], "quick", config["seed"])
    return {
        "plan_s": perf_counter() - started,
        "cells": sum(len(p.cells) for p in plans),
    }


def pipeline(config: dict) -> dict:
    import layers
    from spans import Recorder

    from repro.exec import plans_for
    from repro.experiments import runner

    recorder = Recorder()
    layers.install_core(recorder)
    layers.install_pipeline(recorder)
    sweeps = []
    run_cells = runner.run_cells

    def keep_sweep(*args, **kwargs):
        sweeps.append(run_cells(*args, **kwargs))
        return sweeps[-1]

    runner.run_cells = keep_sweep
    started = perf_counter()
    code = runner.main(config["argv"])
    main_wall = perf_counter() - started
    summary = {"exit_code": code, "main_wall_s": main_wall}
    if sweeps:
        walls = {r.cell_key: r.wall_s for r in sweeps[0].results}
        summary["experiment_wall_s"] = {
            p.key: sum(walls[c.cell_key] for c in p.cells)
            for p in plans_for(config["experiments"], "quick", config["seed"])
        }
    summary.update(layers.finish_trace(recorder, config["trace_path"]))
    return summary


def events(config: dict) -> dict:
    from repro.experiments.harness import scenario_params_for
    from repro.sim import PoissonZipfWorkload
    from repro.workloads.scenario import Scenario

    import layers
    from spans import Recorder

    recorder = None
    if config["trace"]:
        recorder = Recorder()
        layers.install_core(recorder)

    seed = config["seed"]
    params = scenario_params_for("default", seed, dns_servers=config["dns_servers"])
    builds = []
    scenario = None
    for _ in range(config["setup_reps"]):
        del scenario
        gc.collect()
        started = perf_counter()
        scenario = Scenario(params)
        builds.append(perf_counter() - started)

    crp = scenario.crp
    active = crp.active_nodes
    workload = PoissonZipfWorkload(
        active, seed,
        aggregate_rate_per_s=len(active) / 600.0 * config["rate_factor"],
    )
    clients = scenario.client_names
    candidates = scenario.candidate_names

    def report():
        latencies, answered = [], 0
        for client in clients:
            before = perf_counter()
            answer = crp.position(client, candidates)
            latencies.append(perf_counter() - before)
            answered += answer.answerable
        clustering = crp.cluster(clients)
        return latencies, answered, len(clustering.clusters)

    started = perf_counter()
    loop = scenario.run_events(workload, until_s=config["until_s"])
    simulated = perf_counter()
    latencies, answered, clusters = report()
    reported = perf_counter()
    # The repeat report is a third of a second: time it several times.
    rereports = []
    for _ in range(config["rereports"]):
        before = perf_counter()
        _, answered_again, clusters_again = report()
        rereports.append(perf_counter() - before)

    stats = loop.stats()
    caches = [resolver.cache for resolver in scenario.resolvers.values()]
    summary = {
        "build_s": builds,
        "run_events_s": simulated - started,
        "report_s": reported - simulated,
        "rereport_s": rereports,
        "position_s": latencies,
        "counts": {
            "events_dispatched": stats.dispatched,
            "probe_events": stats.dispatched_by_kind.get("client_probe", 0),
            "ttl_sweeps": stats.dispatched_by_kind.get("ttl_expiry", 0),
            "probes_issued": crp.probes_issued,
            "probe_failures": crp.probe_failures,
            "clients": len(clients),
            "positioned": answered,
            "positioned_again": answered_again,
            "clusters": clusters,
            "clusters_again": clusters_again,
        },
        "loop_wall_s": stats.wall_s,
        "dns_cache_hits": sum(c.hits for c in caches),
        "dns_cache_misses": sum(c.misses for c in caches),
    }
    if recorder is not None:
        summary.update(layers.finish_trace(recorder, config["trace_path"]))
    return summary


if __name__ == "__main__":
    mode, config = sys.argv[1], json.loads(sys.argv[2])
    result = {"plan": plan, "pipeline": pipeline, "events": events}[mode](config)
    with open(config["summary_path"], "w") as handle:
        json.dump(result, handle)
    sys.exit(result.get("exit_code", 0))

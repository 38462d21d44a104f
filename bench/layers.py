"""Which entry points are traced, and the per-layer metrics read off
the spans.

A layer is a program module; every span name is ``<layer>:<entry>``.
Only public entry points are wrapped, from here, so the program's own
files stay untouched (spans inside the program are a later change).
Import of the program is deferred to the ``install_*`` calls: nothing
here runs at import.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Sequence, Tuple

import numpy as np

from spans import ROOT, Recorder, SpanArrays, layer_self_seconds, summarize

#: Spans written to a trace file at most (its summary covers all).
SPAN_FILE_LIMIT = 200_000


def install_core(recorder: Recorder) -> None:
    """Trace the simulator and positioning layers (all workloads)."""
    from repro.cdn.mapping import MappingSystem
    from repro.core import clustering, engine, selection
    from repro.core.service import CRPService
    from repro.core.tracker import RedirectionTracker
    from repro.dnssim.resolver import RecursiveResolver
    from repro.faults.controller import ChaosController
    from repro.meridian.overlay import MeridianOverlay
    from repro.netsim.network import Network
    from repro.sim.loop import EventLoop
    from repro.workloads import scenario

    wrap = recorder.wrap
    wrap(Network, "measure_rtt_ms", "netsim:measure_rtt_ms")
    wrap(Network, "base_rtt_ms", "netsim:base_rtt_ms")
    wrap(MappingSystem, "select", "cdn:select")
    wrap(RecursiveResolver, "resolve", "dnssim:resolve")
    wrap(CRPService, "probe", "core.service:probe")
    wrap(CRPService, "probe_scheduled", "core.service:probe_scheduled")
    wrap(CRPService, "position", "core.service:position")
    wrap(CRPService, "cluster", "core.service:cluster")
    wrap(RedirectionTracker, "observe", "core.tracker:observe")
    wrap(RedirectionTracker, "ratio_map", "core.tracker:ratio_map")
    wrap(engine, "packed_for", "core.engine:packed_for")
    wrap(engine.PackedPopulation, "scores", "core.engine:scores")
    wrap(engine.PackedPopulation, "matrix", "core.engine:matrix")
    wrap(engine.PackedPopulation, "add", "core.engine:add")
    wrap(engine.PackedPopulation, "remove", "core.engine:remove")
    wrap(selection, "rank_packed", "core.selection:rank_packed")
    wrap(selection, "rank_candidates", "core.selection:rank_candidates")
    wrap(selection, "select_top_k", "core.selection:select_top_k")
    wrap(clustering, "smf_cluster", "core.clustering:smf_cluster")
    wrap(MeridianOverlay, "build", "meridian:build")
    wrap(MeridianOverlay, "closest_node", "meridian:closest_node")
    wrap(ChaosController, "sync", "faults:sync")
    wrap(EventLoop, "run", "sim:run")
    wrap(scenario.Scenario, "__init__", "workloads:Scenario")
    wrap(scenario.Scenario, "run_probe_rounds", "workloads:run_probe_rounds")
    wrap(scenario.Scenario, "run_events", "workloads:run_events")
    recorder.wrap_generator(
        scenario, "driven_checkpoints", "workloads:driven_checkpoints"
    )


def install_pipeline(recorder: Recorder) -> None:
    """Trace the executor and the experiment producers under it."""
    from repro.exec import cells, executor
    from repro.experiments import runner

    recorder.wrap(executor, "run_cells", "exec:run_cells")
    recorder.wrap(runner, "main", "experiments:runner.main")
    for kind, producer in list(cells.PRODUCERS.items()):
        recorder.wrap_item(cells.PRODUCERS, kind, f"experiments:{kind}")


def install_serve(recorder: Recorder) -> None:
    """Trace the request path: parse, the queue hop, the shard call
    and the answer formatting.

    ``CRPServer.submit`` is a coroutine, and the shard call it waits
    for runs on the shard's worker task.  The POSITION being served is
    remembered per client (a client's requests share one connection,
    so at most one is in flight), and the worker-side spans adopt it
    as their parent: ``submit``'s self time is then the queue hop.
    """
    from repro.serve import frontend, protocol
    from repro.serve.shard import ShardWorker

    in_flight: Dict[str, int] = {}
    carried = [ROOT]

    def submit_name(server, request, at=None) -> str:
        return f"serve:submit.{request.verb.lower()}"

    def submit_opened(index, server, request, at=None) -> None:
        if request.verb == "POSITION":
            in_flight[request.client] = index

    def adopt_position(shard, at, client, k=None) -> int:
        carried[0] = in_flight.pop(client, ROOT)
        return carried[0]

    def adopt_format(answer, k=None) -> int:
        parent, carried[0] = carried[0], ROOT
        return parent

    recorder.wrap(protocol, "parse_request", "serve:parse_request")
    recorder.wrap(protocol, "format_answer", "serve:format_answer", adopt_format)
    recorder.wrap_async(frontend.CRPServer, "submit", submit_name, submit_opened)
    recorder.wrap(ShardWorker, "position", "serve:shard.position", adopt_position)
    recorder.wrap(ShardWorker, "observe", "serve:shard.observe")
    recorder.wrap(ShardWorker, "observe_candidate", "serve:shard.observe_candidate")


def finish_trace(
    recorder: Recorder, trace_path: str, marks: Sequence[Tuple[str, int]] = ()
) -> Dict[str, object]:
    """Remove the wrappers, write the spans, and return what a child
    puts in its summary (``dump_s`` is the time this took).

    ``marks`` are ``(label, span count)`` pairs taken while recording;
    each gets its own table, over the spans from its mark to the next.
    """
    started = perf_counter()
    recorder.uninstall()
    arrays = recorder.arrays()
    summary = summarize(arrays)
    stops = [count for _, count in marks[1:]] + [len(arrays)]
    return {
        "spans": summary,
        "windows": {
            label: summarize(arrays.window(start, stop))
            for (label, start), stop in zip(marks, stops)
        },
        "engine_flushes": engine_flushes(arrays),
        "spans_recorded": len(recorder),
        "spans_written": recorder.dump(trace_path, SPAN_FILE_LIMIT, summary),
        "dump_s": perf_counter() - started,
    }


# -- metrics read off a span summary -----------------------------------------


def _row(summary: dict, name: str) -> Dict[str, float]:
    return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})


def mean_us(summary: dict, name: str, field: str = "total_s") -> float:
    """Mean microseconds per call of one span name (0 if never called)."""
    row = _row(summary, name)
    return row[field] / row["calls"] * 1e6 if row["calls"] else 0.0


def span_metrics(summary: dict) -> Dict[str, float]:
    """The per-layer metrics that come from spans alone."""
    layer = layer_self_seconds(summary)
    row = lambda name: _row(summary, name)  # noqa: E731
    calls = lambda name: row(name)["calls"]  # noqa: E731
    probes = [row("core.service:probe"), row("core.service:probe_scheduled")]
    tracker = [row("core.tracker:observe"), row("core.tracker:ratio_map")]
    ranks = [
        row(f"core.selection:{n}")
        for n in ("rank_packed", "rank_candidates", "select_top_k")
    ]
    rank_calls = sum(r["calls"] for r in ranks)
    workloads_run = [
        row(f"workloads:{n}")
        for n in ("run_probe_rounds", "run_events", "driven_checkpoints")
    ]
    mean = lambda name, field="total_s": mean_us(summary, name, field)  # noqa: E731
    return {
        "netsim.rtt_calls": calls("netsim:measure_rtt_ms") + calls("netsim:base_rtt_ms"),
        "netsim.self_s": layer.get("netsim", 0.0),
        "cdn.select_calls": calls("cdn:select"),
        "cdn.self_s": layer.get("cdn", 0.0),
        "dnssim.resolve_calls": calls("dnssim:resolve"),
        "dnssim.self_s": layer.get("dnssim", 0.0),
        # CRPService.probe only: probe_scheduled calls straight into it.
        "core.service.probe_calls": probes[0]["calls"],
        "core.service.probe_self_s": sum(r["self_s"] for r in probes),
        "core.tracker.observe_calls": tracker[0]["calls"],
        "core.tracker.ratio_map_calls": tracker[1]["calls"],
        "core.tracker.self_s": layer.get("core.tracker", 0.0),
        "core.engine.pack_calls": calls("core.engine:packed_for"),
        "core.engine.self_s": layer.get("core.engine", 0.0),
        "core.selection.rank_calls": rank_calls,
        "core.selection.rank_us": (
            sum(r["total_s"] for r in ranks) / rank_calls * 1e6 if rank_calls else 0.0
        ),
        "core.service.position_calls": calls("core.service:position"),
        "core.service.position_self_us": mean("core.service:position", "self_s"),
        "core.clustering.smf_calls": calls("core.clustering:smf_cluster"),
        "core.clustering.self_s": layer.get("core.clustering", 0.0),
        "meridian.query_calls": calls("meridian:closest_node"),
        "meridian.self_s": layer.get("meridian", 0.0),
        "faults.sync_calls": calls("faults:sync"),
        "faults.self_s": layer.get("faults", 0.0),
        "sim.loop_self_s": layer.get("sim", 0.0),
        "workloads.scenario_build_s": row("workloads:Scenario")["total_s"],
        "workloads.self_s": sum(r["self_s"] for r in workloads_run),
        "exec.self_s": layer.get("exec", 0.0),
        "experiments.self_s": layer.get("experiments", 0.0),
        "serve.parse_us": mean("serve:parse_request"),
        "serve.queue_hop_us": mean("serve:submit.position", "self_s"),
        "serve.shard_us": mean("serve:shard.position"),
        "serve.format_us": mean("serve:format_answer"),
        "serve.submit_us": mean("serve:submit.position"),
    }


def engine_flushes(spans: SpanArrays) -> int:
    """Row bursts the engine had to pack: the number of distinct spans
    that directly contain a ``PackedPopulation.add`` (each burst is
    flushed once, by the next scoring call)."""
    if "core.engine:add" not in spans.names:
        return 0
    adds = spans.parents[spans.name_ids == spans.names.index("core.engine:add")]
    return int(len(np.unique(adds)))


def accounted_seconds(summary: dict) -> float:
    """Self time over every traced layer."""
    return sum(layer_self_seconds(summary).values())


def budget_table(summary: dict, wall_s: float) -> str:
    """The self-time budget, one line per layer, as shares of a wall."""
    layer = layer_self_seconds(summary)
    lines = [f"    {'layer':<18}{'self s':>10}{'share':>9}"]
    for name in sorted(layer, key=layer.get, reverse=True):
        lines.append(
            f"    {name:<18}{layer[name]:>10.3f}{layer[name] / wall_s:>9.1%}"
        )
    rest = wall_s - sum(layer.values())
    lines.append(f"    {'(unaccounted)':<18}{rest:>10.3f}{rest / wall_s:>9.1%}")
    return "\n".join(lines)

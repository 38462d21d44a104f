"""Server child for the ``serve_*`` workloads.

Builds a :class:`ShardedCRPService` behind ``CRPServer.serve_tcp`` on
loopback, preseeds it, prints ``PORT <n>`` and serves until a client
sends ``SHUTDOWN``.  Run as ``python serve_child.py '<json config>'``
with ``src`` on ``PYTHONPATH``.

The population is preseeded through ``CRPServer.enqueue`` and not
through ``ShardedCRPService.apply``: only the former advances the
server's request-time floor, and a server whose shard clocks run ahead
of that floor answers every TCP request with ``ERR internal cannot
move the clock backwards`` (see the README's findings).

With ``"trace": true`` the span recorder is installed around the
serving layers before the first request.  Two control lines on stdin,
each acknowledged on stdout: ``mark <label>`` starts a window of spans
that gets its own table, and ``untrace`` removes the wrappers again,
so that one server can serve a traced and an untraced pass over the
same state.  On shutdown the child writes
its summary (STATS, span table, the exact-vs-ANN side measurement) and
the spans to the paths the config names.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
from serve_inputs import ServeInputs  # noqa: E402
from spans import Recorder  # noqa: E402


async def _serve(config: dict) -> None:
    from repro.serve import CRPServer, ShardedCRPService

    if config["cpu"] is not None:
        os.sched_setaffinity(0, {config["cpu"]})
    inputs = ServeInputs(config["clients"], config["candidates"], config["seed"])
    recorder = Recorder() if config["trace"] else None
    if recorder is not None:
        layers.install_core(recorder)
        layers.install_serve(recorder)

    service = ShardedCRPService(inputs.serve_params())
    server = CRPServer(service)
    await server.start()
    for op in inputs.preseed_ops():
        await server.enqueue(op)
    await server.drain()

    loop = asyncio.get_running_loop()
    stopping = asyncio.Event()
    serve_admin = server.admin

    def admin(request):
        if request.verb == "SHUTDOWN":
            stopping.set()
        return serve_admin(request)

    server.admin = admin

    marks = []

    def on_control() -> None:
        line = sys.stdin.readline()
        words = line.split()
        if recorder is not None and words[:1] == ["mark"]:
            marks.append((words[1], len(recorder)))
            print("MARKED", flush=True)
        if recorder is not None and words == ["untrace"]:
            recorder.uninstall()
            print("UNTRACED", flush=True)
        if not line:
            loop.remove_reader(sys.stdin.fileno())

    loop.add_reader(sys.stdin.fileno(), on_control)
    listener = await server.serve_tcp(port=0)
    print(f"PORT {listener.sockets[0].getsockname()[1]}", flush=True)
    await stopping.wait()
    listener.close()
    await listener.wait_closed()
    await server.stop()

    summary = {"stats": service.stats()}
    if recorder is not None:
        summary.update(layers.finish_trace(recorder, config["trace_path"], marks))
        summary["ann"] = _ann_side_measurement(service, inputs)
    with open(config["summary_path"], "w") as handle:
        json.dump(summary, handle)


def _ann_side_measurement(service, inputs: ServeInputs, queries: int = 200) -> dict:
    """Exact vs sketch-index ``rank_packed`` on shard 0's candidate
    population.  Not on the request path (the served configuration is
    exact): it records where the two stand at this population size."""
    from repro.core.ann import AnnParams
    from repro.core.selection import rank_packed

    shard = service.shards[0]
    crp = shard.service
    population = crp.candidate_population
    metric = crp.params.metric
    maps = []
    for index in range(inputs.clients):
        name = inputs.client_name(index)
        if crp.is_registered(name):
            found = crp.ratio_map(name)
            if found is not None:
                maps.append(found)
        if len(maps) == queries:
            break
    if population is None or not maps:
        return {"queries": 0}
    ann = AnnParams()
    rank_packed(maps[0], population, metric, k=5, approx=ann)  # builds the index
    exact_s, approx_s, kept = 0.0, 0.0, 0
    for client_map in maps:
        population.memo.clear()  # time rankings, not the answer memo
        started = perf_counter()
        exact = rank_packed(client_map, population, metric)
        middle = perf_counter()
        approx = rank_packed(client_map, population, metric, k=5, approx=ann)
        approx_s += perf_counter() - middle
        exact_s += middle - started
        top = {row.name for row in exact[:5]}
        kept += len(top & {row.name for row in approx})
    return {
        "queries": len(maps),
        "rows": len(population),
        "exact_rank_us": exact_s / len(maps) * 1e6,
        "ann_rank_us": approx_s / len(maps) * 1e6,
        "recall_at_5": kept / (5.0 * len(maps)),
    }


if __name__ == "__main__":
    asyncio.run(_serve(json.loads(sys.argv[1])))

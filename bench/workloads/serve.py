"""What the three ``serve_*`` workloads share.

A server child (``serve_child.py``: 2 shards, 10 000 preseeded
clients, exact ranking, ``CRPServer.serve_tcp`` on loopback) and one
generator thread with 2 TCP connections, one per shard.  Phases, with
the server quiet between them:

1. warm-up, closed loop, discarded;
2. **pass 1** — a fixed script, closed loop (one request in flight
   per connection): its wall is ``cold_wall_s``;
3. **pass 2** — the same clients in the same order on the state
   pass 1 left (ratio maps cached, rankings memoised):
   ``warm_wall_s``;
4. three **open-loop** phases at fixed Poisson rates, latency timed
   from each request's due instant; they give the per-layer
   ``serve.position_p50_us`` / ``p99`` at the reference rate and
   ``serve.max_rate_ok``.

Scripts are fixed request *counts* (scaled by ``--seconds``), not
durations, so the state the server reaches — and with it every answer
— is the same on every run of a seed.

Every reply is checked: it must equal, byte for byte, what
``replay_unsharded`` answers for the same script put in one order
(the repository's sharded ≡ unsharded contract).  Any ``ERR``,
mismatch or dropped request is a failed operation.

A traced run starts one server with spans on and runs warm-up and
passes 1–2.  Then comes a one-in-flight window (``mark solo``): a
single request at a time, a ``PING`` after each, so that no request
waits behind another and the transport is timed in the cache state a
real request leaves; the anatomy of a request is read off that window
alone.  ``untrace`` then removes the wrappers, the script runs a third
time — pass 2 against pass 3 is the tracing overhead — and the
open-loop phases follow, so those latencies are untraced there too.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import layers
from common import SETUP_REPS, Context, Outcome, read_summary
from loadgen import LoopResult, SocketTransport, closed_loop, open_loop
from procs import BENCH_DIR, Server, split_cpus
from serve_inputs import SHARDS, Op, Request, ServeInputs
from stats import median, percentile_or_none, summarize_us

CLIENTS = 10_000

#: Sent between the requests of a traced run's one-in-flight phase.
PING = Request(b"PING\n", Op(0.0, "PING", ""))

#: Shares of ``--seconds``: warm-up, each closed pass, each open phase,
#: and the one-in-flight phase of a traced run.
WARMUP_SHARE, PASS_SHARE, OPEN_SHARE, SOLO_SHARE = 0.1, 0.4, 0.15, 0.05


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    candidates: int
    #: OBSERVE + POSITION pairs and candidate refreshes, or reads only.
    mixed: bool
    #: Requests per second that size the closed-loop scripts.
    sizing_rate: float
    #: Open-loop rates (requests per second), ascending.
    rates: Tuple[float, float, float]
    reference_rate: float
    #: p99 limit a rate must meet to count as sustained.
    p99_limit_us: float


class Session:
    """One server child and the generator's connections to it."""

    def __init__(
        self, ctx: Context, workload: ServeWorkload, inputs: ServeInputs,
        traced: bool, tag: str,
    ) -> None:
        self.summary_path = ctx.work / f"server-{tag}.json"
        config = {
            "clients": inputs.clients,
            "candidates": workload.candidates,
            "seed": inputs.seed,
            "cpu": split_cpus()[1],
            "trace": traced,
            "trace_path": str(ctx.out / f"trace-{workload.name}.json"),
            "summary_path": str(self.summary_path),
        }
        self.server = Server(
            [str(BENCH_DIR / "serve_child.py"), json.dumps(config)],
            ctx.work / f"server-{tag}.log",
        )
        self.transport: Optional[SocketTransport] = None
        try:
            line = self.server.read_line()
            if not line.startswith("PORT "):
                raise RuntimeError(f"server child did not come up (said {line!r})")
            self.transport = SocketTransport("127.0.0.1", int(line.split()[1]), SHARDS)
            if self.transport.request(0, b"PING\n") != b"PONG":
                raise RuntimeError("server child did not answer PING")
            self.setup_s = self.server.started_for()
        except BaseException:
            self.abort()
            raise

    def control(self, line: str, acknowledgement: str) -> None:
        self.server.control(line)
        if self.server.read_line() != acknowledgement:
            raise RuntimeError(f"server child did not confirm {line!r}")

    def stats(self) -> Dict[str, int]:
        reply = self.transport.request(0, b"STATS\n") or b""
        fields = reply.decode().split()[1:]
        return {k: int(v) for k, v in (f.split("=") for f in fields)}

    def shutdown(self):
        """SHUTDOWN, then wait for the child; returns (Finished, summary)."""
        self.server.peak_rss_mib()  # while there is still a process to ask
        self.transport.request(0, b"SHUTDOWN\n")
        self.transport.close()
        return self.server.finish(), read_summary(self.summary_path)

    def abort(self) -> None:
        if self.transport is not None:
            self.transport.close()
        self.server.kill()


class Script:
    """The requests of a run in the order a single unsharded service
    would see them, with the replies that came back."""

    def __init__(self) -> None:
        self.requests: List[Request] = []
        self.replies: List[Optional[bytes]] = []

    def record(self, scripts: Sequence[Sequence[Request]], result: LoopResult) -> None:
        """Append one phase, connection after connection: connections
        carry disjoint clients, so any order that keeps each one's own
        order gives the same answers."""
        for requests, replies in zip(scripts, result.replies):
            self.requests.extend(requests)
            self.replies.extend(replies)
            self.replies.extend([None] * (len(requests) - len(replies)))


def _lines(scripts: Sequence[Sequence[Request]]) -> List[List[bytes]]:
    return [[request.line for request in script] for script in scripts]


def _latencies(
    scripts: Sequence[Sequence[Request]], result: LoopResult, verb: str
) -> List[float]:
    return [
        latency
        for script, latencies in zip(scripts, result.latencies)
        for request, latency in zip(script, latencies)
        if request.op.verb == verb
    ]


class Traffic:
    """Generates a run's phases, sends them, and keeps what came back."""

    def __init__(self, ctx: Context, workload: ServeWorkload, session: Session,
                 inputs: ServeInputs) -> None:
        self.ctx, self.workload, self.inputs = ctx, workload, inputs
        self.transport = session.transport
        self.script = Script()
        self.phases: Dict[str, dict] = {}
        #: POSITION latencies of the closed phases, by label.
        self.position_s: Dict[str, List[float]] = {}
        #: Round trips of the PINGs interleaved into the solo phase.
        self.ping_s: List[float] = []
        self.open: Dict[float, dict] = {}
        self._observed: Dict[int, int] = {}
        self._refreshes = 0
        self.per_arrival = 2 if workload.mixed else 1

    def _arrival(self, index: int) -> List[Request]:
        if not self.workload.mixed:
            return [self.inputs.position(index)]
        # A client never reports the same redirection draw twice.
        draw = self._observed[index] = self._observed.get(index, 0) + 1
        return [self.inputs.observe(index, draw), self.inputs.position(index)]

    def _barrier(self) -> None:
        """After each phase of the mixed workload: every candidate is
        observed once more, which the server broadcasts to both shards.
        Nothing else is in flight, so the order is the same on every
        run."""
        if self.workload.mixed:
            requests = self.inputs.candidate_refresh(self._refreshes)
            self._refreshes += 1
            result = closed_loop(self.transport, _lines([requests]))
            self.script.record([requests], result)

    def closed(
        self, label: str, stream: int, share: float, solo: bool = False
    ) -> float:
        """A closed-loop phase over the clients of rng ``stream`` (the
        same stream gives the same clients in the same order); returns
        its wall.  ``solo`` runs one connection after the other, so a
        single request is in flight and none waits behind another."""
        inputs = self.inputs
        count = int(
            self.workload.sizing_rate * share * self.ctx.seconds / self.per_arrival
        )
        arrival = self._arrival
        if solo:
            # A PING after every arrival times the transport alone, in
            # the cache state a real request leaves behind.
            arrival = lambda index: self._arrival(index) + [PING]  # noqa: E731
        scripts = inputs.split(inputs.draw_clients(inputs.rng(stream), count), arrival)
        wall, dropped, positions = 0.0, 0, []
        for part in self._one_by_one(scripts) if solo else [scripts]:
            result = closed_loop(self.transport, _lines(part))
            self.script.record(part, result)
            wall += result.wall_s
            dropped += result.dropped
            positions += _latencies(part, result, "POSITION")
            self.ping_s += _latencies(part, result, "PING")
        sent = sum(len(s) for s in scripts)
        self.phases[label] = {
            "loop": "closed", "connections": 1 if solo else SHARDS,
            "requests": sent, "dropped": dropped, "wall_s": wall,
            "requests_per_s": sent / wall,
        }
        self.position_s[label] = positions
        self._barrier()
        return wall

    @staticmethod
    def _one_by_one(scripts: List[List[Request]]) -> List[List[List[Request]]]:
        return [
            [script if conn == only else [] for conn in range(len(scripts))]
            for only, script in enumerate(scripts)
        ]

    def open_phases(self) -> None:
        """One open-loop phase per rate, each with the same number of
        requests, so that the slowest rate supports a p99 as well."""
        workload, inputs = self.workload, self.inputs
        budget_s = OPEN_SHARE * len(workload.rates) * self.ctx.seconds
        count = budget_s / sum(1.0 / rate for rate in workload.rates)
        for number, rate in enumerate(workload.rates):
            seconds = count / rate
            rng = inputs.rng(10 + number)
            dues = inputs.poisson_dues(rng, rate / self.per_arrival, seconds)
            drawn = inputs.draw_clients(rng, len(dues))
            scripts: List[List[Request]] = [[] for _ in range(SHARDS)]
            due_lists: List[List[float]] = [[] for _ in range(SHARDS)]
            for index, due in zip(drawn.tolist(), dues.tolist()):
                conn = inputs.connection_of(index)
                for request in self._arrival(index):
                    scripts[conn].append(request)
                    due_lists[conn].append(due)
            result = open_loop(self.transport, _lines(scripts), due_lists)
            self.script.record(scripts, result)
            positions = _latencies(scripts, result, "POSITION")
            observes = _latencies(scripts, result, "OBSERVE")
            p99 = percentile_or_none(positions, 99.0)
            self.phases[f"open-{rate:g}"] = {
                "loop": "open", "connections": SHARDS, "rate_per_s": rate,
                "seconds": seconds, "requests": sum(len(s) for s in scripts),
                "dropped": result.dropped, "late_share": result.late_share,
                "backlog_end": result.backlog_end,
                "position_us": summarize_us(positions),
                "observe_us": summarize_us(observes) if observes else None,
            }
            limit_s = workload.p99_limit_us * 1e-6
            self.open[rate] = {
                "positions": positions, "observes": observes,
                "late_share": result.late_share,
                # Sustained: nothing dropped, p99 within the limit, and
                # no more outstanding at the end than arrive in a limit.
                "ok": (
                    result.dropped == 0 and p99 is not None and p99 <= limit_s
                    and result.backlog_end <= rate * limit_s + SHARDS
                ),
            }
            self._barrier()


def run(ctx: Context, workload: ServeWorkload) -> Outcome:
    outcome = Outcome(workload.name)
    inputs = ServeInputs(
        CLIENTS // 5 if ctx.smoke else CLIENTS, workload.candidates, ctx.seed
    )
    setups = []
    if not ctx.trace:
        for rep in range(SETUP_REPS - 1):
            spare = Session(ctx, workload, inputs, traced=False, tag=f"setup-{rep}")
            setups.append(spare.setup_s)
            spare.shutdown()
    session = Session(ctx, workload, inputs, traced=ctx.trace, tag="main")
    setups.append(session.setup_s)
    traffic = Traffic(ctx, workload, session, inputs)
    allowed = os.sched_getaffinity(0)
    generator_cpu = split_cpus()[0]
    third = 0.0
    try:
        if generator_cpu is not None:
            os.sched_setaffinity(0, {generator_cpu})
        traffic.closed("warm-up", 1, WARMUP_SHARE)
        first = traffic.closed("pass-1", 2, PASS_SHARE)
        second = traffic.closed("pass-2", 2, PASS_SHARE)
        if ctx.trace:
            session.control("mark solo", "MARKED")
            traffic.closed("solo", 3, SOLO_SHARE, solo=True)
            session.control("untrace", "UNTRACED")
            third = traffic.closed("pass-3", 2, PASS_SHARE)
        traffic.open_phases()
        stats = session.stats()
        finished, child = session.shutdown()
    except BaseException:
        session.abort()
        raise
    finally:
        os.sched_setaffinity(0, allowed)

    script, phases = traffic.script, traffic.phases
    _verify(outcome, inputs, script, pure=not workload.mixed)
    outcome.check(finished.exit_code == 0, f"server exited with code {finished.exit_code}")
    outcome.detail.update(
        phases=phases,
        answers_fingerprint=_fingerprint(script.replies),
        server_stats=stats,
        samples={"setup_s": len(setups), "cold_wall_s": 1, "warm_wall_s": 1},
    )
    _phase_notes(outcome, workload, phases)
    if not ctx.trace:
        outcome.metrics = {
            "setup_s": median(setups),
            "cold_wall_s": first,
            "warm_wall_s": second,
            "peak_rss_mb": finished.peak_rss_mib,
        }
        return outcome
    if child is None or "spans" not in child:
        outcome.check(False, "the traced server left no span summary")
        return outcome

    _layer_metrics(outcome, workload, traffic, child, stats, second, third)
    return outcome


def _layer_metrics(
    outcome: Outcome, workload: ServeWorkload, traffic: Traffic,
    child: dict, stats: Dict[str, int], second: float, third: float,
) -> None:
    """The per-layer metrics of a traced run (``second`` and ``third``
    are the walls of the traced pass 2 and the untraced pass 3)."""
    script, phases = traffic.script, traffic.phases
    # Layer totals come from every traced span; the anatomy of one
    # request comes from the one-in-flight window alone, where the
    # client-observed latency holds no wait behind another request.
    metrics = layers.span_metrics(child["spans"])
    solo = layers.span_metrics(child["windows"]["solo"])
    for name in ("parse_us", "queue_hop_us", "shard_us", "format_us"):
        metrics[f"serve.{name}"] = solo[f"serve.{name}"]
    # Means throughout: span tables hold sums, and a ranking served
    # from the memo and one computed afresh are two modes, not one.
    solo_s = traffic.position_s["solo"]
    client_us = sum(solo_s) / len(solo_s) * 1e6
    ping_us = sum(traffic.ping_s) / len(traffic.ping_s) * 1e6
    transport_us = ping_us - solo["serve.parse_us"] - layers.mean_us(
        child["windows"]["solo"], "serve:submit.ping"
    )
    parts_us = transport_us + solo["serve.parse_us"] + solo["serve.submit_us"]
    del metrics["serve.submit_us"]
    reference = traffic.open[workload.reference_rate]
    sustained = [rate for rate in workload.rates if traffic.open[rate]["ok"]]
    ann = child.get("ann", {})

    def percentile_us(samples: List[float], pct: float) -> float:
        found = percentile_or_none(samples, pct)
        return found * 1e6 if found is not None else 0.0

    metrics.update({
        "core.engine.flushes": child["engine_flushes"],
        "core.ann.rank_us": ann.get("ann_rank_us", 0.0),
        "core.ann.exact_rank_us": ann.get("exact_rank_us", 0.0),
        "core.ann.recall_at_5": ann.get("recall_at_5", 0.0),
        "serve.transport_us": transport_us,
        "serve.errors": sum(
            1 for reply in script.replies if reply is None or reply.startswith(b"ERR")
        ),
        "serve.engine_rows": stats.get("engine_rows", 0),
        "serve.resident_clients": stats.get("clients", 0),
        "serve.requests_per_s": phases["pass-3"]["requests_per_s"],
        "serve.position_p50_us": percentile_us(reference["positions"], 50.0),
        "serve.position_p99_us": percentile_us(reference["positions"], 99.0),
        "serve.observe_p99_us": percentile_us(reference["observes"], 99.0),
        "serve.max_rate_ok": max(sustained) if sustained else 0.0,
        "serve.late_share": reference["late_share"],
        "trace.overhead_share": (second - third) / third,
        "trace.unaccounted_share": (client_us - parts_us) / client_us,
    })
    outcome.metrics = metrics
    outcome.detail["spans_recorded"] = child["spans_recorded"]
    outcome.detail["ann_side_measurement"] = ann
    outcome.notes.append(
        f"  one traced POSITION with nothing else in flight, client-observed "
        f"mean {client_us:.1f} us (n={len(solo_s)}):\n"
        f"    transport (PING round trip less its own parse and submit) "
        f"{transport_us:7.1f} us\n"
        f"    parse_request           {solo['serve.parse_us']:7.1f} us\n"
        f"    queue hop (submit self) {solo['serve.queue_hop_us']:7.1f} us\n"
        f"    ShardWorker.position    {solo['serve.shard_us']:7.1f} us  (ranking "
        f"{solo['core.selection.rank_us']:.1f} us, CRPService.position self "
        f"{solo['core.service.position_self_us']:.1f} us)\n"
        f"    format_answer           {solo['serve.format_us']:7.1f} us\n"
        f"    not accounted for       {client_us - parts_us:7.1f} us"
    )


def _phase_notes(outcome: Outcome, workload: ServeWorkload, phases: dict) -> None:
    for label, phase in phases.items():
        if phase["loop"] == "closed":
            outcome.notes.append(
                f"  {label:<18} closed loop, {phase['connections']} connections: "
                f"{phase['requests']} requests in {phase['wall_s']:.3f} s "
                f"({phase['requests_per_s']:.0f}/s), {phase['dropped']} dropped"
            )
            continue
        position = phase["position_us"]
        tail = (
            f"p{position['tail_pct']:g} {position['tail']:.0f} us"
            if position["tail"] is not None else "tail unsupported"
        )
        outcome.notes.append(
            f"  {label:<18} open loop at {phase['rate_per_s']:.0f}/s for "
            f"{phase['seconds']:.2f} s: POSITION n={position['n']} median "
            f"{position['median']:.0f} us, {tail}; late sends "
            f"{phase['late_share']:.1%}, backlog at end {phase['backlog_end']}, "
            f"{phase['dropped']} dropped (limit p99 <= {workload.p99_limit_us:.0f} us)"
        )


def _fingerprint(replies: Sequence[Optional[bytes]]) -> str:
    import hashlib

    digest = hashlib.sha256()
    for reply in replies:
        digest.update((reply if reply is not None else b"<dropped>") + b"\n")
    return digest.hexdigest()


def _verify(outcome: Outcome, inputs: ServeInputs, script: Script, pure: bool) -> None:
    """Compare every reply with the unsharded reference replay.

    A read-only script leaves the service unchanged, so each client's
    answer is replayed once and every reply for that client must equal
    it; a script with writes is replayed op for op.
    """
    from repro.serve import replay_unsharded

    ops = [request.op for request in script.requests]
    data = [op for op in ops if op.verb != "PING"]
    preseed = list(inputs.preseed_ops())
    if pure:
        first_seen = list({op.subject: op for op in data}.values())
        answers = replay_unsharded(inputs.serve_params(), preseed + first_seen)
        by_client = {op.subject: a for op, a in zip(first_seen, answers)}
        by_client[PING.op.subject] = "PONG"
        expected = [by_client[op.subject] for op in ops]
    else:
        answers = iter(replay_unsharded(inputs.serve_params(), preseed + data))
        fixed = {"OBSERVE": "OK", "PING": "PONG"}
        expected = [
            next(answers) if op.verb == "POSITION" else fixed[op.verb] for op in ops
        ]
    wrong = {"dropped": 0, "ERR": 0, "mismatch": 0}
    example = None
    for op, want, got in zip(ops, expected, script.replies):
        if got is None:
            wrong["dropped"] += 1
        elif got.startswith(b"ERR"):
            wrong["ERR"] += 1
            example = example or got.decode(errors="replace")
        elif got.decode() != want:
            wrong["mismatch"] += 1
            example = example or f"{op.verb} {op.subject}: got {got.decode()!r}, want {want!r}"
    bad = sum(wrong.values())
    outcome.tally(
        len(ops), bad, f"{bad} of {len(ops)} replies wrong ({wrong}); first: {example}"
    )

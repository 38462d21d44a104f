"""The serving front end: sharded routing and the asyncio request loop.

Two layers, deliberately separated:

* :class:`ShardedCRPService` — the deterministic synchronous core.  It
  owns the :class:`~repro.serve.shard.ShardWorker` fleet, routes every
  op to the shard that owns its client key (candidate observations
  broadcast to all shards), and exposes the admin operations.  All
  correctness properties — including byte-identity with the unsharded
  reference — live here.
* :class:`CRPServer` — the asyncio event loop around it: one bounded
  queue plus one worker task per shard (enqueue-order is preserved per
  shard, so any interleaving of shard workers processes each shard's
  subsequence in script order), request latency histograms, an admin
  channel that bypasses the queues, and an optional TCP line-protocol
  binding.  Backpressure is the queue bound: producers ``await`` on a
  full shard queue instead of growing it without limit.

The admin channel's ``EVICT`` deliberately races the data plane — it
drops a client directly on its shard while observations for the same
key may still be queued.  That is safe by construction: the shard's
ingest path re-registers missing clients before touching them (see
:meth:`ShardWorker._touch`), so an evict-then-observe interleaving
recreates the tracker rather than dropping the observation.

:func:`replay_unsharded` is the reference the differential harness
compares against: the same op script fed to one plain
:class:`~repro.core.service.CRPService`, producing answers that must
match the sharded service byte for byte.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.core.service import CRPService
from repro.netsim.clock import SimClock
from repro.obs import LATENCY_BUCKETS_US, Observability, get_observability
from repro.serve.loadgen import Op
from repro.serve.protocol import (
    ProtocolError,
    Request,
    format_answer,
    format_error,
    parse_request,
)
from repro.serve.shard import ServeParams, ShardStats, ShardWorker
from repro.serve.sharding import shard_of

#: Queue item kinds (precomputed at enqueue so workers stay branch-light).
_OBSERVE, _CANDIDATE, _POSITION = 0, 1, 2

#: Worker shutdown sentinel.
_STOP = object()


class ShardedCRPService:
    """The synchronous sharded core: route, apply, administer."""

    def __init__(
        self, params: ServeParams, obs: Optional[Observability] = None
    ) -> None:
        self.params = params
        obs = obs if obs is not None else get_observability()
        self._obs = obs
        self.shards: List[ShardWorker] = [
            ShardWorker(i, params, obs=obs) for i in range(params.shards)
        ]
        self.candidates = frozenset(params.candidates)

    def shard_for(self, client: str) -> ShardWorker:
        return self.shards[shard_of(client, len(self.shards))]

    def apply(self, op: Op) -> Optional[str]:
        """Apply one scripted op synchronously; POSITION ops return
        their response line (observes return "OK")."""
        if op.verb == "OBSERVE":
            if op.subject in self.candidates:
                for shard in self.shards:
                    shard.observe_candidate(op.at, op.subject, op.name, op.addresses)
            else:
                self.shard_for(op.subject).observe(
                    op.at, op.subject, op.name, op.addresses
                )
            return "OK"
        if op.verb == "POSITION":
            return format_answer(
                self.shard_for(op.subject).position(op.at, op.subject, op.k)
            )
        raise ValueError(f"unknown op verb {op.verb!r}")

    def replay(self, ops: Sequence[Op]) -> List[str]:
        """Apply a whole script, collecting POSITION answers in script
        order (the sync half of the differential pair)."""
        return [
            response
            for op in ops
            for response in (self.apply(op),)
            if op.verb == "POSITION"
        ]

    # -- admin --------------------------------------------------------------

    def evict(self, client: str) -> bool:
        """Evict one client from its owning shard (admin path)."""
        return self.shard_for(client).evict(client)

    def invalidate(self, before: float) -> int:
        """Structural-change recovery across every shard."""
        return sum(shard.invalidate(before) for shard in self.shards)

    def shard_stats(self) -> List[ShardStats]:
        return [shard.stats() for shard in self.shards]

    def stats(self) -> Dict[str, int]:
        """Fleet-wide totals for the STATS response."""
        per_shard = self.shard_stats()
        return {
            "shards": len(per_shard),
            "clients": sum(s.resident_clients for s in per_shard),
            "observations": sum(s.observations for s in per_shard),
            "positions": sum(s.positions for s in per_shard),
            "evictions": sum(s.evictions for s in per_shard),
            "recreations": sum(s.recreations for s in per_shard),
            "engine_rows": sum(s.engine.get("rows", 0) for s in per_shard),
            "ann_rows": sum(s.ann.get("rows", 0) for s in per_shard),
            "ann_queries": sum(s.ann.get("queries", 0) for s in per_shard),
            "ann_full_scans": sum(s.ann.get("full_scans", 0) for s in per_shard),
        }


class CRPServer:
    """The asyncio request loop over a :class:`ShardedCRPService`.

    Per-shard FIFO queues preserve script order within each shard, so
    results are independent of event-loop scheduling; the queue bound
    is the backpressure mechanism (``enqueue`` awaits on a full queue).
    """

    def __init__(
        self,
        service: ShardedCRPService,
        obs: Optional[Observability] = None,
        queue_depth: int = 1024,
    ) -> None:
        if queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        self.service = service
        obs = obs if obs is not None else get_observability()
        metrics = obs.metrics
        self._h_position = metrics.histogram(
            "serve.latency_us", buckets=LATENCY_BUCKETS_US, op="position"
        )
        self._h_observe = metrics.histogram(
            "serve.latency_us", buckets=LATENCY_BUCKETS_US, op="observe"
        )
        self._m_requests = metrics.counter("serve.requests")
        self._m_errors = metrics.counter("serve.errors")
        self._queue_depth = queue_depth
        self._queues: List[asyncio.Queue] = []
        self._workers: List[asyncio.Task] = []
        #: Monotone request-time floor for requests arriving without a
        #: timestamp (ad-hoc TCP traffic); scripted ops carry their own.
        self._now = 0.0

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        if self._workers:
            raise RuntimeError("server already started")
        # A service preseeded through ``ShardedCRPService.apply`` has
        # shard clocks ahead of zero; a timestamp-less request stamped
        # below them would ask a shard to move its clock backwards.
        self._now = max(self._now, *(s.clock.now for s in self.service.shards))
        count = len(self.service.shards)
        self._queues = [asyncio.Queue(maxsize=self._queue_depth) for _ in range(count)]
        self._workers = [
            asyncio.create_task(self._worker(i)) for i in range(count)
        ]

    async def drain(self) -> None:
        """Wait until every queued request has been processed."""
        for queue in self._queues:
            await queue.join()

    async def stop(self) -> None:
        """Drain, then terminate the shard workers."""
        await self.drain()
        for queue in self._queues:
            await queue.put(_STOP)
        await asyncio.gather(*self._workers)
        self._workers = []
        self._queues = []

    # -- data plane ---------------------------------------------------------

    def _time_for(self, at: Optional[float]) -> float:
        """Resolve a request time, clamping to the monotone floor."""
        if at is not None and at > self._now:
            self._now = at
        return self._now

    async def enqueue(self, op: Op) -> "Optional[asyncio.Future]":
        """Queue one op to its shard(s); POSITION ops return a future
        resolving to the response line, observes return None."""
        self._m_requests.inc()
        self._time_for(op.at)
        if op.verb == "OBSERVE":
            if op.subject in self.service.candidates:
                for queue in self._queues:
                    await queue.put((_CANDIDATE, op, None))
            else:
                index = shard_of(op.subject, len(self._queues))
                await self._queues[index].put((_OBSERVE, op, None))
            return None
        if op.verb == "POSITION":
            future = asyncio.get_running_loop().create_future()
            index = shard_of(op.subject, len(self._queues))
            await self._queues[index].put((_POSITION, op, future))
            return future
        raise ValueError(f"unknown op verb {op.verb!r}")

    async def submit(self, request: Request, at: Optional[float] = None) -> str:
        """One protocol request through to its response line."""
        if request.is_admin:
            return self.admin(request)
        when = self._time_for(at)
        op = Op(
            when, request.verb, request.client,
            name=request.name, addresses=request.addresses, k=request.k,
        )
        future = await self.enqueue(op)
        if future is None:
            return "OK"
        return await future

    async def _worker(self, index: int) -> None:
        queue = self._queues[index]
        shard = self.service.shards[index]
        while True:
            item = await queue.get()
            if item is _STOP:
                queue.task_done()
                return
            kind, op, future = item
            started = perf_counter()
            try:
                if kind == _POSITION:
                    response = format_answer(
                        shard.position(op.at, op.subject, op.k)
                    )
                elif kind == _CANDIDATE:
                    shard.observe_candidate(op.at, op.subject, op.name, op.addresses)
                    response = "OK"
                else:
                    shard.observe(op.at, op.subject, op.name, op.addresses)
                    response = "OK"
            except Exception as exc:  # surface, never kill the worker
                self._m_errors.inc()
                response = format_error(ProtocolError("internal", str(exc)))
            elapsed_us = (perf_counter() - started) * 1e6
            if kind == _POSITION:
                self._h_position.observe(elapsed_us)
            else:
                self._h_observe.observe(elapsed_us)
            if future is not None and not future.cancelled():
                future.set_result(response)
            queue.task_done()

    # -- admin channel ------------------------------------------------------

    def admin(self, request: Request) -> str:
        """Handle an admin request synchronously (bypasses the queues;
        see the module docstring for why EVICT racing the data plane
        is safe)."""
        if request.verb == "PING":
            return "PONG"
        if request.verb == "STATS":
            stats = self.service.stats()
            body = " ".join(f"{key}={value}" for key, value in stats.items())
            return f"STATS {body}"
        if request.verb == "EVICT":
            try:
                evicted = self.service.evict(request.client)
            except ValueError as exc:
                return format_error(ProtocolError("admin", str(exc)))
            return f"OK evicted={int(evicted)}"
        if request.verb == "INVALIDATE":
            dropped = self.service.invalidate(request.before)
            return f"OK dropped={dropped}"
        if request.verb == "SHUTDOWN":
            return "OK draining"
        return format_error(ProtocolError("verb", f"unknown verb {request.verb!r}"))

    # -- TCP binding --------------------------------------------------------

    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0):
        """Bind the line protocol on a TCP socket; returns the asyncio
        server (callers own its lifecycle).  Request times are arrival
        order under the server's monotone floor."""

        async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
            try:
                while True:
                    request = None
                    try:
                        text = await _read_request_line(reader)
                        if text is None:
                            break
                        if not text:
                            continue
                        request = parse_request(text)
                        response = await self.submit(request)
                    except ProtocolError as error:
                        response = format_error(error)
                    writer.write(response.encode("utf-8") + b"\n")
                    await writer.drain()
                    if request is not None and request.verb == "SHUTDOWN":
                        break
            finally:
                writer.close()

        return await asyncio.start_server(handle, host=host, port=port)


async def _read_request_line(reader: asyncio.StreamReader) -> Optional[str]:
    """The next request line, stripped; None at end of stream.

    Raises :class:`ProtocolError` — one ``ERR`` for one request, with
    the connection still in step — for a line longer than the reader's
    buffer limit, once all of it has been discarded up to its newline,
    and for bytes that are not UTF-8: replacing them would answer (and
    register a tracker for) a client nobody named.
    """
    overlong = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as end:
            line = end.partial
        except asyncio.LimitOverrunError as over:
            await reader.readexactly(over.consumed)
            overlong = True
            continue
        if overlong:
            raise ProtocolError("args", "line too long")
        if not line:
            return None
        try:
            return line.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise ProtocolError("encoding", "request line is not valid UTF-8")


async def run_script(server: CRPServer, ops: Sequence[Op]) -> List[str]:
    """Feed a whole op script through a (started or fresh) server and
    return POSITION answers in script order.

    Enqueues every op under backpressure, drains, and stops the server
    — the async half of the differential pair and the bench's timed
    section.
    """
    started_here = not server._workers
    if started_here:
        await server.start()
    futures = []
    for op in ops:
        future = await server.enqueue(op)
        if future is not None:
            futures.append(future)
    answers = [await future for future in futures]
    if started_here:
        await server.stop()
    else:
        await server.drain()
    return answers


def replay_unsharded(
    params: ServeParams,
    ops: Sequence[Op],
    obs: Optional[Observability] = None,
) -> List[str]:
    """The differential reference: one plain CRPService, same script.

    Registers clients on first sight exactly as shards do, answers
    POSITION ops through :meth:`CRPService.position`, and formats with
    the same canonical renderer — so any divergence from the sharded
    service is a real behavioural difference, not formatting noise.
    """
    obs = obs if obs is not None else get_observability()
    clock = SimClock(obs=obs)
    service = CRPService(clock, params.service_params(), obs=obs)
    for candidate in params.candidates:
        service.register_node(candidate, None)
    service.track_candidates(params.candidates)
    answers: List[str] = []
    for op in ops:
        if op.at > clock.now:
            clock.advance_to(op.at)
        if op.verb == "OBSERVE":
            if not service.is_registered(op.subject):
                service.register_node(op.subject, None)
            service.observe(op.subject, op.name, op.addresses)
        elif op.verb == "POSITION":
            if not service.is_registered(op.subject):
                service.register_node(op.subject, None)
            answer = service.position(
                op.subject, params.candidates, k=params.rows_for(op.k)
            )
            answers.append(format_answer(answer))
        else:
            raise ValueError(f"unknown op verb {op.verb!r}")
    return answers

import asyncio

import pytest

from repro.obs import Observability
from repro.serve import (
    CRPServer,
    LoadgenParams,
    Op,
    ServeParams,
    ShardedCRPService,
    fingerprint_answers,
    iter_ops,
    parse_request,
    replay_unsharded,
    run_script,
)

LPARAMS = LoadgenParams(
    clients=48,
    candidates=8,
    seed=2008,
    horizon_s=1200.0,
    aggregate_rate_per_s=0.4,
)


def serve_params(shards, **overrides):
    return ServeParams(
        candidates=LPARAMS.candidate_names(),
        shards=shards,
        top_k=LPARAMS.top_k,
        **overrides,
    )


@pytest.fixture(scope="module")
def script():
    return list(iter_ops(LPARAMS))


@pytest.fixture(scope="module")
def reference(script):
    return fingerprint_answers(replay_unsharded(serve_params(1), script))


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sync_replay_matches_unsharded(script, reference, shards):
    """The tentpole differential: N shards, each with its own clock and
    engine, answer byte-identically to one unsharded CRPService."""
    service = ShardedCRPService(serve_params(shards))
    answers = service.replay(script)
    assert fingerprint_answers(answers) == reference


def test_mixed_k_replay_matches_unsharded(script):
    """The loadgen only ever asks for ``top_k`` rows; vary ``k`` per
    request — absent, 1, ``top_k``, more than there are candidates —
    and the shards still answer byte for byte like the reference, each
    with the number of rows :meth:`ServeParams.rows_for` owes it."""
    ks = [None, 1, LPARAMS.top_k, LPARAMS.candidates + 3]
    mixed, asked = [], []
    for op in script:
        if op.verb == "POSITION":
            op = op._replace(k=ks[len(asked) % len(ks)])
            asked.append(op.k)
        mixed.append(op)
    sparams = serve_params(3)
    answers = ShardedCRPService(sparams).replay(mixed)
    assert answers == replay_unsharded(sparams, mixed)
    rows = [
        len(line.rsplit("ranked=", 1)[1].split(",")) if not line.endswith("ranked=") else 0
        for line in answers
    ]
    assert all(n <= sparams.rows_for(k) for n, k in zip(rows, asked))
    assert {1, LPARAMS.top_k, LPARAMS.candidates} <= set(rows)


def test_async_server_matches_unsharded(script, reference):
    service = ShardedCRPService(serve_params(4))
    answers = asyncio.run(run_script(CRPServer(service), script))
    assert fingerprint_answers(answers) == reference


def test_async_fingerprint_independent_of_queue_depth(script, reference):
    """queue_depth=1 maximises backpressure stalls and event-loop
    interleaving churn; per-shard FIFO order still pins the answers."""
    service = ShardedCRPService(serve_params(4))
    server = CRPServer(service, queue_depth=1)
    answers = asyncio.run(run_script(server, script))
    assert fingerprint_answers(answers) == reference


def test_queue_depth_validated():
    service = ShardedCRPService(serve_params(1))
    with pytest.raises(ValueError):
        CRPServer(service, queue_depth=0)


def test_apply_rejects_unknown_verbs():
    service = ShardedCRPService(serve_params(1))
    with pytest.raises(ValueError):
        service.apply(Op(0.0, "FROB", "client-x"))


def test_candidate_observations_broadcast(script):
    service = ShardedCRPService(serve_params(3))
    candidate = LPARAMS.candidate_names()[0]
    service.apply(Op(0.0, "OBSERVE", candidate, LPARAMS.customer_name, ("replica-0001",)))
    for shard in service.shards:
        assert shard.service.tracker(candidate).probe_count == 1


def test_client_observations_route_to_one_shard():
    service = ShardedCRPService(serve_params(3))
    service.apply(Op(0.0, "OBSERVE", "client-0000", LPARAMS.customer_name, ("replica-0001",)))
    owners = [s for s in service.shards if s.service.is_registered("client-0000")]
    assert len(owners) == 1
    assert owners[0] is service.shard_for("client-0000")


def test_fleet_stats_aggregate(script):
    service = ShardedCRPService(serve_params(4))
    service.replay(script)
    stats = service.stats()
    assert stats["shards"] == 4
    assert stats["observations"] == sum(s.observations for s in service.shards)
    assert stats["positions"] == sum(s.positions for s in service.shards)
    assert stats["clients"] > 0
    # Every shard packs the full candidate set.
    assert stats["engine_rows"] == 4 * LPARAMS.candidates


def test_server_latency_histograms_record(script):
    obs = Observability()
    service = ShardedCRPService(serve_params(2))
    server = CRPServer(service, obs=obs)
    answers = asyncio.run(run_script(server, script))
    histograms = obs.metrics.snapshot()["histograms"]
    positions = histograms["serve.latency_us{op=position}"]
    observes = histograms["serve.latency_us{op=observe}"]
    assert positions["count"] == len(answers)
    # Candidate observations broadcast, so each one is processed (and
    # timed) once per shard; client observes are processed once.
    candidate_ops = sum(
        1 for op in script if op.subject in service.candidates
    )
    client_observes = len(script) - len(answers) - candidate_ops
    assert observes["count"] == client_observes + 2 * candidate_ops
    assert obs.metrics.counter_value("serve.requests") == len(script)
    assert obs.metrics.counter_value("serve.errors") == 0


def _admin(server, line):
    return server.admin(parse_request(line))


def test_admin_channel_responses(script):
    service = ShardedCRPService(serve_params(2))
    server = CRPServer(service)

    async def drive():
        await server.start()
        for op in script:
            future = await server.enqueue(op)
            if future is not None:
                await future
        await server.drain()
        assert _admin(server, "PING") == "PONG"
        stats = _admin(server, "STATS")
        assert stats.startswith("STATS shards=2 ")
        assert "positions=" in stats
        # EVICT bypasses the queues; a resident client reports 1.
        resident = next(iter(service.shards[0]._lru), None) or next(
            iter(service.shards[1]._lru)
        )
        assert _admin(server, f"EVICT {resident}") == "OK evicted=1"
        assert _admin(server, f"EVICT {resident}") == "OK evicted=0"
        evict_candidate = _admin(server, f"EVICT {LPARAMS.candidate_names()[0]}")
        assert evict_candidate.startswith("ERR admin")
        dropped = _admin(server, "INVALIDATE 1e9")
        assert dropped.startswith("OK dropped=")
        assert int(dropped.split("=")[1]) > 0
        assert _admin(server, "SHUTDOWN") == "OK draining"
        await server.stop()

    asyncio.run(drive())


def test_evict_racing_queued_observation_is_not_lost():
    """Frontend flavour of the satellite-2 interleaving: the admin
    EVICT lands while the client's next observation is still queued;
    the shard must recreate the tracker when the queue drains."""
    service = ShardedCRPService(serve_params(1))
    server = CRPServer(service)
    customer = LPARAMS.customer_name

    async def drive():
        await server.start()
        await server.enqueue(Op(1.0, "OBSERVE", "client-r", customer, ("replica-0001",)))
        await server.drain()
        # Observation for the client is enqueued but not yet drained
        # when the admin eviction executes (admin bypasses the queue).
        await server.enqueue(Op(2.0, "OBSERVE", "client-r", customer, ("replica-0002",)))
        assert _admin(server, "EVICT client-r") == "OK evicted=1"
        await server.stop()

    asyncio.run(drive())
    shard = service.shards[0]
    assert shard.service.is_registered("client-r")
    assert shard.recreations == 1
    assert shard.service.tracker("client-r").observations[-1].addresses == (
        "replica-0002",
    )


def test_tcp_line_protocol_roundtrip():
    service = ShardedCRPService(serve_params(2))
    server = CRPServer(service)
    customer = LPARAMS.customer_name

    async def drive():
        await server.start()
        tcp = await server.serve_tcp()
        port = tcp.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)

        async def ask(line):
            writer.write(line.encode() + b"\n")
            await writer.drain()
            return (await reader.readline()).decode().strip()

        assert await ask("PING") == "PONG"
        for i, candidate in enumerate(LPARAMS.candidate_names()):
            assert await ask(f"OBSERVE {candidate} {customer} replica-{i:04d}") == "OK"
        assert await ask(f"OBSERVE tcp-client {customer} replica-0000") == "OK"
        answer = await ask("POSITION tcp-client 3")
        assert answer.startswith("POS tcp-client ")
        assert (await ask("NONSENSE")).startswith("ERR verb")
        assert await ask("SHUTDOWN") == "OK draining"
        writer.close()
        tcp.close()
        await tcp.wait_closed()
        await server.stop()

    asyncio.run(drive())


def _tcp_exchange(server, payload, closing=b"SHUTDOWN\n"):
    """Send raw bytes down one loopback connection, then ``closing``
    and end-of-stream; return every response line, what a second connection's PING got,
    and any exception the event loop had to report itself."""
    unhandled = []

    async def drive():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: unhandled.append(context)
        )
        await server.start()
        tcp = await server.serve_tcp()
        port = tcp.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(payload + closing)
        writer.write_eof()
        await writer.drain()
        lines = (await asyncio.wait_for(reader.read(), timeout=10.0)).decode().splitlines()
        writer.close()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"PING\n")
        await writer.drain()
        second = (await asyncio.wait_for(reader.readline(), timeout=10.0)).decode().strip()
        writer.close()
        tcp.close()
        await tcp.wait_closed()
        await server.stop()
        return lines, second

    lines, second = asyncio.run(drive())
    return lines, second, unhandled


@pytest.mark.parametrize(
    "long_line",
    [
        b"POSITION " + b"x" * 70000 + b"\n",  # newline already buffered
        b"POSITION " + b"x" * 300000 + b"\n",  # several buffers long
    ],
    ids=["one-buffer", "several-buffers"],
)
def test_tcp_overlong_line_gets_one_error_and_the_connection_goes_on(long_line):
    """``readline`` used to raise ``ValueError`` outside the handler's
    ``try``: no answer, the pipelined PING dropped, and asyncio logging
    an unhandled exception in ``client_connected_cb``."""
    obs = Observability()
    service = ShardedCRPService(serve_params(2), obs=obs)
    lines, second, unhandled = _tcp_exchange(
        CRPServer(service, obs=obs), b"PING\n" + long_line + b"PING\n"
    )
    assert lines == ["PONG", "ERR args line too long", "PONG", "OK draining"]
    assert second == "PONG"
    assert unhandled == []
    assert service.stats()["clients"] == 0


def test_tcp_overlong_line_cut_off_by_eof_still_gets_its_error():
    service = ShardedCRPService(serve_params(1))
    lines, second, unhandled = _tcp_exchange(
        CRPServer(service), b"POSITION " + b"x" * 70000, closing=b""
    )
    assert lines == ["ERR args line too long"]
    assert second == "PONG"
    assert unhandled == []


def test_tcp_non_utf8_request_is_refused_not_rewritten():
    """``errors="replace"`` used to turn these bytes into a request for
    client "\ufffd\ufffd", which the shard then registered — every
    undecodable name of equal length sharing one tracker."""
    service = ShardedCRPService(serve_params(2))
    server = CRPServer(service)
    lines, second, unhandled = _tcp_exchange(
        server,
        b"STATS\nPOSITION \xff\xfe 3\nOBSERVE \xff\xfe "
        + LPARAMS.customer_name.encode() + b" replica-0001\nSTATS\n",
    )
    assert lines[1].startswith("ERR encoding ")
    assert lines[2].startswith("ERR encoding ")
    assert lines[0] == lines[3] and " clients=0 " in lines[0]
    assert lines[4] == "OK draining"
    assert (second, unhandled) == ("PONG", [])
    assert not any(shard.resident_clients for shard in service.shards)


def test_timestampless_request_after_sync_preseed(script):
    """Shard clocks moved by ``ShardedCRPService.apply`` before the
    server starts must lift its request-time floor: a request with no
    timestamp (ad-hoc TCP traffic) used to be stamped 0.0 and answered
    ``ERR internal cannot move the clock backwards``."""
    obs = Observability()
    service = ShardedCRPService(serve_params(2), obs=obs)
    preseed = script[: len(script) // 2]  # warm-up at t=0, then client arrivals
    for op in preseed:
        service.apply(op)
    assert max(shard.clock.now for shard in service.shards) > 0.0
    client = next(op.subject for op in preseed if op.verb == "POSITION")
    server = CRPServer(service, obs=obs)

    async def drive():
        await server.start()
        try:
            return await server.submit(parse_request(f"POSITION {client} 3"), at=None)
        finally:
            await server.stop()

    assert asyncio.run(drive()).startswith(f"POS {client} ")
    assert obs.metrics.counter_value("serve.errors") == 0


def test_approx_serving_matches_unsharded_replay(script):
    """With approximate ranking configured, the sharded asyncio path and
    the unsharded replay agree byte for byte (both route POSITION
    through the same shortlist + exact rerank), and the STATS surface
    reports the index counters."""
    from repro.core.ann import AnnParams

    approx = AnnParams()
    sparams = serve_params(4, approx=approx)
    reference = fingerprint_answers(replay_unsharded(sparams, script))
    service = ShardedCRPService(sparams)
    answers = asyncio.run(run_script(CRPServer(service), script))
    assert fingerprint_answers(answers) == reference
    stats = service.stats()
    assert stats["ann_queries"] > 0
    assert stats["ann_rows"] > 0


def test_approx_serving_small_population_equals_exact(script, reference):
    """At this population the shortlist covers everything, so approx
    answers equal the exact-mode fingerprint too — the calibrated
    fallback keeps small populations recall-perfect."""
    from repro.core.ann import AnnParams

    service = ShardedCRPService(serve_params(2, approx=AnnParams()))
    answers = service.replay(script)
    assert fingerprint_answers(answers) == reference

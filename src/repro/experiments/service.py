"""The ``service`` experiment: CRP behind the sharded serving path.

:func:`run_service_point` is the runner's deterministic cell body.  One
seeded load script (:mod:`repro.serve.loadgen`) is fed through the
asyncio :class:`~repro.serve.frontend.CRPServer` at a given shard count
*and* through the unsharded reference
(:func:`~repro.serve.frontend.replay_unsharded`); the two answer
fingerprints must be equal, and a mismatch fails the cell with
:class:`ShardMismatchError`.  The cell value records op counts, fleet
stats and the fingerprint.  No wall-clock numbers appear here, so the
report is byte-stable across machines and across obs-on/off runs (the
self-check's obs pair); serving throughput and latency are measured by
the ``serve_*`` workloads of ``bench/run.py``.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Tuple

from repro.serve import (
    CRPServer,
    LoadgenParams,
    ServeParams,
    ShardedCRPService,
    fingerprint_answers,
    iter_ops,
    replay_unsharded,
    run_script,
)


class ShardMismatchError(AssertionError):
    """The sharded answers differ from the unsharded replay."""


#: Per-scale load-script sizes for the runner's ``service`` key.  The
#: runner cells stay small — they are a correctness surface (sharded
#: vs unsharded fingerprints), not a throughput benchmark.
SERVICE_SIZES: Dict[str, Dict[str, float]] = {
    "quick": {"clients": 600, "candidates": 12, "horizon_s": 900.0, "rate_per_s": 1.5},
    "default": {
        "clients": 5_000,
        "candidates": 32,
        "horizon_s": 1800.0,
        "rate_per_s": 6.0,
    },
    "paper": {
        "clients": 20_000,
        "candidates": 48,
        "horizon_s": 2700.0,
        "rate_per_s": 12.0,
    },
}

#: Shard counts swept by the runner's ``service`` plan.
SERVICE_SHARD_COUNTS: Tuple[int, ...] = (1, 4, 8)


def loadgen_for(scale: str, seed: int) -> LoadgenParams:
    """The canonical load script for a runner scale."""
    size = SERVICE_SIZES[scale]
    return LoadgenParams(
        clients=int(size["clients"]),
        candidates=int(size["candidates"]),
        seed=seed,
        horizon_s=float(size["horizon_s"]),
        aggregate_rate_per_s=float(size["rate_per_s"]),
    )


def serve_params_for(lparams: LoadgenParams, shards: int) -> ServeParams:
    """Serving params matched to a load script's population."""
    return ServeParams(
        candidates=lparams.candidate_names(),
        shards=shards,
        customer_name=lparams.customer_name,
        top_k=lparams.top_k,
    )


def run_service_point(scale: str, seed: int, shards: int) -> Dict[str, object]:
    """One deterministic serving run: sharded answers vs the reference.

    Returns only machine-independent fields.  Raises
    :class:`ShardMismatchError` when the sharded answers' fingerprint
    differs from the unsharded reference's.
    """
    lparams = loadgen_for(scale, seed)
    ops = list(iter_ops(lparams))
    sparams = serve_params_for(lparams, shards)

    service = ShardedCRPService(sparams)
    server = CRPServer(service)
    answers = asyncio.run(run_script(server, ops))
    fingerprint = fingerprint_answers(answers)
    reference = fingerprint_answers(replay_unsharded(sparams, ops))
    if fingerprint != reference:
        raise ShardMismatchError(
            f"{shards} shards answered {fingerprint[:16]}, "
            f"the unsharded replay {reference[:16]}"
        )
    stats = service.stats()
    return {
        "shards": shards,
        "clients": lparams.clients,
        "candidates": lparams.candidates,
        "ops": len(ops),
        "positions": len(answers),
        "observations": stats["observations"],
        "resident_clients": stats["clients"],
        "engine_rows": stats["engine_rows"],
        "evictions": stats["evictions"],
        "recreations": stats["recreations"],
        "fingerprint": fingerprint,
    }

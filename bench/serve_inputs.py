"""Inputs of the ``serve_*`` workloads, generated from the seed.

Both sides build the same :class:`ServeInputs`: the server child
preseeds from it, the benchmark draws request scripts from it and
replays them through the unsharded reference.  Names and redirection
answers come from the repository's own synthetic model
(``repro.serve.loadgen``), so a preseeded client looks exactly like
one the repository's tests and service bench would create; client
popularity (Zipf) and send instants (Poisson) are drawn here with
numpy generators keyed by ``(seed, stream)``.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple

import numpy as np

from repro.serve import LoadgenParams, Op, ServeParams, SyntheticRedirections
from repro.serve.sharding import shard_of

#: Server shards and generator connections.  A client's requests all
#: go down connection ``shard_of(client, SHARDS)``: one connection per
#: shard, so each shard sees one ordered stream and every answer is
#: fixed by the script, not by scheduling.
SHARDS = 2

#: Ranking length every POSITION asks for.
TOP_K = 5

#: Zipf exponent of client popularity.
ZIPF_ALPHA = 1.1

#: Candidate observations before any client exists.
WARMUP_OBSERVATIONS = 4

#: Sim-seconds between preseeded clients (keeps shard clocks strictly
#: monotone); the last preseed instant is the server's time floor and
#: therefore the timestamp of every TCP request.
PRESEED_DT = 1e-3


class Request(NamedTuple):
    """One scripted request: the line sent and the op it means."""

    line: bytes
    op: Op


class ServeInputs:
    def __init__(self, clients: int, candidates: int, seed: int) -> None:
        self.clients = clients
        self.seed = seed
        self.loadgen = LoadgenParams(
            clients=clients,
            candidates=candidates,
            seed=seed,
            # Unused by these phases but validated by LoadgenParams.
            horizon_s=1.0,
            aggregate_rate_per_s=1.0,
            warmup_observations=WARMUP_OBSERVATIONS,
            zipf_alpha=ZIPF_ALPHA,
            top_k=TOP_K,
        )
        self.model = SyntheticRedirections(self.loadgen)
        self.candidate_names = self.loadgen.candidate_names()
        self._names = self.loadgen.client_names()
        self.floor_s = 1.0 + (clients - 1) * PRESEED_DT
        weights = np.arange(1, clients + 1, dtype=np.float64) ** -ZIPF_ALPHA
        self._popularity = weights / weights.sum()
        self._connections: List[int] = []

    def serve_params(self) -> ServeParams:
        return ServeParams(
            candidates=self.candidate_names,
            shards=SHARDS,
            customer_name=self.loadgen.customer_name,
            top_k=TOP_K,
        )

    def client_name(self, index: int) -> str:
        return self._names[index]

    def connection_of(self, index: int) -> int:
        if not self._connections:
            self._connections = [
                shard_of(self._names[i], SHARDS) for i in range(self.clients)
            ]
        return self._connections[index]

    # -- preseed ------------------------------------------------------------

    def preseed_ops(self) -> Iterator[Op]:
        """Candidate warm-up at t=0, then one observation per client."""
        customer = self.loadgen.customer_name
        for draw in range(WARMUP_OBSERVATIONS):
            for index, candidate in enumerate(self.candidate_names):
                yield Op(
                    0.0, "OBSERVE", candidate, customer,
                    self.model.candidate_addresses(index, draw),
                )
        for index in range(self.clients):
            yield Op(
                1.0 + index * PRESEED_DT, "OBSERVE", self._names[index], customer,
                self.model.client_addresses(index, 0),
            )

    # -- request scripts ----------------------------------------------------

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def draw_clients(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.choice(self.clients, size=count, p=self._popularity)

    def position(self, index: int) -> Request:
        name = self._names[index]
        return Request(
            f"POSITION {name} {TOP_K}\n".encode(),
            Op(self.floor_s, "POSITION", name, k=TOP_K),
        )

    def observe(self, index: int, draw: int) -> Request:
        name = self._names[index]
        customer = self.loadgen.customer_name
        addresses = self.model.client_addresses(index, draw)
        return Request(
            f"OBSERVE {name} {customer} {','.join(addresses)}\n".encode(),
            Op(self.floor_s, "OBSERVE", name, customer, addresses),
        )

    def candidate_refresh(self, tick: int) -> List[Request]:
        """Every candidate observed once more (refresh number ``tick``)."""
        customer = self.loadgen.customer_name
        requests = []
        for index, candidate in enumerate(self.candidate_names):
            addresses = self.model.candidate_addresses(
                index, WARMUP_OBSERVATIONS + tick
            )
            requests.append(
                Request(
                    f"OBSERVE {candidate} {customer} {','.join(addresses)}\n".encode(),
                    Op(self.floor_s, "OBSERVE", candidate, customer, addresses),
                )
            )
        return requests

    def split(self, indices, requests_of) -> List[List[Request]]:
        """Per-connection scripts for a sequence of drawn clients;
        ``requests_of(index)`` yields that arrival's requests."""
        scripts: List[List[Request]] = [[] for _ in range(SHARDS)]
        for index in indices:
            index = int(index)
            scripts[self.connection_of(index)].extend(requests_of(index))
        return scripts

    def poisson_dues(
        self, rng: np.random.Generator, rate_per_s: float, seconds: float
    ) -> np.ndarray:
        """Due instants of a Poisson stream over ``seconds``."""
        expected = rate_per_s * seconds
        gaps = rng.exponential(1.0 / rate_per_s, size=int(expected * 1.2) + 64)
        dues = np.cumsum(gaps)
        return dues[dues < seconds]

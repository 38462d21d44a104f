"""Golden hashes of the redirection stream.

Every report fingerprint rests on the probe path consuming the
measurement and selection streams draw for draw (DESIGN §6).  These
two hashes were recorded on the commit *before* the mapping epoch
became a row kernel; a reordered draw, a float expression with its
operands swapped or a hash-order dependence changes them within a
second, where otherwise only the 20-second benchmark would notice.

The pool hashes were recorded on the commit before candidate pools
stopped sorting the whole deployment: they hold every resolver's pool,
in order, with each member's base RTT to the last bit.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.harness import scenario_params_for
from repro.sim.workload import PoissonZipfWorkload
from repro.workloads import Scenario
from tests.conftest import make_scenario

ROUNDS_GOLDEN = "7fd094b8a6843ce24e19b8b83ee7e6a42bca7bff07ed6460e1814b226e3a96f5"
EVENTS_GOLDEN = "9e4c5cf5dde19525c54bca3c50391a129a9b8f749838a6ea160ddf3600c4a1f5"
POOLS_GOLDEN = {
    2008: "30d2968e6645fd2b98257022a2b84560d4c5a777a6c80ffecfc6ec2441913b79",
    7: "239b091a0d347368d512776215852aeed02e44075e264295517dc9e7b135d075",
}


def stream_hash(scenario) -> str:
    """SHA-256 over every node's observations (time, replica addresses)."""
    digest = hashlib.sha256()
    for node in scenario.crp.nodes:
        digest.update(f"{node}\n".encode())
        for seen in scenario.crp.tracker(node).observations:
            digest.update(f"{seen.at!r} {' '.join(seen.addresses)}\n".encode())
    return digest.hexdigest()


def smallest_scenario():
    return make_scenario(seed=2008, dns_servers=12, planetlab_nodes=8)


def test_probe_rounds_stream_is_golden():
    scenario = smallest_scenario()
    scenario.run_probe_rounds(3, interval_minutes=10)
    assert scenario.crp.probes_issued > 0
    assert stream_hash(scenario) == ROUNDS_GOLDEN


def test_run_events_stream_is_golden():
    scenario = smallest_scenario()
    workload = PoissonZipfWorkload(
        scenario.crp.active_nodes, seed=2008, aggregate_rate_per_s=0.05
    )
    loop = scenario.run_events(workload, until_s=940.0)
    assert loop.stats().dispatched_by_kind["client_probe"] == 50
    assert stream_hash(scenario) == EVENTS_GOLDEN


@pytest.mark.parametrize("seed", sorted(POOLS_GOLDEN))
def test_candidate_pools_are_golden(seed):
    """SHA-256 over (address, base RTT) of every client's and every
    candidate's pool, 1 500 clients."""
    scenario = Scenario(scenario_params_for("default", seed, dns_servers=1500))
    digest = hashlib.sha256()
    for name in scenario.client_names + scenario.candidate_names:
        host = scenario.host(name)
        digest.update(f"{name}\n".encode())
        for replica in scenario.cdn.mapping.candidate_pool(host):
            rtt = scenario.network.base_rtt_ms(host, replica.host)
            digest.update(f"{replica.address} {rtt!r}\n".encode())
    assert digest.hexdigest() == POOLS_GOLDEN[seed]

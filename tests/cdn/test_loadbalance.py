from collections import Counter

import numpy as np
import pytest

from repro.cdn.loadbalance import SelectionPolicy, select_replicas, weighted_sample
from repro.cdn.replica import ReplicaServer
from repro.netsim import HostKind


@pytest.fixture()
def ranked(topology, host_rng):
    metro = topology.world.metro("london")
    ranked = []
    for i in range(10):
        host = topology.create_host(f"r{i}", HostKind.REPLICA, metro, host_rng)
        ranked.append((ReplicaServer(host, f"172.1.0.{i}"), 10.0 + 2.0 * i))
    return ranked


def test_empty_ranking_gives_empty_answer():
    rng = np.random.default_rng(0)
    assert select_replicas([], rng) == []


def test_answer_size_respected(ranked):
    rng = np.random.default_rng(0)
    answer = select_replicas(ranked, rng, answer_size=3)
    assert len(answer) == 3
    assert len({r.address for r in answer}) == 3


def test_answer_smaller_when_few_candidates(ranked):
    rng = np.random.default_rng(0)
    answer = select_replicas(ranked[:1], rng, answer_size=2)
    assert len(answer) == 1


def test_best_only_policy_is_deterministic(ranked):
    rng = np.random.default_rng(0)
    answer = select_replicas(
        ranked, rng, answer_size=2, policy=SelectionPolicy.BEST_ONLY
    )
    assert [r.address for r in answer] == ["172.1.0.0", "172.1.0.1"]


def test_softmax_prefers_lower_latency(ranked):
    rng = np.random.default_rng(0)
    counts = Counter()
    for _ in range(500):
        for replica in select_replicas(ranked, rng, answer_size=1, spread=6):
            counts[replica.address] += 1
    assert counts["172.1.0.0"] > counts.get("172.1.0.5", 0)


def test_softmax_still_rotates(ranked):
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(200):
        for replica in select_replicas(ranked, rng, answer_size=2, spread=4):
            seen.add(replica.address)
    assert len(seen) >= 3


def test_spread_limits_candidates(ranked):
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(300):
        for replica in select_replicas(ranked, rng, answer_size=1, spread=2):
            seen.add(replica.address)
    assert seen <= {"172.1.0.0", "172.1.0.1"}


def test_uniform_policy_flattens(ranked):
    rng = np.random.default_rng(0)
    counts = Counter()
    for _ in range(600):
        for replica in select_replicas(
            ranked, rng, answer_size=1, spread=3, policy=SelectionPolicy.UNIFORM
        ):
            counts[replica.address] += 1
    values = [counts[f"172.1.0.{i}"] for i in range(3)]
    assert max(values) < 2 * min(values)


def test_parameter_validation(ranked):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        select_replicas(ranked, rng, answer_size=0)
    with pytest.raises(ValueError):
        select_replicas(ranked, rng, spread=0)
    with pytest.raises(ValueError):
        select_replicas(ranked, rng, temperature_ms=0.0)


# -- the answer draw is a draw-for-draw port of Generator.choice -------------

#: (seed, p, size, indices, the generator's next draw) as numpy's
#: ``choice(len(p), size, replace=False, p=p)`` produced them when the
#: port was written: a numpy that changes ``choice`` fails the
#: differential below, not these.
RECORDED_DRAWS = [
    (2008, [0.4, 0.3, 0.2, 0.1], 2, [2, 1], 0.8468282116580284),
    (7, [0.0, 0.5, 0.0, 0.5], 2, [3, 1], 0.22520718999059186),
    (11, [1.0], 1, [0], 0.49927786244011496),
    (13, [0.05, 0.05, 0.6, 0.1, 0.1, 0.1], 6, [4, 2, 1, 5, 3, 0], 0.9104071780658378),
    (17, [0.7, 0.0, 0.1, 0.05, 0.05, 0.0, 0.05, 0.05], 4, [3, 0, 2, 6], 0.6113431084989805),
]


@pytest.mark.parametrize("seed, p, size, indices, next_draw", RECORDED_DRAWS)
def test_weighted_sample_recorded_vectors(seed, p, size, indices, next_draw):
    rng = np.random.default_rng(seed)
    assert weighted_sample(rng, p, size) == indices
    assert rng.random() == next_draw


def test_weighted_sample_matches_generator_choice_draw_for_draw():
    master = np.random.default_rng(14)
    for n in range(1, 13):
        for trial in range(12):
            p = master.random(n)
            if trial % 2:
                # Softmax-shaped: a few entries carry almost everything.
                p = np.exp(-30.0 * p)
            p[master.random(n) < 0.3] = 0.0
            if not p.any():
                p[int(master.integers(n))] = 1.0
            p = p / p.sum()
            for size in range(1, int(np.count_nonzero(p)) + 1):
                seed = int(master.integers(2**32))
                reference = np.random.default_rng(seed)
                ported = np.random.default_rng(seed)
                expected = reference.choice(n, size=size, replace=False, p=p).tolist()
                assert weighted_sample(ported, p.tolist(), size) == expected
                assert ported.random() == reference.random()


def test_weighted_sample_refuses_more_than_the_positive_entries():
    # numpy raises here too; without the check the loop would never end.
    with pytest.raises(ValueError, match="Fewer non-zero entries"):
        weighted_sample(np.random.default_rng(0), [1.0, 0.0, 0.0], 2)


def test_softmax_underflow_completes_the_answer_in_rank_order():
    # exp(-998) is 0.0: one positive weight for a two-record answer.
    ranked = [("a", 5.0), ("b", 3000.0), ("c", 3100.0), ("d", 3200.0)]
    rng = np.random.default_rng(0)
    answer = select_replicas(ranked, rng, answer_size=2, spread=4, temperature_ms=3.0)
    assert answer == ["a", "b"]

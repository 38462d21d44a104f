"""Replica-selection policies for the mapping system.

Akamai-style mapping does not pin each resolver to its single best
replica: answers rotate over a small set of good candidates to spread
load and hedge against measurement noise.  That rotation is what makes
CRP work — a resolver's redirection *history* visits several nearby
replicas with frequencies that reflect their relative quality, giving
ratio maps enough support to compare.

``DESIGN.md`` calls the spread width out as an ablation axis: with
``spread=1`` every answer is the single best replica, ratio maps
collapse to one entry, and cosine similarity loses resolution.
"""

from __future__ import annotations

from bisect import bisect_right
from enum import Enum
from itertools import accumulate
from typing import List, Sequence, Tuple

import numpy as np

from repro.cdn.replica import ReplicaServer


class SelectionPolicy(str, Enum):
    """How the mapping system picks among ranked candidates."""

    #: Weighted rotation over the top ``spread`` candidates, weights
    #: decaying with the latency gap to the best (the default).
    SOFTMAX = "softmax"
    #: Always answer with the best-ranked candidates (ablation).
    BEST_ONLY = "best-only"
    #: Uniform rotation over the top ``spread`` (load-first ablation).
    UNIFORM = "uniform"


def select_replicas(
    ranked: Sequence[Tuple[ReplicaServer, float]],
    rng: np.random.Generator,
    answer_size: int = 2,
    spread: int = 8,
    temperature_ms: float = 8.0,
    policy: SelectionPolicy = SelectionPolicy.SOFTMAX,
) -> List[ReplicaServer]:
    """Pick the replicas for one DNS answer.

    ``ranked`` is (replica, measured RTT) sorted best-first.  Returns
    up to ``answer_size`` distinct replicas.
    """
    if not ranked:
        return []
    if answer_size < 1:
        raise ValueError("answer_size must be at least 1")
    if spread < 1:
        raise ValueError("spread must be at least 1")
    if temperature_ms <= 0:
        raise ValueError("temperature_ms must be positive")

    window = list(ranked[: max(spread, answer_size)])
    take = min(answer_size, len(window))

    if policy is SelectionPolicy.BEST_ONLY:
        return [replica for replica, _ in window[:take]]

    if policy is SelectionPolicy.UNIFORM:
        weights = np.ones(len(window))
    else:
        best_rtt = window[0][1]
        gaps = np.array([rtt - best_rtt for _, rtt in window])
        weights = np.exp(-gaps / temperature_ms)
    # Weights stay in numpy: ``math.exp`` and a Python sum differ from
    # it in the last ulp, and the draws below compare against them.
    weights = (weights / weights.sum()).tolist()
    # Underflowed weights (a partition-sized RTT gap) cannot be drawn:
    # draw among the positive ones, then complete in rank order.
    positive = sum(1 for w in weights if w > 0.0)
    chosen = weighted_sample(rng, weights, min(take, positive))
    if len(chosen) < take:
        chosen += [i for i in range(len(window)) if i not in chosen][: take - len(chosen)]
    return [window[i][0] for i in chosen]


def weighted_sample(rng: np.random.Generator, p: Sequence[float], size: int) -> List[int]:
    """``Generator.choice(len(p), size, replace=False, p=p)``, draw for draw.

    A port of numpy's algorithm for that case onto a Python list — one
    ``rng.random(outstanding)`` per pass, found entries zeroed, running
    sum divided by its last, ``bisect_right``, first occurrences kept —
    so it returns the same indices and leaves the generator in the same
    state, at a fraction of the cost for a 4-wide window.
    """
    p = list(p)
    if sum(1 for w in p if w > 0.0) < size:
        # Checked as numpy does: the loop below would never finish.
        raise ValueError("Fewer non-zero entries in p than size")
    found: List[int] = []
    while len(found) < size:
        draws = rng.random(size - len(found)).tolist()
        for index in found:
            p[index] = 0.0
        cdf = list(accumulate(p))
        last = cdf[-1]
        cdf = [c / last for c in cdf]
        for x in draws:
            index = bisect_right(cdf, x)
            if index not in found:
                found.append(index)
    return found

"""The static part of the RTT model.

The base (time-invariant) round-trip time between two hosts is

    base(a, b) = access(a) + access(b)
               + propagation(a, b) * stretch(a, b)
               + per_hop_ms * as_hops(a, b)

* ``propagation`` is fiber-speed great-circle RTT (:mod:`repro.netsim.geo`).
* ``stretch`` models routing inflation and is a stable per-pair value in
  ``[stretch_min, stretch_max]`` so that two equidistant host pairs can
  see persistently different paths — the source of triangle-inequality
  violations in the model.
* ``as_hops`` is the AS-graph distance; each hop adds queueing and
  router transit delay.

Nothing here depends on a random draw, so it is computed as a *row*
(one host against many, :meth:`LatencyModel.base_rtts_ms`) and only for
the hosts that need it (:meth:`LatencyModel.nearest`); DESIGN §6 has
the argument.

Time-varying components (congestion, diurnal load, jitter) live in
:mod:`repro.netsim.dynamics` and are composed by
:class:`repro.netsim.network.Network`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from hashlib import blake2b
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.netsim.asn import NO_PATH, ASRegistry
from repro.netsim.geo import EARTH_RADIUS_KM, FIBER_KM_PER_MS, haversine_km
from repro.netsim.topology import Host

#: Relative widening of :meth:`LatencyModel.nearest`'s pruning bounds,
#: so a last-place difference between numpy's and ``math``'s haversine
#: (they agree to ~1e-15) can never prune a host that belongs.
_BOUND_MARGIN = 1e-9
#: Below this many hosts the bounds cost more than the exact row.
_PRUNE_MIN_HOSTS = 32


@dataclass(frozen=True)
class LatencyParams:
    """Tunables for the static RTT model."""

    #: Minimum routing-stretch multiplier on great-circle propagation.
    stretch_min: float = 1.15
    #: Maximum routing-stretch multiplier.
    stretch_max: float = 1.70
    #: Milliseconds added per AS-level hop.
    per_hop_ms: float = 1.6
    #: RTT floor — even loopback-adjacent hosts are not at 0 ms.
    floor_ms: float = 0.2

    def __post_init__(self) -> None:
        if self.stretch_min < 1.0:
            raise ValueError("stretch_min must be >= 1")
        if self.stretch_max < self.stretch_min:
            raise ValueError("stretch_max must be >= stretch_min")
        if self.per_hop_ms < 0 or self.floor_ms < 0:
            raise ValueError("latency parameters cannot be negative")


class LatencyModel:
    """Computes base RTTs between hosts, a row at a time.

    Three things are kept: the RTT of every unordered pair asked for
    (the one cache of values); a table with each host's id, radians,
    latitude cosine, access delay and AS index, one row per host, so a
    host list gathers into columns; and, in the registry, the hop rows.
    """

    def __init__(
        self,
        registry: ASRegistry,
        params: LatencyParams = LatencyParams(),
        seed: int = 0,
    ) -> None:
        self.registry = registry
        self.params = params
        self._stretch_prefix = b"%d/stretch/" % int(seed)
        self._cache: Dict[Tuple[int, int], float] = {}
        self._table_row: Dict[int, int] = {}
        self._table = np.empty((0, 6))

    def _stretch(self, lo: int, hi: int) -> float:
        # The bytes ``stable_unit_float(seed, "stretch", str(lo), str(hi))``
        # hashes, in one call.
        digest = blake2b(self._stretch_prefix + b"%d/%d" % (lo, hi), digest_size=8).digest()
        u = ((int.from_bytes(digest, "big") >> 1) % (2**53)) / float(2**53)
        return self.params.stretch_min + u * (self.params.stretch_max - self.params.stretch_min)

    def stretch(self, a: Host, b: Host) -> float:
        """Stable routing-stretch multiplier for an unordered host pair."""
        return self._stretch(*sorted((a.host_id, b.host_id)))

    def _row_of(self, host: Host) -> int:
        """The host's row of ``_table``: (host id, latitude and longitude
        in radians, cos latitude, access ms, AS index).  May replace
        ``_table``, which is why only the two methods below read it."""
        row = self._table_row.get(host.host_id)
        if row is None:
            lat = math.radians(host.location.lat)
            lon = math.radians(host.location.lon)
            as_index = self.registry.as_index(host.asn)
            row = len(self._table_row)
            if row == len(self._table):
                grown = np.empty((max(64, 2 * row), 6))
                grown[:row] = self._table
                self._table = grown
            self._table[row] = (host.host_id, lat, lon, math.cos(lat), host.access_ms, as_index)
            self._table_row[host.host_id] = row
        return row

    def _static(self, host: Host) -> List[float]:
        row = self._row_of(host)
        return self._table[row].tolist()

    def _static_columns(self, hosts: Sequence[Host]) -> np.ndarray:
        rows = [self._row_of(host) for host in hosts]
        return self._table[rows].T

    def base_rtt_ms(self, a: Host, b: Host) -> float:
        """Time-invariant RTT between two hosts, in milliseconds.

        Symmetric by construction; results are cached per unordered
        pair.
        """
        return self.base_rtts_ms(a, (b,))[0]

    def base_rtts_ms(self, a: Host, others: Sequence[Host]) -> List[float]:
        """Base RTT from ``a`` to each of ``others``, in order.

        What depends only on ``a`` is worked out once, on the first pair
        the cache does not hold.  Exact values use ``math``, never
        numpy, so a pair has the same double whichever row first asks.
        """
        a_id = a.host_id
        cache = self._cache
        hops_from_a = None
        rtts = []
        for b in others:
            b_id = b.host_id
            if b_id == a_id:
                rtts.append(0.0)
                continue
            key = (a_id, b_id) if a_id < b_id else (b_id, a_id)
            rtt = cache.get(key)
            if rtt is None:
                if hops_from_a is None:
                    _, lat1, lon1, cos1, access1, _ = self._static(a)
                    hops_from_a = self.registry.hops_from(a.asn)
                    per_hop_ms = self.params.per_hop_ms
                    floor_ms = self.params.floor_ms
                _, lat2, lon2, cos2, access2, as_index = self._static(b)
                hops = hops_from_a(int(as_index))
                one_way_km = haversine_km(lat1, lon1, cos1, lat2, lon2, cos2) * self._stretch(*key)
                prop = 2.0 * one_way_km / FIBER_KM_PER_MS
                rtt = max(access1 + access2 + prop + per_hop_ms * hops, floor_ms)
                cache[key] = rtt
            rtts.append(rtt)
        return rtts

    def nearest(self, a: Host, others: Sequence[Host], k: int) -> List[int]:
        """Positions in ``others`` of the ``k`` hosts nearest ``a``.

        Equal to ``sorted(range(n), key=base_rtts_ms(a, others).__getitem__)[:k]``,
        ties included, but only hosts that can make the cut get an exact
        base RTT (and a cache entry).
        """
        n = len(others)
        if 0 < k < n and n >= _PRUNE_MIN_HOSTS:
            kept = self._may_make(a, others, k)
        else:
            kept = range(n)
        base = self.base_rtts_ms(a, [others[i] for i in kept])
        return [kept[i] for i in sorted(range(len(kept)), key=base.__getitem__)[:k]]

    def _may_make(self, a: Host, others: Sequence[Host], k: int) -> List[int]:
        """Ascending positions of the hosts whose lower bound on base RTT
        is within the ``k``-th smallest upper bound.

        Stretch is the only term not known without hashing the pair, and
        it lies in ``[stretch_min, stretch_max)``.  At least ``k`` hosts
        are exactly at or under the cut and a pruned host is strictly
        over it, so no pruned host ties with, let alone beats, the k-th.
        """
        params = self.params
        a_id, lat1, lon1, cos1, access1, _ = self._static(a)
        ids, lat2, lon2, cos2, access2, as_index = self._static_columns(others)
        h = np.sin((lat2 - lat1) / 2.0) ** 2 + cos1 * cos2 * np.sin((lon2 - lon1) / 2.0) ** 2
        prop = (4.0 * EARTH_RADIUS_KM / FIBER_KM_PER_MS) * np.arcsin(np.minimum(1.0, np.sqrt(h)))
        hops = self.registry.hop_row(a.asn)[as_index.astype(np.intp)]
        fixed = access1 + access2 + params.per_hop_ms * hops
        lower = (fixed + prop * params.stretch_min) * (1.0 - _BOUND_MARGIN)
        upper = (fixed + prop * params.stretch_max) * (1.0 + _BOUND_MARGIN)
        np.maximum(lower, params.floor_ms, out=lower)
        np.maximum(upper, params.floor_ms, out=upper)
        # ``a`` itself is at exactly 0; an unreachable host goes to the
        # exact row, which raises.
        itself = ids == a_id
        lower[itself] = upper[itself] = 0.0
        lower[hops == NO_PATH] = 0.0
        cut = np.partition(upper, k - 1)[k - 1]
        return np.flatnonzero(lower <= cut).tolist()

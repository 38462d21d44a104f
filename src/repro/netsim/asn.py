"""Autonomous systems and a tiered peering graph.

The latency model charges a per-AS-hop penalty on top of propagation
delay, which gives paths topological (not purely geometric) structure —
the property that makes ASN-based clustering a meaningful baseline and
creates triangle-inequality violations that stress coordinate systems.

The graph follows the classic three-tier shape:

* **Tier 1** — a small global clique of transit-free backbones.
* **Tier 2** — regional providers, each homed to two or three tier-1
  networks and peering with some tier-2 networks in the same region.
* **Tier 3 (stubs)** — edge networks (ISPs, universities, enterprises)
  buying transit from one or two regional providers.

Hosts are attached to stub ASes in their metro's region, which is also
what the ASN-clustering baseline reads (the simulated analogue of
RouteViews origin-AS data).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.netsim.world import Region, World

#: Hop rows hold one byte per AS; this value marks "no path".
NO_PATH = 255
#: An AS with at most this many neighbours (a stub and its one or two
#: providers) answers hop queries through its neighbours' rows; a
#: better-connected one gets a row of its own.
_VIA_NEIGHBOURS_MAX_DEGREE = 2


@dataclass(frozen=True)
class AutonomousSystem:
    """One autonomous system."""

    asn: int
    name: str
    tier: int
    #: Home region; tier-1 backbones are global and carry ``None``.
    region: Optional[Region]

    def __post_init__(self) -> None:
        if self.tier not in (1, 2, 3):
            raise ValueError(f"AS tier must be 1, 2 or 3, got {self.tier}")
        if self.tier == 1 and self.region is not None:
            raise ValueError("tier-1 networks are global (region must be None)")
        if self.tier != 1 and self.region is None:
            raise ValueError(f"tier-{self.tier} AS {self.asn} needs a home region")


class ASRegistry:
    """The set of ASes plus the peering graph and hop-count queries."""

    def __init__(self) -> None:
        self._by_asn: Dict[int, AutonomousSystem] = {}
        self._graph = nx.Graph()
        #: Dense position of each ASN, in registration order; hop rows
        #: are indexed by it.
        self._index: Dict[int, int] = {}
        #: Single-source BFS rows by source ASN, built on first use.
        self._bfs_rows: Dict[int, bytearray] = {}

    # -- construction ----------------------------------------------------

    def add(self, asys: AutonomousSystem) -> AutonomousSystem:
        """Register an AS; ASNs must be unique."""
        if asys.asn in self._by_asn:
            raise ValueError(f"duplicate ASN {asys.asn}")
        self._by_asn[asys.asn] = asys
        self._index[asys.asn] = len(self._index)
        self._graph.add_node(asys.asn)
        self._bfs_rows.clear()
        return asys

    def link(self, asn_a: int, asn_b: int) -> None:
        """Add a peering/transit adjacency between two registered ASes."""
        if asn_a not in self._by_asn or asn_b not in self._by_asn:
            raise KeyError(f"cannot link unregistered ASes {asn_a}, {asn_b}")
        if asn_a == asn_b:
            raise ValueError("an AS cannot peer with itself")
        self._graph.add_edge(asn_a, asn_b)
        self._bfs_rows.clear()

    # -- queries -----------------------------------------------------------

    def get(self, asn: int) -> AutonomousSystem:
        """Look up an AS by number."""
        return self._by_asn[asn]

    def __contains__(self, asn: int) -> bool:
        return asn in self._by_asn

    def __len__(self) -> int:
        return len(self._by_asn)

    def all_asns(self) -> List[int]:
        """All registered AS numbers, sorted."""
        return sorted(self._by_asn)

    def stubs_in_region(self, region: Region) -> List[AutonomousSystem]:
        """Stub (tier-3) ASes homed in a region, sorted by ASN."""
        return sorted(
            (a for a in self._by_asn.values() if a.tier == 3 and a.region == region),
            key=lambda a: a.asn,
        )

    def tier2_in_region(self, region: Region) -> List[AutonomousSystem]:
        """Regional (tier-2) providers homed in a region, sorted by ASN."""
        return sorted(
            (a for a in self._by_asn.values() if a.tier == 2 and a.region == region),
            key=lambda a: a.asn,
        )

    def transit_providers_of(self, asn: int) -> Tuple[int, ...]:
        """The tier-2 providers a stub AS buys transit from.

        Used by the CDN's mapping system to decide which ISP-embedded
        (access-restricted) replicas a resolver may be served from.
        Returns an empty tuple for non-stub ASes.
        """
        asys = self._by_asn[asn]
        if asys.tier != 3:
            return ()
        return tuple(
            sorted(
                neighbor
                for neighbor in self._graph.neighbors(asn)
                if self._by_asn[neighbor].tier == 2
            )
        )

    def as_index(self, asn: int) -> int:
        """Dense position of an AS in every :meth:`hop_row`."""
        try:
            return self._index[asn]
        except KeyError:
            raise nx.NodeNotFound(f"AS {asn} is not registered") from None

    def _bfs_row(self, asn: int) -> bytearray:
        row = self._bfs_rows.get(asn)
        if row is None:
            index = self._index
            adjacency = self._graph.adj
            row = bytearray([NO_PATH]) * len(index)
            row[index[asn]] = 0
            frontier = [asn]
            depth = 0
            while frontier:
                depth += 1
                reached = []
                for node in frontier:
                    for neighbor in adjacency[node]:
                        position = index[neighbor]
                        if row[position] == NO_PATH:
                            row[position] = depth
                            reached.append(neighbor)
                if reached and depth >= NO_PATH - 1:
                    raise OverflowError("AS paths beyond 253 hops do not fit a hop row")
                frontier = reached
            self._bfs_rows[asn] = row
        return row

    def _hop_rows(self, asn: int) -> Tuple[int, List[bytearray]]:
        """``(extra, rows)`` such that, for ``b != asn``,
        ``hops(asn, b) = extra + min(row[as_index(b)] for row in rows)``.

        For ``a != b`` on any graph, ``hops(a, b) = 1 + min(hops(n, b))``
        over the neighbours ``n`` of ``a``, so a stub is answered from
        its providers' breadth-first rows: hosts sit in some 1 400 stub
        ASes, their neighbours are the few dozen transit networks, and
        only those ever get a row.
        """
        self.as_index(asn)
        neighbors = self._graph.adj[asn]
        if 0 < len(neighbors) <= _VIA_NEIGHBOURS_MAX_DEGREE:
            return 1, [self._bfs_row(neighbor) for neighbor in neighbors]
        return 0, [self._bfs_row(asn)]

    def hop_row(self, asn: int) -> np.ndarray:
        """AS-path hops from ``asn`` to every AS, as ``uint8`` indexed by
        :meth:`as_index`; 255 marks an unreachable AS."""
        extra, rows = self._hop_rows(asn)
        row = np.array(rows[0], dtype=np.uint8)
        for other in rows[1:]:
            np.minimum(row, np.frombuffer(other, dtype=np.uint8), out=row)
        if extra:
            row += row < NO_PATH
            row[self._index[asn]] = 0
        return row

    def hops_from(self, asn: int) -> Callable[[int], int]:
        """``hops(asn, ·)`` as a function of the other AS's :meth:`as_index`."""
        extra, rows = self._hop_rows(asn)
        own = self._index[asn]

        def hops(position: int) -> int:
            if position == own:
                return 0
            nearest = min([row[position] for row in rows])
            if nearest == NO_PATH:
                raise nx.NetworkXNoPath(f"no AS path from {asn} to the AS at index {position}")
            return extra + nearest

        return hops

    def hops(self, asn_a: int, asn_b: int) -> int:
        """AS-path hop count between two ASes (0 when identical).

        Unreachable pairs raise ``nx.NetworkXNoPath``; the default
        generated graph is connected so this only happens with
        hand-built registries.
        """
        if asn_a == asn_b:
            return 0
        position = self.as_index(asn_b)
        return self.hops_from(asn_a)(position)

    # -- generation ----------------------------------------------------------

    @classmethod
    def generate(
        cls,
        world: World,
        rng: np.random.Generator,
        tier1_count: int = 8,
        tier2_per_region: int = 6,
        stubs_per_region: int = 240,
    ) -> "ASRegistry":
        """Generate a connected three-tier AS graph for a world.

        The generated graph is deterministic given the RNG state:
        tier-1 networks form a clique; each tier-2 network homes to two
        or three tier-1s and peers with one or two same-region tier-2s;
        each stub buys transit from one or two same-region tier-2s.
        """
        registry = cls()
        next_asn = 100

        tier1: List[AutonomousSystem] = []
        for i in range(tier1_count):
            asys = registry.add(
                AutonomousSystem(next_asn, f"backbone-{i}", tier=1, region=None)
            )
            tier1.append(asys)
            next_asn += 1
        for i in range(len(tier1)):
            for j in range(i + 1, len(tier1)):
                registry.link(tier1[i].asn, tier1[j].asn)

        regions = sorted({m.region for m in world.metros}, key=lambda r: r.value)
        tier2_by_region: Dict[Region, List[AutonomousSystem]] = {}
        for region in regions:
            providers: List[AutonomousSystem] = []
            for i in range(tier2_per_region):
                asys = registry.add(
                    AutonomousSystem(
                        next_asn, f"{region.value}-provider-{i}", tier=2, region=region
                    )
                )
                next_asn += 1
                providers.append(asys)
                upstream_count = int(rng.integers(2, 4))
                upstream_count = min(upstream_count, len(tier1))
                chosen = rng.choice(len(tier1), size=upstream_count, replace=False)
                for index in chosen:
                    registry.link(asys.asn, tier1[int(index)].asn)
            # Same-region tier-2 peering keeps intra-region paths short.
            for i, provider in enumerate(providers):
                peer_count = int(rng.integers(1, 3))
                for _ in range(peer_count):
                    other = providers[int(rng.integers(0, len(providers)))]
                    if other.asn != provider.asn:
                        registry.link(provider.asn, other.asn)
            tier2_by_region[region] = providers

        for region in regions:
            providers = tier2_by_region[region]
            for i in range(stubs_per_region):
                asys = registry.add(
                    AutonomousSystem(
                        next_asn, f"{region.value}-stub-{i}", tier=3, region=region
                    )
                )
                next_asn += 1
                transit_count = 2 if rng.random() < 0.3 else 1
                transit_count = min(transit_count, len(providers))
                chosen = rng.choice(len(providers), size=transit_count, replace=False)
                for index in chosen:
                    registry.link(asys.asn, providers[int(index)].asn)

        return registry

    def stubs_for_metro(
        self, region: Region, metro_name: str, slice_size: int = 8
    ) -> List[AutonomousSystem]:
        """The stub ASes that actually operate in one metro.

        Real edge networks are local: a given city is served by a
        handful of the region's ISPs, not all of them.  Each metro gets
        a stable slice of the region's stub list (neighbouring slices
        overlap, so some ISPs span several metros) — this is what makes
        ASN-based clustering geographically meaningful, and keeps AS
        collisions between same-metro hosts realistic.
        """
        stubs = self.stubs_in_region(region)
        if not stubs:
            raise ValueError(f"no stub ASes in region {region}")
        if len(stubs) <= slice_size:
            return stubs
        # Local import to avoid a cycle (rng module has no deps on asn).
        from repro.netsim.rng import derive_seed

        start = derive_seed(0, "metro-stubs", region.value, metro_name) % len(stubs)
        return [stubs[(start + i) % len(stubs)] for i in range(slice_size)]

    def sample_stub(
        self,
        region: Region,
        rng: np.random.Generator,
        metro_name: Optional[str] = None,
    ) -> AutonomousSystem:
        """Pick a stub AS for a host (restricted to the metro's ISPs
        when a metro is given)."""
        if metro_name is not None:
            stubs = self.stubs_for_metro(region, metro_name)
        else:
            stubs = self.stubs_in_region(region)
        if not stubs:
            raise ValueError(f"no stub ASes in region {region}")
        return stubs[int(rng.integers(0, len(stubs)))]

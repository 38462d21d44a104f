"""Approximate top-k ranking: cosine sketches with exact rerank.

``rank_candidates``/``rank_packed`` are one sparse matvec — fast, but
still O(candidates) per query.  The paper's closest-node selection
(Section IV-A) only needs the Top-1/Top-5, so this module adds the
classic two-stage shortcut (HybridNN, Meridian — see PAPERS.md): a
cheap *coarse* index proposes a small shortlist of likely-nearest
candidates, and the existing exact scores path reranks only the
shortlist.  The returned :class:`~repro.core.selection.RankedCandidate`
rows therefore carry **true** similarity scores with the same
``(-score, name)`` tie-break as the exact engine — approximation can
only ever change *which* rows survive the shortlist, never their
scores or relative order.

The coarse index is a signed-random-projection (SRP) sketch: each
replica identifier is hashed — blake2b collapsed to 64 bits, then a
counter-based splitmix64 stream, the repo's standard
``PYTHONHASHSEED``-independent discipline (see
:func:`repro.serve.sharding.key_hash64`) — into a ±1 hyperplane row,
and a ratio map's sketch is the sign bit of its projection onto each
hyperplane, packed into uint64 words.  Cosine-similar maps agree on
most sketch bits (P[bit differs] = angle/π), so Hamming distance over
the packed words is a 64-bits-per-instruction proxy for angular
distance.

Shortlist gathering is *multi-probe bucketed*: the first sketch word is
cut into ``tables`` disjoint ``bucket_bits``-bit keys, each indexing a
hash table of candidate names, and a query probes every bucket within
Hamming radius ``probe_hamming`` of its own key in each table —
escalating the radius adaptively until the gathered pool can fill the
shortlist.  When probing would enumerate more buckets than there are
candidates (small populations), the index falls back to a linear scan
of the packed sketch matrix instead — still bit operations, never the
float matvec.  Either way the gathered pool is cut to the shortlist by
full-width Hamming distance with an ascending-name tie-break, so
results are independent of insertion order and identical after any
add/remove/re-add history.

The index is maintained **incrementally**: :func:`index_for` registers
it as a membership listener on its
:class:`~repro.core.engine.PackedPopulation`, so engine ``add`` /
``remove`` churn updates sketches row-by-row instead of rebuilding.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.ratio_map import RatioMap
from repro.core.similarity import SimilarityMetric
from repro.obs import get_observability

_MASK64 = (1 << 64) - 1
#: splitmix64 stream increment (golden-ratio odd constant).
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(value: int) -> int:
    """The splitmix64 finaliser (same constants as the shard hash)."""
    z = (value + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def replica_sign_words(replica: str, words: int, seed: int) -> np.ndarray:
    """The ±1 hyperplane rows for one replica, packed as sign words.

    Word ``j`` of the stream is ``mix64(blake2b64(replica) ^
    mix64(seed·golden + j))`` — pure digest/integer arithmetic, so the
    projection is identical across processes, platforms and
    ``PYTHONHASHSEED`` (no ``hash()`` anywhere), and extending ``words``
    never changes earlier words (counter-based, like every seed stream
    in this repo).
    """
    digest = hashlib.blake2b(replica.encode("utf-8"), digest_size=8).digest()
    base = int.from_bytes(digest, "big")
    out = np.empty(words, dtype=np.uint64)
    for j in range(words):
        out[j] = _mix64(base ^ _mix64((seed * _GOLDEN + j) & _MASK64))
    return out


def _signs_of(sign_words: np.ndarray) -> np.ndarray:
    """Unpack sign words into a ±1.0 vector (bit set → +1)."""
    as_bytes = np.frombuffer(
        sign_words.astype(">u8").tobytes(), dtype=np.uint8
    )
    bits = np.unpackbits(as_bytes)
    return np.where(bits == 1, 1.0, -1.0)


if hasattr(np, "bitwise_count"):

    def _popcount_rows(packed: np.ndarray) -> np.ndarray:
        """Per-row popcount of a (rows, words) uint64 matrix."""
        return np.bitwise_count(packed).sum(axis=1, dtype=np.int64)

else:  # pragma: no cover - numpy < 2.0 fallback
    _POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def _popcount_rows(packed: np.ndarray) -> np.ndarray:
        return _POP8[packed.view(np.uint8)].sum(axis=1, dtype=np.int64)


#: Memoised XOR masks enumerating every ``width``-bit key at exactly
#: Hamming distance ``radius`` — shared by all indexes, so the
#: multi-probe loop is a flat ``key ^ mask`` sweep with no per-query
#: combinatorics.
_FLIP_MASKS: Dict[Tuple[int, int], Tuple[int, ...]] = {}


def _flip_masks(width: int, radius: int) -> Tuple[int, ...]:
    masks = _FLIP_MASKS.get((width, radius))
    if masks is None:
        masks = tuple(
            sum(1 << bit for bit in flipped)
            for flipped in combinations(range(width), radius)
        )
        _FLIP_MASKS[(width, radius)] = masks
    return masks


@dataclass(frozen=True)
class AnnParams:
    """Sketch-index configuration (hashable: one index per value).

    The defaults are the calibrated operating point from
    ``BENCH_ann.json``: 256 sketch bits discriminate same-cluster
    neighbours well past the recall@5 ≥ 0.95 bar, and 4 tables of
    16-bit bucket keys probed at Hamming radius 1 (68 bucket probes)
    keep the gathered pool small at 100k candidates while multi-table
    redundancy covers the bucket bits a near neighbour happens to
    flip — a neighbour is lost only when *every* table sees ≥ 2 of its
    16 key bits flip, and even then only if it also loses the
    full-width Hamming cut.
    """

    #: Sketch width in bits (a positive multiple of 64).
    bits: int = 256
    #: Bucket hash tables, each keyed by its own slice of sketch bits.
    tables: int = 4
    #: Key width per table; all keys live in the first sketch word.
    bucket_bits: int = 16
    #: Bucket-key Hamming radius probed per table before the adaptive
    #: escalation takes over (0 = exact-bucket only).
    probe_hamming: int = 1
    #: Minimum gathered-pool cut handed to the exact rerank.
    shortlist: int = 64
    #: Hyperplane stream seed.
    seed: int = 2008

    def __post_init__(self) -> None:
        if self.bits < 64 or self.bits % 64:
            raise ValueError("bits must be a positive multiple of 64")
        if self.tables < 1:
            raise ValueError("need at least one bucket table")
        if not 1 <= self.bucket_bits <= 32:
            raise ValueError("bucket_bits must be in [1, 32]")
        if self.tables * self.bucket_bits > 64:
            raise ValueError(
                "bucket keys must fit the first sketch word "
                "(tables * bucket_bits <= 64)"
            )
        if self.probe_hamming < 0:
            raise ValueError("probe_hamming cannot be negative")
        if self.shortlist < 1:
            raise ValueError("shortlist must be at least 1")


class SketchIndex:
    """An incremental SRP sketch index over named ratio maps.

    ``add``/``remove`` (also exposed as the engine's listener protocol
    ``on_add``/``on_remove``) maintain a dense (rows × words) uint64
    sketch matrix — removals swap the last row in, so the matrix never
    fragments — plus one row-index bucket table per configured key
    slice (bucket entries are repaired when a swap renumbers the moved
    row).  :meth:`shortlist` is the query half; results depend only on
    the live membership, never on churn history.
    """

    def __init__(
        self, params: AnnParams, obs: Optional[object] = None
    ) -> None:
        self.params = params
        self.words = params.bits // 64
        obs = obs if obs is not None else get_observability()
        metrics = obs.metrics
        self._m_adds = metrics.counter("ann.index.adds")
        self._m_removes = metrics.counter("ann.index.removes")
        self._m_queries = metrics.counter("ann.index.queries")
        self._m_probes = metrics.counter("ann.index.bucket_probes")
        self._m_gathered = metrics.counter("ann.index.gathered_rows")
        self._m_scans = metrics.counter("ann.index.full_scans")
        #: replica → ±1 hyperplane vector (bits,), lazily derived.
        self._signs: Dict[str, np.ndarray] = {}
        self._names: List[str] = []
        self._row_of: Dict[str, int] = {}
        self._rows = np.zeros((0, self.words), dtype=np.uint64)
        self._buckets: List[Dict[int, List[int]]] = [
            {} for _ in range(params.tables)
        ]
        # Plain-int mirrors of the obs counters: the STATS admin surface
        # reads these, so they exist whether or not obs is enabled.
        self.adds = 0
        self.removes = 0
        self.queries = 0
        self.bucket_probes = 0
        self.gathered_rows = 0
        self.full_scans = 0

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._row_of

    # -- sketching -----------------------------------------------------------

    def _sign(self, replica: str) -> np.ndarray:
        signs = self._signs.get(replica)
        if signs is None:
            signs = _signs_of(
                replica_sign_words(replica, self.words, self.params.seed)
            )
            self._signs[replica] = signs
        return signs

    def sketch(self, ratio_map: RatioMap) -> np.ndarray:
        """The packed sketch words of one ratio map.

        A pure function of (map entries in iteration order, params):
        the same map sketches bit-identically in any process.
        """
        acc = np.zeros(self.params.bits, dtype=np.float64)
        for replica, ratio in ratio_map.items():
            acc += ratio * self._sign(replica)
        packed = np.packbits(acc >= 0.0)
        return packed.view(">u8").astype(np.uint64)

    def _keys_of(self, sketch_words: np.ndarray) -> List[int]:
        """Per-table bucket keys: disjoint slices of the first word."""
        word0 = int(sketch_words[0])
        width = self.params.bucket_bits
        mask = (1 << width) - 1
        return [
            (word0 >> (64 - (table + 1) * width)) & mask
            for table in range(self.params.tables)
        ]

    # -- maintenance (the engine's listener protocol) ------------------------

    def add(self, name: str, ratio_map: RatioMap) -> None:
        """Index one named map (ValueError on a duplicate name)."""
        if name in self._row_of:
            raise ValueError(f"name {name!r} already indexed")
        sketch_words = self.sketch(ratio_map)
        row = len(self._names)
        if row == len(self._rows):
            grown = np.zeros(
                (max(16, 2 * len(self._rows)), self.words), dtype=np.uint64
            )
            grown[: len(self._rows)] = self._rows
            self._rows = grown
        self._rows[row] = sketch_words
        self._names.append(name)
        self._row_of[name] = row
        for table, key in zip(self._buckets, self._keys_of(sketch_words)):
            members = table.get(key)
            if members is None:
                table[key] = [row]
            else:
                members.append(row)
        self.adds += 1
        self._m_adds.inc()

    def remove(self, name: str) -> None:
        """Drop one name (KeyError if absent); the last row swaps in,
        and its bucket entries are renumbered to the vacated slot."""
        row = self._row_of.pop(name)
        for table, key in zip(self._buckets, self._keys_of(self._rows[row])):
            members = table[key]
            members.remove(row)
            if not members:
                del table[key]
        last = len(self._names) - 1
        if row != last:
            moved = self._names[last]
            self._names[row] = moved
            self._row_of[moved] = row
            for table, key in zip(self._buckets, self._keys_of(self._rows[last])):
                members = table[key]
                members[members.index(last)] = row
            self._rows[row] = self._rows[last]
        self._names.pop()
        self.removes += 1
        self._m_removes.inc()

    # Membership-listener aliases (see PackedPopulation.attach_listener).
    on_add = add
    on_remove = remove

    # -- queries -------------------------------------------------------------

    def _gather(
        self, sketch_words: np.ndarray, target: int, count: int
    ) -> Optional[np.ndarray]:
        """Multi-probe the bucket tables for shortlist material.

        Returns the gathered row indices (deduplicated, ascending), or
        None when the caller should rank every row instead — probing
        the next radius would have enumerated more buckets than there
        are candidates, at which point one vectorized Hamming scan of
        the sketch matrix is the cheaper (and recall-perfect) plan.
        """
        params = self.params
        width = params.bucket_bits
        keys = self._keys_of(sketch_words)
        pool: List[int] = []
        radius = 0
        while True:
            if radius > width:
                # Every bucket of every table has been probed.
                break
            if params.tables * comb(width, radius) > count:
                self.full_scans += 1
                self._m_scans.inc()
                return None
            masks = _flip_masks(width, radius)
            for table, key in zip(self._buckets, keys):
                get = table.get
                for mask in masks:
                    members = get(key ^ mask)
                    if members is not None:
                        pool.extend(members)
            self.bucket_probes += params.tables * len(masks)
            self._m_probes.inc(params.tables * len(masks))
            if radius >= params.probe_hamming and len(pool) >= target:
                break
            radius += 1
        return np.unique(np.asarray(pool, dtype=np.int64))

    def _cut(
        self, rows: np.ndarray, sketch_words: np.ndarray, target: int
    ) -> List[str]:
        """The ``target`` Hamming-nearest of ``rows``, as names ordered
        by ``(hamming, name)`` — ties at the cut boundary break by
        ascending name, so the result is a pure function of live
        membership and the query (row numbering never shows through)."""
        names = self._names
        distances = _popcount_rows(self._rows[rows] ^ sketch_words)
        if len(rows) > target:
            kth = np.partition(distances, target - 1)[target - 1]
            below = distances < kth
            need = target - int(below.sum())
            ties = sorted(names[r] for r in rows[distances == kth])[:need]
            kept = sorted(
                (int(d), names[r])
                for d, r in zip(distances[below], rows[below])
            )
            kept.extend((int(kth), name) for name in ties)
            kept.sort()
            return [name for _, name in kept]
        kept = sorted((int(d), names[r]) for d, r in zip(distances, rows))
        return [name for _, name in kept]

    def shortlist(self, client_map: RatioMap, need: int = 1) -> List[str]:
        """Names of the (at least) ``max(shortlist, need)`` candidates
        Hamming-nearest to the query sketch, ordered by
        ``(hamming, name)``.

        Deterministic: a pure function of live membership and the query
        map — independent of add/remove history and of bucket layout.
        """
        self.queries += 1
        self._m_queries.inc()
        count = len(self._names)
        if count == 0:
            return []
        target = max(self.params.shortlist, int(need))
        if target >= count:
            return sorted(self._names)
        sketch_words = self.sketch(client_map)
        rows = self._gather(sketch_words, target, count)
        if rows is None or len(rows) >= count:
            rows = np.arange(count, dtype=np.int64)
        self.gathered_rows += len(rows)
        self._m_gathered.inc(len(rows))
        return self._cut(rows, sketch_words, target)

    def stats(self) -> Dict[str, int]:
        """Index counters (the serving layer's STATS surface)."""
        return {
            "rows": len(self._names),
            "bits": self.params.bits,
            "adds": self.adds,
            "removes": self.removes,
            "queries": self.queries,
            "bucket_probes": self.bucket_probes,
            "gathered_rows": self.gathered_rows,
            "full_scans": self.full_scans,
        }


# -- population attachment ---------------------------------------------------


def index_for(population, params: AnnParams) -> SketchIndex:
    """The sketch index for a population, built once and kept in sync.

    The first call builds the index from the population's live view and
    registers it as a membership listener
    (:meth:`~repro.core.engine.PackedPopulation.attach_listener`), so
    subsequent engine ``add``/``remove`` churn streams into the index
    instead of rebuilding it.  Indexes are cached on the population,
    keyed by the (hashable) params value.
    """
    indexes = getattr(population, "ann_indexes", None)
    if indexes is None:
        indexes = {}
        population.ann_indexes = indexes
    index = indexes.get(params)
    if index is None:
        index = SketchIndex(params)
        view = population._ensure_view()
        for name, ratio_map in zip(view.names, view.maps):
            index.add(name, ratio_map)
        population.attach_listener(index)
        indexes[params] = index
    return index


def index_stats(population) -> Dict[str, int]:
    """Merged counters of every index attached to a population
    (empty when approximate ranking was never used on it)."""
    indexes = getattr(population, "ann_indexes", None)
    if not indexes:
        return {}
    merged: Dict[str, int] = {}
    for params in sorted(indexes, key=repr):
        for key, value in indexes[params].stats().items():
            if key == "bits":
                merged[key] = value
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


# -- the two-stage query -----------------------------------------------------


def approx_top_k(
    client_map: RatioMap,
    population,
    k: int,
    metric: SimilarityMetric = SimilarityMetric.COSINE,
    *,
    params: Optional[AnnParams] = None,
    index: Optional[SketchIndex] = None,
    exclude: Optional[str] = None,
):
    """The best ``k`` candidates via sketch shortlist + exact rerank.

    The exact rerank is **never** skipped: every returned row's score
    comes from :meth:`~repro.core.engine.PackedPopulation.scores_rows`
    (the same per-row arithmetic as the full matvec), ordered by the
    same ``(-score, name)`` tie-break — so whenever the shortlist
    covers the exact Top-K (the calibration the ``ann-vs-exact``
    differential pair checks), the result is byte-identical to the
    exact path.  ``exclude`` is dropped *before* the cutoff, so callers
    asking for ``k`` rows get ``k`` whenever enough candidates exist.

    Non-cosine metrics are allowed — the shortlist is still gathered by
    the cosine sketch, only the rerank uses ``metric`` — but the recall
    calibration only speaks for cosine.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if index is None:
        index = index_for(population, params if params is not None else AnnParams())
    view = population._ensure_view()
    need = k + (1 if exclude is not None else 0)
    names = index.shortlist(client_map, need)
    if exclude is not None:
        names = [name for name in names if name != exclude]
    if not names:
        return []
    rows = np.fromiter(
        (view.row_of[name] for name in names), dtype=np.int64, count=len(names)
    )
    scores = population.scores_rows(client_map, rows, metric)
    order = np.lexsort((view.name_rank[rows], -scores))[:k]
    from repro.core.selection import _build_ranked

    return _build_ranked(names, scores.tolist(), order.tolist())

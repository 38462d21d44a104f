"""Vectorized similarity engine: batched ratio-map comparisons.

Every CRP operation — closest-node ranking (Section IV-A), SMF
clustering (Section IV-B), quality scoring — reduces to similarity
between ratio maps.  The scalar :func:`repro.core.similarity.similarity`
API stays as the reference implementation; this module is the scaling
primitive behind it: a shared replica *vocabulary* (string → column
interner) plus a CSR-style sparse packing of a whole population's
ratio maps into flat numpy arrays, with cached norms, so that

* one positioning query is a single sparse matvec over all candidates
  (:meth:`PackedPopulation.scores`),
* clustering's node × center comparisons are blocked matrix products
  (:meth:`PackedPopulation.matrix`), and
* node churn is an incremental :meth:`~PackedPopulation.add` /
  :meth:`~PackedPopulation.remove` — tombstoned and repacked lazily, so
  :class:`~repro.core.tracker.RedirectionTracker`-driven windows don't
  force a full repack per update.

All three metrics (cosine, Jaccard, overlap) have vectorized
equivalents so the ablation benches keep working.  Results agree with
the scalar reference to within float summation-order noise (≤ 1e-12 in
practice; Jaccard is bit-exact), and every tie-break is replicated
exactly, so rankings and clusterings are identical under both paths.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.ratio_map import RatioMap
from repro.core.similarity import SimilarityMetric
from repro.obs import Observability, get_observability
from repro.obs.manifest import SIM_NOW_GAUGE

#: Upper bound on the temporary (cols × nnz) expansion used by blocked
#: matrix products, in elements (~32 MB of float64).
_BLOCK_ELEMENTS = 4_194_304

#: Populations of at most this many rows answer a Top-K query with the
#: full ``(-score, name)`` sort and a slice.  Measured on a shard's
#: live candidate scores at k=5: the partition path's fixed cost
#: (negate, partition, mask, gather, two-key sort of the survivors) is
#: 6.8 µs at 32 rows against 3.2 µs for the stable argsort, level at
#: 512 (9.6 / 9.3 µs) and ahead from 640 (10.3 / 11.3 µs; 11.3 / 15.9
#: at 1 024, 14.0 / 29.6 at 2 048).
_TOP_K_FULL_SORT_ROWS = 512

#: How many packed populations :func:`packed_for` keeps warm.
_PACK_CACHE_SIZE = 8

#: Per-map (vocabulary, columns, ratios) cache entries kept on
#: ``RatioMap._vec`` — one per recently-seen vocabulary.
_MAP_VEC_SLOTS = 4


class ReplicaVocabulary:
    """Interner mapping replica identifiers to dense column indices.

    Indices are assigned in first-seen order and never change or get
    reused, so packed rows stay valid as the vocabulary grows — the
    property that makes incremental adds cheap.
    """

    __slots__ = ("_index",)

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, replica: str) -> bool:
        return replica in self._index

    def intern(self, replica: str) -> int:
        """The column for a replica, assigning the next free one if new."""
        index = self._index.get(replica)
        if index is None:
            index = len(self._index)
            self._index[replica] = index
        return index

    def get(self, replica: str) -> Optional[int]:
        """The column for a replica, or None if never interned."""
        return self._index.get(replica)

    def replicas(self) -> Tuple[str, ...]:
        """All interned replicas, in column order (the inverse map)."""
        out: List[Optional[str]] = [None] * len(self._index)
        for replica, index in self._index.items():
            out[index] = replica
        return tuple(out)  # type: ignore[arg-type]

    def columns_of(self, ratio_map: RatioMap) -> np.ndarray:
        """Column indices for a map's replicas (interning new ones),
        in the map's own iteration order."""
        intern = self.intern
        return np.fromiter(
            (intern(r) for r in ratio_map), dtype=np.int64, count=len(ratio_map)
        )


def _map_arrays(
    ratio_map: RatioMap, vocab: ReplicaVocabulary
) -> Tuple[np.ndarray, np.ndarray]:
    """A map's (columns, ratios) arrays under a vocabulary, cached on
    the map itself (ratio maps are immutable, so the cache never goes
    stale; it is keyed by vocabulary identity).

    ``_vec`` is a short move-to-front list holding one entry per
    recently-seen vocabulary, so a map shared between populations with
    different vocabularies (a scenario sweep and a shard-local serving
    population, say) does not re-derive its arrays on every
    alternation.
    """
    cached = getattr(ratio_map, "_vec", None)
    if cached is not None:
        for slot, entry in enumerate(cached):
            if entry[0] is vocab:
                if slot:
                    cached.insert(0, cached.pop(slot))
                return entry[1], entry[2]
    columns = vocab.columns_of(ratio_map)
    ratios = np.fromiter(ratio_map.values(), dtype=np.float64, count=len(ratio_map))
    entry = (vocab, columns, ratios)
    if cached is None:
        ratio_map._vec = [entry]
    else:
        cached.insert(0, entry)
        del cached[_MAP_VEC_SLOTS:]
    return columns, ratios


def _segment_gather(
    starts: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat gather indices for arbitrary CSR row segments.

    Returns ``(flat, offsets)`` where ``flat`` indexes the store arrays
    element-by-element for the selected rows (in order) and ``offsets``
    is the per-row boundary array (len(rows)+1).
    """
    total = int(counts.sum())
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    if total == 0:
        return np.empty(0, dtype=np.int64), offsets
    flat = np.ones(total, dtype=np.int64)
    flat[0] = starts[0]
    if len(counts) > 1:
        flat[offsets[1:-1]] = starts[1:] - (starts[:-1] + counts[:-1]) + 1
    np.cumsum(flat, out=flat)
    return flat, offsets


class _View:
    """A packed, active-rows-only snapshot of a population.

    Rebuilt lazily after mutations; when there are no tombstones it
    aliases the store arrays (no copy).
    """

    __slots__ = (
        "names",
        "maps",
        "indices",
        "data",
        "indptr",
        "lens",
        "norms",
        "row_of",
        "_name_perm",
        "_name_rank",
    )

    def __init__(
        self,
        names: List[str],
        maps: List[RatioMap],
        indices: np.ndarray,
        data: np.ndarray,
        indptr: np.ndarray,
    ) -> None:
        self.names = names
        self.maps = maps
        self.indices = indices
        self.data = data
        self.indptr = indptr
        self.lens = np.diff(indptr)
        self.norms = np.fromiter((m.norm for m in maps), dtype=np.float64, count=len(maps))
        self.row_of = {name: i for i, name in enumerate(names)}
        self._name_perm: Optional[np.ndarray] = None
        self._name_rank: Optional[np.ndarray] = None

    @property
    def name_perm(self) -> np.ndarray:
        """Row indices in ascending-name order (the tie-break order)."""
        if self._name_perm is None:
            self._name_perm = np.argsort(np.array(self.names), kind="stable")
        return self._name_perm

    @property
    def name_rank(self) -> np.ndarray:
        """Each row's position in ascending-name order (the inverse of
        :attr:`name_perm`): names are unique, so sorting by this integer
        is sorting by name, without comparing strings per query."""
        if self._name_rank is None:
            self._name_rank = np.argsort(self.name_perm)
        return self._name_rank


class PackedPopulation:
    """A population of named ratio maps packed into CSR arrays.

    Row order is insertion order.  ``add``/``remove`` are incremental:
    additions are appended to the store, removals tombstone their row,
    and the packed active view is rebuilt lazily on the next query; the
    store itself is only compacted once tombstones outnumber live rows.
    """

    def __init__(
        self,
        maps: Optional[Mapping[str, Optional[RatioMap]]] = None,
        *,
        vocab: Optional[ReplicaVocabulary] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.vocab = vocab if vocab is not None else ReplicaVocabulary()
        obs = obs if obs is not None else get_observability()
        self._trace = obs.trace
        metrics = obs.metrics
        self._m_flushes = metrics.counter("engine.flushes")
        self._m_compactions = metrics.counter("engine.compactions")
        self._m_rows_flushed = metrics.counter("engine.rows_flushed")
        self._m_rows_dropped = metrics.counter("engine.rows_dropped")
        #: The engine has no clock of its own; trace timestamps read the
        #: sim-time gauge the active :class:`SimClock` keeps current.
        self._sim_now = metrics.gauge(SIM_NOW_GAUGE)
        self._names: List[str] = []
        self._maps: List[Optional[RatioMap]] = []
        self._row_of: Dict[str, int] = {}
        self._indices = np.empty(0, dtype=np.int64)
        self._data = np.empty(0, dtype=np.float64)
        self._indptr = np.zeros(1, dtype=np.int64)
        self._packed_rows = 0
        self._dead = 0
        self._view: Optional[_View] = None
        #: Per-query memo slot for higher layers (the ranking path
        #: stores finished result lists here, keyed by query identity).
        #: Cleared on any membership change.  Bounded by the layer that
        #: fills it.
        self.memo: "OrderedDict[object, tuple]" = OrderedDict()
        #: Membership listeners (see :meth:`attach_listener`) — how the
        #: ANN sketch index (repro.core.ann) tracks churn without
        #: rebuilding.
        self._listeners: List[object] = []
        if maps:
            for name, ratio_map in maps.items():
                if ratio_map is not None:
                    self.add(name, ratio_map)

    # -- membership ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, name: str) -> bool:
        return name in self._row_of

    @property
    def names(self) -> List[str]:
        """Active node names, in row order."""
        return self._ensure_view().names

    def get(self, name: str) -> RatioMap:
        """The packed map for a node (KeyError if absent)."""
        return self._maps[self._row_of[name]]

    def add(self, name: str, ratio_map: RatioMap) -> None:
        """Append a node (ValueError if the name is already present)."""
        if name in self._row_of:
            raise ValueError(f"node {name!r} already packed; remove it first")
        if ratio_map is None:
            raise ValueError(f"node {name!r} has no ratio map")
        self._row_of[name] = len(self._names)
        self._names.append(name)
        self._maps.append(ratio_map)
        self._view = None
        self.memo.clear()
        for listener in self._listeners:
            listener.on_add(name, ratio_map)

    def remove(self, name: str) -> None:
        """Tombstone a node (KeyError if absent); storage is reclaimed
        lazily once tombstones outnumber live rows."""
        row = self._row_of.pop(name)
        self._maps[row] = None
        self._dead += 1
        self._view = None
        self.memo.clear()
        for listener in self._listeners:
            listener.on_remove(name)

    def attach_listener(self, listener: object) -> None:
        """Register an object to be notified of membership changes —
        ``on_add(name, ratio_map)`` after each :meth:`add` and
        ``on_remove(name)`` after each :meth:`remove` (an
        :meth:`update` fires both).  Listeners see every change from
        attachment on, so a derived structure built from the current
        view stays in sync without rebuilds."""
        self._listeners.append(listener)

    def update(self, name: str, ratio_map: RatioMap) -> None:
        """Replace a node's map (the node moves to the last row)."""
        if name in self._row_of:
            self.remove(name)
        self.add(name, ratio_map)

    def stats(self) -> Dict[str, int]:
        """Storage counters (the serving layer's STATS surface).

        ``rows`` is live membership; ``tombstones`` and ``packed_rows``
        expose the lazy-reclaim state; ``nnz`` is stored entries
        including tombstoned rows not yet compacted away.
        """
        return {
            "rows": len(self._row_of),
            "tombstones": self._dead,
            "packed_rows": self._packed_rows,
            "nnz": int(self._indptr[-1]),
            "vocabulary": len(self.vocab),
        }

    # -- packing ------------------------------------------------------------

    def _flush_pending(self) -> None:
        """Pack rows appended since the last flush into the store."""
        if self._packed_rows == len(self._names):
            return
        pending = self._maps[self._packed_rows :]
        self._m_flushes.inc()
        self._m_rows_flushed.inc(len(pending))
        self._trace.emit(
            "engine.flush", self._sim_now.value, "packed-population",
            rows=len(pending),
        )
        chunks_idx: List[np.ndarray] = [self._indices]
        chunks_dat: List[np.ndarray] = [self._data]
        lens = np.zeros(len(pending), dtype=np.int64)
        for i, ratio_map in enumerate(pending):
            if ratio_map is None:  # added then removed before any query
                continue
            columns, ratios = _map_arrays(ratio_map, self.vocab)
            chunks_idx.append(columns)
            chunks_dat.append(ratios)
            lens[i] = len(columns)
        self._indices = np.concatenate(chunks_idx)
        self._data = np.concatenate(chunks_dat)
        tail = np.empty(len(pending), dtype=np.int64)
        np.cumsum(lens, out=tail)
        tail += self._indptr[-1]
        self._indptr = np.concatenate([self._indptr, tail])
        self._packed_rows = len(self._names)

    def _compact(self) -> None:
        """Drop tombstoned rows from the store for good."""
        self._flush_pending()
        self._m_compactions.inc()
        self._m_rows_dropped.inc(self._dead)
        self._trace.emit(
            "engine.compact", self._sim_now.value, "packed-population",
            dropped=self._dead, live=len(self._row_of),
        )
        alive = [i for i, m in enumerate(self._maps) if m is not None]
        rows = np.asarray(alive, dtype=np.int64)
        if len(rows):
            flat, offsets = _segment_gather(self._indptr[rows], np.diff(self._indptr)[rows])
            self._indices = self._indices[flat]
            self._data = self._data[flat]
            self._indptr = offsets
        else:
            self._indices = np.empty(0, dtype=np.int64)
            self._data = np.empty(0, dtype=np.float64)
            self._indptr = np.zeros(1, dtype=np.int64)
        self._names = [self._names[i] for i in alive]
        self._maps = [self._maps[i] for i in alive]
        self._row_of = {name: i for i, name in enumerate(self._names)}
        self._packed_rows = len(self._names)
        self._dead = 0

    def _ensure_view(self) -> _View:
        if self._view is not None:
            return self._view
        if self._dead > len(self._row_of):
            self._compact()
        else:
            self._flush_pending()
        if self._dead == 0:
            view = _View(self._names, self._maps, self._indices, self._data, self._indptr)
        else:
            alive = [i for i, m in enumerate(self._maps) if m is not None]
            rows = np.asarray(alive, dtype=np.int64)
            flat, offsets = _segment_gather(
                self._indptr[rows], np.diff(self._indptr)[rows]
            )
            view = _View(
                [self._names[i] for i in alive],
                [self._maps[i] for i in alive],
                self._indices[flat],
                self._data[flat],
                offsets,
            )
        self._view = view
        return view

    # -- similarity ---------------------------------------------------------

    def _query_dense(self, query: RatioMap) -> Tuple[np.ndarray, float]:
        """The query as a dense vector over the vocabulary."""
        columns, ratios = _map_arrays(query, self.vocab)
        dense = np.zeros(len(self.vocab), dtype=np.float64)
        dense[columns] = ratios
        return dense, query.norm

    def scores(
        self,
        query: RatioMap,
        metric: SimilarityMetric = SimilarityMetric.COSINE,
    ) -> np.ndarray:
        """One-vs-many similarity: the query against every active row.

        Returns an array aligned with :attr:`names`.  One sparse matvec
        (cosine/overlap) or masked count (Jaccard) — no Python loops.
        """
        view = self._ensure_view()
        n = len(view.names)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        boundaries = view.indptr[:-1]
        if metric is SimilarityMetric.COSINE:
            dense, query_norm = self._query_dense(query)
            dots = np.add.reduceat(view.data * dense[view.indices], boundaries)
            result = dots / (query_norm * view.norms)
            np.clip(result, 0.0, 1.0, out=result)
            return result
        if metric is SimilarityMetric.JACCARD:
            dense, _ = self._query_dense(query)
            common = np.add.reduceat(
                (dense[view.indices] > 0.0).astype(np.float64), boundaries
            )
            union = view.lens + float(len(query)) - common
            return common / union
        if metric is SimilarityMetric.OVERLAP:
            dense, _ = self._query_dense(query)
            return np.add.reduceat(
                np.minimum(view.data, dense[view.indices]), boundaries
            )
        raise ValueError(f"unknown metric {metric!r}")

    def scores_rows(
        self,
        query: RatioMap,
        rows: Sequence[int],
        metric: SimilarityMetric = SimilarityMetric.COSINE,
    ) -> np.ndarray:
        """One-vs-some similarity: the query against selected view rows.

        Same per-row arithmetic as :meth:`scores` (identical gather
        order within each row, so scores match bit-for-bit), restricted
        to ``rows`` — the exact-rerank half of the approximate ranking
        path, where only a shortlist needs true scores.
        """
        view = self._ensure_view()
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) == 0:
            return np.empty(0, dtype=np.float64)
        flat, offsets = _segment_gather(view.indptr[rows], view.lens[rows])
        boundaries = offsets[:-1]
        data = view.data[flat]
        indices = view.indices[flat]
        if metric is SimilarityMetric.COSINE:
            dense, query_norm = self._query_dense(query)
            dots = np.add.reduceat(data * dense[indices], boundaries)
            result = dots / (query_norm * view.norms[rows])
            np.clip(result, 0.0, 1.0, out=result)
            return result
        if metric is SimilarityMetric.JACCARD:
            dense, _ = self._query_dense(query)
            common = np.add.reduceat(
                (dense[indices] > 0.0).astype(np.float64), boundaries
            )
            union = view.lens[rows] + float(len(query)) - common
            return common / union
        if metric is SimilarityMetric.OVERLAP:
            dense, _ = self._query_dense(query)
            return np.add.reduceat(np.minimum(data, dense[indices]), boundaries)
        raise ValueError(f"unknown metric {metric!r}")

    def matrix(
        self,
        row_names: Sequence[str],
        col_names: Sequence[str],
        metric: SimilarityMetric = SimilarityMetric.COSINE,
    ) -> np.ndarray:
        """Blocked many-vs-many similarity between two sets of rows.

        Returns ``S[i, j] = similarity(rows[i], cols[j])``.  Columns are
        scattered to a dense (cols × vocabulary) block once; rows stream
        through in blocks sized to bound the temporary expansion.
        """
        view = self._ensure_view()
        rows = np.fromiter(
            (view.row_of[n] for n in row_names), dtype=np.int64, count=len(row_names)
        )
        cols = np.fromiter(
            (view.row_of[n] for n in col_names), dtype=np.int64, count=len(col_names)
        )
        n_rows, n_cols = len(rows), len(cols)
        out = np.zeros((n_rows, n_cols), dtype=np.float64)
        if n_rows == 0 or n_cols == 0:
            return out

        width = len(self.vocab)
        if metric is SimilarityMetric.JACCARD:
            dense = np.zeros((n_cols, width), dtype=bool)
        else:
            dense = np.zeros((n_cols, width), dtype=np.float64)
        for j, row in enumerate(cols):
            start, end = view.indptr[row], view.indptr[row + 1]
            if metric is SimilarityMetric.JACCARD:
                dense[j, view.indices[start:end]] = True
            else:
                dense[j, view.indices[start:end]] = view.data[start:end]

        max_len = int(view.lens[rows].max())
        block = max(1, _BLOCK_ELEMENTS // max(1, n_cols * max_len))
        row_lens = view.lens[rows].astype(np.float64)
        col_lens = view.lens[cols].astype(np.float64)
        for lo in range(0, n_rows, block):
            hi = min(lo + block, n_rows)
            chunk = rows[lo:hi]
            flat, offsets = _segment_gather(view.indptr[chunk], view.lens[chunk])
            indices = view.indices[flat]
            boundaries = offsets[:-1]
            if metric is SimilarityMetric.COSINE:
                contrib = dense[:, indices] * view.data[flat]
                dots = np.add.reduceat(contrib, boundaries, axis=1)
                part = dots.T / (view.norms[chunk][:, None] * view.norms[cols][None, :])
                np.clip(part, 0.0, 1.0, out=part)
            elif metric is SimilarityMetric.JACCARD:
                common = np.add.reduceat(
                    dense[:, indices].astype(np.float64), boundaries, axis=1
                ).T
                union = row_lens[lo:hi][:, None] + col_lens[None, :] - common
                part = common / union
            elif metric is SimilarityMetric.OVERLAP:
                contrib = np.minimum(dense[:, indices], view.data[flat])
                part = np.add.reduceat(contrib, boundaries, axis=1).T
            else:
                raise ValueError(f"unknown metric {metric!r}")
            out[lo:hi] = part
        return out

    def all_pairs(
        self, metric: SimilarityMetric = SimilarityMetric.COSINE
    ) -> np.ndarray:
        """The full active-population similarity matrix."""
        names = self.names
        return self.matrix(names, names, metric)

    # -- ranking ------------------------------------------------------------

    def ranked_indices(self, scores: np.ndarray) -> np.ndarray:
        """Row indices ordered by ``(-score, name)`` — exactly the
        scalar ranking's sort key."""
        view = self._ensure_view()
        perm = view.name_perm
        return perm[np.argsort(-scores[perm], kind="stable")]

    def top_k_indices(self, scores: np.ndarray, k: int) -> np.ndarray:
        """``ranked_indices(scores)[:k]``, ties and all.

        Small populations are exactly that expression.  Larger ones
        sort only the rows scoring at least the ``k``-th best score
        (one ``partition``), by ``(-score, name rank)`` — every row of
        the prefix is among them, in the same relative order, and rows
        tied at the cutoff are cut by name as the full sort would.
        """
        n = len(scores)
        if k >= n or n <= _TOP_K_FULL_SORT_ROWS:
            return self.ranked_indices(scores)[:k]
        # Selecting on the negated scores keeps CRP's mass tie — the
        # zeros of every candidate sharing no replica with the client —
        # on the far side of the pivot, where introselect is not slowed
        # by it.
        keys = -scores
        kth = np.partition(keys, k - 1)[k - 1]
        rows = np.flatnonzero(keys <= kth)
        rank = self._ensure_view().name_rank
        return rows[np.lexsort((rank[rows], keys[rows]))[:k]]


#: LRU of recently packed candidate populations, so repeated queries
#: against the same mapping (a service ranking every client against one
#: candidate set, Table I sweeping thresholds over one node set) pack
#: once.  Keys pair the mapping's names with the identities of its map
#: objects; each cached population holds strong references to those
#: objects, so an identity match can never be stale.
_PACK_CACHE: "OrderedDict[Tuple[Tuple[str, ...], Tuple[int, ...]], PackedPopulation]" = (
    OrderedDict()
)

#: Shared vocabulary for cached populations: replica identifiers are
#: global, so interning once serves every population.
_SHARED_VOCAB = ReplicaVocabulary()


def packed_for(candidate_maps: Mapping[str, Optional[RatioMap]]) -> PackedPopulation:
    """The packed population for a mapping of candidate maps, cached.

    ``None`` values (unbootstrapped nodes) are skipped, mirroring the
    scalar ranking path.  Because :class:`RatioMap` is immutable, the
    (names, map identities) pair fully determines the packing.
    """
    key = (tuple(candidate_maps.keys()), tuple(map(id, candidate_maps.values())))
    population = _PACK_CACHE.get(key)
    if population is not None:
        _PACK_CACHE.move_to_end(key)
        return population
    population = PackedPopulation(candidate_maps, vocab=_SHARED_VOCAB)
    _PACK_CACHE[key] = population
    while len(_PACK_CACHE) > _PACK_CACHE_SIZE:
        _PACK_CACHE.popitem(last=False)
    return population


def clear_pack_cache() -> None:
    """Drop all cached packed populations (mainly for tests)."""
    _PACK_CACHE.clear()

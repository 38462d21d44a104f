"""Content-addressed snapshot/artifact store for the executor.

A :class:`SnapshotStore` maps stable string keys to pickled values.
Values go in as pickle bytes and come out as fresh unpickled copies,
so no consumer can mutate what a later consumer restores — the store
is a cache of *states*, not of live objects.  Two families of entries
share it:

* **probing windows** — :class:`WindowSnapshot` payloads keyed by
  :func:`window_key` (params fingerprint + probing schedule), written
  by the drivers in :mod:`repro.workloads.scenario`;
* **derived artifacts** — expensive post-probing results (a
  :class:`~repro.experiments.harness.ClosestNodeOutcome`, a
  :class:`~repro.experiments.clustering.ClusteringStudy`) keyed by the
  same fingerprint scheme, via :meth:`SnapshotStore.get_or_compute`.

A window's schedule is one of two strings, built and parsed only here:
:func:`rounds_schedule` (``r{rounds}:i{interval:g}``, the dense round
loop) or :func:`events_schedule` (``{workload.key}:u{until:g}``, the
event loop).  Round-schedule windows are additionally
**prefix-extensible**: a window at ``(params, rounds=R, interval=I)``
can be satisfied by restoring any cached ``(params, rounds=r<R,
interval=I)`` snapshot and probing only the remaining ``R−r`` rounds
(the round loop is stateless across iterations, so the split is
behaviourally identical to a straight run).
:meth:`SnapshotStore.best_prefix` serves the longest such prefix;
:func:`~repro.workloads.scenario.driven_checkpoints` consumes it.

Hit/miss counters feed the sweep manifest, alongside prefix
accounting: ``prefix_hits`` (windows satisfied by a shorter cached
prefix), ``rounds_saved`` (rounds restored instead of simulated),
``rounds_extended`` (rounds probed on top of a prefix), and
``full_runs`` (scenarios built from scratch).  An optional directory
makes entries survive the process (one file per key, written
atomically), which lets repeat runs skip re-simulation entirely;
round-schedule entries also get a sidecar ``.key`` file so a fresh
process can discover usable prefixes.  A payload that cannot be
unpickled raises :class:`SnapshotCorruptError` and counts on
``snapshot.corrupt``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, TypeVar, Union

from repro.obs import get_observability
from repro.obs.manifest import fingerprint_params

T = TypeVar("T")

#: Window payloads are full scenario pickles — by far the largest
#: entries — so disk-backed stores write them through instead of also
#: retaining them in memory (see :meth:`SnapshotStore.put`).  Never
#: reuse ``probe-window:`` / ``event-window:`` here: cache directories
#: may still hold payloads of classes that no longer exist under those
#: prefixes, and a different prefix makes them cold misses rather than
#: corrupt hits.
_WINDOW_PREFIX = "window:"


class SnapshotCorruptError(Exception):
    """A stored payload that cannot be unpickled (truncated file, class
    from another code version); ``key`` names it."""

    def __init__(self, key: str) -> None:
        super().__init__(f"snapshot payload under {key!r} cannot be unpickled")
        self.key = key


def _unpickle(key: str, payload: bytes) -> object:
    try:
        return pickle.loads(payload)
    except Exception as exc:
        # Damaged or foreign bytes fail in whatever opcode they reach:
        # pickle documents UnpicklingError, EOFError, AttributeError,
        # ImportError and IndexError "but not necessarily limited to".
        get_observability().metrics.counter("snapshot.corrupt").inc()
        raise SnapshotCorruptError(key) from exc


def rounds_schedule(rounds: int, interval_minutes: float) -> str:
    """The schedule of ``rounds`` dense probe rounds at one interval."""
    return f"r{rounds}:i{interval_minutes:g}"


def events_schedule(workload_key: str, until_s: float) -> str:
    """The schedule of one event-driven window: workloads self-describe
    via their ``key`` (generator family, population, rate, seed), so two
    windows share a schedule exactly when they replay one event stream."""
    return f"{workload_key}:u{until_s:g}"


def window_key(params_fingerprint: str, schedule: str) -> str:
    """The content address of one driven probing window: any change to
    the parameters or the schedule is a different window and must
    re-simulate."""
    return f"{_WINDOW_PREFIX}{params_fingerprint}:{schedule}"


_ROUNDS_KEY = re.compile(rf"{_WINDOW_PREFIX}(.+):r(\d+):i([^:]+)")


def _parse_rounds_key(key: str) -> Optional[Tuple[str, str, int]]:
    """``(params_fp, interval_label, rounds)`` for a round-schedule
    window key; None for every other key."""
    match = _ROUNDS_KEY.fullmatch(key)
    if match is None:
        return None
    return match[1], match[3], int(match[2])


@dataclass(frozen=True)
class WindowSnapshot:
    """A driven scenario, frozen after its probing window.

    The payload is the full pickled
    :class:`~repro.workloads.scenario.Scenario` — redirection logs,
    tracker versions, resolver caches, clock, and every derived RNG
    stream mid-sequence — so a restored scenario is behaviourally
    indistinguishable from the one that was driven: identical rankings,
    identical subsequent measurements, identical Meridian answers.
    ``stats`` carries the event-loop stats of an event window (a
    restore skips the simulation, so they cannot be recomputed); round
    windows leave it empty.
    """

    params_fingerprint: str
    schedule: str
    sim_now: float
    probes_issued: int
    stats: Dict[str, object] = field(default_factory=dict)
    payload: bytes = field(repr=False, default=b"")

    @classmethod
    def capture(
        cls, scenario, schedule: str, stats: Optional[Dict[str, object]] = None
    ) -> "WindowSnapshot":
        return cls(
            params_fingerprint=fingerprint_params(scenario.params),
            schedule=schedule,
            sim_now=scenario.clock.now,
            probes_issued=scenario.crp.probes_issued,
            stats=dict(stats or {}),
            payload=pickle.dumps(scenario, protocol=pickle.HIGHEST_PROTOCOL),
        )

    @property
    def key(self) -> str:
        """The key this snapshot belongs under (drivers compare it with
        the key they looked up, guarding against collisions)."""
        return window_key(self.params_fingerprint, self.schedule)

    def restore(self):
        """A fresh, independent scenario at the snapshotted state."""
        return _unpickle(self.key, self.payload)


class SnapshotStore:
    """Keyed pickle store with hit/miss accounting (see module doc)."""

    def __init__(self, directory: Optional[Union[str, Path]] = None) -> None:
        self._entries: Dict[str, bytes] = {}
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        #: Prefix-extension accounting (see module doc); the window
        #: drivers in :mod:`repro.workloads.scenario` increment the
        #: round counters and ``full_runs``, the store itself counts
        #: ``prefix_hits``.
        self.prefix_hits = 0
        self.rounds_saved = 0
        self.rounds_extended = 0
        self.full_runs = 0
        #: ``(params_fp, interval_label) -> {rounds: key}`` over every
        #: round-schedule window this store knows about.
        self._probe_index: Dict[Tuple[str, str], Dict[int, str]] = {}
        self._disk_index_loaded = False

    @staticmethod
    def key_for(*parts: object) -> str:
        """A stable content key from reprs of the parts."""
        joined = "|".join(repr(part) for part in parts)
        return hashlib.blake2b(joined.encode("utf-8"), digest_size=16).hexdigest()

    def _path_for(self, key: str) -> Path:
        assert self.directory is not None
        safe = hashlib.blake2b(key.encode("utf-8"), digest_size=16).hexdigest()
        return self.directory / f"{safe}.pkl"

    def _retains(self, key: str) -> bool:
        """Whether this key's payload is kept in memory after disk I/O.

        Disk-backed window payloads (full scenario pickles, tens of MB
        at paper scale) are write-through: the directory is
        authoritative and re-reads are rare, so holding every
        checkpoint of every interval in ``_entries`` would only grow
        the resident set linearly in checkpoints.
        """
        return self.directory is None or not key.startswith(_WINDOW_PREFIX)

    def _payload(self, key: str) -> Optional[bytes]:
        """The raw payload from memory or disk, with no hit/miss count."""
        payload = self._entries.get(key)
        if payload is None and self.directory is not None:
            path = self._path_for(key)
            if path.exists():
                payload = path.read_bytes()
                if self._retains(key):
                    self._entries[key] = payload
        return payload

    def get(self, key: str) -> Optional[object]:
        """A fresh copy of the stored value, or None (counted)."""
        payload = self._payload(key)
        if payload is None:
            self.misses += 1
            return None
        value = _unpickle(key, payload)
        self.hits += 1
        return value

    def put(self, key: str, value: object) -> None:
        """Store a value (pickled immediately; later mutation is moot)."""
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        if self._retains(key):
            self._entries[key] = payload
        self.puts += 1
        if self.directory is not None:
            path = self._path_for(key)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_bytes(payload)
            tmp.replace(path)
            if _parse_rounds_key(key) is not None:
                sidecar = path.with_suffix(".key")
                tmp = sidecar.with_suffix(f".tmp.{os.getpid()}")
                tmp.write_text(key, encoding="utf-8")
                tmp.replace(sidecar)
        self._index_probe_key(key)

    def _index_probe_key(self, key: str) -> None:
        parsed = _parse_rounds_key(key)
        if parsed is None:
            return
        params_fp, interval_label, rounds = parsed
        self._probe_index.setdefault((params_fp, interval_label), {})[rounds] = key

    def _load_disk_index(self) -> None:
        """Index round-schedule keys left on disk by earlier processes.

        Scanned once, lazily: stores are per-shard and short-lived, so
        entries written by *concurrent* processes after the scan are
        simply not offered as prefixes (duplicate simulation at worst,
        never corruption).
        """
        if self.directory is None or self._disk_index_loaded:
            return
        self._disk_index_loaded = True
        for sidecar in self.directory.glob("*.key"):
            try:
                key = sidecar.read_text(encoding="utf-8").strip()
            except OSError:
                continue
            if key in self._entries or self._path_for(key).exists():
                self._index_probe_key(key)

    def best_prefix(
        self, params_fp: str, interval_minutes: float, max_rounds: int
    ) -> Optional[Tuple[int, object]]:
        """The longest cached probing prefix usable for a larger window.

        Returns ``(rounds, snapshot)`` for the round-schedule window with
        the most rounds ``<= max_rounds`` under exactly this params
        fingerprint and interval, or None.  Counted on ``prefix_hits``
        (not ``hits``/``misses`` — those stay exact-lookup counters).
        """
        self._load_disk_index()
        bucket = self._probe_index.get((params_fp, f"{interval_minutes:g}"))
        if not bucket:
            return None
        for rounds in sorted(bucket, reverse=True):
            if rounds > max_rounds:
                continue
            payload = self._payload(bucket[rounds])
            if payload is None:
                continue
            snapshot = _unpickle(bucket[rounds], payload)
            self.prefix_hits += 1
            return rounds, snapshot
        return None

    def get_or_compute(self, key: str, compute: Callable[[], T]) -> T:
        """The stored value, or ``compute()`` stored and returned.

        On a miss the computed object itself is returned (not a pickle
        round-trip): the store already holds an immutable copy, and the
        fresh object is bit-equal to what a later ``get`` restores.
        """
        cached = self.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        value = compute()
        self.put(key, value)
        return value

    def __contains__(self, key: str) -> bool:
        if key in self._entries:
            return True
        return self.directory is not None and self._path_for(key).exists()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters (the manifest rollup).

        ``entries``/``bytes`` cover the in-memory side only; with a
        directory, window payloads live on disk (write-through).
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "prefix_hits": self.prefix_hits,
            "rounds_saved": self.rounds_saved,
            "rounds_extended": self.rounds_extended,
            "full_runs": self.full_runs,
            "entries": len(self._entries),
            "bytes": sum(len(p) for p in self._entries.values()),
        }

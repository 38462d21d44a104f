"""Span recorder: wall-time spans around other modules' entry points.

The benchmark may not edit the program, so spans are recorded from
here: :meth:`Recorder.wrap` rebinds a class or module attribute to a
wrapper that records ``(name, start, end, parent)`` and calls the
original.  Spans stay in memory, in four parallel arrays, until
:meth:`Recorder.dump`.

A span's name is ``"<layer>:<operation>"``; the layer is the program
module the entry point belongs to.  A layer's *self time* is the
duration of its spans minus the part of each that its child spans
cover (:func:`self_times`).

Parents come from a stack, which is exact for synchronous code on one
thread (the asyncio server runs every synchronous call to completion
before switching tasks).  A coroutine cannot sit on the stack while
other tasks run, so :meth:`Recorder.wrap_async` records a span without
pushing it; spans that run on another task on its behalf name it as
their parent through ``adopt`` (see ``serve_child.py``).
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Parent index of a root span.
ROOT = -1


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack: List[int] = []
        #: Calls that undo each rebinding, for :meth:`uninstall`.
        self._undo: List[Callable[[], None]] = []

    def __len__(self) -> int:
        return len(self.starts)

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    # -- recording ----------------------------------------------------------

    def open(self, name_id: int, parent: int) -> int:
        """Start a span; returns its index (close it with :meth:`close`)."""
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(parent)
        self.ends.append(0.0)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()

    def traced(
        self,
        original: Callable,
        name: str,
        adopt: Optional[Callable[..., int]] = None,
    ) -> Callable:
        """``original`` wrapped in a stack-parented span.

        ``adopt(*args, **kwargs)`` supplies the parent when the stack
        is empty (a span run on behalf of a coroutine's span).
        """
        name_id = self.name_id(name)
        # The hot path (millions of calls in a cold pipeline run):
        # everything is a local, and open/close are written out.
        stack = self.stack
        name_ids, parents = self.name_ids, self.parents
        starts, ends = self.starts, self.ends

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if stack:
                parent = stack[-1]
            elif adopt is not None:
                parent = adopt(*args, **kwargs)
            else:
                parent = ROOT
            index = len(starts)
            name_ids.append(name_id)
            parents.append(parent)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return wrapper

    def traced_async(
        self,
        original: Callable,
        name_of: Callable[..., str],
        on_open: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """A coroutine function wrapped in a root span that is *not*
        pushed on the stack (other tasks run while it awaits).

        ``name_of(*args, **kwargs)`` picks the span name per call;
        ``on_open(index, *args, **kwargs)`` lets the installer remember
        the span so that work done for it elsewhere can adopt it.
        """

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            index = self.open(self.name_id(name_of(*args, **kwargs)), ROOT)
            if on_open is not None:
                on_open(index, *args, **kwargs)
            try:
                return await original(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def traced_generator(self, original: Callable, name: str) -> Callable:
        """A generator function wrapped so that every resumption is a
        span (the consumer's work between items is not the
        generator's)."""
        name_id = self.name_id(name)
        stack = self.stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                index = self.open(name_id, stack[-1] if stack else ROOT)
                stack.append(index)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.close(index)
                    stack.pop()
                yield item

        return wrapper

    # -- installing ---------------------------------------------------------

    def _install(self, owner: object, attr: str, wrapper: object) -> None:
        """Rebind ``owner.attr``; a module-level function is also
        rebound in every loaded ``repro`` module that imported it by
        name."""
        original = owner.__dict__[attr]
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            for module_name, module in list(sys.modules.items()):
                if module is None or module is owner:
                    continue
                if not module_name.startswith("repro"):
                    continue
                targets.extend(
                    (module, alias)
                    for alias, value in list(vars(module).items())
                    if value is original
                )
        for target, alias in targets:
            self._undo.append(functools.partial(setattr, target, alias, original))
            setattr(target, alias, wrapper)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        adopt: Optional[Callable[..., int]] = None,
    ) -> None:
        """Trace ``owner.attr``: a method on a class, or a function on
        a module."""
        self._install(owner, attr, self.traced(owner.__dict__[attr], name, adopt))

    def wrap_generator(self, owner: object, attr: str, name: str) -> None:
        self._install(
            owner, attr, self.traced_generator(owner.__dict__[attr], name)
        )

    def wrap_async(
        self,
        owner: type,
        attr: str,
        name_of: Callable[..., str],
        on_open: Optional[Callable[..., None]] = None,
    ) -> None:
        self._install(
            owner, attr, self.traced_async(owner.__dict__[attr], name_of, on_open)
        )

    def wrap_item(self, registry: dict, key: str, name: str) -> None:
        """Trace a callable held in a registry dict."""
        original = registry[key]
        self._undo.append(functools.partial(registry.__setitem__, key, original))
        registry[key] = self.traced(original, name)

    def uninstall(self) -> None:
        """Put everything rebound back (last rebound first)."""
        while self._undo:
            self._undo.pop()()

    # -- reading ------------------------------------------------------------

    def arrays(self) -> "SpanArrays":
        return SpanArrays(
            names=list(self.names),
            name_ids=np.array(self.name_ids, dtype=np.intc),
            starts=np.array(self.starts, dtype=np.float64),
            ends=np.array(self.ends, dtype=np.float64),
            parents=np.array(self.parents, dtype=np.intc),
        )

    def dump(self, path, limit: int, summary: Dict[str, Dict[str, float]]) -> int:
        """Write the spans as JSON, in columns (not an object per span).

        At most ``limit`` spans are written, the earliest ones;
        ``summary`` (from :func:`summarize`) covers all of them.
        Returns the number written.
        """
        kept = min(len(self), limit)
        origin = self.starts[0] if kept else 0.0
        document = {
            "columns": ["name", "start_s", "end_s", "parent"],
            "names": self.names,
            "spans_recorded": len(self),
            "spans_written": kept,
            "summary": summary,
            "name": self.name_ids[:kept].tolist(),
            "start_s": [round(t - origin, 7) for t in self.starts[:kept]],
            "end_s": [round(t - origin, 7) for t in self.ends[:kept]],
            "parent": self.parents[:kept].tolist(),
        }
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))
            handle.write("\n")
        return kept


class SpanArrays:
    """Recorded spans as numpy columns."""

    def __init__(self, names, name_ids, starts, ends, parents) -> None:
        self.names: List[str] = names
        self.name_ids: np.ndarray = name_ids
        self.starts: np.ndarray = starts
        self.ends: np.ndarray = ends
        self.parents: np.ndarray = parents

    def __len__(self) -> int:
        return len(self.starts)

    def window(self, start: int, stop: int) -> "SpanArrays":
        """Spans ``start <= index < stop`` on their own; a parent
        outside the window makes its child a root."""
        parents = self.parents[start:stop] - start
        parents[parents < 0] = ROOT
        return SpanArrays(
            self.names, self.name_ids[start:stop],
            self.starts[start:stop], self.ends[start:stop], parents,
        )

    @classmethod
    def from_rows(
        cls, rows: Sequence[Tuple[str, float, float, int]]
    ) -> "SpanArrays":
        """Build from ``(name, start, end, parent)`` rows (tests)."""
        names: List[str] = []
        ids = []
        for name, _, _, _ in rows:
            if name not in names:
                names.append(name)
            ids.append(names.index(name))
        return cls(
            names,
            np.array(ids, dtype=np.intc),
            np.array([r[1] for r in rows], dtype=np.float64),
            np.array([r[2] for r in rows], dtype=np.float64),
            np.array([r[3] for r in rows], dtype=np.intc),
        )


def covered_by_children(spans: SpanArrays) -> np.ndarray:
    """Per span, the length of its interval that child spans cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once (their union).  Synchronous children
    never overlap, so the common case is one vectorised sum; parents
    whose children do overlap are merged one by one.
    """
    count = len(spans)
    covered = np.zeros(count, dtype=np.float64)
    has_parent = np.nonzero(spans.parents >= 0)[0]
    if not len(has_parent):
        return covered
    parent = spans.parents[has_parent]
    start = np.maximum(spans.starts[has_parent], spans.starts[parent])
    end = np.minimum(spans.ends[has_parent], spans.ends[parent])
    end = np.maximum(end, start)
    order = np.lexsort((start, parent))
    parent, start, end = parent[order], start[order], end[order]
    np.add.at(covered, parent, end - start)
    same = parent[1:] == parent[:-1]
    overlapping = np.unique(parent[1:][same & (start[1:] < end[:-1])])
    for index in overlapping:
        rows = np.nonzero(parent == index)[0]
        total, reach = 0.0, -np.inf
        for low, high in zip(start[rows], end[rows]):
            if high > reach:
                total += high - max(low, reach)
                reach = high
        covered[index] = total
    return covered


def self_times(spans: SpanArrays) -> np.ndarray:
    """Per span: duration minus the part its children cover."""
    return (spans.ends - spans.starts) - covered_by_children(spans)


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


def summarize(spans: SpanArrays) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self seconds."""
    own = self_times(spans)
    duration = spans.ends - spans.starts
    size = len(spans.names)
    calls = np.bincount(spans.name_ids, minlength=size)
    total = np.bincount(spans.name_ids, weights=duration, minlength=size)
    self_s = np.bincount(spans.name_ids, weights=own, minlength=size)
    return {
        name: {
            "calls": int(calls[i]),
            "total_s": float(total[i]),
            "self_s": float(self_s[i]),
        }
        for i, name in enumerate(spans.names)
        if calls[i]
    }


def layer_self_seconds(summary: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Self seconds per layer, from a :func:`summarize` table."""
    layers: Dict[str, float] = {}
    for name, row in summary.items():
        layer = layer_of(name)
        layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    return layers

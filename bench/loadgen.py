"""The load generator: closed and open request loops over a transport.

One thread drives every connection through a selector, so the
generator takes at most one core and leaves the other to the server.

* :func:`closed_loop` — each connection sends its next request when
  the previous reply arrives.  A slow server therefore receives less
  load; the result is a completion time for a fixed script.
* :func:`open_loop` — each request has a due instant fixed in advance
  and is sent then, whether or not earlier replies have come back
  (replies on a connection are in request order, so they are matched
  by position).  Latency is timed **from the due instant**, not from
  the send, so the wait a stall imposes on later requests is counted;
  how late the generator itself ran is reported next to it.

The loops know nothing about sockets: they talk to a transport with
``send(conn, payload)`` and ``poll(timeout)``, which is what lets the
self-tests inject a clock and a stall.
"""

from __future__ import annotations

import functools
import gc
import selectors
import socket
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

#: A reply line, or None when the connection closed.
Reply = Tuple[int, Optional[bytes]]

#: The open loop never sleeps while requests are still to be sent: it
#: polls.  A generator asleep in ``select`` wakes hundreds of
#: microseconds after a reply arrives on this host, which would be
#: timed as the server's latency.  It costs one core; the server has
#: the other.

#: An open-loop send later than this counts toward ``late_share``.
LATE_S = 1e-3

#: A loop that sees no reply for this long gives up; what is still
#: outstanding counts as dropped.
STALL_LIMIT_S = 10.0


class SocketTransport:
    """Blocking TCP connections read through one selector."""

    def __init__(self, host: str, port: int, connections: int) -> None:
        self._selector = selectors.DefaultSelector()
        self._sockets: List[socket.socket] = []
        self._buffers: List[bytes] = []
        try:
            for index in range(connections):
                sock = socket.create_connection((host, port), timeout=STALL_LIMIT_S)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._sockets.append(sock)
                self._buffers.append(b"")
                self._selector.register(sock, selectors.EVENT_READ, index)
        except OSError:
            self.close()
            raise

    def send(self, conn: int, payload: bytes) -> None:
        self._sockets[conn].sendall(payload)

    def poll(self, timeout: Optional[float]) -> List[Reply]:
        replies: List[Reply] = []
        for key, _ in self._selector.select(timeout):
            conn = key.data
            try:
                data = key.fileobj.recv(1 << 16)
            except OSError:
                data = b""
            if not data:
                self._selector.unregister(key.fileobj)
                replies.append((conn, None))
                continue
            *lines, self._buffers[conn] = (self._buffers[conn] + data).split(b"\n")
            replies.extend((conn, line) for line in lines)
        return replies

    def request(self, conn: int, line: bytes) -> Optional[bytes]:
        """One request, one reply, on an otherwise idle connection."""
        self.send(conn, line)
        waited = 0.0
        while waited < STALL_LIMIT_S:
            for got_conn, reply in self.poll(1.0):
                if got_conn == conn:
                    return reply
            waited += 1.0
        return None

    def close(self) -> None:
        for sock in self._sockets:
            try:
                self._selector.unregister(sock)
            except (KeyError, ValueError):
                pass
            sock.close()
        self._sockets = []
        self._selector.close()


@dataclass
class LoopResult:
    """What one loop measured.  Lists are per connection."""

    wall_s: float
    replies: List[List[bytes]]
    #: Seconds per reply: from the send (closed) or the due instant
    #: (open loop).
    latencies: List[List[float]]
    #: Requests that never got a reply (connection closed or stalled).
    dropped: int = 0
    #: Open loop only: seconds each send ran behind its due instant.
    lateness: List[float] = field(default_factory=list)
    #: Open loop only: requests outstanding when the last one was sent.
    backlog_end: int = 0

    @property
    def late_share(self) -> float:
        if not self.lateness:
            return 0.0
        return sum(1 for late in self.lateness if late > LATE_S) / len(self.lateness)


def _collector_off(loop: Callable) -> Callable:
    """Run a loop with the generator's own garbage collector off: a
    collection here would be timed as the server's latency."""

    @functools.wraps(loop)
    def wrapper(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return loop(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return wrapper


@_collector_off
def closed_loop(
    transport,
    scripts: Sequence[Sequence[bytes]],
    clock: Callable[[], float] = perf_counter,
) -> LoopResult:
    """Run each connection's script with one request in flight."""
    count = len(scripts)
    replies: List[List[bytes]] = [[] for _ in range(count)]
    latencies: List[List[float]] = [[] for _ in range(count)]
    sent_at = [0.0] * count
    live = set()
    started = clock()
    for conn, script in enumerate(scripts):
        if script:
            transport.send(conn, script[0])
            sent_at[conn] = clock()
            live.add(conn)
    progress = started
    while live:
        got = transport.poll(1.0)
        now = clock()
        if not got:
            if now - progress > STALL_LIMIT_S:
                break
            continue
        progress = now
        for conn, line in got:
            if line is None:
                live.discard(conn)
                continue
            latencies[conn].append(now - sent_at[conn])
            replies[conn].append(line)
            upcoming = len(replies[conn])
            if upcoming < len(scripts[conn]):
                transport.send(conn, scripts[conn][upcoming])
                sent_at[conn] = clock()
            else:
                live.discard(conn)
    wall = clock() - started
    dropped = sum(len(s) - len(r) for s, r in zip(scripts, replies))
    return LoopResult(wall, replies, latencies, dropped=dropped)


@_collector_off
def open_loop(
    transport,
    scripts: Sequence[Sequence[bytes]],
    dues: Sequence[Sequence[float]],
    clock: Callable[[], float] = perf_counter,
) -> LoopResult:
    """Send ``scripts[conn][i]`` at ``dues[conn][i]`` seconds after the
    start, regardless of replies; time each reply from its due instant.
    """
    count = len(scripts)
    replies: List[List[bytes]] = [[] for _ in range(count)]
    latencies: List[List[float]] = [[] for _ in range(count)]
    lateness: List[float] = []
    sent = [0] * count
    live = {conn for conn in range(count) if scripts[conn]}
    backlog_end: Optional[int] = None
    origin = clock()
    progress = 0.0
    while live:
        now = clock() - origin
        for conn in live:
            due = dues[conn]
            upto = first = sent[conn]
            while upto < len(due) and due[upto] <= now:
                upto += 1
            if upto > first:
                transport.send(conn, b"".join(scripts[conn][first:upto]))
                lateness.extend(now - due[i] for i in range(first, upto))
                sent[conn] = upto
        unsent = any(sent[c] < len(dues[c]) for c in live)
        if unsent:
            timeout = 0.0
        else:
            if backlog_end is None:
                backlog_end = sum(sent[c] - len(replies[c]) for c in live)
            timeout = 1.0
        got = transport.poll(timeout)
        now = clock() - origin
        if got:
            progress = now
        elif now - progress > STALL_LIMIT_S and not unsent:
            break
        for conn, line in got:
            if line is None:
                live.discard(conn)
                continue
            latencies[conn].append(now - dues[conn][len(replies[conn])])
            replies[conn].append(line)
            if len(replies[conn]) == len(scripts[conn]):
                live.discard(conn)
    wall = clock() - origin
    dropped = sum(len(s) - len(r) for s, r in zip(scripts, replies))
    return LoopResult(
        wall, replies, latencies,
        dropped=dropped, lateness=lateness, backlog_end=backlog_end or 0,
    )

"""The service wire protocol: DNS-query-shaped, line-oriented text.

One request per line, one response line per request — the shape of the
reference DNS/HTTP servers this layer is modelled on, kept textual so
a load generator, a TCP client and the differential harness all speak
the same bytes.

Data plane (routed to the owning shard)::

    POSITION <client> [k]         -> POS <client> state=.. stale=.. conf=.. age=.. ranked=name:score,...
    OBSERVE <client> <name> <a,b> -> OK

Admin channel (handled by the front end, across shards)::

    PING                          -> PONG
    STATS                         -> STATS key=value ...
    EVICT <client>                -> OK evicted=0|1
    INVALIDATE <before_s>         -> OK dropped=<n>
    SHUTDOWN                      -> OK draining

Responses to malformed input are ``ERR <code> <detail>``.  Formatting
is canonical — floats render with ``repr`` (shortest round-trip) — so
two services answering identically produce byte-identical lines; the
sharded-vs-unsharded differential and the bench fingerprint hash these
lines directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: Data-plane verbs (routed by client key to one shard; an OBSERVE of a
#: candidate broadcasts instead — the front end decides by membership).
DATA_VERBS = frozenset({"POSITION", "OBSERVE"})

#: Admin verbs (executed by the front end over all shards).
ADMIN_VERBS = frozenset({"PING", "STATS", "EVICT", "INVALIDATE", "SHUTDOWN"})


class ProtocolError(ValueError):
    """A request line that does not parse; carries the ERR code."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


@dataclass(frozen=True)
class Request:
    """One parsed request line.

    ``verb`` is always one of :data:`DATA_VERBS` | :data:`ADMIN_VERBS`;
    the remaining fields are verb-dependent (None when absent).
    """

    verb: str
    client: Optional[str] = None
    name: Optional[str] = None
    addresses: Tuple[str, ...] = ()
    k: Optional[int] = None
    before: Optional[float] = None

    @property
    def is_admin(self) -> bool:
        return self.verb in ADMIN_VERBS


def parse_request(line: str) -> Request:
    """Parse one request line (raises :class:`ProtocolError`)."""
    parts = line.strip().split()
    if not parts:
        raise ProtocolError("empty", "empty request line")
    verb = parts[0].upper()
    args = parts[1:]
    if verb == "POSITION":
        if not 1 <= len(args) <= 2:
            raise ProtocolError("args", "POSITION <client> [k]")
        k = None
        if len(args) == 2:
            try:
                k = int(args[1])
            except ValueError:
                raise ProtocolError("args", f"k must be an integer, got {args[1]!r}")
            if k < 1:
                raise ProtocolError("args", "k must be at least 1")
        return Request(verb="POSITION", client=args[0], k=k)
    if verb == "OBSERVE":
        if len(args) != 3:
            raise ProtocolError("args", "OBSERVE <client> <name> <addr,addr,...>")
        addresses = tuple(a for a in args[2].split(",") if a)
        if not addresses:
            raise ProtocolError("args", "an observation needs at least one address")
        return Request(verb="OBSERVE", client=args[0], name=args[1], addresses=addresses)
    if verb in ("PING", "STATS", "SHUTDOWN"):
        if args:
            raise ProtocolError("args", f"{verb} takes no arguments")
        return Request(verb=verb)
    if verb == "EVICT":
        if len(args) != 1:
            raise ProtocolError("args", "EVICT <client>")
        return Request(verb="EVICT", client=args[0])
    if verb == "INVALIDATE":
        if len(args) != 1:
            raise ProtocolError("args", "INVALIDATE <before_s>")
        try:
            before = float(args[0])
        except ValueError:
            raise ProtocolError("args", f"before must be a number, got {args[0]!r}")
        return Request(verb="INVALIDATE", before=before)
    raise ProtocolError("verb", f"unknown verb {parts[0]!r}")


def _fmt_float(value: float) -> str:
    """Canonical float rendering (shortest round-trip repr)."""
    return repr(float(value))


def format_answer(answer, k: Optional[int] = None) -> str:
    """A :class:`~repro.core.service.PositioningAnswer` as one line.

    The serving path passes no ``k``: a shard's answer already carries
    exactly the rows the request is owed
    (:meth:`~repro.serve.shard.ServeParams.rows_for`).  ``k`` renders a
    prefix of a longer answer — a batch ``position()`` without ``k``
    holds the full ranking — and cannot change scores or order.
    """
    ranked = answer.ranked if k is None else answer.top(k)
    body = ",".join(f"{c.name}:{_fmt_float(c.score)}" for c in ranked)
    age = "-" if answer.map_age_s is None else _fmt_float(answer.map_age_s)
    return (
        f"POS {answer.client} state={answer.client_state.value} "
        f"stale={int(answer.stale)} conf={_fmt_float(answer.confidence)} "
        f"age={age} ranked={body}"
    )


def format_error(error: ProtocolError) -> str:
    return f"ERR {error.code} {error.detail}"

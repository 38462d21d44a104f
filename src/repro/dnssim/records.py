"""DNS wire-level data: names, records, questions, responses."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Tuple


class RecordType(str, Enum):
    """The record types the simulation needs."""

    A = "A"
    CNAME = "CNAME"
    NS = "NS"


class Rcode(str, Enum):
    """Response codes."""

    NOERROR = "NOERROR"
    NXDOMAIN = "NXDOMAIN"
    SERVFAIL = "SERVFAIL"
    REFUSED = "REFUSED"


@lru_cache(maxsize=4096)
def normalize_name(name: str) -> str:
    """Canonical form of a DNS name: lowercase, no trailing dot.

    Raises ``ValueError`` for empty names or empty labels.  Memoised
    with a fixed bound: one resolve canonicalises the same few names
    about nine times over (question, zone walk, per zone, per record),
    and a raise is never cached, so bad names fail at every call site.
    """
    cleaned = name.strip().lower().rstrip(".")
    if not cleaned:
        raise ValueError(f"empty DNS name: {name!r}")
    labels = cleaned.split(".")
    if any(not label for label in labels):
        raise ValueError(f"DNS name has an empty label: {name!r}")
    return cleaned


def name_under_zone(name: str, zone: str) -> bool:
    """True when ``name`` equals ``zone`` or is inside it.

    Matching respects label boundaries: ``foo.example.com`` is under
    ``example.com`` but ``badexample.com`` is not.
    """
    name = normalize_name(name)
    zone = normalize_name(zone)
    return name == zone or name.endswith("." + zone)


@dataclass(frozen=True)
class ResourceRecord:
    """One DNS resource record."""

    name: str
    rtype: RecordType
    value: str
    ttl: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", normalize_name(self.name))
        if self.ttl < 0:
            raise ValueError(f"negative TTL on {self.name}: {self.ttl}")
        if not self.value:
            raise ValueError(f"record {self.name} has an empty value")

    def with_ttl(self, ttl: float) -> "ResourceRecord":
        """A copy of this record with a different TTL (cache aging)."""
        return ResourceRecord(self.name, self.rtype, self.value, ttl)


@dataclass(frozen=True)
class Question:
    """What a resolver or client is asking."""

    name: str
    rtype: RecordType = RecordType.A

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", normalize_name(self.name))


@dataclass(frozen=True)
class DnsResponse:
    """An answer from one server.

    ``cost_ms`` is the simulated time the exchange took on the asking
    side (one RTT to the answering server, under current network
    conditions); resolvers accumulate it into resolution results so
    techniques like King can time lookups the way they would on a real
    network.
    """

    question: Question
    records: Tuple[ResourceRecord, ...]
    rcode: Rcode = Rcode.NOERROR
    authoritative: bool = False
    server_name: str = ""
    cost_ms: float = 0.0

    @property
    def is_error(self) -> bool:
        """True for any non-NOERROR response."""
        return self.rcode is not Rcode.NOERROR

    def answers_of(self, rtype: RecordType) -> Tuple[ResourceRecord, ...]:
        """Answer records of one type."""
        return tuple(r for r in self.records if r.rtype is rtype)

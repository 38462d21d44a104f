"""``serve_read_narrow``: POSITION over TCP against 32 candidates.

Socket line to answer with a tiny ranking: parsing and formatting the
protocol, the asyncio queue hop, the TCP transport and the bookkeeping
in ``CRPService.position`` dominate; the ranking itself is a small
share.  This is where a process-per-shard backend or a cheaper
protocol path must show, and where a ranking-kernel change must show
nothing.  Clients are drawn Zipf(1.1) over 10 000, so the head of the
population is served from cached ratio maps and memoised rankings and
the tail is not.
"""

from common import Context, Outcome
from workloads.serve import ServeWorkload, run as run_serve

WORKLOAD = ServeWorkload(
    name="serve_read_narrow",
    candidates=32,
    mixed=False,
    sizing_rate=8000.0,
    rates=(2500.0, 4500.0, 6500.0),
    reference_rate=4500.0,
    p99_limit_us=1000.0,
)
NAME = WORKLOAD.name


def run(ctx: Context) -> Outcome:
    return run_serve(ctx, WORKLOAD)

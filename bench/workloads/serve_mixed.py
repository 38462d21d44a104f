"""``serve_mixed``: writes beside reads, against 32 candidates.

``serve_read_narrow``'s server, but every client arrival sends
``OBSERVE`` then ``POSITION`` (1:1 per client stream), and between
phases every candidate is observed once more and broadcast to both
shards.  Tracker appends, window eviction (``max_observations``),
ratio-map cache invalidation and the re-flush of the candidate
population are on the path.  A ratio-map or answer cache that wins
the read workloads by going stale, or by taxing writes, loses here:
stale answers fail the replay check, and slower writes show in the
walls.
"""

from common import Context, Outcome
from workloads.serve import ServeWorkload, run as run_serve

WORKLOAD = ServeWorkload(
    name="serve_mixed",
    candidates=32,
    mixed=True,
    sizing_rate=8000.0,
    rates=(2500.0, 4500.0, 6500.0),
    reference_rate=4500.0,
    p99_limit_us=1000.0,
)
NAME = WORKLOAD.name


def run(ctx: Context) -> Outcome:
    return run_serve(ctx, WORKLOAD)

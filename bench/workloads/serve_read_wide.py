"""``serve_read_wide``: POSITION over TCP against 1 024 candidates.

The same requests as ``serve_read_narrow``, but exact mode builds the
full 1 024-row ranking for every answer before trimming it to five:
the engine's matrix-vector product, the construction of the ranked
rows in ``core.selection`` and ``format_answer`` dominate.  This is
where partial top-k, the sketch index or a cheaper ranked-row
representation must show, and where protocol work must not.
"""

from common import Context, Outcome
from workloads.serve import ServeWorkload, run as run_serve

WORKLOAD = ServeWorkload(
    name="serve_read_wide",
    candidates=1024,
    mixed=False,
    sizing_rate=1800.0,
    rates=(500.0, 1000.0, 1500.0),
    reference_rate=1000.0,
    p99_limit_us=8000.0,
)
NAME = WORKLOAD.name


def run(ctx: Context) -> Outcome:
    return run_serve(ctx, WORKLOAD)

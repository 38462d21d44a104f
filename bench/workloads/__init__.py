"""One module per workload; each exposes ``run(ctx) -> Outcome``."""

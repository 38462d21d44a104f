"""Robustness bench — CRP accuracy under injected failure episodes.

Runs the chaos sweep (:mod:`repro.experiments.chaos`) at bench scale:
fault-free baseline, the default (1x) episode rates, and a 2x stress
point.  Asserts the headline robustness claim — a resilient CRP
retains the bulk of its fault-free Top-5 accuracy at default rates —
and records the sweep in ``benchmarks/reports/chaos.json``, beside
the ``chaos.txt`` report, so EXPERIMENTS.md can quote measured numbers
from an artifact.
"""

import json
from pathlib import Path

from benchmarks.bench_config import bench_scale, save_report
from repro.experiments.chaos import run_chaos
from repro.workloads import ScenarioParams

ARTIFACT = Path(__file__).resolve().parent / "reports" / "chaos.json"


def test_bench_chaos_sweep(benchmark):
    scale = bench_scale()

    def run():
        params = ScenarioParams(
            seed=13,
            dns_servers=scale.selection_clients,
            planetlab_nodes=scale.candidates,
            build_meridian=False,
            king_weight_power=1.0,
            king_rural_fraction=0.25,
        )
        return run_chaos(
            params, factors=(0.0, 1.0, 2.0), rounds=scale.selection_probe_rounds
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    baseline = result.baseline
    assert baseline.clients_positioned > 0
    assert baseline.top5_accuracy > 0.0
    # The acceptance criterion: >80% of fault-free Top-5 retained at
    # the default episode rates.
    retention = result.top5_retention(1.0)
    assert retention > 0.8

    save_report("chaos", result.report())
    artifact = {
        "benchmark": "chaos sweep: accuracy vs injected failure intensity",
        "source": "benchmarks/test_bench_chaos.py",
        "rounds": result.rounds,
        "interval_minutes": result.interval_minutes,
        "top5_retention_at_1x": retention,
        "top5_retention_at_2x": result.top5_retention(2.0),
        "points": [
            {
                "factor": p.factor,
                "clients_positioned": p.clients_positioned,
                "clients_total": p.clients_total,
                "top1_accuracy": p.top1_accuracy,
                "top5_accuracy": p.top5_accuracy,
                "good_clusters": p.good_clusters,
                "mean_confidence": p.mean_confidence,
                "mean_recovery_s": p.mean_recovery_s,
                "quarantined_at_end": p.quarantined_at_end,
                "counters": p.counters,
            }
            for p in result.points
        ],
    }
    ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")

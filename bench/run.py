#!/usr/bin/env python3
"""The repository's benchmark: five workloads, end to end and by layer.

::

    python3 bench/run.py --seed 2008              # all five, tracing off
    python3 bench/run.py --seed 2008 --trace      # ... then each again with spans
    python3 bench/run.py --workload serve_mixed --seed 7 --seconds 10 --trace 0
    python3 bench/run.py --smoke                  # all five at a fifth the length
    python3 bench/run.py --check A.json B.json    # B against A, by the bounds

Names, units, directions and bounds of every metric, and the reason
for every workload, are in ``BENCHMARK.json`` at the repository root;
``bench/README.md`` says how to read the output.

With ``--workload`` the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Without it every workload runs and the results are
also written to one file under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from procs import REPO_ROOT, SRC_DIR  # noqa: E402

WORKLOADS = (
    "pipeline_quick", "events_sparse",
    "serve_read_narrow", "serve_read_wide", "serve_mixed",
)

#: A traced run fails when this share of the wall is in no layer.
UNACCOUNTED_LIMIT = 0.10

#: ``--smoke`` runs at this share of the nominal length.
SMOKE_SECONDS = 2.0


def load_spec() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """One workload, once; returns ``(outcome, metrics, ctx)`` with
    the metrics cut to the declared set (end to end or per layer)."""
    from common import Context

    module = importlib.import_module(f"workloads.{name}")
    out = BENCH_DIR / "out"
    work = out / f"work-{name}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = Context(seed=seed, seconds=seconds, trace=trace, smoke=smoke, work=work, out=out)
    try:
        outcome = module.run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = load_spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics: Dict[str, Dict[str, object]] = {}
    for entry in declared:
        value = outcome.metrics.get(entry["name"])
        if value is None:
            if not trace and outcome.correct:
                outcome.check(False, f"metric {entry['name']} was not measured")
            # A layer the workload never enters did no work there.
            value = 0.0
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    # Smoke runs keep the checks and drop the thresholds: at a fifth of
    # the size, interpreter start alone is a third of the pipeline's wall.
    if trace and outcome.metrics and not smoke:
        unaccounted = abs(outcome.metrics.get("trace.unaccounted_share", 0.0))
        outcome.check(
            unaccounted <= UNACCOUNTED_LIMIT,
            f"{unaccounted:.1%} of the traced wall is in no layer's self time "
            f"(limit {UNACCOUNTED_LIMIT:.0%})",
        )
    return outcome, metrics, ctx


def result_record(outcome, metrics, ctx) -> dict:
    from common import stamp

    return {
        "workload": outcome.workload,
        "stamp": stamp(ctx),
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "succeeded": outcome.attempted - outcome.failed,
        "failed": outcome.failed,
        "failed_share": outcome.failed / max(1, outcome.attempted),
        "failures": outcome.failures,
        "metrics": metrics,
        "detail": outcome.detail,
    }


def print_result(outcome, metrics, trace: bool) -> None:
    kind = "per-layer metrics (spans on)" if trace else "end-to-end metrics (spans off)"
    print(f"\n== {outcome.workload}: {kind}")
    samples = outcome.detail.get("samples", {})
    for name, entry in metrics.items():
        if trace and entry["value"] == 0.0:
            continue
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<36}{entry['value']:>16.6g} {entry['unit']}{count}")
    if trace:
        idle = [name for name, entry in metrics.items() if entry["value"] == 0.0]
        print(f"  zero on this workload: {', '.join(idle) or 'none'}")
    for note in outcome.notes:
        print(note)
    print(
        f"  operations: {outcome.attempted} attempted, "
        f"{outcome.attempted - outcome.failed} succeeded, {outcome.failed} failed "
        f"(failed_share {outcome.failed / max(1, outcome.attempted):.6f}); "
        f"correct: {outcome.correct}"
    )
    for failure in outcome.failures:
        print(f"  FAILED: {failure}")


def write_json(path: Path, document: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1) + "\n")


def run_one(args) -> int:
    trace = bool(args.trace)
    outcome, metrics, ctx = run_workload(
        args.workload, args.seed, args.seconds, trace, args.smoke
    )
    print_result(outcome, metrics, trace)
    mode = "traced" if trace else "e2e"
    write_json(
        BENCH_DIR / "out" / f"result-{args.workload}-seed{args.seed}-{mode}.json",
        result_record(outcome, metrics, ctx),
    )
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    # The verdict is the printed ``correct``; a non-zero exit means no
    # result could be produced at all.
    return 0


def run_all(args) -> int:
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    passes = [False, True] if args.trace else [False]
    document = {"seed": args.seed, "seconds": seconds, "smoke": args.smoke, "results": {}}
    ok = True
    for name in WORKLOADS:
        for trace in passes:
            outcome, metrics, ctx = run_workload(name, args.seed, seconds, trace, args.smoke)
            print_result(outcome, metrics, trace)
            key = "traced" if trace else "end_to_end"
            document["results"].setdefault(name, {})[key] = result_record(
                outcome, metrics, ctx
            )
            ok = ok and outcome.correct
    suffix = "-smoke" if args.smoke else ""
    path = args.out or BENCH_DIR / "out" / f"results-seed{args.seed}{suffix}.json"
    write_json(path, document)
    print(f"\nwrote {path}")
    return 0 if ok else 1


def check(first: Path, second: Path) -> int:
    """Compare result set ``second`` against ``first`` by the bounds.

    Exits non-zero naming every metric and workload that got worse by
    more than its bound, every workload whose failed share rose, and
    every fingerprint that changed between runs of one seed.
    """
    spec = load_spec()
    a, b = json.loads(first.read_text()), json.loads(second.read_text())
    problems: List[str] = []
    for workload in WORKLOADS:
        before = a["results"].get(workload, {}).get("end_to_end")
        after = b["results"].get(workload, {}).get("end_to_end")
        if before is None or after is None:
            problems.append(f"{workload}: missing from one of the result sets")
            continue
        for entry in spec["end_to_end"]:
            name = entry["name"]
            old = before["metrics"][name]["value"]
            new = after["metrics"][name]["value"]
            change = (new - old) / old if entry["better"] == "lower" else (old - new) / old
            verdict = "worse" if change > entry["bound"] else "ok"
            print(
                f"  {workload:<20}{name:<14}{old:>12.5g} -> {new:>12.5g} "
                f"{entry['unit']:<4} {change:+7.1%} worse (bound {entry['bound']:.0%}) "
                f"{verdict}"
            )
            if change > entry["bound"]:
                problems.append(
                    f"{name} on {workload} is {change:.1%} worse "
                    f"({old:.5g} -> {new:.5g} {entry['unit']}; bound {entry['bound']:.0%})"
                )
        if after["failed_share"] > before["failed_share"]:
            problems.append(
                f"failed_share on {workload} rose from {before['failed_share']:.6f} "
                f"to {after['failed_share']:.6f} (any rise is a regression)"
            )
        if a["seed"] == b["seed"] and a["seconds"] == b["seconds"]:
            for field in ("report_fingerprint", "answers_fingerprint", "counts"):
                if before["detail"].get(field) != after["detail"].get(field):
                    problems.append(
                        f"{field} on {workload} differs between two runs of seed {a['seed']}"
                    )
    for problem in problems:
        print(f"REGRESSION: {problem}")
    print("check passed" if not problems else f"check failed: {len(problems)} problems")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload")
    parser.add_argument("--seed", type=int, default=2008, help="drives every generator")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="length the workloads are sized for (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="record spans and report the per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="a fifth of the length and smaller populations; checks on, bounds off",
    )
    parser.add_argument("--out", type=Path, help="result-set file (all-workload runs)")
    parser.add_argument(
        "--check", nargs=2, type=Path, metavar=("A.json", "B.json"),
        help="compare result set B against A by the bounds of BENCHMARK.json",
    )
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro").is_dir() or not (REPO_ROOT / "BENCHMARK.json").is_file():
        print(
            f"bench/run.py: the program under test is not here ({SRC_DIR / 'repro'} "
            f"or BENCHMARK.json is missing); run from a full checkout",
            file=sys.stderr,
        )
        return 2
    if args.check:
        return check(*args.check)
    # The workloads build their inputs with the program's own helpers.
    sys.path.insert(0, str(SRC_DIR))
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(load_spec()["run_seconds"])
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())

"""What every workload module shares: its inputs and its result."""

from __future__ import annotations

import json
import os
import platform
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from procs import REPO_ROOT

#: ``--seconds`` at which the workload sizes below are quoted.
NOMINAL_SECONDS = 10.0

#: Times set-up is repeated in an untraced run (its median is reported).
SETUP_REPS = 5


@dataclass
class Context:
    """One invocation's inputs."""

    seed: int
    seconds: float
    trace: bool
    smoke: bool
    #: Scratch directory of this run (removed afterwards).
    work: Path
    #: Where result and trace files are kept (``bench/out``).
    out: Path

    @property
    def scale(self) -> float:
        """Workload length relative to the nominal ``--seconds``."""
        return self.seconds / NOMINAL_SECONDS


@dataclass
class Outcome:
    """One workload run: metrics, the correctness tally, and context."""

    workload: str
    #: End-to-end metrics (untraced run) or per-layer metrics (traced).
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: One line per failed check, for the reader.
    failures: List[str] = field(default_factory=list)
    #: Sample counts, phases, deterministic counts, fingerprints.
    detail: Dict[str, object] = field(default_factory=dict)
    #: Lines printed under the metrics (budget tables and the like).
    notes: List[str] = field(default_factory=list)

    def tally(self, attempted: int, failed: int, message: str) -> None:
        """Count ``attempted`` operations of which ``failed`` failed;
        ``message`` is kept only if any did."""
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.failures.append(message)

    def check(self, ok: bool, message: str, operations: int = 1) -> bool:
        """Tally ``operations`` attempted; all failed unless ``ok``."""
        self.tally(operations, 0 if ok else operations, message)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0


def read_summary(path: Path) -> Optional[dict]:
    """What a child wrote before it exited (None if it never got there)."""
    return json.loads(path.read_text()) if path.exists() else None


def stamp(ctx: Context) -> Dict[str, object]:
    """Where and on what a result was measured."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": platform.release(),
        "machine": platform.machine(),
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "traced": ctx.trace,
        "smoke": ctx.smoke,
        "link": "loopback (127.0.0.1); no real network is crossed",
    }

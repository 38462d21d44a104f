"""What the entry points import: runtime dependencies and unreached code.

The entry points are what a user runs: the experiment runner (the
``repro-experiments`` console script), the serving layer, the event
core, the executor and the self-check.  Both tests start from them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

ENTRY_POINTS = (
    "repro.experiments.runner",
    "repro.serve",
    "repro.sim",
    "repro.exec",
    "repro.check.selfcheck",
)

#: Packages the entry points must import without: test tools and
#: ``dev``-only extras (``networkx`` stays a runtime dependency).
BLOCKED = ("scipy", "hypothesis", "pytest")

#: Modules no entry point imports, each with its consumer and the
#: ROADMAP item that decides whether it stays.
UNREACHED = {
    "repro.baselines.gnp": "tests/baselines/test_gnp.py, "
    "benchmarks/test_bench_coordinates.py; ROADMAP item 4",
    "repro.hybrid": "examples/hybrid_positioning.py, tests/hybrid, "
    "benchmarks/test_bench_hybrid.py; ROADMAP item 3c",
    "repro.hybrid.positioning": "through repro.hybrid; ROADMAP item 3c",
    "repro.traces": "examples/offline_trace_analysis.py, tests/traces; "
    "ROADMAP item 3c",
    "repro.traces.__main__": "python -m repro.traces, tests/traces/test_cli.py; "
    "ROADMAP item 3c",
    "repro.traces.trace": "through repro.traces; ROADMAP item 3c",
    "repro.analysis.export": "tests/analysis/test_export.py; ROADMAP item 3c",
}

SRC = Path(repro.__file__).resolve().parent.parent


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(path): path for path in (SRC / "repro").rglob("*.py")}


def _imported_names(module: str):
    """Every name an import statement in ``module`` may load, anywhere
    in the file (function-local imports included)."""
    path = MODULES[module]
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def _reached():
    """Modules reachable from the entry points; importing ``a.b.c``
    also runs ``a`` and ``a.b``."""
    seen = set()
    stack = list(ENTRY_POINTS)
    while stack:
        parts = stack.pop().split(".")
        for end in range(1, len(parts) + 1):
            name = ".".join(parts[:end])
            if name in MODULES and name not in seen:
                seen.add(name)
                stack.extend(_imported_names(name))
    return seen


def test_every_module_is_reached_or_allow_listed():
    unreached = set(MODULES) - _reached()
    orphans = sorted(unreached - set(UNREACHED))
    assert not orphans, f"no entry point imports {orphans}: delete them or list a consumer"
    stale = sorted(set(UNREACHED) - unreached)
    assert not stale, f"{stale} are reached now: drop them from UNREACHED"


_BLOCKER = """
import importlib
import sys

class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in {blocked!r}:
            raise ModuleNotFoundError(f"blocked: {{name}}", name=name)
        return None

sys.meta_path.insert(0, Blocker())
for name in {entry_points!r}:
    importlib.import_module(name)
"""


def test_entry_points_import_without_dev_extras():
    code = _BLOCKER.format(blocked=BLOCKED, entry_points=ENTRY_POINTS)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr

"""Child processes: spawn, time, and read their peak memory.

Every timed section runs in a fresh child so that one section's heap
and caches never reach the next, and so that peak resident memory is
the program's and not the benchmark's.

Peak memory is the child's ``VmHWM`` in ``/proc``.  ``ru_maxrss`` from
``wait4`` will not do: on Linux a child's high-water mark starts at
the size its *parent* had when it forked and survives ``exec``, so a
benchmark process that has grown past the program reports its own
size for every child it starts.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"

#: A child still running after this long is killed.
CHILD_TIMEOUT_S = 170.0

#: How often a running batch child's peak memory is sampled.
SAMPLE_S = 0.02


def child_env() -> Dict[str, str]:
    """The parent's environment with the program importable."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + inherited if inherited else "")
    return env


def split_cpus():
    """``(generator_cpu, server_cpu)`` when this process may run on
    two or more processors, else ``(None, None)``.

    A load generator that polls and a server that sleeps between
    requests must not share a processor: the kernel likes to wake the
    server on the processor of whoever sent to it, which parks the
    generator for one service time and shows up as late sends.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None, None
    return allowed[0], allowed[-1]


def peak_rss_mib(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``), in MiB; 0.0 once
    it has exited."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Finished(NamedTuple):
    exit_code: int
    wall_s: float
    peak_rss_mib: float


class _Watcher(threading.Thread):
    """Samples a child's peak memory while it runs, and kills it if it
    outlives the time limit."""

    def __init__(self, process: subprocess.Popen, sample_memory: bool) -> None:
        super().__init__(daemon=True)
        self.process = process
        self.sample_memory = sample_memory
        self.peak_mib = 0.0
        self._done = threading.Event()
        self._deadline = perf_counter() + CHILD_TIMEOUT_S
        self.start()

    def run(self) -> None:
        interval = SAMPLE_S if self.sample_memory else 1.0
        while not self._done.wait(interval):
            if self.sample_memory:
                self.peak_mib = max(self.peak_mib, peak_rss_mib(self.process.pid))
            if perf_counter() > self._deadline:
                self.process.kill()
                return

    def stop(self) -> None:
        self._done.set()
        self.join()


def run_child(argv: List[str], stdout_path: Optional[Path] = None) -> Finished:
    """Run ``python <argv>`` to completion; wall is spawn to exit."""
    sink = open(stdout_path, "w") if stdout_path is not None else subprocess.DEVNULL
    try:
        started = perf_counter()
        process = subprocess.Popen(
            [sys.executable, *argv],
            env=child_env(), cwd=REPO_ROOT,
            stdin=subprocess.DEVNULL, stdout=sink, stderr=subprocess.STDOUT,
        )
        watcher = _Watcher(process, sample_memory=True)
        try:
            code = process.wait()
            wall = perf_counter() - started
        finally:
            watcher.stop()
        return Finished(code, wall, watcher.peak_mib)
    finally:
        if stdout_path is not None:
            sink.close()


class Server:
    """A long-running child with a control pipe (the serve workloads).

    Its memory is read once, on request (:meth:`peak_rss_mib`), not
    sampled: nothing of the benchmark's should run beside the load
    generator while it measures.
    """

    def __init__(self, argv: List[str], stderr_path: Path) -> None:
        self._stderr = open(stderr_path, "w")
        self.started = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, *argv],
            env=child_env(), cwd=REPO_ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr,
            text=True,
        )
        self._watcher = _Watcher(self.process, sample_memory=False)
        self._peak_mib = 0.0
        self._finished: Optional[Finished] = None

    def read_line(self) -> str:
        """The child's next stdout line ('' once it has exited)."""
        return self.process.stdout.readline().strip()

    def started_for(self) -> float:
        """Seconds since the child was spawned."""
        return perf_counter() - self.started

    def control(self, line: str) -> None:
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()

    def peak_rss_mib(self) -> float:
        """The child's peak memory so far (call before telling it to
        exit; the last reading is what :meth:`finish` reports)."""
        self._peak_mib = max(self._peak_mib, peak_rss_mib(self.process.pid))
        return self._peak_mib

    def finish(self) -> Finished:
        """Wait for the child to exit (it must have been told to)."""
        return self._end(kill=False)

    def kill(self) -> None:
        """Stop the child now; safe to call at any point."""
        self._end(kill=True)

    def _end(self, kill: bool) -> Finished:
        if self._finished is None:
            if kill:
                self.process.kill()
            self.process.stdin.close()
            code = self.process.wait()
            self._finished = Finished(code, self.started_for(), self._peak_mib)
            self._watcher.stop()
            self.process.stdout.close()
            self._stderr.close()
        return self._finished

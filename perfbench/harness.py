"""Shared machinery of the perfbench workloads.

Everything here is benchmark-side: spans recorded around calls into the
program's public entry points, the percentile guard, set-up timing,
the calibration loop and the environment record.  Nothing in ``src/``
knows it is being measured.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

#: The checkout root: ``perfbench/`` sits directly under it.
REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
#: Scratch space inside the checkout (gitignored): corpora, stores and
#: span dumps.  The benchmark reads and writes nowhere else.
WORK_ROOT = REPO_ROOT / ".perfbench"

#: Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 9
#: A percentile needs at least this many samples above it.
MIN_BEYOND = 10


class BenchmarkError(Exception):
    """The run cannot produce a trustworthy result."""


class PercentileError(BenchmarkError):
    """The sample is too small to support the requested percentile."""


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts.

    The checker comes from this checkout's ``src/``; ``ROWPOLY_*``
    variables (store directory, fault injection) are dropped so the
    program only ever sees the generated inputs.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ROWPOLY_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    request: Optional[int] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory, one per call into a layer, written at exit.

    A disabled tracer hands out no-op contexts, so untraced code runs
    the same statements minus the bookkeeping.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def span(self, name: str, request: Optional[int] = None):
        if not self.enabled:
            return nullcontext()
        return self._record(name, request)

    @contextmanager
    def _record(self, name: str, request: Optional[int]) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(len(self.spans), parent.id if parent else None, name,
                    time.perf_counter(), request=request)
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus the children's
        durations (spans nest only through ``with``, so children never
        overlap)."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.seconds
            if span.parent is not None:
                parent = self.spans[span.parent].name
                out[parent] = out.get(parent, 0.0) - span.seconds
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(vars(span)) + "\n")


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def _checked(samples: list[float], rank: int, label: str) -> float:
    ordered = sorted(samples)
    if len(ordered) - 1 - rank < MIN_BEYOND or rank < 0:
        raise PercentileError(
            f"{label}: {len(ordered)} samples cannot support this "
            f"percentile (needs {MIN_BEYOND} samples beyond it)")
    return ordered[rank]


def p50(samples: list[float], label: str) -> dict[str, float]:
    """Median (nearest rank) with its sample count."""
    rank = (len(samples) - 1) // 2
    return {"value": _checked(samples, rank, label), "q": 0.5,
            "n": len(samples)}


def tail(samples: list[float], label: str) -> dict[str, float]:
    """The highest percentile with ``MIN_BEYOND`` samples above it.

    Never lower than the median: a sample too small for that raises
    :class:`PercentileError` instead of printing an unsupported tail.
    """
    n = len(samples)
    rank = n - 1 - MIN_BEYOND
    if rank < (n - 1) // 2:
        raise PercentileError(
            f"{label}: {n} samples cannot support a tail above the median")
    return {"value": _checked(samples, rank, label),
            "q": round((rank + 1) / n, 4), "n": n}


# ----------------------------------------------------------------------
# set-up, memory, calibration, environment
# ----------------------------------------------------------------------
def time_import(module: str) -> list[float]:
    """Seconds from interpreter start to ``import module`` done.

    One unmeasured start first, so bytecode compilation (a one-time
    cost of a fresh checkout) is not timed.
    """
    argv = [sys.executable, "-c", f"import {module}"]
    env = child_env()
    subprocess.run(argv, env=env, cwd=REPO_ROOT, check=True)
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(argv, env=env, cwd=REPO_ROOT, check=True)
        times.append(time.perf_counter() - started)
    return times


def cpu_clock() -> float:
    """CPU seconds of this process, all threads, user plus system.

    Every workload reports its rates against this clock (editor-fleet
    adds the same clock of the router and shard processes).  On
    a shared virtual host the hypervisor takes the vCPU away for
    stretches of seconds (steal time): that inflates wall time, not
    process CPU time.  A probe on a shared 2-vCPU virtual machine
    measured a cold audit pass at 3.8-4.3 CPU seconds while its wall
    time ran 4.9-6.4 s.
    Waiting that is the program's own (I/O, locks, sleeps) is not CPU
    time either; the wall-clock figures stay in the detail record.
    """
    return time.process_time()


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for pid {pid}")


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python loop.

    Timed before and after each workload and only recorded: a slowed
    host shows here, a slower program does not.
    """
    started = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return time.perf_counter() - started


def environment(seed: int, **extra: object) -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "seed": seed,
        **extra,
    }


@dataclass
class Result:
    """What one workload run hands back to ``run.py``.

    ``failures`` holds one entry per failed operation; ``metrics`` maps
    metric names to measured values (units come from BENCHMARK.json).
    """

    attempted: int
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    detail: dict[str, object] = field(default_factory=dict)
    tracer: Optional[Tracer] = None

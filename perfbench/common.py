"""Shared run state, resource readings and the set-up probe.

Set-up time is measured in fresh interpreter processes: each probe
imports the program, builds the workload's system (server, worker
process, fitted index) and completes its first operation.  The
reported ``setup_s`` is the median of :data:`SETUP_PROBES` probes.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.checks import Gate

SETUP_PROBES = 3

_CLK_TCK = os.sysconf("SC_CLK_TCK")


@dataclass
class Context:
    """What a workload needs, and what it reports."""

    root: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    gate: Gate
    recorder: object = None
    window: tuple = None
    probes: list = field(default_factory=list)
    layer_metrics: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        """Set a metric; ``note`` (sample count, percentile) goes to the report."""
        self.metrics[name] = (float(value), unit)
        self.say(f"{name} = {value:.6g} {unit}" + (f"  [{note}]" if note else ""))

    def say(self, text: str) -> None:
        """Add a line to the human-readable report."""
        self.lines.append(text)

    def span(self, name: str, **attrs):
        """A benchmark-side span when tracing, else a no-op block."""
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name, **attrs)

    def paused(self):
        """Block in which wrapped calls record nothing."""
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.paused()


def nproc() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def environment() -> str:
    """One line naming the machine's core count, BLAS and numpy."""
    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "?")
    return (f"nproc={nproc()} blas={blas} blas_threads={threads} "
            f"numpy={np.__version__} python={sys.version.split()[0]}")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of another process, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set of another process (VmHWM), in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probes(ctx: Context) -> list[dict]:
    """Run :data:`SETUP_PROBES` cold set-ups in fresh processes; each
    returns its ``setup_s`` and any figures the workload measures there."""
    probes = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(ctx.root / "perfbench" / "run.py"),
               "--workload", ctx.workload, "--seed", str(ctx.seed * 100 + i),
               "--setup-probe"]
        done = subprocess.run(cmd, cwd=ctx.root, capture_output=True,
                              text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stdout}{done.stderr}")
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    ctx.say("setup probes: " + ", ".join(f"{p['setup_s']:.4f}" for p in probes) + " s")
    return probes


class Timer:
    """Wall and process-CPU time of a block."""

    def __enter__(self) -> "Timer":
        self.wall0 = time.perf_counter()
        self.cpu0 = time.process_time()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.wall = time.perf_counter() - self.wall0
        self.cpu = time.process_time() - self.cpu0
        return False

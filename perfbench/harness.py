"""Shared plumbing: timing loop, statistics, memory, machine fingerprint, output."""

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = HERE / ".work"


class BenchmarkError(RuntimeError):
    """A correctness gate failed; the run reports no numbers."""


def process_age() -> float:
    """Seconds since this process started (Linux ``/proc``)."""
    ticks = os.sysconf("SC_CLK_TCK")
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / ticks  # field 22: starttime, in ticks since boot
    with open("/proc/uptime") as handle:
        uptime = float(handle.read().split()[0])
    return uptime - started


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def median(values):
    return statistics.median(values)


def tail(values):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it.

    Returns ``(label, value)``; falls back to the maximum when fewer
    than 14 samples exist.
    """
    ordered = sorted(values)
    n = len(ordered)
    for q in (0.99, 0.95, 0.90, 0.75):
        if n * (1.0 - q) >= 10:
            index = min(int(q * n), n - 1)
            return f"p{round(q * 100)}", ordered[index]
    return "max", ordered[-1]


def run_units(seconds, unit):
    """Call ``unit(i)`` until the next call would overrun ``seconds``.

    At least one call is made.  Returns the list of ``(result, wall)``.
    """
    out = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result = unit(len(out))
        wall = time.perf_counter() - t0
        out.append((result, wall))
        elapsed = time.perf_counter() - start
        if elapsed + max(w for _, w in out) > seconds:
            return out


def fingerprint(seed):
    """Machine and build stamp printed with every result."""
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (AttributeError, KeyError, TypeError):  # numpy builds differ in what they expose
        blas = {"name": "unknown", "version": "unknown"}
    blas["threads"] = (
        os.environ.get("OPENBLAS_NUM_THREADS")
        or os.environ.get("OMP_NUM_THREADS")
        or f"default ({os.cpu_count()} cores)"
    )
    commit = "unavailable"  # a plain source checkout has no git metadata
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "commit": commit,
        "seed": seed,
    }


def emit(record, attempted, failed, metrics, units):
    """Print the record line, then the result object as the last line.

    Only runs whose correctness gates passed get here, so ``correct``
    is always true; a failed gate exits without a result.
    """
    payload = {
        name: {"value": float(value), "unit": units[name]}
        for name, value in metrics.items()
    }
    print("record " + json.dumps(record, sort_keys=True))
    sys.stdout.flush()
    print(json.dumps({
        "correct": True,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": payload,
    }))
    sys.stdout.flush()

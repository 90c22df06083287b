"""Shared pieces: statistics, provenance, memory, set-up timing, results."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark runs in (this file's grandparent).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where a run leaves its span dumps and full reports (git-ignored).
OUT_DIR = ROOT / ".perfbench-out"

#: Percentiles tried, highest first, when picking a timing's tail.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)

#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 5


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return float(ordered[rank - 1])


def timing(values, unit: str) -> dict:
    """Median plus the highest percentile with at least ten samples beyond
    it (``None`` when too few samples), with the sample count."""
    values = list(values)
    tail = None
    for q in _TAILS:
        if len(values) * (100.0 - q) / 100.0 >= 10:
            tail = {"p": q, "value": percentile(values, q)}
            break
    return {"value": median(values), "unit": unit, "median": median(values),
            "tail": tail, "n": len(values)}


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _source_digest() -> str:
    """SHA-256 over the program's source tree (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(workload: str, seed: int, fidelity: dict) -> dict:
    import numpy

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "fidelity": fidelity,
    }


def child_env() -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{existing}" if existing else str(SRC)
    return env


def time_setup(workload: str, seed: int) -> list[float]:
    """Wall seconds of fresh interpreters running the workload's set-up probe:
    interpreter start, imports, scenario/engine build, first tiny call."""
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--setup-probe", "--workload", workload, "--seed", str(seed)]
    samples = []
    for __ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, env=child_env(), check=True,
                       timeout=120, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def run_passes(seconds: float, one_pass, min_passes: int = 1) -> list:
    """Call ``one_pass(index)`` until ``seconds`` are spent: a pass starts
    only if the mean pass so far still fits in the budget."""
    results = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(results) >= min_passes:
            mean = elapsed / len(results)
            if elapsed + mean > seconds:
                break
        results.append(one_pass(len(results)))
    return results

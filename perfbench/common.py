"""Shared plumbing: paths, machine context, statistics, result lines."""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys
import time
from typing import Dict, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Reference digests exist for this many input seeds, in blocks of
#: ``SEED_BLOCK``; every ``--seed`` maps into them, so every seed has one.
#: The last block (input seeds 24..31, held-out seed 31) was kept out of
#: every tuning run; confirm a claimed gain on it.
INPUT_SEEDS = 32
SEED_BLOCK = 8


class BenchmarkError(RuntimeError):
    """The harness itself could not run (not a wrong program output)."""


def require_source_tree() -> None:
    """Make ``repro`` importable from the checkout, or fail before any work."""
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        raise BenchmarkError(f"no program source at {SRC}/repro")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def import_program() -> None:
    """Import the program up front, so set-up time counts imports once."""
    import repro.core  # noqa: F401
    import repro.datasets  # noqa: F401
    import repro.serve  # noqa: F401


def input_seed(seed: int, index: int = 0) -> int:
    """Input seed of pass ``index`` of a run with ``--seed seed``.

    Pass 0 uses ``seed % INPUT_SEEDS``; later passes rotate through the
    rest of its block, so a run never leaves the block its seed names.
    """
    block = seed % INPUT_SEEDS - seed % SEED_BLOCK
    return block + (seed + index) % SEED_BLOCK


def scratch_dir() -> str:
    """A fresh per-process directory inside the checkout, removed at exit."""
    path = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_scratch(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    parent = os.path.dirname(path)
    try:
        os.rmdir(parent)
    except OSError:
        pass  # another benchmark process still uses it


def machine_context(seed: int) -> Dict[str, object]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
        "seed": seed,
        "input_seed": input_seed(seed),
    }


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM (peak resident set) of a live process, in MB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM in {path}")


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def deciles(values: Sequence[float]) -> Tuple[float, float]:
    """(first, ninth) decile, inclusive method; a lone sample is both."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return float(cuts[0]), float(cuts[-1])


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return float(ordered[rank - 1])


def emit(result: Dict[str, object]) -> None:
    """Print the result object as the last line of standard output."""
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True), flush=True)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


class Deadline:
    """Monotonic deadline helper."""

    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def passed(self) -> bool:
        return time.monotonic() >= self.end

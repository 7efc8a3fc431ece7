"""Shared plumbing: the checkout layout, host facts, statistics and the
result line every workload prints."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: traces, WAL files, result files.
OUT = ROOT / ".perfbench_out"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (e.g. no program source)."""


def require_program() -> None:
    """Put the program's source on the import path, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"program source not found at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))


def child_env() -> Dict[str, str]:
    """Environment for child processes: the program on PYTHONPATH and
    the parallel runtime pinned to one serial worker, so no child
    starts process pools of its own."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_WORKERS"] = "1"
    env["REPRO_EXECUTOR"] = "serial"
    return env


def host_info(seed: Optional[int] = None) -> Dict[str, object]:
    import numpy

    info: Dict[str, object] = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    if seed is not None:
        info["seed"] = seed
    return info


def round_table(rounds, names) -> str:
    """One line per metric with its value in every round."""
    lines = []
    for name in names:
        cells = " ".join(
            f"{r[name]:.4g}{'*' if r.get('traced') else ''}" for r in rounds
        )
        lines.append(f"  per round {name:<11} {cells}")
    return "\n".join(lines)


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB.

    ``VmHWM`` is the high-water mark of this process's own memory.
    ``ru_maxrss`` is not: Linux carries it across ``execve``, so a
    process started by a larger one reports at least its parent's size.
    It is the fallback where ``/proc`` is missing (Linux reports KiB)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile (numpy's default method)."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


#: Fewest latency samples per block, so a block's p99 has at least ten
#: samples beyond it.
BLOCK_SAMPLES = 1000


def blocks(latencies: Sequence[float], pass_size: int) -> List[List[float]]:
    """Split one round's latencies into blocks of whole passes over the
    pairs, each at least ``BLOCK_SAMPLES`` long (a short tail joins the
    last block)."""
    per = pass_size * max(1, -(-BLOCK_SAMPLES // pass_size))
    out = [list(latencies[i : i + per]) for i in range(0, len(latencies), per)]
    if len(out) > 1 and len(out[-1]) < BLOCK_SAMPLES:
        out[-2].extend(out.pop())
    return out


def round_percentile(rounds, q: float) -> float:
    """The interquartile mean over every round's blocks of consecutive
    queries of each block's *q*-th latency percentile.

    A burst of host noise moves one block, which the trimming drops.  A
    host that alternates between a fast and a slow state for seconds at
    a time puts each block in one state; averaging the middle half of
    the blocks follows the mix of states smoothly, where a median would
    jump from one state to the other as the mix crosses one half."""
    values = sorted(percentile(b, q) for r in rounds for b in r["latency_blocks"])
    trim = len(values) // 4
    middle = values[trim : len(values) - trim]
    return sum(middle) / len(middle)


def quartiles(values: Sequence[float]) -> List[float]:
    values = list(values)
    if len(values) < 2:
        return [values[0]] * 3
    return [float(v) for v in statistics.quantiles(values, n=4)]


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def emit(correct: bool, attempted: int, failed: int, metrics: Mapping[str, dict]) -> None:
    """Print the result object as the last line of standard output."""
    line = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": dict(metrics),
    }
    sys.stdout.flush()
    print(json.dumps(line), flush=True)


def run_python(args: Sequence[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a Python child to completion (output captured)."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=str(ROOT),
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def time_setup_probe(scenario: str, trips: int) -> Dict[str, float]:
    """Time a fresh interpreter importing the program and building the
    scenario network and trip table; returns the wall time measured
    from outside plus the probe's own split."""
    start = time.perf_counter()
    done = run_python([str(HERE / "setup_probe.py"), scenario, str(trips)], timeout=120)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
    split = json.loads(done.stdout.strip().splitlines()[-1])
    split["wall_s"] = wall
    return split

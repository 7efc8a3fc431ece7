"""Steadiness check: run each workload repeatedly, report each
end-to-end metric's median and quartiles, and compare sets of runs.

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workloads grid-fed --runs 5 --sets 1

Set ``k`` uses seeds ``1 + k*runs .. (k+1)*runs``; every run is
``run.py --workload W --seed N --trace 0`` in a fresh process.  For each
workload and metric it prints the median, the quartiles and their
spread (Q3 - Q1) as a share of the median.  It exits non-zero when a
metric's spread exceeds its bound in ``BENCHMARK.json``, when a later
set's median differs from the first set's, in either direction, by
more than the bound, when the share of failed operations differs
between sets, or when any run is incorrect or fails.  Every run's
result, with the host's CPU count and the Python and numpy versions,
is saved to ``.perfbench_out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from run import BENCHMARK, WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(common.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(cmd, cwd=str(common.ROOT), capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["wall_s"] = time.perf_counter() - started
    return result


def summarize(values):
    q1, q2, q3 = common.quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(q2) if q2 else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run-to-run steadiness of the benchmark.")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    report = {"host": common.host_info(), "runs": {}, "summary": {}}
    ok = True
    for workload in args.workloads:
        sets = []
        for k in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = 1 + k * args.runs + i
                result = run_once(workload, seed, spec["run_seconds"])
                results.append(result)
                print(f"{workload} seed {seed}: {result['wall_s']:.1f}s "
                      f"correct={result['correct']} failed={result['failed']}/"
                      f"{result['attempted']}", flush=True)
                if not result["correct"]:
                    ok = False
            sets.append(results)
        report["runs"][workload] = sets
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        if len(set(shares)) > 1:
            print(f"  {workload}: failed share differs between sets: {shares}")
            ok = False
        for name, declared in bounds.items():
            rows = [summarize([r["metrics"][name]["value"] for r in s]) for s in sets]
            report["summary"].setdefault(workload, {})[name] = rows
            bound = declared["bound"]
            flags = []
            for k, row in enumerate(rows):
                if row["spread"] > bound:
                    flags.append(f"set {k} spread over bound")
                if k:
                    first, now = rows[0]["median"], row["median"]
                    moved = (now - first) / first
                    if abs(moved) > bound:
                        flags.append(f"set {k} median moved by {moved:+.1%}")
            ok = ok and not flags
            cells = "  ".join(
                f"med {r['median']:.5g} [{r['q1']:.5g}, {r['q3']:.5g}] spread {r['spread']:.1%}"
                for r in rows
            )
            print(f"  {workload:<13} {name:<13} bound {bound:.0%}  {cells}"
                  + (f"  <-- {'; '.join(flags)}" if flags else ""), flush=True)
    common.OUT.mkdir(exist_ok=True)
    path = common.OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"{'STEADY' if ok else 'NOT STEADY'} (details in {path.relative_to(common.ROOT)})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

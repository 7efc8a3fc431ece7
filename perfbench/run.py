"""The repo benchmark: one command, three workloads.

    python3 perfbench/run.py                       # every workload, a fresh process each
    python3 perfbench/run.py --workload grid-study --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload grid-fed --trace 1   # per-layer numbers
    python3 perfbench/run.py --smoke               # every code path at tiny sizes

With ``--workload`` the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones (see
``README.md``).  Run from the root of a checkout: the program is
imported from ``src/``.  Scratch output (traces, WAL files, plane logs)
goes to ``.perfbench_out/``.
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
from tracing import NullTracer, Tracer, self_time_table, totals, write_jsonl  # noqa: E402

WORKLOADS = ("grid-study", "sioux-stream", "grid-fed")
BENCHMARK = common.ROOT / "BENCHMARK.json"


def declared_metrics(kind: str):
    """``[(name, unit)]`` of *kind* (``end_to_end``/``per_layer``) as
    ``BENCHMARK.json`` declares them."""
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"]) for m in spec[kind]]


def layer_metrics(result: dict, tracer) -> dict:
    """Every declared per-layer metric: span totals per traced round,
    then the workload's own counts and splits on top.  A layer the
    workload never calls reads 0."""
    rounds = max(1, result["traced_rounds"])
    span_rows = totals(tracer.spans)
    values = {}
    for name, unit in declared_metrics("per_layer"):
        value = 0.0
        if name.endswith("_s") and name[:-2] in span_rows:
            value = span_rows[name[:-2]]["total_s"] / rounds
        if result["layer"].get(name) is not None:
            value = result["layer"][name]
        values[name] = common.metric(value, unit)
    return values


def run_one(args) -> int:
    try:
        common.require_program()
    except common.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    tracer = Tracer("bench") if args.trace else NullTracer()
    if args.workload == "grid-study":
        import study

        result = study.run(args.seed, args.seconds, tracer, smoke=args.smoke)
    else:
        import live

        result = live.run(args.workload, args.seed, args.seconds, tracer, smoke=args.smoke)

    print("host " + json.dumps(common.host_info(args.seed)))
    for note in result["notes"]:
        print(note)
    if args.trace:
        common.OUT.mkdir(exist_ok=True)
        path = common.OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        write_jsonl(path, tracer.spans)
        print(self_time_table(tracer.spans, result["traced_rounds"]))
        print(
            "tracing overhead: traced/untraced = "
            f"{result['layer']['trace.overhead_ratio']:.4f} "
            f"(spans written to {path.relative_to(common.ROOT)})"
        )
        metrics = layer_metrics(result, tracer)
    else:
        metrics = dict(result["e2e"])
    for problem in result["problems"]:
        print(f"MISMATCH: {problem}")
    correct = not result["problems"]
    common.emit(correct, result["attempted"], result["failed"], metrics)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; a table of every metric."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        started = time.perf_counter()
        done = subprocess.run(cmd, cwd=str(common.ROOT), capture_output=True, text=True,
                              timeout=900)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        if done.returncode != 0 or not lines:
            print(f"[{workload}] FAILED (exit {done.returncode}) {done.stderr[-2000:]}")
            status = 1
            continue
        result = json.loads(lines[-1])
        rows.append((workload, result, time.perf_counter() - started))
    for workload, result, wall in rows:
        print(f"\n{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} ({wall:.1f}s wall)")
        for name, value in result["metrics"].items():
            print(f"  {name:<36} {value['value']:>16.6g} {value['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="The repo benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all, each in a fresh process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: exercise every code path and check quickly")
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(BENCHMARK, encoding="utf-8") as handle:
            args.seconds = json.load(handle)["run_seconds"]
    if args.smoke:
        args.seconds = 0
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())

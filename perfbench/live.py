"""``sioux-stream`` and ``grid-fed``: the live plane under a closed-loop
load generator.

Each round starts a fresh plane process (``plane.py``), streams one
period of responses into it, closes the period, queries every pair,
checks the answers and stops the plane.  The load generator lives in
this process and is closed-loop: each connection keeps at most
``WINDOW`` batches unacknowledged, so a slow plane receives less load.

``--seed`` seeds the deployment (the vehicle fleet) and the MAC stream;
the client builds its responses from the same deployment flags the
plane gets, as ``repro loadgen`` does.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import os
import socket
import struct
import subprocess
import sys
import time
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import common
import oracle
from common import metric

WIRE_BATCH = 4096
WINDOW = 32

CONFIGS = {
    # Sioux Falls at 5x the paper's daily demand, 24 stream windows.
    # With 24 RSUs the p90 error of one deployment moves by ~13% from
    # seed to seed, so it is pooled over four hash seeds.
    "sioux-stream": {
        "scenario": "sioux-falls", "trips": 1_803_000, "windows": 24,
        "shards": 0, "handoffs": 0, "query_passes": 36, "accuracy_trials": 4,
    },
    # grid-10x10 behind two gateway shards, WAL on, 8 mid-period handoffs.
    "grid-fed": {
        "scenario": "grid-10x10", "trips": 200_000, "windows": 0,
        "shards": 2, "handoffs": 8, "query_passes": 2, "accuracy_trials": 1,
    },
}
SMOKE = {
    "sioux-stream": {"scenario": "sioux-falls", "trips": 6_000, "windows": 3,
                     "shards": 0, "handoffs": 0, "query_passes": 2, "accuracy_trials": 2},
    "grid-fed": {"scenario": "grid-4x4", "trips": 4_000, "windows": 0,
                 "shards": 2, "handoffs": 2, "query_passes": 1, "accuracy_trials": 1},
}


class Inputs:
    """One period's responses, built once per run."""

    def __init__(self, config: dict, seed: int) -> None:
        from repro.federation.router import ShardRouter
        from repro.roadnet.volumes import pair_common_volumes
        from repro.service.loadgen import _day_window_batches
        from repro.service.runtime import DeploymentSpec

        spec = DeploymentSpec(
            total_trips=config["trips"], seed=seed, scenario=config["scenario"]
        )
        self.s = spec.s
        self.hash_seed = spec.hash_seed
        self.rsus = list(spec.scheme.rsu_ids)
        self.sizes = {rsu: spec.scheme.array_size(rsu) for rsu in self.rsus}
        self.plan = spec.workload.plan
        self.network = spec.workload.network
        self.truth = pair_common_volumes(self.plan)
        # phases[w]: slice w of every RSU's day, as `repro loadgen` streams it.
        self.phases = _day_window_batches(spec, WIRE_BATCH, max(1, config["windows"]))
        self.indices = {rsu: spec.response_indices(rsu) for rsu in self.rsus}
        self.counts = {rsu: int(idx.size) for rsu, idx in self.indices.items()}
        self.responses = sum(self.counts.values())
        self.batches = sum(len(phase) for phase in self.phases)
        self.router = ShardRouter(config["shards"]) if config["shards"] else None
        self.moving = self.rsus[: config["handoffs"]]


def accuracy_trial(config: dict, seed: int, hash_seed: int, counts) -> Tuple[dict, List[str]]:
    """The program's VLM estimates for the same fleet under another hash
    seed, encoded and decoded in this process, and their mismatches with
    the oracle."""
    from repro.service.runtime import DeploymentSpec

    spec = DeploymentSpec(
        total_trips=config["trips"], seed=seed, scenario=config["scenario"],
        hash_seed=hash_seed,
    )
    reports = spec.reference_reports()
    spec.scheme.decoder.submit_many(reports.values())
    matrix = spec.scheme.decoder.estimate_matrix()
    want = oracle.BitArrays.from_reports(reports).estimates(matrix.keys(), spec.s)
    problems = oracle.check_estimates(matrix, want, counts, f"hash seed {hash_seed} matrix")
    return {pair: e.value for pair, e in matrix.items()}, problems


class Connection:
    """One closed-loop client connection."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def ask(self, message):
        from repro.service import wire

        await wire.write_message(self.writer, message)
        return await wire.read_message(self.reader)

    async def stream(self, batches: Sequence[object]) -> int:
        """Send *batches* with at most ``WINDOW`` unacknowledged; returns
        how many were refused."""
        from repro.service import wire

        refused = 0
        outstanding: List[int] = []
        for batch in batches:
            await wire.write_message(self.writer, batch)
            outstanding.append(batch.seq)
            if len(outstanding) >= WINDOW:
                refused += await self._ack(outstanding.pop(0))
        while outstanding:
            refused += await self._ack(outstanding.pop(0))
        return refused

    async def _ack(self, seq: int) -> int:
        from repro.service import wire

        answer = await wire.read_message(self.reader)
        return 0 if isinstance(answer, wire.BatchAck) and answer.seq == seq else 1

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class Plane:
    """A plane process for one round."""

    def __init__(self, config: dict, seed: int, traced: bool, tag: str) -> None:
        common.OUT.mkdir(exist_ok=True)
        self.dump = common.OUT / f"{tag}.plane.json"
        self.wal = common.OUT / f"{tag}.wal" if config["shards"] else None
        args = [
            str(common.HERE / "plane.py"),
            "--scenario", config["scenario"], "--trips", str(config["trips"]),
            "--seed", str(seed), "--windows", str(config["windows"]),
            "--dump", str(self.dump),
        ]
        if config["shards"]:
            args += ["--shards", str(config["shards"]), "--wal", str(self.wal)]
        if traced:
            args.append("--trace")
        self.log_path = common.OUT / f"{tag}.plane.log"
        self.log = open(self.log_path, "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *args], cwd=str(common.ROOT), env=common.child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log, text=True,
        )

    def wait_ready(self) -> dict:
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.kill()
            raise RuntimeError(f"plane did not start: {line!r}")
        return json.loads(line[len("READY "):])

    def stop(self) -> dict:
        self.proc.stdin.write("stop\n")
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        with open(self.dump, encoding="utf-8") as handle:
            dump = json.load(handle)
        self.dump.unlink()
        if self.wal is not None and self.wal.exists():
            self.wal.unlink()
        # The log is kept only when the plane did not stop cleanly.
        self.log_path.unlink()
        return dump

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.log.close()


async def _connect_when_ready(port: int, deadline: float) -> Connection:
    while True:
        try:
            return await Connection.open(port)
        except OSError:
            if time.perf_counter() > deadline:
                raise
            await asyncio.sleep(0.005)


async def _round(inputs: Inputs, config: dict, plane: Plane) -> Dict[str, object]:
    from repro.service import wire

    ready = plane.wait_ready()
    ingest_ports = ready.get("shards") or [ready["gateway"]]
    gateways = [await _connect_when_ready(p, time.perf_counter() + 60) for p in ingest_ports]
    setup_s = time.perf_counter() - plane.started
    failed = attempted = 0
    close_ms: List[float] = []

    start = time.perf_counter()
    if inputs.router is None:
        (gateway,) = gateways
        for w, phase in enumerate(inputs.phases):
            failed += await gateway.stream(phase)
            attempted += len(phase)
            if config["windows"]:
                t0 = time.perf_counter()
                answer = await gateway.ask(wire.EndWindow(period=0, window=w))
                close_ms.append((time.perf_counter() - t0) * 1e3)
                attempted += 1
                failed += not isinstance(answer, wire.EndWindowAck)
        t0 = time.perf_counter()
        answer = await gateway.ask(wire.EndPeriod(period=0))
        period_close_ms = (time.perf_counter() - t0) * 1e3
        attempted += 1
        failed += not isinstance(answer, wire.EndPeriodAck)
    else:
        (phase,) = inputs.phases
        home: Dict[int, list] = {shard: [] for shard in range(len(gateways))}
        tails: Dict[int, list] = {}
        by_rsu: Dict[int, list] = {}
        for batch in phase:
            if batch.rsu_id in inputs.moving:
                by_rsu.setdefault(batch.rsu_id, []).append(batch)
            else:
                home[inputs.router.shard_for(batch.rsu_id)].append(batch)
        for rsu in inputs.moving:
            batches = by_rsu.get(rsu, [])
            cut = max(1, len(batches) // 2)
            home[inputs.router.shard_for(rsu)].extend(batches[:cut])
            tails[rsu] = batches[cut:]
        refused = await asyncio.gather(
            *(gateways[shard].stream(home[shard]) for shard in home)
        )
        failed += sum(refused)
        attempted += sum(len(b) for b in home.values())
        # Mid-period handoffs: the neighbour shard takes each moving RSU
        # over and receives the rest of its day.
        for rsu in inputs.moving:
            source = inputs.router.shard_for(rsu)
            target = (source + 1) % len(gateways)
            answer = await gateways[target].ask(
                wire.Handoff(rsu_id=rsu, from_shard=source, to_shard=target, period=0)
            )
            attempted += 1
            failed += not isinstance(answer, wire.HandoffAck)
            failed += await gateways[target].stream(tails[rsu])
            attempted += len(tails[rsu])
        t0 = time.perf_counter()
        answers = await asyncio.gather(
            *(g.ask(wire.EndPeriod(period=0)) for g in gateways)
        )
        period_close_ms = (time.perf_counter() - t0) * 1e3
        attempted += len(answers)
        failed += sum(not isinstance(a, wire.EndPeriodAck) for a in answers)
    stream_s = time.perf_counter() - start
    for gateway in gateways:
        await gateway.close()

    return {
        "setup_s": setup_s,
        "ready": ready,
        "start": start,
        "ingest_rps": inputs.responses / stream_s,
        "close_ms": common.median(close_ms) if close_ms else period_close_ms,
        # Window closes when the plane streams in windows, else the
        # period close.
        "closes": close_ms or [period_close_ms],
        "attempted": attempted,
        "failed": failed,
    }


@contextlib.contextmanager
def one_cpu(pid: int):
    """Run this process and *pid* on one CPU while queries are timed.

    A query is a round trip between two idle processes.  On separate
    CPUs each hop wakes an idle CPU, which on a virtual machine waits
    for the hypervisor to schedule that virtual CPU; on one CPU each hop
    is a plain context switch.  The round-trip time then reflects the
    collector's work rather than the hypervisor's."""
    saved = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
    if saved is None or len(saved) < 2:
        yield
        return
    cpu = {min(saved)}
    os.sched_setaffinity(pid, cpu)
    os.sched_setaffinity(0, cpu)
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


class QueryClient:
    """A blocking client for the timed query phase: one frame out, one
    frame back, no event loop in between, so the round trip is the
    collector's work plus two socket hops."""

    #: Frame header of docs/protocol.md: magic, version, type, payload
    #: length, CRC-32.
    HEADER = struct.Struct(">2sBBII")

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def ask(self, message):
        from repro.service import wire

        self.sock.sendall(wire.encode_frame(message))
        header = self._read(self.HEADER.size)
        payload = self._read(self.HEADER.unpack(header)[3])
        return wire.decode_frame(header + payload)[0]

    def _read(self, size: int) -> bytes:
        data = b""
        while len(data) < size:
            chunk = self.sock.recv(size - len(data))
            if not chunk:
                raise ConnectionError("collector closed the connection")
            data += chunk
        return data

    def close(self) -> None:
        self.sock.close()


def _queries(inputs: Inputs, config: dict, out: Dict[str, object]) -> Dict[str, object]:
    from repro.service import wire

    attempted, failed, start = out["attempted"], out["failed"], out["start"]
    collector = QueryClient(out["ready"]["collector"])
    points: Dict[int, int] = {}
    for rsu in inputs.rsus:
        answer = collector.ask(wire.PointQuery(rsu_id=rsu, period=0))
        attempted += 1
        if isinstance(answer, wire.PointVolume):
            points[rsu] = answer.counter
        else:
            failed += 1
    pairs = [(a, b) for i, a in enumerate(inputs.rsus) for b in inputs.rsus[i + 1 :]]
    answers: Dict[Tuple[int, int], object] = {}
    latencies: List[float] = []
    matrix_s = None
    for _ in range(config["query_passes"]):
        for a, b in pairs:
            t0 = time.perf_counter()
            answer = collector.ask(wire.VolumeQuery(rsu_x=a, rsu_y=b, period=0))
            latencies.append((time.perf_counter() - t0) * 1e3)
            attempted += 1
            if isinstance(answer, wire.EstimateMsg):
                answers[(a, b)] = SimpleNamespace(
                    value=answer.n_c_hat, v_c=answer.v_c, v_x=answer.v_x,
                    v_y=answer.v_y, m_x=answer.m_x, m_y=answer.m_y,
                    n_x=answer.n_x, n_y=answer.n_y,
                )
            else:
                failed += 1
        if matrix_s is None:
            matrix_s = time.perf_counter() - start
    collector.close()
    out.update(
        matrix_s=matrix_s, latency_blocks=common.blocks(latencies, len(pairs)),
        points=points, answers=answers, query_p50_ms=common.percentile(latencies, 50),
        attempted=attempted, failed=failed,
    )
    return out


def _check(inputs: Inputs, points, answers) -> List[str]:
    problems = oracle.check_routes(
        ((arc.tail, arc.head, arc.free_flow_time) for arc in inputs.network.arcs()),
        inputs.plan.routes,
    )
    node_truth, pair_truth = oracle.incidence_truth(inputs.plan.routes, inputs.plan.trips.pairs())
    problems += oracle.check_truth(inputs.counts, inputs.truth, node_truth, pair_truth)
    for rsu, count in inputs.counts.items():
        if points.get(rsu) != count:
            problems.append(f"RSU {rsu}: point counter {points.get(rsu)} != {count} sent")
    arrays = oracle.BitArrays.from_indices(inputs.indices, inputs.sizes)
    want = arrays.estimates(
        [(a, b) for i, a in enumerate(inputs.rsus) for b in inputs.rsus[i + 1 :]], inputs.s
    )
    problems += oracle.check_estimates(answers, want, inputs.counts, "live answer")
    problems += oracle.check_answer_arithmetic(answers, inputs.s, "live answer")
    return problems


def _sum_metric(dump: dict, name: str, field: str = "value") -> float:
    return sum(
        float(row.get(field, 0.0))
        for rows in dump["registries"].values()
        for row in rows
        if row["name"] == name
    )


def run(workload: str, seed: int, seconds: float, tracer, smoke: bool = False) -> Dict[str, object]:
    from tracing import totals

    config = (SMOKE if smoke else CONFIGS)[workload]
    started = time.perf_counter()
    with tracer.span("loadgen.inputs"):
        inputs = Inputs(config, seed)
    inputs_s = time.perf_counter() - started
    problems: List[str] = []
    trials = []
    for k in range(1, config["accuracy_trials"]):
        estimates, wrong = accuracy_trial(config, seed, inputs.hash_seed + k, inputs.counts)
        trials.append(estimates)
        problems += wrong
    # The load generator's inputs live until the run ends: keep them out
    # of the collector's scans so its pauses do not land in the timings.
    gc.freeze()

    rounds: List[Dict[str, object]] = []
    first: Optional[Dict[str, object]] = None
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline or (
        tracer.enabled and len(rounds) < 2
    ):
        traced = tracer.enabled and len(rounds) % 2 == 1
        tag = f"{workload}-{seed}-{len(rounds)}"
        plane = Plane(config, seed, traced, tag)
        try:
            out = asyncio.run(_round(inputs, config, plane))
            with one_cpu(plane.proc.pid):
                out = _queries(inputs, config, out)
            out["dump"] = plane.stop()
        finally:
            plane.kill()
        out["traced"] = traced
        rounds.append(out)
        if first is None:
            first = out
            problems += _check(inputs, out["points"], out["answers"])
        elif {p: a.value for p, a in out["answers"].items()} != {
            p: a.value for p, a in first["answers"].items()
        } or out["points"] != first["points"]:
            problems.append(f"round {len(rounds)} answered differently")

    untraced = [r for r in rounds if not r["traced"]] or rounds
    estimates = {p: a.value for p, a in first["answers"].items()}
    e2e = {
        "setup_s": metric(common.median(r["setup_s"] for r in rounds), "s"),
        "matrix_s": metric(common.median(r["matrix_s"] for r in untraced), "s"),
        "ingest_rps": metric(common.median(r["ingest_rps"] for r in untraced), "1/s"),
        "close_ms": metric(common.median(c for r in untraced for c in r["closes"]), "ms"),
        "query_p50_ms": metric(common.round_percentile(untraced, 50), "ms"),
        "query_p99_ms": metric(common.round_percentile(untraced, 99), "ms"),
        "peak_rss_mb": metric(common.median(r["dump"]["peak_rss_mb"] for r in untraced), "MB"),
        "vlm_p90_err": metric(oracle.p90_error([estimates, *trials], inputs.truth), "ratio"),
    }
    traced_rounds = [r for r in rounds if r["traced"]]
    layer: Dict[str, float] = {}
    if traced_rounds:
        dump_spans = [s for r in traced_rounds for s in r["dump"]["spans"]]
        tracer.spans.extend(dump_spans)
        per = len(traced_rounds)
        dumps = [r["dump"] for r in traced_rounds]

        def counter(name: str, field: str = "value") -> float:
            return sum(_sum_metric(d, name, field) for d in dumps) / per

        hits = counter("decoder.unfold_cache_hits_total")
        misses = counter("decoder.unfold_cache_misses_total")
        layer = {
            "setup.import_s": common.median(r["ready"]["import_s"] for r in traced_rounds),
            "setup.spec_s": common.median(r["ready"]["spec_s"] for r in traced_rounds),
            "setup.start_s": common.median(r["setup_s"] for r in traced_rounds),
            "loadgen.inputs_s": inputs_s,
            "routing.od_pairs": len(inputs.plan.routes),
            "volumes.vehicles": inputs.plan.trips.total_trips,
            "volumes.passes_total": inputs.responses,
            "volumes.truth_pairs": len(inputs.truth),
            "decoder.unfold_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "wire.frames": counter("wire.frames_total"),
            "wire.bytes": counter("wire.bytes_total"),
            "rsu.responses_recorded": counter("gateway.responses_recorded_total"),
            "gateway.flush_s": counter("gateway.ingest_flush_seconds", "sum"),
            "gateway.backpressure_stalls": counter("gateway.backpressure_stalls_total"),
            "gateway.snapshots_uploaded": counter("gateway.snapshots_uploaded_total"),
            "gateway.window_partials_uploaded": counter(
                "gateway.window_partials_uploaded_total"
            ),
            "collector.queries_answered": counter("collector.queries_answered_total"),
            "streaming.pair_updates": counter("stream.pair_updates_total"),
            "streaming.new_bits": counter("stream.new_bits_total"),
            "federation.snapshots_merged": counter("federation.snapshots_merged_total"),
            "federation.handoffs": counter("federation.handoffs_accepted_total"),
            "federation.wal_records": counter("federation.wal_records_total"),
            "federation.wal_bytes": counter("federation.wal_bytes_total"),
        }
        span_totals = totals(dump_spans)
        layer["federation.merge_s"] = span_totals.get("federation.merge", {}).get("self_s", 0.0) / per
        layer["trace.overhead_ratio"] = common.median(
            r["ingest_rps"] for r in untraced
        ) / common.median(r["ingest_rps"] for r in traced_rounds)
    return {
        "problems": problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "e2e": e2e,
        "layer": layer,
        "traced_rounds": len(traced_rounds),
        "notes": [
            f"{config['scenario']}: {inputs.plan.trips.total_trips:,} trips, "
            f"{len(inputs.rsus)} RSUs, {inputs.responses:,} responses in "
            f"{inputs.batches:,} batches, {max(1, config['windows'])} window(s), "
            f"{config['shards'] or 1} gateway(s), {len(inputs.moving)} handoff(s), "
            f"{len(rounds)} round(s)",
            common.round_table(
                rounds, ("setup_s", "matrix_s", "ingest_rps", "close_ms", "query_p50_ms")
            ),
        ],
    }

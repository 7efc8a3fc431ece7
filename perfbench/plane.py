"""The live plane under test, in its own process.

Run as::

    python3 perfbench/plane.py --scenario sioux-falls --trips 1803000 \\
        --seed 1 --windows 24 --dump out.json [--shards 2 --wal x.wal] [--trace]

It builds the deployment from the same flags the load generator uses,
starts the collector and the gateway (or, with ``--shards``, a
federated collector and that many gateway shards), prints one
``READY {json}`` line with the bound ports and its set-up split, and
serves until a line arrives on standard input (or stdin closes).  It
then stops the services, writes a JSON dump -- every metrics registry,
the recorded spans, its peak RSS -- to ``--dump`` and exits 0.

With ``--trace`` the entry points of each layer are wrapped in spans
(see :func:`install_spans`) before anything is built.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

START = time.perf_counter()

import common  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402


def install_spans(tracer: Tracer, federated: bool) -> None:
    """Wrap each layer's entry points in spans (traced runs only)."""
    from repro.core.decoder import CentralDecoder
    from repro.federation.collector import FederatedCollector
    from repro.federation.wal import WriteAheadLog
    from repro.roadnet.volumes import TrafficAssignment
    from repro.service import wire
    from repro.service.collector import CollectorService
    from repro.service.gateway import RsuGateway
    from repro.streaming import StreamingDecoder
    from repro.traffic import network_workload
    from repro.vcps.rsu import RoadsideUnit

    network_workload.assign_routes = tracer.wrap(
        "routing.assign", network_workload.assign_routes
    )
    materialize = TrafficAssignment.materialize.__func__
    TrafficAssignment.materialize = classmethod(
        tracer.wrap("volumes.materialize", materialize)
    )
    # read_message/write_message look these up as module globals.
    wire._decode_payload = tracer.wrap("wire.decode", wire._decode_payload)
    wire.encode_frame = tracer.wrap("wire.encode", wire.encode_frame)
    RoadsideUnit.handle_wire_batch = tracer.wrap(
        "rsu.ingest", RoadsideUnit.handle_wire_batch
    )
    RsuGateway.close_period = tracer.wrap("gateway.close", RsuGateway.close_period)
    RsuGateway.close_window = tracer.wrap("gateway.close", RsuGateway.close_window)
    CentralDecoder.pair_estimate = tracer.wrap(
        "decoder.pair_estimate", CentralDecoder.pair_estimate
    )
    StreamingDecoder.observe_report = tracer.wrap(
        "streaming.absorb", StreamingDecoder.observe_report
    )
    StreamingDecoder.ingest_partial = tracer.wrap(
        "streaming.absorb", StreamingDecoder.ingest_partial
    )
    WriteAheadLog.append = tracer.wrap("federation.wal_append", WriteAheadLog.append)
    FederatedCollector._apply_shard_snapshot = tracer.wrap(
        "federation.merge", FederatedCollector._apply_shard_snapshot
    )

    submits = (wire.Snapshot, wire.ShardSnapshot, wire.WindowSnapshot)
    queries = (wire.VolumeQuery, wire.PointQuery)
    # The federated collector handles shard partials before deferring
    # to the base class, so wrap the dispatch of the class in use only.
    owner = FederatedCollector if federated else CollectorService
    handle = owner._handle

    def traced_handle(self, message):
        if isinstance(message, submits):
            name = "collector.submit"
        elif isinstance(message, queries):
            name = "collector.query"
        else:
            name = "collector.other"
        with tracer.span(name):
            return handle(self, message)

    owner._handle = traced_handle


async def serve(args, tracer, imported_at: float) -> dict:
    from repro.obs import get_registry
    from repro.service.runtime import DeploymentSpec, start_services

    with tracer.span("setup.spec"):
        spec = DeploymentSpec(
            total_trips=args.trips, seed=args.seed, scenario=args.scenario
        )
    built_at = time.perf_counter()
    registries = {"default": get_registry()}
    if args.shards:
        from repro.federation.runtime import start_federation

        plane = await start_federation(
            spec,
            shards=args.shards,
            wal_path=args.wal,
            wal_fsync=False,
            build_workers=1,
            build_executor="serial",
            windows=args.windows,
        )
        ports = {"shards": [plane.shards[i].port for i in sorted(plane.shards)],
                 "collector": plane.collector.port}
        registries["collector"] = plane.collector.registry
        for shard_id, gateway in plane.shards.items():
            registries[f"shard{shard_id}"] = gateway.registry
        stop = plane.stop
    else:
        gateway, collector = await start_services(
            spec, gateway_port=0, collector_port=0, windows=args.windows
        )
        ports = {"gateway": gateway.port, "collector": collector.port}
        registries["gateway"] = gateway.registry
        registries["collector"] = collector.registry

        async def stop():
            await gateway.stop()
            await collector.stop()

    ready = {
        **ports,
        "import_s": imported_at - START,
        "spec_s": built_at - imported_at,
        "start_s": time.perf_counter() - built_at,
    }
    print("READY " + json.dumps(ready), flush=True)
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.readline)
    await stop()
    return {
        "ready": ready,
        "registries": {name: reg.snapshot() for name, reg in registries.items()},
        "spans": tracer.spans if tracer.enabled else [],
        "peak_rss_mb": common.peak_rss_mb(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--trips", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--windows", type=int, default=0)
    parser.add_argument("--shards", type=int, default=0)
    parser.add_argument("--wal", default=None)
    parser.add_argument("--dump", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = Tracer("plane") if args.trace else NullTracer()
    with tracer.span("setup.import"):
        import repro.federation.runtime  # noqa: F401
        import repro.service.runtime  # noqa: F401
    imported_at = time.perf_counter()
    if args.trace:
        install_spans(tracer, federated=bool(args.shards))
    dump = asyncio.run(serve(args, tracer, imported_at))
    with open(args.dump, "w", encoding="utf-8") as handle:
        json.dump(dump, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``grid-study``: the offline all-pairs OD-matrix study.

One round is what ``repro.experiments.sioux_falls_matrix.run_od_matrix``
does, called stage by stage so each layer can be timed from here: route
the trip table, materialize the fleet, derive the ground truth and the
per-node pass lists, then encode and decode the whole matrix with both
schemes (VLM and the fixed-length baseline).  After the matrix, every
pair is queried once through the VLM decoder's ``pair_estimate``.

The trip table is the scenario's fixed gravity demand; ``--seed`` picks
the vehicle fleet (identities and keys), so every seed gives different
bit arrays and estimates.
"""

from __future__ import annotations

import time
from typing import Dict, List

import common
import oracle
from common import metric
from tracing import NullTracer

FULL = {"scenario": "grid-12x12", "trips": 288_000}
SMOKE = {"scenario": "grid-4x4", "trips": 4_000}
#: Every pair is queried this many times per round: the first pass
#: fills the decoder's unfold memo, later passes read it.
QUERY_PASSES = 4


def _registry_value(registry, name: str) -> float:
    return sum(
        float(row["value"]) for row in registry.snapshot() if row["name"] == name
    )


def run(seed: int, seconds: float, tracer, smoke: bool = False) -> Dict[str, object]:
    size = SMOKE if smoke else FULL
    setups = [
        common.time_setup_probe(size["scenario"], size["trips"])
        for _ in range(1 if smoke else 3)
    ]

    from repro.baseline.scheme import FixedLengthScheme
    from repro.core.estimator import ZeroFractionPolicy
    from repro.core.scheme import VlmScheme
    from repro.core.sizing import fixed_array_size_for_privacy
    from repro.errors import ReproError
    from repro.obs import get_registry
    from repro.privacy.optimizer import max_load_factor_for_privacy
    from repro.roadnet.routing import assign_routes
    from repro.roadnet.volumes import (
        TrafficAssignment,
        node_volumes,
        pair_common_volumes,
    )
    from repro.scenarios import get_scenario

    scenario = get_scenario(size["scenario"])
    network = scenario.network()
    trips = scenario.trip_table(size["trips"])
    registry = get_registry()
    s = 2

    problems: List[str] = []
    first: Dict[str, object] = {}
    rounds: List[Dict[str, float]] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline or (
        tracer.enabled and len(rounds) < 2
    ):
        # Traced runs alternate untraced and traced rounds, so the
        # overhead of tracing is measured on the same inputs.
        traced = tracer.enabled and len(rounds) % 2 == 1
        span = tracer.span if traced else NullTracer().span
        hits0 = _registry_value(registry, "decoder.unfold_cache_hits_total")
        misses0 = _registry_value(registry, "decoder.unfold_cache_misses_total")

        start = time.perf_counter()
        with span("routing.assign"):
            plan = assign_routes(network, trips)
        with span("volumes.materialize"):
            assignment = TrafficAssignment.materialize(plan, seed=seed)
        with span("volumes.truth"):
            volumes = node_volumes(plan)
            truth = pair_common_volumes(plan)
        with span("volumes.passes"):
            passes = assignment.passes(network.nodes)
        n_min = min(volumes.values())
        load_factor = max_load_factor_for_privacy(0.5, s, n_x=n_min, n_y=n_min)
        baseline_m = fixed_array_size_for_privacy(volumes.values(), s, min_privacy=0.5)
        close_start = time.perf_counter()
        matrices, reports = {}, {}
        for kind in ("vlm", "baseline"):
            if kind == "vlm":
                scheme = VlmScheme(
                    volumes, s=s, load_factor=load_factor, hash_seed=7,
                    policy=ZeroFractionPolicy.CLAMP,
                )
                vlm = scheme
            else:
                scheme = FixedLengthScheme(
                    baseline_m, s=s, hash_seed=7, policy=ZeroFractionPolicy.CLAMP
                )
            with span("core.encode"):
                reports[kind] = scheme.encode(passes)
            scheme.decoder.submit_many(reports[kind].values())
            with span("decoder.matrix"):
                matrices[kind] = scheme.decoder.estimate_matrix()
        end = time.perf_counter()

        pairs = sorted(matrices["vlm"])
        answers, latencies = {}, []
        with span("decoder.pair_estimate"):
            for _ in range(QUERY_PASSES):
                for a, b in pairs:
                    t0 = time.perf_counter()
                    try:
                        answers[(a, b)] = vlm.decoder.pair_estimate(a, b)
                    except ReproError:
                        failed += 1
                        continue
                    latencies.append((time.perf_counter() - t0) * 1e3)
        attempted += 2 * len(pairs) + QUERY_PASSES * len(pairs)

        responses = sum(r.counter for rep in reports.values() for r in rep.values())
        hits = _registry_value(registry, "decoder.unfold_cache_hits_total") - hits0
        misses = _registry_value(registry, "decoder.unfold_cache_misses_total") - misses0
        rounds.append(
            {
                "traced": traced,
                "matrix_s": end - start,
                "close_ms": (end - close_start) * 1e3,
                "ingest_rps": responses / (end - start),
                "od_pairs": len(plan.routes),
                "vehicles": assignment.total_vehicles,
                "passes_total": sum(ids.size for ids, _ in passes.values()),
                "truth_pairs": len(truth),
                "encode_responses": responses,
                "matrix_pairs": sum(len(m) for m in matrices.values()),
                "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
                "latency_blocks": common.blocks(latencies, len(pairs)),
            }
        )

        values = {kind: {p: e.value for p, e in m.items()} for kind, m in matrices.items()}
        if not first:
            # Rounds repeat the same work, so the first one's peak is the
            # study's; sampled before the oracle allocates its own arrays.
            first["peak_rss_mb"] = common.peak_rss_mb()
            first["values"] = values
            problems += _check_round(plan, network, volumes, truth, reports,
                                     matrices, answers, s)
            first["p90_error"] = oracle.p90_error([values["vlm"]], truth)
        elif values != first["values"]:
            problems.append(f"round {len(rounds)} decoded a different matrix")

    untraced = [r for r in rounds if not r["traced"]] or rounds
    e2e = {
        "setup_s": metric(common.median(x["wall_s"] for x in setups), "s"),
        "matrix_s": metric(common.median(r["matrix_s"] for r in untraced), "s"),
        "ingest_rps": metric(common.median(r["ingest_rps"] for r in untraced), "1/s"),
        "close_ms": metric(common.median(r["close_ms"] for r in untraced), "ms"),
        "query_p50_ms": metric(common.round_percentile(untraced, 50), "ms"),
        "query_p99_ms": metric(common.round_percentile(untraced, 99), "ms"),
        "peak_rss_mb": metric(first["peak_rss_mb"], "MB"),
        "vlm_p90_err": metric(first["p90_error"], "ratio"),
    }
    traced = [r for r in rounds if r["traced"]]
    layer = {
        "setup.import_s": common.median(x["import_s"] for x in setups),
        "setup.spec_s": common.median(x["spec_s"] for x in setups),
        "routing.od_pairs": rounds[0]["od_pairs"],
        "volumes.vehicles": rounds[0]["vehicles"],
        "volumes.passes_total": rounds[0]["passes_total"],
        "volumes.truth_pairs": rounds[0]["truth_pairs"],
        "core.encode_responses": rounds[0]["encode_responses"],
        "decoder.matrix_pairs": rounds[0]["matrix_pairs"],
        "decoder.unfold_cache_hit_ratio": common.median(
            r["hit_ratio"] for r in (traced or rounds)
        ),
    }
    if traced:
        layer["trace.overhead_ratio"] = common.median(
            r["matrix_s"] for r in traced
        ) / common.median(r["matrix_s"] for r in untraced)
    return {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "e2e": e2e,
        "layer": layer,
        "traced_rounds": len(traced),
        "notes": [
            f"{size['scenario']}: {trips.total_trips:,} trips, "
            f"{len(network.nodes)} RSUs, {len(rounds)} round(s)",
            common.round_table(rounds, ("matrix_s", "ingest_rps", "close_ms")),
        ],
    }


def _check_round(plan, network, volumes, truth, reports, matrices, answers, s) -> List[str]:
    problems = oracle.check_routes(
        ((arc.tail, arc.head, arc.free_flow_time) for arc in network.arcs()),
        plan.routes,
    )
    point, common_truth = oracle.incidence_truth(plan.routes, plan.trips.pairs())
    problems += oracle.check_truth(volumes, truth, point, common_truth)
    for kind, matrix in matrices.items():
        arrays = oracle.BitArrays.from_reports(reports[kind])
        counters = {rsu: point.get(rsu, 0) for rsu in reports[kind]}
        for rsu, report in reports[kind].items():
            if report.counter != counters[rsu]:
                problems.append(
                    f"{kind}: RSU {rsu} counted {report.counter} passes, "
                    f"{counters[rsu]} vehicles pass it"
                )
        want = arrays.estimates(matrix.keys(), s)
        problems += oracle.check_estimates(matrix, want, counters, f"{kind} matrix")
        if kind == "vlm":
            problems += oracle.check_estimates(answers, want, counters, "vlm query")
    return problems

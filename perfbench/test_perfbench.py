"""The benchmark's own tests: every workload's code path and checks at
tiny sizes, so the benchmark cannot rot unnoticed.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
from run import WORKLOADS, declared_metrics  # noqa: E402


def _run(args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload, trace):
    done = _run(["--workload", workload, "--smoke", "--seed", "5", "--trace", str(trace)])
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    declared = dict(declared_metrics(kind))
    assert set(result["metrics"]) == set(declared)
    for name, value in result["metrics"].items():
        assert value["unit"] == declared[name]
        assert np.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0, name


def test_without_program_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "grid-study", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _arrays():
    rng = np.random.default_rng(0)
    sizes = {1: 64, 2: 256, 3: 256}
    indices = {rsu: rng.integers(0, m, size=m // 3) for rsu, m in sizes.items()}
    return oracle.BitArrays.from_indices(indices, sizes), indices


def test_oracle_matches_the_program_decoder():
    from repro.core.bitarray import BitArray
    from repro.core.decoder import CentralDecoder
    from repro.core.estimator import ZeroFractionPolicy
    from repro.core.reports import RsuReport

    arrays, indices = _arrays()
    decoder = CentralDecoder(2, policy=ZeroFractionPolicy.CLAMP)
    for rsu, (_, size) in arrays.arrays.items():
        bits = BitArray(size)
        bits.set_bits(indices[rsu])
        decoder.submit(RsuReport(rsu_id=rsu, counter=len(indices[rsu]), bits=bits))
    program = decoder.estimate_matrix()
    want = arrays.estimates(program.keys(), 2)
    counters = {rsu: len(idx) for rsu, idx in indices.items()}
    assert oracle.check_estimates(program, want, counters, "t") == []


def test_oracle_flags_a_wrong_answer():
    arrays, indices = _arrays()
    want = arrays.estimates([(1, 2), (2, 3)], 2)
    counters = {rsu: len(idx) for rsu, idx in indices.items()}
    answers = {
        pair: SimpleNamespace(**fields, n_x=counters[pair[0]], n_y=counters[pair[1]])
        for pair, fields in want.items()
    }
    assert oracle.check_estimates(answers, want, counters, "t") == []
    answers[(1, 2)].value *= 1.001
    assert oracle.check_estimates(answers, want, counters, "t")
    answers[(1, 2)].value = want[(1, 2)]["value"]
    answers[(2, 3)].n_y += 1
    assert oracle.check_estimates(answers, want, counters, "t")


def test_incidence_truth_counts_shared_route_nodes():
    routes = {(1, 3): [1, 2, 3], (2, 3): [2, 3], (3, 1): [3, 1]}
    point, common = oracle.incidence_truth(routes, [((1, 3), 5), ((2, 3), 2), ((3, 1), 1)])
    assert point == {1: 6, 2: 7, 3: 8}
    assert common == {(1, 2): 5, (1, 3): 6, (2, 3): 7}

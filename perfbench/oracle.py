"""Independent checks of the program's outputs.

Nothing here calls the program's estimator, decoder, unfolding or
volume code.  The oracle recomputes from first principles:

* ``n̂_c`` with the paper's Eq. 5 from raw RSU bit arrays: the smaller
  array is unfolded by tiling it up to the larger size, OR-ed with the
  larger one, and the zero bits are counted;
* the ground truth as a route-incidence product ``Aᵀ·diag(trips)·A``
  (``A[r, v] = 1`` when route ``r`` passes node ``v``): its diagonal is
  each node's point volume, its off-diagonal the common volumes;
* that every route is a shortest path of the network (Dijkstra from
  scipy, not networkx);
* that every RSU counter equals the number of responses the benchmark
  itself produced or sent for that RSU.

Each ``check_*`` function returns a list of human-readable mismatch
descriptions; an empty list means the output agreed.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

Pair = Tuple[int, int]

#: Pairs with fewer true common vehicles are left out of the accuracy
#: metric, as in the paper's all-pairs study.
MIN_TRUTH = 500

#: Relative tolerance for ``n̂_c``: the oracle and the program both
#: evaluate Eq. 5 in double precision, but not with the same operations.
REL_TOL = 1e-9


def eq5(v_c: float, v_x: float, v_y: float, m_y: int, s: int) -> float:
    """Paper Eq. 5: ``n̂_c = (ln V_c − ln V_x − ln V_y) / ln ρ`` with
    ``ρ = (1 − (s−1)/(s·m_y)) / (1 − 1/m_y)``."""
    ln_rho = math.log1p(-(s - 1) / (s * m_y)) - math.log1p(-1.0 / m_y)
    return (math.log(v_c) - math.log(v_x) - math.log(v_y)) / ln_rho


def _popcount_rows(rows: np.ndarray) -> np.ndarray:
    """Set bits per row of a 2-D ``uint8`` array."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
    table = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)
    return table[rows].sum(axis=1)


def _fraction(zeros: int, size: int) -> float:
    """Zero fraction, with half a zero bit for a saturated array (the
    continuity correction the live plane and the study both use)."""
    return (zeros if zeros else 0.5) / size


class BitArrays:
    """Raw RSU bit arrays as packed bytes: ``rsu_id -> (bytes, m)``.

    Sizes are powers of two of at least 8 bits, so tiling an array's
    bytes is tiling its bits, whatever the bit order inside a byte.
    """

    def __init__(self, arrays: Mapping[int, Tuple[np.ndarray, int]]) -> None:
        self.arrays = {
            int(rsu): (np.asarray(data, dtype=np.uint8), int(size))
            for rsu, (data, size) in arrays.items()
        }
        self.zeros = {
            rsu: size - int(_popcount_rows(data[None, :])[0])
            for rsu, (data, size) in self.arrays.items()
        }

    @classmethod
    def from_reports(cls, reports: Mapping[int, object]) -> "BitArrays":
        """From program reports (``.bits.to_bytes()`` / ``.bits.size``)."""
        return cls(
            {
                rsu: (np.frombuffer(r.bits.to_bytes(), dtype=np.uint8), r.bits.size)
                for rsu, r in reports.items()
            }
        )

    @classmethod
    def from_indices(
        cls, indices: Mapping[int, np.ndarray], sizes: Mapping[int, int]
    ) -> "BitArrays":
        """The arrays an RSU must hold after recording *indices*."""
        arrays = {}
        for rsu, size in sizes.items():
            bits = np.zeros(int(size), dtype=bool)
            idx = indices.get(rsu)
            if idx is not None and len(idx):
                bits[np.asarray(idx, dtype=np.int64)] = True
            arrays[rsu] = (np.packbits(bits), int(size))
        return cls(arrays)

    def estimates(
        self, pairs: Iterable[Pair], s: int
    ) -> Dict[Pair, Dict[str, float]]:
        """Eq. 5 for each pair: ``{value, v_c, v_x, v_y, m_x, m_y}``
        with ``x`` the smaller array."""
        by_large: Dict[int, List[Tuple[Pair, int]]] = {}
        for pair in pairs:
            a, b = pair
            small, large = (a, b) if self.arrays[a][1] <= self.arrays[b][1] else (b, a)
            by_large.setdefault(large, []).append((pair, small))
        out: Dict[Pair, Dict[str, float]] = {}
        for large, members in by_large.items():
            data_y, m_y = self.arrays[large]
            tiled = np.stack(
                [
                    np.tile(self.arrays[small][0], m_y // self.arrays[small][1])
                    for _, small in members
                ]
            )
            np.bitwise_or(tiled, data_y[None, :], out=tiled)
            joint_zeros = m_y - _popcount_rows(tiled)
            v_y = _fraction(self.zeros[large], m_y)
            for (pair, small), zeros in zip(members, joint_zeros):
                m_x = self.arrays[small][1]
                v_c = _fraction(int(zeros), m_y)
                v_x = _fraction(self.zeros[small], m_x)
                out[pair] = {
                    "value": eq5(v_c, v_x, v_y, m_y, s),
                    "v_c": v_c,
                    "v_x": v_x,
                    "v_y": v_y,
                    "m_x": m_x,
                    "m_y": m_y,
                }
        return out


def check_estimates(
    program: Mapping[Pair, object],
    oracle: Mapping[Pair, Mapping[str, float]],
    counters: Mapping[int, int],
    label: str,
) -> List[str]:
    """Compare program pair estimates (objects with ``value``, ``v_c``,
    ``v_x``, ``v_y``, ``m_x``, ``m_y``, ``n_x``, ``n_y``) with the oracle
    and each ``n_x``/``n_y`` with the expected RSU *counters*."""
    problems: List[str] = []
    if set(program) != set(oracle):
        problems.append(
            f"{label}: program answered {len(program)} pairs, "
            f"oracle expected {len(oracle)}"
        )
    for pair, want in oracle.items():
        got = program.get(pair)
        if got is None:
            continue
        a, b = pair
        fields_equal = (
            got.v_c == want["v_c"]
            and got.m_x == want["m_x"]
            and got.m_y == want["m_y"]
            and {got.v_x, got.v_y} == {want["v_x"], want["v_y"]}
        )
        if not fields_equal:
            problems.append(f"{label} {pair}: zero fractions or sizes differ")
        elif not math.isclose(got.value, want["value"], rel_tol=REL_TOL, abs_tol=1e-6):
            problems.append(
                f"{label} {pair}: n_c {got.value!r} != Eq. 5 {want['value']!r}"
            )
        if sorted((got.n_x, got.n_y)) != sorted((counters[a], counters[b])):
            problems.append(
                f"{label} {pair}: counters ({got.n_x}, {got.n_y}) != sent "
                f"({counters[a]}, {counters[b]})"
            )
        if len(problems) > 20:
            problems.append(f"{label}: further mismatches suppressed")
            break
    return problems


def check_answer_arithmetic(answers: Mapping[Pair, object], s: int, label: str) -> List[str]:
    """Each live answer's ``n_c_hat`` against Eq. 5 evaluated on the
    ``v_c``/``v_x``/``v_y``/``m_y`` the answer itself carries."""
    problems = []
    for pair, got in answers.items():
        want = eq5(got.v_c, got.v_x, got.v_y, got.m_y, s)
        if not math.isclose(got.value, want, rel_tol=REL_TOL, abs_tol=1e-6):
            problems.append(f"{label} {pair}: answer {got.value!r} != Eq. 5 {want!r}")
    return problems


def incidence_truth(
    routes: Mapping[Pair, Sequence[int]], trips: Iterable[Tuple[Pair, int]]
) -> Tuple[Dict[int, int], Dict[Pair, int]]:
    """``(point volumes, common volumes)`` from ``Aᵀ·diag(trips)·A``."""
    from scipy import sparse

    demand = [(pair, int(count)) for pair, count in trips if count]
    nodes = sorted({node for pair, _ in demand for node in routes[pair]})
    column = {node: j for j, node in enumerate(nodes)}
    rows, cols = [], []
    for i, (pair, _) in enumerate(demand):
        route_nodes = sorted({column[node] for node in routes[pair]})
        rows.extend([i] * len(route_nodes))
        cols.extend(route_nodes)
    incidence = sparse.csr_matrix(
        (np.ones(len(rows), dtype=np.int64), (rows, cols)),
        shape=(len(demand), len(nodes)),
    )
    counts = np.array([count for _, count in demand], dtype=np.int64)
    weighted = sparse.csr_matrix(incidence.multiply(counts[:, None]))
    product = (incidence.T @ weighted).toarray()
    point = {node: int(product[j, j]) for node, j in column.items() if product[j, j]}
    common = {}
    for i, a in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            if product[i, j]:
                common[(a, nodes[j])] = int(product[i, j])
    return point, common


def check_truth(
    program_point: Mapping[int, int],
    program_common: Mapping[Pair, int],
    oracle_point: Mapping[int, int],
    oracle_common: Mapping[Pair, int],
) -> List[str]:
    problems = []
    point = {k: v for k, v in program_point.items() if v}
    if point != dict(oracle_point):
        problems.append("node volumes differ from the incidence product diagonal")
    common = {
        (min(a, b), max(a, b)): v for (a, b), v in program_common.items() if v
    }
    if common != dict(oracle_common):
        wrong = [k for k in set(common) | set(oracle_common)
                 if common.get(k) != oracle_common.get(k)]
        problems.append(
            f"common volumes differ from Aᵀ·diag(trips)·A on {len(wrong)} pairs, "
            f"e.g. {sorted(wrong)[:3]}"
        )
    return problems


def check_routes(
    arcs: Iterable[Tuple[int, int, float]], routes: Mapping[Pair, Sequence[int]]
) -> List[str]:
    """Every route joins its OD pair over existing arcs in shortest time."""
    from scipy import sparse
    from scipy.sparse.csgraph import dijkstra

    arcs = list(arcs)
    nodes = sorted({n for tail, head, _ in arcs for n in (tail, head)})
    index = {node: i for i, node in enumerate(nodes)}
    cost = {(tail, head): float(time) for tail, head, time in arcs}
    graph = sparse.csr_matrix(
        (
            [time for _, _, time in arcs],
            ([index[t] for t, _, _ in arcs], [index[h] for _, h, _ in arcs]),
        ),
        shape=(len(nodes), len(nodes)),
    )
    dist = dijkstra(graph, directed=True)
    problems = []
    for (origin, dest), route in routes.items():
        if route[0] != origin or route[-1] != dest:
            problems.append(f"route {origin}->{dest} has wrong endpoints")
            continue
        try:
            total = sum(cost[(u, v)] for u, v in zip(route, route[1:]))
        except KeyError:
            problems.append(f"route {origin}->{dest} uses a missing arc")
            continue
        best = dist[index[origin], index[dest]]
        if not math.isclose(total, best, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(
                f"route {origin}->{dest} takes {total}, shortest is {best}"
            )
        if len(problems) > 20:
            break
    return problems


def p90_error(trials: Sequence[Mapping[Pair, float]], truth: Mapping[Pair, int]) -> float:
    """p90 of ``|n̂_c − n_c| / n_c`` over pairs with ``n_c >= MIN_TRUTH``
    (over every pair with traffic when no pair is that large, as with
    the smoke inputs), pooled over *trials*: sets of estimates of the
    same traffic."""
    for floor in (MIN_TRUTH, 1):
        errors = [
            abs(estimates[pair] - true) / true
            for estimates in trials
            for pair, true in truth.items()
            if true >= floor and pair in estimates
        ]
        if errors:
            return float(np.percentile(errors, 90))
    raise ValueError("no pair carries traffic")

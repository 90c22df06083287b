"""Min-link-loss state-independent primary paths (Section 4.2.2).

The paper's second base policy chooses primary paths "so as to minimize
overall system blocking of primary calls, under the independent link
assumption": minimize ``sum_k phi_k(Lambda_k)`` with
``phi_k(L) = L * B(L, C_k)``, the expected lost-call rate of link ``k``,
which Krishnan [23] proves convex in the load.  The optimum generally
*bifurcates* flows: an O-D pair uses each of several paths with some
probability.

The paper solves this with an iterative conjugate-gradient method; we use
the classical flow-deviation / Frank-Wolfe algorithm, which is the standard
solver for exactly this convex multicommodity objective and needs only the
marginal link costs ``phi'``:

1. at the current path flows, compute every link's marginal cost;
2. for each O-D pair, assign its whole demand to its cheapest candidate
   path under those marginals (the all-or-nothing step);
3. line-search on the segment toward the all-or-nothing flow;
4. repeat until the Frank-Wolfe duality gap is small.

The result is a ``splits`` mapping consumable by every routing policy (each
accepts bifurcated primaries) and by :func:`repro.traffic.bifurcated_link_loads`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.erlang import expected_lost_calls, expected_lost_calls_derivative
from ..topology.graph import Network
from ..topology.paths import Path, PathTable
from ..traffic.matrix import TrafficMatrix

__all__ = ["MinLossSolution", "optimize_primary_flows"]


@dataclass(frozen=True)
class MinLossSolution:
    """Converged bifurcated primary flows.

    ``splits[od]`` lists ``(path, fraction)`` with fractions summing to one;
    ``link_loads`` the resulting primary demands; ``objective`` the total
    expected lost-call rate; ``lower_bound`` the best Frank-Wolfe dual bound
    (``objective - lower_bound`` bounds the suboptimality); ``iterations``
    the number of flow-deviation steps taken.
    """

    splits: dict[tuple[int, int], tuple[tuple[Path, float], ...]]
    link_loads: np.ndarray
    objective: float
    lower_bound: float
    iterations: int

    @property
    def optimality_gap(self) -> float:
        return max(0.0, self.objective - self.lower_bound)

    def bifurcated_pairs(self, threshold: float = 1e-6) -> int:
        """Number of O-D pairs genuinely split across several paths."""
        return sum(
            1
            for entries in self.splits.values()
            if sum(1 for __, fraction in entries if fraction > threshold) > 1
        )


def _objective(loads: np.ndarray, capacities: np.ndarray) -> float:
    return float(
        sum(
            expected_lost_calls(float(load), int(cap))
            for load, cap in zip(loads, capacities)
            if cap > 0
        )
    )


def optimize_primary_flows(
    network: Network,
    table: PathTable,
    traffic: TrafficMatrix,
    max_iterations: int = 200,
    gap_tolerance: float = 1e-3,
) -> MinLossSolution:
    """Run flow deviation to the min-link-loss primary flows.

    Candidate paths per O-D pair are the pair's full loop-free pool from
    ``table`` (primary plus alternates) — on the paper's sparse meshes this
    is the whole path space.  ``gap_tolerance`` is relative to the total
    offered traffic.
    """
    table.check_current(network)
    demands = list(traffic.positive_pairs())
    capacities = network.capacities()
    candidate_paths: list[list[Path]] = []
    candidate_links: list[list[tuple[int, ...]]] = []
    for od, demand in demands:
        pool = list(table.routes(od))
        if not pool:
            raise ValueError(f"O-D pair {od} has demand {demand} but no paths")
        candidate_paths.append(pool)
        candidate_links.append(list(table.route_links(od)))

    # Start from the all-on-primary flow.
    flows: list[np.ndarray] = [
        np.array([demand] + [0.0] * (len(candidate_paths[i]) - 1))
        for i, (__, demand) in enumerate(demands)
    ]

    def loads_of(flow_list: list[np.ndarray]) -> np.ndarray:
        loads = np.zeros(network.num_links, dtype=float)
        for links_per_path, flow in zip(candidate_links, flow_list):
            for links, amount in zip(links_per_path, flow):
                if amount > 0.0:
                    for link in links:
                        loads[link] += amount
        return loads

    loads = loads_of(flows)
    objective = _objective(loads, capacities)
    best_bound = -np.inf
    total_demand = traffic.total
    tolerance = gap_tolerance * max(total_demand, 1.0)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        marginals = np.array(
            [
                expected_lost_calls_derivative(float(loads[i]), int(capacities[i]))
                if capacities[i] > 0
                else 1.0
                for i in range(network.num_links)
            ]
        )
        # All-or-nothing assignment under the marginal costs.
        target: list[np.ndarray] = []
        gap = 0.0
        for i, (__, demand) in enumerate(demands):
            costs = [sum(marginals[link] for link in links) for links in candidate_links[i]]
            best = int(np.argmin(costs))
            aon = np.zeros(len(costs))
            aon[best] = demand
            target.append(aon)
            gap += float(np.dot(costs, flows[i] - aon))
        # Frank-Wolfe dual bound: objective - gap (gap >= 0 by optimality of AON).
        best_bound = max(best_bound, objective - gap)
        if gap <= tolerance:
            break
        # Exact-enough line search on [0, 1] by ternary search (convex).
        direction = [aon - flow for aon, flow in zip(target, flows)]

        def value_at(step: float) -> float:
            candidate = [flow + step * d for flow, d in zip(flows, direction)]
            return _objective(loads_of(candidate), capacities)

        lo, hi = 0.0, 1.0
        for __ in range(40):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if value_at(m1) <= value_at(m2):
                hi = m2
            else:
                lo = m1
        step = 0.5 * (lo + hi)
        if step <= 1e-12:
            break
        flows = [flow + step * d for flow, d in zip(flows, direction)]
        loads = loads_of(flows)
        objective = _objective(loads, capacities)

    splits: dict[tuple[int, int], tuple[tuple[Path, float], ...]] = {}
    for i, (od, demand) in enumerate(demands):
        fractions = flows[i] / demand
        entries = [
            (candidate_paths[i][j], float(fractions[j]))
            for j in range(len(fractions))
            if fractions[j] > 1e-9
        ]
        total = sum(fraction for __, fraction in entries)
        entries = [(path, fraction / total) for path, fraction in entries]
        splits[od] = tuple(entries)
    return MinLossSolution(
        splits=splits,
        link_loads=loads,
        objective=objective,
        lower_bound=float(best_bound),
        iterations=iterations,
    )

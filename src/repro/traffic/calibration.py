"""Reconstruction of the paper's NSFNet traffic matrix from Table 1.

The paper prints its nominal NSFNet demand matrix ``T`` (derived from the
Internet traffic projections of its reference [5]), but the matrix itself did
not survive in the text available to this reproduction — only its
consequence, the per-link primary loads ``Lambda^k`` of Table 1, did.

Fortunately everything downstream (protection levels, the nominal-load
simulations, the Erlang bound trends) depends on ``T`` through the link
loads, so we *calibrate*: find a non-negative matrix ``T_hat`` whose min-hop
primary routing reproduces Table 1's thirty directed-link loads.  With 132
O-D unknowns and 30 constraints the system is underdetermined; non-negative
least squares picks a sparse, exactly-fitting solution.  The residual is
checked to be numerically zero and the recomputed loads round to Table 1's
printed integers (the tests enforce both).

This is the one substitution of the reproduction; see DESIGN.md section 2.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.optimize import lsq_linear, nnls

from ..topology.graph import Network
from ..topology.nsfnet import NSFNET_TABLE1_LOADS, nsfnet_backbone
from ..topology.paths import PathTable, build_path_table
from .matrix import TrafficMatrix

__all__ = [
    "calibrate_traffic",
    "nsfnet_nominal_traffic",
    "CalibrationResult",
]


class CalibrationResult:
    """Outcome of a load-calibration run.

    ``traffic`` is the reconstructed matrix, ``residual`` the Euclidean
    mismatch ``||A x - b||`` of the NNLS fit, and ``achieved_loads`` the
    link loads the reconstruction actually produces (endpoint-keyed).
    """

    def __init__(
        self,
        traffic: TrafficMatrix,
        residual: float,
        achieved_loads: dict[tuple[int, int], float],
    ):
        self.traffic = traffic
        self.residual = residual
        self.achieved_loads = achieved_loads

    def max_load_error(self, targets: dict[tuple[int, int], float]) -> float:
        """Largest absolute per-link deviation from the target loads."""
        return max(
            abs(self.achieved_loads[endpoints] - target)
            for endpoints, target in targets.items()
        )


def calibrate_traffic(
    network: Network,
    target_loads: dict[tuple[int, int], float],
    table: PathTable | None = None,
    prior: np.ndarray | None = None,
    smoothing: float = 1e-4,
) -> CalibrationResult:
    """Find a non-negative ``T`` whose min-hop routing yields ``target_loads``.

    ``target_loads`` maps every directed link's ``(src, dst)`` endpoints to
    its desired primary load in Erlangs.  Primaries default to the
    lexicographic min-hop paths of :func:`build_path_table`.

    Without a ``prior``, plain NNLS is used; it fits exactly but tends to
    concentrate the demand on few O-D pairs.  With a ``prior`` (an ``N x N``
    array of preferred demands, e.g. a gravity model), the solver instead
    minimizes ``||A x - b||^2 + smoothing * ||x - prior||^2`` subject to
    ``x >= 0`` — for small ``smoothing`` the link loads still match to well
    within the paper's integer rounding while the demand spreads over every
    pair the prior touches, restoring the statistical-multiplexing character
    of the paper's dense matrix.
    """
    if table is None:
        table = build_path_table(network)
    table.check_current(network, alternates=False)
    od_pairs = table.od_pairs()
    links = network.links
    missing = [link.endpoints for link in links if link.endpoints not in target_loads]
    if missing:
        raise ValueError(f"target loads missing for links: {missing}")
    routing = np.zeros((len(links), len(od_pairs)), dtype=float)
    for col, od in enumerate(od_pairs):
        routing[list(table.primary_links[od]), col] = 1.0
    targets = np.array([target_loads[link.endpoints] for link in links], dtype=float)
    if prior is None:
        demands, __ = nnls(routing, targets)
    else:
        prior_arr = np.asarray(prior, dtype=float)
        if prior_arr.shape != (network.num_nodes, network.num_nodes):
            raise ValueError(
                f"prior must have shape ({network.num_nodes}, {network.num_nodes})"
            )
        if (prior_arr < 0).any():
            raise ValueError("prior demands must be non-negative")
        if smoothing <= 0:
            raise ValueError("smoothing must be positive when a prior is given")
        prior_vec = np.array([prior_arr[i, j] for (i, j) in od_pairs])
        weight = np.sqrt(smoothing)
        stacked_a = np.vstack([routing, weight * np.eye(len(od_pairs))])
        stacked_b = np.concatenate([targets, weight * prior_vec])
        solution = lsq_linear(stacked_a, stacked_b, bounds=(0.0, np.inf))
        demands = solution.x
    residual = float(np.linalg.norm(routing @ demands - targets))
    matrix = np.zeros((network.num_nodes, network.num_nodes), dtype=float)
    for col, (i, j) in enumerate(od_pairs):
        matrix[i, j] = demands[col]
    achieved = routing @ demands
    achieved_by_endpoints = {
        link.endpoints: float(achieved[link.index]) for link in links
    }
    return CalibrationResult(
        traffic=TrafficMatrix(matrix),
        residual=residual,
        achieved_loads=achieved_by_endpoints,
    )


@lru_cache(maxsize=1)
def _nominal_calibration() -> CalibrationResult:
    network = nsfnet_backbone()
    targets = {k: float(v) for k, v in NSFNET_TABLE1_LOADS.items()}
    # Gravity prior spreads demand over all 132 pairs the way a real traffic
    # estimate would; node weights come from each node's total target
    # throughput so the prior is already roughly consistent with Table 1.
    out_weight = np.zeros(network.num_nodes)
    for (src, __), load in targets.items():
        out_weight[src] += load
    prior = np.outer(out_weight, out_weight)
    np.fill_diagonal(prior, 0.0)
    prior *= sum(targets.values()) / (2.0 * prior.sum())
    return calibrate_traffic(network, targets, prior=prior)


def nsfnet_nominal_traffic() -> TrafficMatrix:
    """The calibrated nominal NSFNet demand matrix (Load = 10 in Figures 6-7).

    Cached; scaling for load sweeps should go through
    :meth:`TrafficMatrix.scaled` so the cached instance stays pristine.
    """
    return _nominal_calibration().traffic

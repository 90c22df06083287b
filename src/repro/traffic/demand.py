"""Primary traffic demand per link — Equation 1 of the paper.

``Lambda^k`` is the total demand of all O-D pairs whose primary path
traverses link ``k``::

    Lambda^k = sum over (i, j) with k in P*(i, j) of T(i, j)

Controlled alternate routing keys its protection levels off these loads.
Also supports *bifurcated* primaries (Section 4.2.2's min-link-loss rule),
where an O-D pair splits its demand across several paths with given
probabilities.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..topology.graph import Network
from ..topology.paths import Path, PathTable
from .matrix import TrafficMatrix

__all__ = [
    "primary_link_loads",
    "bifurcated_link_loads",
    "multiclass_unit_loads",
    "loads_by_endpoints",
]


def primary_link_loads(
    network: Network,
    table: PathTable,
    traffic: TrafficMatrix,
) -> np.ndarray:
    """Per-link primary demand ``Lambda^k``, indexed by link index.

    Every positive demand must have a primary path in ``table``.
    """
    table.check_current(network, alternates=False)
    loads = np.zeros(network.num_links, dtype=float)
    for od, demand in traffic.positive_pairs():
        links = table.primary_links.get(od)
        if links is None:
            raise ValueError(f"O-D pair {od} has demand {demand} but no primary path")
        for link_index in links:
            loads[link_index] += demand
    return loads


def bifurcated_link_loads(
    network: Network,
    splits: Mapping[tuple[int, int], Sequence[tuple[Path, float]]],
    traffic: TrafficMatrix,
) -> np.ndarray:
    """Per-link primary demand under bifurcated primaries.

    ``splits[od]`` is a list of ``(path, fraction)`` with fractions summing
    to one; the O-D demand is spread across its paths accordingly (the
    "bifurcated primary flows" of the min-link-loss rule).
    """
    loads = np.zeros(network.num_links, dtype=float)
    for od, demand in traffic.positive_pairs():
        if od not in splits:
            raise ValueError(f"O-D pair {od} has demand {demand} but no path split")
        fractions = [fraction for __, fraction in splits[od]]
        total = sum(fractions)
        if not np.isclose(total, 1.0, atol=1e-6):
            raise ValueError(f"path fractions for {od} sum to {total}, expected 1")
        for path, fraction in splits[od]:
            if fraction == 0.0:
                continue
            for link_index in network.path_links(path):
                loads[link_index] += demand * fraction
    return loads


def multiclass_unit_loads(
    network: Network,
    table: PathTable,
    class_traffic: Sequence[tuple[str, TrafficMatrix, int]],
) -> np.ndarray:
    """Primary demand per link in *bandwidth units* for several call classes.

    Each class contributes ``demand * bandwidth`` units along its primary
    paths — the load measure the multirate protection rule
    (:func:`repro.core.multirate.multirate_protection_level`) expects.
    """
    loads = np.zeros(network.num_links, dtype=float)
    for __, matrix, bandwidth in class_traffic:
        loads += bandwidth * primary_link_loads(network, table, matrix)
    return loads


def loads_by_endpoints(network: Network, loads: np.ndarray) -> dict[tuple[int, int], float]:
    """Re-key a link-indexed load array by ``(src, dst)`` endpoint pairs."""
    if loads.shape != (network.num_links,):
        raise ValueError(
            f"expected load array of shape ({network.num_links},), got {loads.shape}"
        )
    return {link.endpoints: float(loads[link.index]) for link in network.links}

"""Link-failure scenarios (Section 4.2.2, "Link failures") — static and dynamic.

The paper disables the duplex links ``2<->3`` and, separately, ``7<->9`` in
the NSFNet model and observes that blocking rises but the *relative ordering*
of single-path, uncontrolled and controlled alternate routing is preserved.

A failure scenario is applied by copying the network, failing the links, and
rebuilding everything derived from topology — path tables, primary loads and
protection levels all change when links disappear, exactly as the paper notes
("topology changes ... influence the computation of the state-protection
level only insofar as it influences the primary traffic demand").

Beyond the paper's static model, a scenario may also carry a *dynamic*
:class:`~repro.sim.faultplane.FaultTimeline`: links failing and recovering
mid-run.  Static ``duplex_links`` are applied before the run starts; the
timeline is consumed by the simulator as the clock passes each event (see
``LossNetworkSimulator``'s ``faults`` argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..topology.graph import Network
from ..topology.paths import PathTable, build_path_table
from ..traffic.matrix import TrafficMatrix
from .faultplane import FaultTimeline

__all__ = ["FailureScenario", "FailedNetwork", "apply_failures"]


@dataclass(frozen=True)
class FailureScenario:
    """Duplex links out of service up front, plus an optional dynamic timeline.

    ``duplex_links`` is the paper's static model: those links are failed
    before the run.  ``timeline`` adds mid-run churn on top — events fire as
    simulation time passes them.
    """

    duplex_links: tuple[tuple[int, int], ...]
    name: str = ""
    timeline: FaultTimeline = field(default_factory=FaultTimeline)

    @property
    def is_dynamic(self) -> bool:
        return bool(self.timeline)

    def describe(self) -> str:
        label = self.name or "failure"
        pairs = ", ".join(f"{a}<->{b}" for a, b in self.duplex_links)
        static = f"{label}: {pairs}" if pairs else f"{label}: none"
        if not self.timeline:
            return static
        return f"{static} + {self.timeline.describe()}"


@dataclass(frozen=True)
class FailedNetwork:
    """A failure-adjusted network with its re-derived routing inputs."""

    network: Network
    table: PathTable
    primary_loads: np.ndarray
    scenario: FailureScenario


def _validate_scenario_links(network: Network, scenario: FailureScenario) -> None:
    """Reject links that don't exist or appear twice, naming the pair.

    Unknown links raise ``KeyError`` (via :meth:`Network.duplex_link_indices`)
    and duplicates — including ``(a, b)`` listed again as ``(b, a)`` — raise
    ``ValueError``, both naming the offending pair, instead of silently
    accepting them or failing deep inside the path rebuild.
    """
    seen: set[tuple[int, int]] = set()
    for a, b in scenario.duplex_links:
        network.duplex_link_indices(a, b)
        normalized = (min(a, b), max(a, b))
        if normalized in seen:
            raise ValueError(
                f"duplex link {a}<->{b} appears more than once in scenario "
                f"{scenario.name or '(unnamed)'}"
            )
        seen.add(normalized)


def apply_failures(
    network: Network,
    traffic: TrafficMatrix,
    scenario: FailureScenario,
    max_hops: int | None = None,
) -> FailedNetwork:
    """Copy ``network``, fail the scenario's static links, re-derive inputs.

    Traffic whose O-D pair becomes disconnected keeps its demand (those calls
    will all block); pairs merely rerouted contribute their demand to the new
    primary paths' loads.  The scenario's links are validated first: unknown
    pairs raise ``KeyError`` and duplicated pairs ``ValueError``, each naming
    the offending pair.

    A dynamic ``scenario.timeline`` is validated against the network too but
    not applied here — pass it to the simulator, which replays it mid-run.
    """
    _validate_scenario_links(network, scenario)
    scenario.timeline.resolve(network)  # KeyError on unknown timeline links
    failed = network.copy()
    for a, b in scenario.duplex_links:
        failed.fail_duplex_link(a, b)
    table = build_path_table(failed, max_hops=max_hops)
    loads = np.zeros(failed.num_links, dtype=float)
    for od, demand in traffic.positive_pairs():
        # A disconnected pair has no primary, so no load anywhere.
        for link_index in table.primary_links.get(od, ()):
            loads[link_index] += demand
    return FailedNetwork(network=failed, table=table, primary_loads=loads, scenario=scenario)

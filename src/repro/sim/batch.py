"""Many traces of one ``(network, policy)``, optionally under a threshold plan.

:func:`simulate_batch` replays each trace the way
:meth:`~repro.sim.simulator.LossNetworkSimulator.run` does by default: the
compiled admission kernel (:mod:`repro.sim.kernel`) where it applies, with
the policy's route table compiled once and reused for every trace, and the
general loop otherwise (DAR, power-of-d, shadow prices, multi-class or
multi-rate traces, or no C compiler); each result's ``backend`` says which
engine ran.

``threshold_schedule`` is a list of ``(time, thresholds)`` entries with
strictly increasing positive times: calls arriving at or after ``time``
face ``thresholds`` (a per-link vector, or a ``{hops: per-link}`` mapping
for per-hop-length protection) until the next entry.  This is how the
control-loop study replays a piecewise-constant threshold trajectory and
how :class:`~repro.routing.adaptive.AdaptiveProtectionSimulator` runs its
EWMA refreshes; it needs a ``threshold`` or ``length-threshold`` policy,
and both engines apply it.
"""

from __future__ import annotations

from typing import Sequence

from ..routing.base import RoutingPolicy
from ..topology.graph import Network
from .kernel import KERNEL_DISCIPLINES
from .metrics import SimulationResult
from .simulator import LossNetworkSimulator
from .trace import ArrivalTrace

__all__ = ["simulate_batch"]


def simulate_batch(
    network: Network,
    policy: RoutingPolicy,
    traces: Sequence[ArrivalTrace],
    warmup: float = 10.0,
    threshold_schedule: Sequence[tuple] | None = None,
) -> list[SimulationResult]:
    """One :class:`SimulationResult` per trace, in trace order.

    Raises :class:`ValueError` for an invalid ``threshold_schedule`` or one
    paired with a policy outside the threshold family.
    """
    simulators = [
        LossNetworkSimulator(network, policy, trace, warmup) for trace in traces
    ]
    if threshold_schedule:
        _check_schedule(policy, threshold_schedule)
    return [
        simulator._run_auto(threshold_schedule) for simulator in simulators
    ]


def _check_schedule(policy, schedule) -> None:
    """Raise :class:`ValueError` unless ``schedule`` is a valid threshold plan."""
    if policy.discipline not in KERNEL_DISCIPLINES:
        raise ValueError(
            "mid-run threshold updates require the 'threshold' or "
            "'length-threshold' discipline"
        )
    last = 0.0
    for item in schedule:
        if len(item) != 2:
            raise ValueError("threshold_schedule entries must be (time, thresholds)")
        when = float(item[0])
        if not when > last:
            raise ValueError(
                "threshold_schedule times must be positive and strictly increasing"
            )
        last = when

"""Controlled alternate routing with *online* protection-level adaptation.

The paper computes each link's protection level from an a-priori primary
demand and notes the estimate could instead "be found from the primary call
set-ups that fly past the link".  This module holds that rule once: links
count the primary set-ups they observe (:func:`primary_setups`), fold each
window's measured rate into an EWMA demand estimate and recompute their
Equation-15 protection levels (:meth:`AdaptationConfig.refresh`).  The
serving plane applies the rule live
(:class:`repro.serve.state.NetworkState`); offline,
:class:`AdaptiveProtectionSimulator` runs it with no oracle knowledge and
free tracking of nonstationary load (pair with
:mod:`repro.traffic.profiles`).

Every arrival counts its set-up, admitted or not, so the whole threshold
trajectory is a function of the trace alone.  The simulator therefore
computes it up front (:func:`threshold_updates`) and replays the trace
under it as a threshold schedule
(:func:`repro.sim.batch.simulate_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.protection import min_protection_levels
from ..sim.batch import simulate_batch
from ..sim.kernel import route_table
from ..sim.metrics import SimulationResult
from ..sim.trace import ArrivalTrace
from ..topology.graph import Network
from ..topology.paths import PathTable
from .base import RoutingPolicy, compile_route_choices

__all__ = [
    "AdaptationConfig",
    "AdaptiveProtectionSimulator",
    "ThresholdUpdate",
    "primary_setups",
    "simulate_adaptive",
    "threshold_updates",
]


@dataclass(frozen=True)
class ThresholdUpdate:
    """One protection refresh: the time and the per-link levels adopted."""

    time: float
    estimated_loads: np.ndarray
    protection_levels: np.ndarray


@dataclass(frozen=True)
class AdaptationConfig:
    """Online protection refresh: window, EWMA weight, hop bound, seed.

    Every ``update_interval`` units of time, each link folds its observed
    primary set-up rate into an EWMA estimate with weight ``ewma_weight``
    and recomputes its protection level for ``max_hops``.
    ``initial_loads`` seeds the estimates (``None`` = cold start: links
    begin unprotected and harden as they learn); it is stored as a tuple.
    """

    update_interval: float = 5.0
    ewma_weight: float = 0.3
    max_hops: int = 6
    initial_loads: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.update_interval <= 0:
            raise ValueError("update_interval must be positive")
        if not 0 < self.ewma_weight <= 1:
            raise ValueError("ewma_weight must lie in (0, 1]")
        if self.max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        if self.initial_loads is not None:
            loads = np.asarray(self.initial_loads, dtype=float)
            if loads.ndim != 1:
                raise ValueError("initial_loads must be per-link")
            object.__setattr__(self, "initial_loads", tuple(loads.tolist()))

    def initial_estimates(self, num_links: int) -> np.ndarray:
        """The seeded per-link estimates; :class:`ValueError` if not per-link."""
        if self.initial_loads is None:
            return np.zeros(num_links, dtype=float)
        if len(self.initial_loads) != num_links:
            raise ValueError("initial_loads must be per-link")
        return np.array(self.initial_loads, dtype=float)

    def refresh(self, capacities, estimates: np.ndarray, setups=None):
        """One adaptation step; returns ``(estimates, protection_levels)``.

        ``setups`` (per-link primary set-ups over one window) is folded into
        the EWMA ``estimates`` first; ``None`` keeps them as they are, which
        is the seeding step.  Levels are Equation 15 for ``max_hops``.
        """
        if setups is not None:
            measured = setups / self.update_interval
            estimates = (
                (1.0 - self.ewma_weight) * estimates + self.ewma_weight * measured
            )
        return estimates, min_protection_levels(estimates, capacities, self.max_hops)


def primary_setups(policy: RoutingPolicy, trace: ArrivalTrace, boundaries) -> np.ndarray:
    """Per-window, per-link primary set-up counts over ``trace``.

    Row ``k`` counts the calls arriving in ``[boundaries[k-1],
    boundaries[k])``: row 0 those before the first boundary, the last row
    those at or after the last one.  Every call counts one set-up on each
    link of its primary path, admitted or not — the set-up packet flies
    past the link either way.  A bifurcated pair's primary is the one the
    call's uniform picks (:meth:`repro.sim.kernel.RouteTable.pick`, here
    over the whole trace at once); calls of unrouted pairs count nothing.
    """
    table = route_table(policy, trace.od_pairs)
    boundaries = np.asarray(boundaries, dtype=float)
    num_links = table.num_links
    first = table.pair_off[trace.od_index]
    options = table.pair_off[trace.od_index + 1] - first
    routed = options > 0
    first, options = first[routed], options[routed]
    window = np.searchsorted(boundaries, trace.times[routed], side="right")
    uniforms = trace.uniforms[routed]
    # Cumulative probabilities are nondecreasing, so the pick is the number
    # of a pair's first ``options - 1`` entries the uniform reaches.
    pick = np.zeros_like(first)
    for k in range(int(options.max(initial=1)) - 1):
        more = options - 1 > k
        pick[more] += uniforms[more] >= table.cand_cum[first[more] + k]
    path = table.cand_path_off[first + pick]
    starts = table.path_link_off[path]
    lengths = table.path_link_off[path + 1] - starts
    offsets = np.arange(int(lengths.sum())) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    links = table.links[np.repeat(starts, lengths) + offsets]
    counts = np.bincount(
        np.repeat(window, lengths) * num_links + links,
        minlength=(boundaries.size + 1) * num_links,
    )
    return counts.reshape(boundaries.size + 1, num_links)


def threshold_updates(
    policy: RoutingPolicy, trace: ArrivalTrace, config: AdaptationConfig
) -> list[ThresholdUpdate]:
    """The refreshes the links adopt over ``trace``, seeding step first.

    Window boundaries sit at ``update_interval``, ``2 * update_interval``,
    ... (by repeated addition, as the live refresh steps them) up to the
    last arrival; a call arriving at a boundary counts towards the window
    that boundary opens.
    """
    capacities = policy.network.capacities()
    estimates, levels = config.refresh(
        capacities, config.initial_estimates(policy.network.num_links)
    )
    updates = [ThresholdUpdate(0.0, estimates, levels)]
    last = float(trace.times[-1]) if trace.num_calls else -np.inf
    boundaries = []
    when = config.update_interval
    while when <= last:
        boundaries.append(when)
        when += config.update_interval
    for when, setups in zip(boundaries, primary_setups(policy, trace, boundaries)):
        estimates, levels = config.refresh(capacities, estimates, setups)
        updates.append(ThresholdUpdate(when, estimates, levels))
    return updates


class AdaptiveProtectionSimulator:
    """Call-by-call simulation with links estimating their own demand.

    ``update_interval`` is the measurement window length: at each boundary
    every link folds ``setups_in_window / window`` into its EWMA estimate
    with weight ``ewma_weight`` and recomputes ``r`` for ``max_hops``
    (default: the table's).  ``initial_loads`` seeds the estimates
    (defaults to zero — fully cold start, i.e. links begin unprotected and
    harden as they learn).  The knobs are validated as one
    :class:`AdaptationConfig`, kept on :attr:`config`.
    """

    def __init__(
        self,
        network: Network,
        table: PathTable,
        trace: ArrivalTrace,
        warmup: float = 10.0,
        update_interval: float = 5.0,
        ewma_weight: float = 0.3,
        max_hops: int | None = None,
        initial_loads: np.ndarray | None = None,
    ):
        if warmup < 0 or warmup >= trace.duration:
            raise ValueError("warmup must lie in [0, duration)")
        self.config = AdaptationConfig(
            update_interval=update_interval,
            ewma_weight=ewma_weight,
            max_hops=table.max_hops if max_hops is None else max_hops,
            initial_loads=initial_loads,
        )
        self.config.initial_estimates(network.num_links)  # per-link check, now
        self.network = network
        self.table = table
        self.trace = trace
        self.warmup = float(warmup)
        choices, cum_probs = compile_route_choices(
            network, table, include_alternates=True
        )
        self._policy = RoutingPolicy(network, choices, cum_probs)
        self.updates: list[ThresholdUpdate] = []

    def run(self) -> SimulationResult:
        """Replay the trace under its threshold trajectory (see :attr:`updates`)."""
        policy = self._policy
        capacities = self.network.capacities()
        self.updates = threshold_updates(policy, self.trace, self.config)
        policy.alt_thresholds = capacities - self.updates[0].protection_levels
        schedule = [
            (update.time, capacities - update.protection_levels)
            for update in self.updates[1:]
        ]
        (result,) = simulate_batch(
            self.network, policy, [self.trace], self.warmup,
            threshold_schedule=schedule,
        )
        return result


def simulate_adaptive(
    network: Network,
    table: PathTable,
    trace: ArrivalTrace,
    **kwargs,
) -> tuple[SimulationResult, list[ThresholdUpdate]]:
    """Run an :class:`AdaptiveProtectionSimulator`; returns result + updates."""
    simulator = AdaptiveProtectionSimulator(network, table, trace, **kwargs)
    result = simulator.run()
    return result, simulator.updates

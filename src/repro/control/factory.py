"""Wiring helpers: build a ready-to-run control loop from serve pieces."""

from __future__ import annotations

import numpy as np

from ..serve.state import NetworkState
from ..serve.telemetry import MetricsRegistry
from ..topology.paths import PathTable
from ..traffic.matrix import TrafficMatrix
from .controllers import (
    ErlangGradientController,
    MarkovApproximationController,
)
from .estimator import DemandEstimator
from .loop import ControlLoop

__all__ = ["CONTROLLER_NAMES", "make_control_loop"]

CONTROLLER_NAMES = ("gradient", "markov")


def _hop_lengths(state: NetworkState) -> tuple[int, ...]:
    """The hop counts the controller sets levels for.

    Per-length policies control one bound-table row per alternate hop
    count; the scalar discipline has one family, keyed by its design ``H``.
    """
    if state.policy.discipline == "length-threshold":
        return tuple(sorted(int(h) for h in state.policy.length_thresholds))
    hops = getattr(state.policy, "max_hops", None)
    if hops is None:
        hops = max(
            (len(alt) for entries in state.policy.choices.values()
             for choice in entries for alt in choice.alternates),
            default=1,
        )
    if isinstance(hops, np.ndarray):
        hops = int(hops.max())
    return (int(hops),)


def _initial_levels(state: NetworkState, hop_lengths) -> dict[int, np.ndarray]:
    if state.policy.discipline == "length-threshold":
        rows = {h: state.bounds[h] for h in hop_lengths}
    else:
        rows = {h: state.alt_thresholds for h in hop_lengths}
    return {h: (state.capacities - row).astype(np.int64) for h, row in rows.items()}


def make_control_loop(
    state: NetworkState,
    table: PathTable,
    traffic: TrafficMatrix,
    *,
    controller: str = "gradient",
    interval: float = 5.0,
    prior_strength: float = 400.0,
    volatility_boost: float = 8.0,
    trust_radius: int = 4,
    beta: float = 4.0,
    seed: int = 0,
    telemetry: MetricsRegistry | None = None,
) -> ControlLoop:
    """Build estimator + controller + clamp for ``state``'s discipline.

    ``controller`` is one of :data:`CONTROLLER_NAMES`; the prior demand
    (the deployed matrix the static levels were provisioned from) seeds
    the estimator, and the controller starts from the levels currently
    in force so the loop's first steps are small.
    """
    if controller not in CONTROLLER_NAMES:
        raise ValueError(
            f"unknown controller {controller!r}; expected one of "
            f"{CONTROLLER_NAMES}"
        )
    estimator = DemandEstimator(
        state.network,
        table,
        traffic,
        prior_strength=prior_strength,
        volatility_boost=volatility_boost,
    )
    hop_lengths = _hop_lengths(state)
    if controller == "gradient":
        strategy = ErlangGradientController(
            state.network,
            hop_lengths,
            _initial_levels(state, hop_lengths),
            trust_radius=trust_radius,
        )
    else:
        alternates = {
            od: entries[0].alternates
            for od, entries in state.policy.choices.items()
            if entries and entries[0].alternates
        }
        strategy = MarkovApproximationController(
            state.network,
            hop_lengths,
            alternates,
            beta=beta,
            seed=seed,
        )
    return ControlLoop(
        state,
        estimator,
        strategy,
        interval=interval,
        telemetry=telemetry,
    )

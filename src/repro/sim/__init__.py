"""Simulation substrate: traces, the loss-network simulator, metrics, failures."""

from .engine import EventQueue
from .failures import FailedNetwork, FailureScenario, apply_failures
from .faultplane import (
    FaultEvent,
    FaultStats,
    FaultTimeline,
    FlappingLink,
    MarkovLinkFaults,
    ScheduledFailure,
    build_fault_timeline,
    single_failure_timeline,
)
from .metrics import BinnedSeries, SimulationResult, SweepStatistic, aggregate
from .rng import substream
from .signaling import (
    SignalingConfig,
    SignalingSimulator,
    SignalingStats,
    simulate_signaling,
)
from .simulator import LossNetworkSimulator, simulate
from .trace import ArrivalTrace, generate_multiclass_trace, generate_trace

# Imported last: the simulator pulls in the routing package, which itself
# imports sim submodules — by now they are all fully initialized, so the
# cycle never bites.
from .batch import simulate_batch  # noqa: E402

__all__ = [
    "simulate_batch",
    "EventQueue",
    "FailureScenario",
    "FailedNetwork",
    "apply_failures",
    "FaultEvent",
    "FaultStats",
    "FaultTimeline",
    "FlappingLink",
    "MarkovLinkFaults",
    "ScheduledFailure",
    "build_fault_timeline",
    "single_failure_timeline",
    "BinnedSeries",
    "SimulationResult",
    "SweepStatistic",
    "aggregate",
    "substream",
    "LossNetworkSimulator",
    "simulate",
    "SignalingConfig",
    "SignalingSimulator",
    "SignalingStats",
    "simulate_signaling",
    "ArrivalTrace",
    "generate_trace",
    "generate_multiclass_trace",
]

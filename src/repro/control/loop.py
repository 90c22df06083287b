"""The closed control loop: observe → estimate → propose → clamp → swap.

:class:`ControlLoop` is driven by the serving plane on *request time*
(the same virtual clock the adaptation loop uses), so a replayed trace
produces bit-identical control decisions on every run — which is what
lets the smoke harness assert a stable ``decisions_sha256`` and the
cluster prove swap equivalence against the single-process engine.

Every window the loop folds the engine's per-pair setup/block counts
into the :class:`~repro.control.estimator.DemandEstimator`, asks its
:class:`~repro.control.controllers.Controller` for a proposal, projects
the proposal through the Theorem-1
:class:`~repro.control.controllers.SafetyClamp`, and applies the result
atomically via :meth:`repro.serve.state.NetworkState.hot_swap` — unless
the operator has pinned the policy epoch, in which case proposals are
recorded (and visible in telemetry) but not applied: that is the
rollback story, see ``docs/OPERATIONS.md``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from ..serve.state import NetworkState
from ..serve.telemetry import MetricsRegistry
from .controllers import Controller, ControlProposal, SafetyClamp
from .estimator import DemandEstimator

__all__ = ["ControlLoop", "ControlStep"]


@dataclass(frozen=True)
class ControlStep:
    """One executed control window, for trajectories and audits."""

    time: float
    epoch: int
    applied: bool
    objective: float
    max_delta: float
    clamp_lifted: int
    swap_seconds: float
    confidence: float
    volatility: float
    thresholds: dict[int, tuple[int, ...]]
    alt_prefix: dict[tuple[int, int], int] | None = None
    info: dict = field(default_factory=dict)


class ControlLoop:
    """Interval-driven protection-level controller over live state."""

    def __init__(
        self,
        state: NetworkState,
        estimator: DemandEstimator,
        controller: Controller,
        *,
        clamp: SafetyClamp | None = None,
        interval: float = 5.0,
        telemetry: MetricsRegistry | None = None,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if state.adaptation is not None:
            raise ValueError(
                "a ControlLoop and threshold adaptation cannot share one "
                "NetworkState: two writers would race on the thresholds"
            )
        self.state = state
        self.estimator = estimator
        self.controller = controller
        self.clamp = clamp if clamp is not None else SafetyClamp(state.network)
        self.interval = float(interval)
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        self.next_step: float = self.interval
        self._last_boundary = 0.0
        self.steps: list[ControlStep] = []
        self.pinned_epoch: int | None = None
        self.active_prefix: dict[tuple[int, int], int] | None = None
        registry = self.telemetry
        self._m_proposals = registry.counter("control_proposals_total")
        self._m_swaps = registry.counter("control_swaps_total")
        self._m_skipped = registry.counter("control_swaps_skipped_total")
        self._m_lifted = registry.counter("control_clamp_lifted_total")
        self._m_objective = registry.gauge("control_objective")
        self._m_confidence = registry.gauge("control_confidence")
        self._m_volatility = registry.gauge("control_volatility")
        self._m_swap_seconds = registry.histogram("control_swap_seconds")

    # ------------------------------------------------------------- pinning

    def pin(self, epoch: int | None = None) -> int:
        """Freeze swaps at ``epoch`` (default: the current one).

        The loop keeps estimating and proposing — telemetry still shows
        what it *would* do — but the thresholds in force stay at the
        pinned epoch until :meth:`unpin`.
        """
        pinned = self.state.policy_epoch if epoch is None else int(epoch)
        self.pinned_epoch = pinned
        return pinned

    def unpin(self) -> None:
        """Resume applying proposals."""
        self.pinned_epoch = None

    # -------------------------------------------------------------- stepping

    def step(
        self,
        now: float,
        arrivals: dict[tuple[int, int], int],
        blocked: dict[tuple[int, int], int] | None = None,
    ) -> ControlStep | None:
        """Run the control window(s) due at or before ``now``.

        ``arrivals``/``blocked`` are the per-pair counts the engine
        accumulated since the previous step; a gap spanning several
        intervals is folded as one longer window (correct for the
        cumulative-mean estimator).  Returns the executed step, or
        ``None`` when no window boundary has been reached.
        """
        if now < self.next_step:
            return None
        boundary = self.next_step
        while boundary + self.interval <= now:
            boundary += self.interval
        span = boundary - self._last_boundary
        self.estimator.observe(boundary, span, arrivals, blocked)
        estimate = self.estimator.estimate(boundary)
        proposal = self.controller.propose(boundary, estimate)
        self._m_proposals.inc()
        safe, lifted = self.clamp.project(proposal, estimate.link_loads)
        if lifted:
            self._m_lifted.inc(lifted)
        step = self._apply(boundary, safe, estimate, lifted)
        self.steps.append(step)
        self._m_objective.set(step.objective)
        self._m_confidence.set(estimate.confidence)
        self._m_volatility.set(estimate.volatility)
        self._last_boundary = boundary
        self.next_step = boundary + self.interval
        return step

    def _apply(
        self, now: float, proposal: ControlProposal, estimate, lifted: int
    ) -> ControlStep:
        state = self.state
        capacities = state.capacities
        thresholds = {
            int(h): tuple(int(v) for v in (capacities - levels))
            for h, levels in proposal.levels.items()
        }
        if self.pinned_epoch is not None:
            self._m_skipped.inc()
            return ControlStep(
                time=now,
                epoch=state.policy_epoch,
                applied=False,
                objective=proposal.objective,
                max_delta=0.0,
                clamp_lifted=lifted,
                swap_seconds=0.0,
                confidence=float(estimate.confidence),
                volatility=float(estimate.volatility),
                thresholds=thresholds,
                alt_prefix=proposal.alt_prefix,
                info=dict(proposal.info),
            )
        start = time.perf_counter()
        # Per-length proposals name bound-table rows; the scalar
        # discipline's one hop family applies to every hop count.
        if state.policy.discipline == "length-threshold":
            max_delta = state.hot_swap(thresholds, now=now)
        else:
            max_delta = state.hot_swap(thresholds[min(thresholds)], now=now)
        swap_seconds = time.perf_counter() - start
        self.active_prefix = proposal.alt_prefix
        self._m_swaps.inc()
        self._m_swap_seconds.observe(swap_seconds)
        return ControlStep(
            time=now,
            epoch=state.policy_epoch,
            applied=True,
            objective=proposal.objective,
            max_delta=float(max_delta),
            clamp_lifted=lifted,
            swap_seconds=swap_seconds,
            confidence=float(estimate.confidence),
            volatility=float(estimate.volatility),
            thresholds=thresholds,
            alt_prefix=proposal.alt_prefix,
            info=dict(proposal.info),
        )

    # ------------------------------------------------------------ reporting

    def decisions_sha256(self) -> str:
        """Digest of the applied threshold trajectory — replay-stable."""
        canonical = [
            {
                "time": step.time,
                "epoch": step.epoch,
                "applied": step.applied,
                "thresholds": {str(h): list(t) for h, t in sorted(step.thresholds.items())},
                "alt_prefix": (
                    None
                    if step.alt_prefix is None
                    else {f"{od[0]}-{od[1]}": m for od, m in sorted(step.alt_prefix.items())}
                ),
            }
            for step in self.steps
        ]
        blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def trajectory(self) -> list[dict]:
        """JSON-ready per-step records (objective, deltas, swap latency)."""
        return [
            {
                "time": step.time,
                "epoch": step.epoch,
                "applied": step.applied,
                "objective": step.objective,
                "max_delta": step.max_delta,
                "clamp_lifted": step.clamp_lifted,
                "swap_seconds": step.swap_seconds,
                "confidence": step.confidence,
                "volatility": step.volatility,
            }
            for step in self.steps
        ]

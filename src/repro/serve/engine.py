"""The admission request engine: batched two-tier route decisions.

One :class:`RequestEngine` owns a :class:`~repro.serve.state.NetworkState`
and answers :class:`AdmitRequest` / :class:`ReleaseRequest` objects with
:class:`Decision` objects, applying exactly the simulator's threshold
admission semantics (see :mod:`repro.sim.simulator`): a primary is
admitted iff every link has ``width`` free circuits; otherwise alternates
are tried in policy order and admitted iff every link stays within its
alternate-admission threshold; bifurcated primaries are picked by the
request's uniform variate against the policy's cumulative probabilities.
That one-to-one correspondence is load-bearing: replaying an
:class:`~repro.sim.trace.ArrivalTrace` through the engine must reproduce
the simulator's per-call decisions bit for bit
(:mod:`repro.serve.loadgen` is the harness, ``tests/test_serve.py`` the
proof).

Requests are decided in **micro-batches**: :meth:`RequestEngine.decide`
answers one request with the full per-request overhead (state snapshot,
telemetry fold, latency stamp), while :meth:`RequestEngine.decide_batch`
amortizes all of that over a tight loop — the per-decision bookkeeping is
hoisted out, so batched dispatch is several times faster at identical
decisions (``benchmarks/bench_serve_throughput.py`` quantifies it).  The
asyncio front end (:mod:`repro.serve.server`) accumulates concurrent
requests into batches bounded by :class:`BatchConfig`.

Overload protection (:mod:`repro.serve.shed`) is consulted per query:
``degraded`` mode skips alternate-path exploration (primary-only routing),
``shed`` mode rejects the query outright before it costs anything.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from ..routing.base import RoutingPolicy
from ..topology.graph import Network
from .shed import MODES, OverloadControl
from .state import NetworkState
from .telemetry import MetricsRegistry

__all__ = [
    "AdmitRequest",
    "ReleaseRequest",
    "Decision",
    "BatchConfig",
    "RequestEngine",
    "apply_alt_prefix",
    "compile_routes",
]

#: Batch-size histogram bounds (powers of two up to the sane maximum).
_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass(frozen=True, slots=True)
class AdmitRequest:
    """One admission query: may this call be routed, and where?

    ``uniform`` feeds the bifurcated-primary pick (common-random-numbers
    compatible with the trace's per-call variate); ``time`` is the
    request's virtual timestamp (trace time under replay, wall clock when
    ``None``); ``width`` is the bandwidth booked per link.
    """

    id: int | str
    od: tuple[int, int]
    uniform: float = 0.0
    time: float | None = None
    width: int = 1


@dataclass(frozen=True, slots=True)
class ReleaseRequest:
    """End of a held call: free the circuits its admission booked."""

    id: int | str
    time: float | None = None


@dataclass(frozen=True, slots=True)
class Decision:
    """The engine's answer to one request.

    ``tier`` is ``"primary"`` / ``"alternate"`` for admitted calls,
    ``"none"`` for rejections and ``"release"`` for release answers.
    ``reason`` is ``None`` on success, else one of ``"blocked"``,
    ``"no-route"``, ``"shed"``, ``"degraded"``, ``"duplicate-call"``,
    ``"unknown-call"``.
    """

    id: int | str
    admitted: bool
    route: tuple[int, ...] | None
    tier: str
    reason: str | None

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "admitted": self.admitted,
            "route": None if self.route is None else list(self.route),
            "tier": self.tier,
            "reason": self.reason,
        }


def compile_routes(policy: RoutingPolicy) -> dict:
    """Per-O-D dispatch entries from the policy's compiled choices.

    Mirrors the simulator's precompilation: deterministic pairs carry a
    bare ``("single", primary, alternates)`` entry, bifurcated pairs the
    candidate list plus cumulative probabilities.  Shared by the
    in-process engine and the cluster router so both planes route one
    request identically.
    """
    routes: dict[tuple[int, int], tuple] = {}
    for od, options in policy.choices.items():
        if not options:
            continue
        if len(options) == 1:
            routes[od] = ("single", options[0].primary, options[0].alternates)
        else:
            routes[od] = (
                "multi",
                [(c.primary, c.alternates) for c in options],
                policy.cum_probs[od].tolist(),
            )
    return routes


def apply_alt_prefix(
    routes: dict, prefix: dict[tuple[int, int], int]
) -> dict:
    """Truncate each pair's alternate list to its controller-chosen prefix.

    Entries absent from ``prefix`` keep their full alternate set; the
    input dict is not mutated (the engine swaps the whole table so a
    batch in flight keeps routing against a consistent snapshot).
    """
    out = dict(routes)
    for od, keep in prefix.items():
        entry = routes.get(od)
        if entry is None:
            continue
        if entry[0] == "single":
            out[od] = ("single", entry[1], entry[2][:keep])
        else:
            out[od] = (
                "multi",
                [(primary, alts[:keep]) for primary, alts in entry[1]],
                entry[2],
            )
    return out


@dataclass(frozen=True)
class BatchConfig:
    """Micro-batching knobs for the asyncio front end.

    ``max_batch`` caps how many queued requests one dispatch decides;
    ``max_latency`` (seconds) bounds how long a lone request may wait for
    company before the batch is flushed anyway.
    """

    max_batch: int = 64
    max_latency: float = 0.002

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be positive")
        if self.max_latency < 0:
            raise ValueError("max_latency must be non-negative")


class RequestEngine:
    """Decide admit/release requests against live network state.

    ``overload=None`` disables self-protection (every query fully routed —
    required for simulator-equivalent replay); ``telemetry=None`` creates
    a private registry.  ``clock`` supplies the time for requests that
    carry none (injectable for tests).
    """

    def __init__(
        self,
        network: Network,
        policy: RoutingPolicy,
        *,
        state: NetworkState | None = None,
        overload: OverloadControl | None = None,
        telemetry: MetricsRegistry | None = None,
        batch: BatchConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
        control=None,
    ):
        self.state = state if state is not None else NetworkState(network, policy)
        if self.state.policy is not policy:
            raise ValueError("state was built for a different policy")
        if control is not None:
            if control.state is not self.state:
                raise ValueError("control loop was built for a different state")
            if self.state.adaptation is not None:
                raise ValueError(
                    "threshold adaptation and a control loop cannot both "
                    "drive one engine: two writers would race on the "
                    "thresholds"
                )
        self.control = control
        self.policy = policy
        self.overload = overload
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        self.batch = batch if batch is not None else BatchConfig()
        self.clock = clock
        #: Held calls: request id -> (path, width); release looks them up.
        self.held: dict[int | str, tuple[tuple[int, ...], int]] = {}
        #: Pending-queue depth, maintained by the socket front end; feeds
        #: the overload control's queue-based shedding.
        self.queue_depth = 0
        self.decisions_total = 0
        self._capacities = self.state.capacities.tolist()
        self._routes = compile_routes(policy)
        #: Untruncated route table; controller alternate-prefix proposals
        #: are always applied against this, never compounded.
        self._base_routes = self._routes
        #: Per-pair setup/block counts accumulated for the control loop
        #: (persist across batches; a batch may end mid-window).
        self._ctrl_arrivals: dict[tuple[int, int], int] = {}
        self._ctrl_blocked: dict[tuple[int, int], int] = {}
        # Telemetry series are resolved once; the batch loop folds locals
        # into them at batch end.
        registry = self.telemetry
        self._m_primary = registry.counter("serve_decisions_total", tier="primary")
        self._m_alternate = registry.counter("serve_decisions_total", tier="alternate")
        self._m_rejected = {
            reason: registry.counter("serve_rejected_total", reason=reason)
            for reason in ("blocked", "no-route", "shed", "degraded")
        }
        self._m_released = registry.counter("serve_released_total")
        self._m_errors = registry.counter("serve_errors_total")
        self._m_latency = registry.histogram("serve_decision_seconds")
        self._m_batch = registry.histogram("serve_batch_size", buckets=_BATCH_BUCKETS)
        self._m_queue = registry.gauge("serve_queue_depth")
        self._m_mode = registry.gauge("serve_mode")
        self._m_util = registry.gauge("serve_utilization")
        self._m_held = registry.gauge("serve_held_calls")
        # Adaptation observability: recompute counter, the magnitude of the
        # last threshold move, and per-link threshold gauges — exported only
        # for adaptive engines (static thresholds never change, and the
        # per-link series would be noise).
        self._m_recomputes = None
        self._m_recompute_delta = None
        self._m_link_thresholds: list = []
        # The policy epoch is exported for every engine (0 = the static
        # policy as compiled) so replay telemetry can align decisions to
        # the policy version that made them.
        self._m_epoch = registry.gauge("serve_policy_epoch")
        self._m_epoch.set(self.state.policy_epoch)
        if self.state.adaptation is not None or self.control is not None:
            self._m_recomputes = registry.counter(
                "serve_threshold_recomputes_total"
            )
            self._m_recompute_delta = registry.gauge(
                "serve_threshold_last_max_delta"
            )
            self._m_link_thresholds = [
                registry.gauge("serve_link_threshold", link=str(link))
                for link in range(network.num_links)
            ]
            self._export_thresholds()

    def _export_thresholds(self) -> None:
        """Publish the per-link alternate-admission thresholds as gauges."""
        for gauge, value in zip(
            self._m_link_thresholds, self.state.alt_thresholds
        ):
            gauge.set(int(value))

    # ----------------------------------------------------------- public API

    def decide(self, request: AdmitRequest | ReleaseRequest) -> Decision:
        """Answer one request (full per-request overhead; see class doc)."""
        return self.decide_batch((request,))[0]

    def decide_batch(
        self, requests: Sequence[AdmitRequest | ReleaseRequest]
    ) -> list[Decision]:
        """Answer a micro-batch of requests, in order, atomically.

        Decisions are identical to deciding the requests one by one — the
        batch only amortizes bookkeeping (state snapshot, telemetry fold,
        latency stamping), never reorders or coalesces admissions.
        """
        start = time.perf_counter()
        state = self.state
        occupancy, rows = state.arrays()
        adapt = state.adaptation is not None
        recomputes_before = state.recompute_count if adapt else 0
        setups = [0] * len(occupancy) if adapt else None
        next_refresh = state.next_refresh
        ctrl = self.control
        ctrl_arrivals = self._ctrl_arrivals
        ctrl_blocked = self._ctrl_blocked
        next_ctrl = ctrl.next_step if ctrl is not None else None
        epoch_before = state.policy_epoch
        capacities = self._capacities
        held = self.held
        routes = self._routes
        control = self.overload
        clock = self.clock
        queue_depth = self.queue_depth
        decisions: list[Decision] = []
        append = decisions.append
        n_primary = n_alternate = n_released = n_errors = 0
        rejected = {"blocked": 0, "no-route": 0, "shed": 0, "degraded": 0}

        for request in requests:
            if type(request) is ReleaseRequest:
                entry = held.pop(request.id, None)
                if entry is None:
                    append(Decision(request.id, False, None, "release",
                                    "unknown-call"))
                    n_errors += 1
                else:
                    path, width = entry
                    for link in path:
                        occupancy[link] -= width
                    append(Decision(request.id, True, path, "release", None))
                    n_released += 1
                continue
            now = request.time
            if now is None:
                now = clock()
            if adapt and next_refresh is not None and now >= next_refresh:
                # Fold this batch's partial counts in, refresh, re-snapshot.
                state.absorb(occupancy, setups)
                setups = [0] * len(occupancy)
                state.maybe_refresh(now)
                occupancy, rows = state.arrays()
                next_refresh = state.next_refresh
            if next_ctrl is not None and now >= next_ctrl:
                # Control window boundary: hand the accumulated per-pair
                # counts to the loop, then re-snapshot whatever it swapped.
                state.absorb(occupancy)
                step = ctrl.step(now, ctrl_arrivals, ctrl_blocked)
                ctrl_arrivals.clear()
                ctrl_blocked.clear()
                if step is not None and step.applied:
                    if step.alt_prefix is not None:
                        self._routes = apply_alt_prefix(
                            self._base_routes, step.alt_prefix
                        )
                        routes = self._routes
                    occupancy, rows = state.arrays()
                next_ctrl = ctrl.next_step
            mode = "normal" if control is None else control.classify(now, queue_depth)
            if mode == "shed":
                append(Decision(request.id, False, None, "none", "shed"))
                rejected["shed"] += 1
                continue
            if request.id in held:
                append(Decision(request.id, False, None, "none", "duplicate-call"))
                n_errors += 1
                continue
            entry = routes.get(request.od)
            if entry is None:
                # Disconnected pair: necessarily lost, as in the simulator.
                append(Decision(request.id, False, None, "none", "no-route"))
                rejected["no-route"] += 1
                continue
            if entry[0] == "single":
                primary, alternates = entry[1], entry[2]
            else:
                options, cum = entry[1], entry[2]
                u = request.uniform
                pick = 0
                while pick < len(cum) - 1 and u >= cum[pick]:
                    pick += 1
                primary, alternates = options[pick]
            width = request.width
            if ctrl is not None:
                od = request.od
                ctrl_arrivals[od] = ctrl_arrivals.get(od, 0) + 1
            if adapt:
                # The primary set-up packet passes every primary link,
                # admitted or not — that is what the links measure.
                for link in primary:
                    setups[link] += 1
            for link in primary:
                if occupancy[link] + width > capacities[link]:
                    break
            else:
                for link in primary:
                    occupancy[link] += width
                held[request.id] = (primary, width)
                append(Decision(request.id, True, primary, "primary", None))
                n_primary += 1
                continue
            if mode == "degraded":
                # Alternate-tier queries are shed first; the primary was
                # still tried, so primaries go last.
                append(Decision(request.id, False, None, "none", "degraded"))
                rejected["degraded"] += 1
                continue
            path = None
            for alt in alternates:
                bounds = rows[len(alt)]
                for link in alt:
                    if occupancy[link] + width > bounds[link]:
                        break
                else:
                    path = alt
                    break
            if path is None:
                append(Decision(request.id, False, None, "none", "blocked"))
                rejected["blocked"] += 1
                if ctrl is not None:
                    od = request.od
                    ctrl_blocked[od] = ctrl_blocked.get(od, 0) + 1
            else:
                for link in path:
                    occupancy[link] += width
                held[request.id] = (path, width)
                append(Decision(request.id, True, path, "alternate", None))
                n_alternate += 1

        state.absorb(occupancy, setups)
        count = len(decisions)
        self.decisions_total += count
        elapsed = time.perf_counter() - start
        self._m_primary.inc(n_primary)
        self._m_alternate.inc(n_alternate)
        for reason, n in rejected.items():
            if n:
                self._m_rejected[reason].inc(n)
        self._m_released.inc(n_released)
        self._m_errors.inc(n_errors)
        if count:
            self._m_latency.observe_many(elapsed / count, count)
            self._m_batch.observe(count)
        self._m_queue.set(queue_depth)
        if control is not None:
            self._m_mode.set(MODES.index(control.mode))
        self._m_util.set(state.utilization())
        self._m_held.set(len(held))
        if adapt:
            fired = state.recompute_count - recomputes_before
            if fired:
                self._m_recomputes.inc(fired)
                self._m_recompute_delta.set(state.last_refresh_delta)
                self._export_thresholds()
        if ctrl is not None:
            swapped = state.policy_epoch - epoch_before
            if swapped:
                self._m_epoch.set(state.policy_epoch)
                self._m_recomputes.inc(swapped)
                self._m_recompute_delta.set(state.last_refresh_delta)
                self._export_thresholds()
        return decisions

    # ----------------------------------------------------------- inspection

    def metrics_text(self) -> str:
        """The registry's ``/metrics``-style dump."""
        return self.telemetry.render_text()

    def publish_metrics(self, **extra) -> dict | None:
        """Snapshot the registry onto its bound JSONL event bus."""
        return self.telemetry.publish(**extra)

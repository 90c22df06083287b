"""Call-by-call loss-network simulation.

Replays a pre-generated :class:`~repro.sim.trace.ArrivalTrace` under a
compiled :class:`~repro.routing.base.RoutingPolicy`.  The model is the
paper's: each call requests one unit of bandwidth on every link of one path;
links are loss systems (no queueing, no retries beyond the policy's path
list); holding times came with the trace.  Every policy sees the identical
arrival sample — the paper's common-random-numbers methodology.

Admission semantics:

* a **primary** attempt succeeds iff every link on the primary path has a
  free circuit;
* under the *threshold* discipline, an **alternate** attempt succeeds iff
  every link's occupancy is strictly below the policy's per-link alternate
  threshold (``C`` for uncontrolled routing, ``C - r`` with state
  protection); alternates are tried in increasing hop length and the call is
  lost if all fail;
* under the *shadow* discipline (Ott-Krishnan) all candidate paths are
  priced by the policy's per-link tables at current occupancies and the call
  takes the cheapest path iff that price does not exceed the call revenue.

Two engines implement the semantics.  The *general* loop handles every
feature (faults, binned timelines, multi-class traces, bandwidths, link
statistics, all disciplines) and doubles as the reference implementation:
occupancies live in a plain list, departures in a heap of
``(time, path, width, pair, measured)`` entries.  The *compiled* kernel
(:mod:`repro.sim.kernel`, C source in ``_kernel.c``) runs the common
replication shape — the ``threshold`` and ``length-threshold``
disciplines, unit bandwidth, no faults, no timeline — over a flat route
table and a presorted departure order.  Both make the identical admission
decisions in the identical order, so every counter in the result is
bit-identical for a fixed seed; ``run(backend="reference")`` forces the
general loop, and ``SimulationResult.backend`` records which engine ran.

Dynamic faults (beyond the paper's static Section-4.2.2 scenarios): a
:class:`~repro.sim.faultplane.FaultTimeline` makes links fail and recover
*mid-run*.  When a link goes down, calls holding circuits on it are severed
(counted in ``SimulationResult.dropped``, distinct from blocked) and the
link admits nothing; when it comes back up it admits calls immediately.
Routing state, however, reconverges only after ``reconvergence_delay``: the
stale policy keeps routing until a ``rebuild_policy`` callback re-derives
path tables, primary loads and protection levels against the changed
topology — the regime where Theorem 1's guarantee is computed against the
wrong topology, which is exactly what the dynamic-failure experiments
measure.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

import numpy as np

from ..routing.base import RoutingPolicy, policy_bounds
from ..topology.graph import Network
from .faultplane import FaultEvent, FaultStats, FaultTimeline
from .kernel import (
    KERNEL_DISCIPLINES,
    admit,
    bound_segments,
    load_kernel,
    route_table,
    threshold_rows,
)
from .metrics import BinnedSeries, SimulationResult
from .trace import ArrivalTrace

__all__ = ["BACKENDS", "LossNetworkSimulator", "check_backend", "simulate"]

_REVENUE_EPS = 1e-12
_INFINITY = float("inf")

#: Values of every ``backend=`` keyword: ``"auto"`` runs the compiled
#: admission kernel wherever it applies (the general loop otherwise),
#: ``"reference"`` forces the general event-loop oracle.
BACKENDS = ("auto", "reference")


def check_backend(backend: str) -> str:
    """Return ``backend``; :class:`ValueError` unless it is in :data:`BACKENDS`."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
        )
    return backend


class LossNetworkSimulator:
    """One network + one policy + one trace -> one :class:`SimulationResult`.

    ``warmup`` truncates measurement: calls arriving before it still occupy
    circuits (warming the state up from the idle network, as the paper does
    with its 10 time units) but are not counted.

    ``faults`` enables mid-run link failures/repairs; ``rebuild_policy``
    (optional) is called with the failure-adjusted network after each
    topology change, ``reconvergence_delay`` time units late, and must
    return a fresh policy of the same discipline family.  Without it the
    stale policy routes for the whole run (links down still admit nothing).
    ``timeline_bin`` collects a :class:`~repro.sim.metrics.BinnedSeries` of
    per-bin offered/blocked/dropped counts on :attr:`binned_series`.
    """

    def __init__(
        self,
        network: Network,
        policy: RoutingPolicy,
        trace: ArrivalTrace,
        warmup: float = 10.0,
        collect_link_stats: bool = False,
        initial_occupancy: np.ndarray | None = None,
        faults: FaultTimeline | Sequence[FaultEvent] | None = None,
        reconvergence_delay: float = 0.0,
        rebuild_policy: Callable[[Network], RoutingPolicy] | None = None,
        timeline_bin: float | None = None,
    ):
        if warmup < 0 or warmup >= trace.duration:
            raise ValueError(
                f"warmup must lie in [0, duration={trace.duration}), got {warmup}"
            )
        if policy.network is not network:
            # A copy with identical structure is fine; object identity is not
            # required, but link counts must agree.
            if policy.network.num_links != network.num_links:
                raise ValueError("policy was compiled for a different network")
        if reconvergence_delay < 0:
            raise ValueError("reconvergence_delay must be non-negative")
        if timeline_bin is not None and timeline_bin <= 0:
            raise ValueError("timeline_bin must be positive")
        self.network = network
        self.policy = policy
        self.trace = trace
        self.warmup = float(warmup)
        self.collect_link_stats = collect_link_stats
        if faults is None:
            self.faults: FaultTimeline | None = None
        elif isinstance(faults, FaultTimeline):
            self.faults = faults if faults else None
        else:
            self.faults = FaultTimeline(tuple(faults)) or None
        self.reconvergence_delay = float(reconvergence_delay)
        self.rebuild_policy = rebuild_policy
        self.timeline_bin = timeline_bin
        #: Fault-plane counters, filled by :meth:`run` when faults are set.
        self.fault_stats: FaultStats | None = None
        #: Per-bin offered/blocked/dropped, filled when ``timeline_bin`` set.
        self.binned_series: BinnedSeries | None = None
        #: Time-averaged occupancy per link over the measured window, filled
        #: by :meth:`run` when ``collect_link_stats`` is set (else None).
        self.mean_link_occupancy: np.ndarray | None = None
        # Warm start: pre-existing calls at t = 0, one synthetic single-link
        # call per occupied circuit, with fresh exp(1) remaining holding
        # times (memorylessness makes that the exact stationary view).  Used
        # by the hysteresis experiments to start in a congested state.
        if initial_occupancy is not None:
            occupancy0 = np.asarray(initial_occupancy, dtype=np.int64)
            if occupancy0.shape != (network.num_links,):
                raise ValueError("initial_occupancy must be per-link")
            capacities = network.capacities()
            if (occupancy0 < 0).any() or (occupancy0 > capacities).any():
                raise ValueError("initial occupancy must lie in [0, capacity]")
            self.initial_occupancy: np.ndarray | None = occupancy0
        else:
            self.initial_occupancy = None

    def run(self, backend: str = "auto") -> SimulationResult:
        """Run the simulation under the requested ``backend``.

        ``backend`` is one of :data:`BACKENDS` (anything else raises
        :class:`ValueError`).  ``"auto"`` (the default) runs the compiled
        admission kernel (:mod:`repro.sim.kernel`) whenever the
        configuration is in its scope: the ``threshold`` or
        ``length-threshold`` discipline, unit bandwidth, a single class, no
        fault plane, no timeline bins and no link statistics.  Everything else, and every run when the kernel
        cannot be built (one :class:`RuntimeWarning` says so), takes the
        general event loop; ``"reference"`` forces that loop.  Both engines
        make the identical admission decisions in the identical order, so
        the statistics are bit-identical; ``SimulationResult.backend``
        records which one ran (``"compiled"`` or ``"reference"``).
        """
        if check_backend(backend) == "reference":
            return self._run_general()
        return self._run_auto()

    def _run_auto(self, threshold_schedule=None) -> SimulationResult:
        """``run(backend="auto")``, optionally under a threshold schedule.

        ``threshold_schedule`` (``[(time, thresholds), ...]``, validated by
        :func:`repro.sim.batch.simulate_batch`, its one caller) switches the
        alternate-admission bounds for calls arriving at or after each
        time; both engines apply it.
        """
        if self._kernel_eligible():
            kernel = load_kernel()
            if kernel is not None:
                return self._run_compiled(kernel, threshold_schedule)
        return self._run_general(threshold_schedule)

    def _kernel_eligible(self) -> bool:
        trace = self.trace
        return (
            self.faults is None
            and self.timeline_bin is None
            and not self.collect_link_stats
            and trace.bandwidths is None
            and trace.class_index is None
            and self.policy.discipline in KERNEL_DISCIPLINES
        )

    def _warm_start(self) -> tuple[np.ndarray, np.ndarray]:
        """Warm-start calls as ``(link, remaining holding time)`` arrays.

        One synthetic single-link call per pre-occupied circuit, in link
        order, with exp(1) holding times from the trace seed's
        ``warm-start`` substream.
        """
        from .rng import substream

        links = np.repeat(
            np.arange(self.network.num_links), self.initial_occupancy
        ).astype(np.int32)
        holding = substream(self.trace.seed, "warm-start").exponential(
            1.0, size=links.size
        )
        return links, holding

    def _run_compiled(self, kernel, threshold_schedule=None) -> SimulationResult:
        """One kernel call; see :mod:`repro.sim.kernel` for the loop itself."""
        trace = self.trace
        table = route_table(self.policy, trace.od_pairs)
        capacities = self.network.capacities()
        rows, row_stride, switch_times = threshold_rows(
            self.policy, table, capacities, threshold_schedule
        )
        occupancy = np.zeros(self.network.num_links, dtype=np.int32)
        if self.initial_occupancy is None:
            warm_links = np.zeros(0, dtype=np.int32)
            dep_order, dep_times = trace.departure_order
        else:
            occupancy += self.initial_occupancy.astype(np.int32)
            warm_links, warm_holding = self._warm_start()
            departures = np.concatenate(
                [trace.times + trace.holding_times, warm_holding]
            )
            dep_order = np.argsort(departures, kind="stable")
            dep_times = departures[dep_order]
        first_measured = int(np.searchsorted(trace.times, self.warmup, side="left"))
        blocked, primary_carried, alternate_carried = admit(
            kernel, table,
            times=trace.times, od_index=trace.od_index, uniforms=trace.uniforms,
            first_measured=first_measured,
            dep_order=dep_order, dep_times=dep_times, warm_links=warm_links,
            capacities=capacities, rows=rows, row_stride=row_stride,
            switch_times=switch_times, occupancy=occupancy,
        )
        num_pairs = len(trace.od_pairs)
        offered = np.bincount(
            trace.od_index[first_measured:], minlength=num_pairs
        ).astype(np.int64)
        num_classes = len(trace.class_names)
        return SimulationResult(
            od_pairs=trace.od_pairs,
            offered=offered,
            blocked=blocked,
            primary_carried=primary_carried,
            alternate_carried=alternate_carried,
            warmup=self.warmup,
            duration=trace.duration,
            seed=trace.seed,
            class_names=trace.class_names,
            class_offered=np.zeros(num_classes, dtype=np.int64),
            class_blocked=np.zeros(num_classes, dtype=np.int64),
            dropped=None,
            backend="compiled",
        )

    def _run_general(self, threshold_schedule=None) -> SimulationResult:
        trace = self.trace
        num_links = self.network.num_links
        capacities = self.network.capacities().tolist()
        num_pairs = len(trace.od_pairs)

        times = trace.times.tolist()
        od_index = trace.od_index.tolist()
        holding = trace.holding_times.tolist()
        uniforms = trace.uniforms.tolist()
        warmup = self.warmup
        bandwidths = (
            trace.bandwidths.tolist() if trace.bandwidths is not None else None
        )
        class_index = (
            trace.class_index.tolist() if trace.class_index is not None else None
        )
        num_classes = len(trace.class_names)
        class_offered = [0] * num_classes
        class_blocked = [0] * num_classes

        occupancy = [0] * num_links
        departures: list[tuple[float, tuple[int, ...], int, int, int]] = []
        if self.initial_occupancy is not None:
            for link, holding_time in zip(*self._warm_start()):
                occupancy[link] += 1
                departures.append((float(holding_time), (int(link),), 1, -1, 0))
            heapq.heapify(departures)
        offered = [0] * num_pairs
        blocked = [0] * num_pairs
        dropped = [0] * num_pairs
        primary_carried = 0
        alternate_carried = 0

        single_choice, multi, run_call, threshold_lists, pristine_thresholds = (
            self._compile(self.policy, capacities, occupancy)
        )
        # Later bound tables of a threshold schedule, installed into the
        # closure's rows at their switch times (simulate_batch, the only
        # source of schedules, runs no fault plane).
        later_bounds = bound_segments(
            self.policy, self.network.capacities(),
            len(threshold_lists) - 1, threshold_schedule,
        )[1:] if threshold_schedule else []
        switches = [float(when) for when, __ in threshold_schedule or ()]
        switches.append(_INFINITY)
        segment = 0

        collect = self.collect_link_stats
        if collect:
            occupancy_integral = [0.0] * num_links
            last_change = [warmup] * num_links

            def note_change(link: int, now_: float) -> None:
                since = last_change[link]
                if now_ > warmup:
                    start = since if since > warmup else warmup
                    occupancy_integral[link] += occupancy[link] * (now_ - start)
                last_change[link] = now_
        else:
            note_change = None

        # ------------------------------------------------------ fault plane
        bin_width = self.timeline_bin
        if bin_width is not None:
            num_bins = max(1, int(np.ceil(trace.duration / bin_width)))
            bin_offered = [0] * num_bins
            bin_blocked = [0] * num_bins
            bin_dropped = [0] * num_bins

        fault_events = self.faults.resolve(self.network) if self.faults else []
        dynamic = bool(fault_events)
        if dynamic:
            stats = FaultStats()
            raw_capacities = [link.capacity for link in self.network.links]
            down = [self.network.is_failed(i) for i in range(num_links)]
            topo = self.network.copy()
            pending_rebuilds: list[float] = []
            fault_cursor = 0
            topo_version = 0
            rebuilt_version = 0
            self.fault_stats = stats

        heap_push = heapq.heappush
        heap_pop = heapq.heappop

        def release_departure(entry) -> None:
            departure_time, path, width, __, ___ = entry
            for link in path:
                if collect:
                    note_change(link, departure_time)
                occupancy[link] -= width

        def apply_fault_event(event_time, links, up) -> None:
            nonlocal topo_version
            newly_down = []
            for link in links:
                if down[link] == (not up):
                    continue  # no-op transition, e.g. failing a failed link
                down[link] = not up
                topo.set_link_state(link, up)
                topo_version += 1
                if up:
                    capacities[link] = raw_capacities[link]
                    for lst, pristine in zip(threshold_lists, pristine_thresholds):
                        lst[link] = pristine[link]
                else:
                    capacities[link] = 0
                    for lst in threshold_lists:
                        lst[link] = 0
                    newly_down.append(link)
            stats.events_applied += 1
            if newly_down:
                downset = set(newly_down)
                kept = []
                for entry in departures:
                    if downset.intersection(entry[1]):
                        release_departure(
                            (event_time, entry[1], entry[2], entry[3], entry[4])
                        )
                        stats.calls_dropped += 1
                        if entry[3] >= 0 and entry[4]:
                            dropped[entry[3]] += 1
                            if bin_width is not None:
                                bin_dropped[
                                    min(num_bins - 1, int(event_time / bin_width))
                                ] += 1
                    else:
                        kept.append(entry)
                departures[:] = kept
                heapq.heapify(departures)
            if self.rebuild_policy is not None:
                heap_push(pending_rebuilds, event_time + self.reconvergence_delay)

        def reconverge(now_: float) -> None:
            nonlocal single_choice, multi, run_call
            nonlocal threshold_lists, pristine_thresholds, rebuilt_version
            if rebuilt_version == topo_version:
                stats.reconvergences.append(now_)
                return  # topology unchanged since the last rebuild
            new_policy = self.rebuild_policy(topo)
            single_choice, multi, run_call, threshold_lists, pristine_thresholds = (
                self._compile(new_policy, capacities, occupancy)
            )
            # The fresh tables assume the current topology; re-impose the
            # admission overlay for links that are (still) down.
            for link in range(num_links):
                if down[link]:
                    capacities[link] = 0
                    for lst in threshold_lists:
                        lst[link] = 0
            rebuilt_version = topo_version
            stats.reconvergences.append(now_)

        def advance_to(now_: float) -> None:
            """Process departures, fault events and rebuilds up to ``now_``.

            Departures win ties (a call completing exactly at a failure
            instant completes), then fault events, then reconvergences — so
            a zero-delay rebuild still sees its own fault applied first.
            """
            nonlocal fault_cursor
            while True:
                next_dep = departures[0][0] if departures else _INFINITY
                if dynamic:
                    next_fault = (
                        fault_events[fault_cursor][0]
                        if fault_cursor < len(fault_events)
                        else _INFINITY
                    )
                    next_rebuild = (
                        pending_rebuilds[0] if pending_rebuilds else _INFINITY
                    )
                else:
                    next_fault = next_rebuild = _INFINITY
                upcoming = min(next_dep, next_fault, next_rebuild)
                if upcoming > now_:
                    break
                if next_dep <= next_fault and next_dep <= next_rebuild:
                    release_departure(heap_pop(departures))
                elif next_fault <= next_rebuild:
                    __, links, up = fault_events[fault_cursor]
                    fault_cursor += 1
                    apply_fault_event(next_fault, links, up)
                else:
                    heap_pop(pending_rebuilds)
                    reconverge(next_rebuild)

        simple = not dynamic and bin_width is None
        for call in range(len(times)):
            now = times[call]
            if simple:
                while departures and departures[0][0] <= now:
                    release_departure(heap_pop(departures))
            else:
                advance_to(now)
            while now >= switches[segment]:
                for row, bounds in zip(threshold_lists, later_bounds[segment]):
                    row[:] = bounds.tolist()
                segment += 1
            pair = od_index[call]
            width = 1 if bandwidths is None else bandwidths[call]
            measured = now >= warmup
            if measured:
                offered[pair] += 1
                if class_index is not None:
                    class_offered[class_index[call]] += 1
                if bin_width is not None:
                    bin_offered[min(num_bins - 1, int(now / bin_width))] += 1
            choice = single_choice[pair]
            if choice is None:
                options = multi[pair]
                if options is None:
                    # Disconnected pair: the call is necessarily lost.
                    if measured:
                        blocked[pair] += 1
                        if class_index is not None:
                            class_blocked[class_index[call]] += 1
                        if bin_width is not None:
                            bin_blocked[min(num_bins - 1, int(now / bin_width))] += 1
                    continue
                route_options, cum = options
                u = uniforms[call]
                pick = 0
                while pick < len(cum) - 1 and u >= cum[pick]:
                    pick += 1
                choice = route_options[pick]
            path, used_alternate = run_call(choice, width, pair, call)
            if path is None:
                if measured:
                    blocked[pair] += 1
                    if class_index is not None:
                        class_blocked[class_index[call]] += 1
                    if bin_width is not None:
                        bin_blocked[min(num_bins - 1, int(now / bin_width))] += 1
                continue
            for link in path:
                if collect:
                    note_change(link, now)
                occupancy[link] += width
            heap_push(
                departures,
                (now + holding[call], path, width, pair, 1 if measured else 0),
            )
            if measured:
                if used_alternate:
                    alternate_carried += 1
                else:
                    primary_carried += 1

        horizon = trace.duration
        if dynamic or bin_width is not None:
            # Fault events between the last arrival and the horizon still
            # count (drops after the final call must be recorded).
            advance_to(horizon)
        if collect:
            while departures and departures[0][0] <= horizon:
                release_departure(heap_pop(departures))
            window = horizon - warmup
            for link in range(num_links):
                note_change(link, horizon)
            self.mean_link_occupancy = (
                np.asarray(occupancy_integral) / window if window > 0 else None
            )

        if bin_width is not None:
            self.binned_series = BinnedSeries(
                bin_width=float(bin_width),
                offered=np.asarray(bin_offered, dtype=np.int64),
                blocked=np.asarray(bin_blocked, dtype=np.int64),
                dropped=np.asarray(bin_dropped, dtype=np.int64),
            )

        return SimulationResult(
            od_pairs=trace.od_pairs,
            offered=np.asarray(offered, dtype=np.int64),
            blocked=np.asarray(blocked, dtype=np.int64),
            primary_carried=primary_carried,
            alternate_carried=alternate_carried,
            warmup=warmup,
            duration=trace.duration,
            seed=trace.seed,
            class_names=trace.class_names,
            class_offered=np.asarray(class_offered, dtype=np.int64),
            class_blocked=np.asarray(class_blocked, dtype=np.int64),
            dropped=np.asarray(dropped, dtype=np.int64) if dynamic else None,
            backend="reference",
        )

    # ----------------------------------------------------- policy compilation

    def _compile(self, policy: RoutingPolicy, capacities, occupancy):
        """Compile one policy into the per-call lookup tables and closure.

        Returns ``(single_choice, multi, run_call, threshold_lists,
        pristine_thresholds)``.  ``run_call(choice, width, pair, call)`` is
        the admission closure — ``pair``/``call`` are the O-D index and the
        absolute call number, used only by the stateful random-alternate
        disciplines (the others ignore them).  ``threshold_lists`` are the
        mutable per-link
        threshold lists captured by the admission closure (empty for the
        shadow discipline) and ``pristine_thresholds`` their untouched
        copies; the fault plane zeroes entries of down links and restores
        them from the pristine copy on repair.  Called again after each
        reconvergence, so everything policy-derived is rebuilt here.
        """
        # Per-O-D fast lookup.  Most pairs have a single deterministic route
        # choice; the bifurcated case consults the per-call uniform variate.
        single_choice = []
        multi = []
        for od in self.trace.od_pairs:
            options = policy.choices.get(od, ())
            if len(options) == 1:
                single_choice.append(options[0])
                multi.append(None)
            elif len(options) == 0:
                single_choice.append(None)
                multi.append(None)
            else:
                single_choice.append(None)
                multi.append((options, policy.cum_probs[od].tolist()))

        if policy.discipline in KERNEL_DISCIPLINES:
            hops = max(
                (len(alt) for options in policy.choices.values()
                 for choice in options for alt in choice.alternates),
                default=0,
            )
            rows = [row.tolist() for row in policy_bounds(policy, hops)]
            run_call = self._make_threshold_step(capacities, rows, occupancy)
            threshold_lists = rows
        elif policy.discipline == "dar":
            if policy.alt_thresholds is None:
                raise ValueError(f"policy {policy.name!r} lacks alternate thresholds")
            thresholds = [int(t) for t in policy.alt_thresholds]
            run_call = self._make_dar_step(policy, capacities, thresholds, occupancy)
            threshold_lists = [thresholds]
        elif policy.discipline == "power-of-d":
            if policy.alt_thresholds is None:
                raise ValueError(f"policy {policy.name!r} lacks alternate thresholds")
            thresholds = [int(t) for t in policy.alt_thresholds]
            run_call = self._make_power_of_d_step(
                policy, capacities, thresholds, occupancy
            )
            threshold_lists = [thresholds]
        elif policy.discipline == "least-busy":
            if policy.alt_thresholds is None:
                raise ValueError(f"policy {policy.name!r} lacks alternate thresholds")
            thresholds = [int(t) for t in policy.alt_thresholds]
            run_call = self._make_least_busy_step(capacities, thresholds, occupancy)
            threshold_lists = [thresholds]
        elif policy.discipline == "shadow":
            if policy.price_tables is None:
                raise ValueError(f"policy {policy.name!r} lacks price tables")
            run_call = self._make_shadow_step(policy, capacities, occupancy)
            threshold_lists = []
        else:
            raise ValueError(f"unknown routing discipline {policy.discipline!r}")
        pristine = [list(lst) for lst in threshold_lists]
        return single_choice, multi, run_call, threshold_lists, pristine

    # ------------------------------------------------------------- admission

    def _make_threshold_step(self, capacities, rows, occupancy):
        """Admission closure for the threshold family.

        A primary call of bandwidth ``width`` fits iff every link has
        ``width`` free units; an alternate of ``h`` hops additionally may
        not push any link past its bound in ``rows[h]``, the policy's bound
        table (:func:`~repro.routing.base.policy_bounds`: every row equal
        under ``threshold``, laxer rows for shorter alternates under
        ``length-threshold``, the Section-3.2 refinement).
        """

        def step(choice, width, pair, call):
            for link in choice.primary:
                if occupancy[link] + width > capacities[link]:
                    break
            else:
                return choice.primary, False
            for alt in choice.alternates:
                bounds = rows[len(alt)]
                for link in alt:
                    if occupancy[link] + width > bounds[link]:
                        break
                else:
                    return alt, True
            return None, False

        return step

    def _make_least_busy_step(self, capacities, thresholds, occupancy):
        """Admission closure for least-busy alternate selection.

        Among the alternates whose every link admits the call under its
        threshold, pick the one with the largest bottleneck headroom
        (minimum of ``threshold - occupancy - width`` over its links); the
        candidate order (shortest first) breaks ties, matching LBA's
        preference for short alternates.
        """

        def step(choice, width, pair, call):
            for link in choice.primary:
                if occupancy[link] + width > capacities[link]:
                    break
            else:
                return choice.primary, False
            best_path = None
            best_headroom = -1
            for alt in choice.alternates:
                headroom = None
                for link in alt:
                    free = thresholds[link] - occupancy[link] - width
                    if free < 0:
                        headroom = None
                        break
                    if headroom is None or free < headroom:
                        headroom = free
                if headroom is not None and headroom > best_headroom:
                    best_headroom = headroom
                    best_path = alt
            if best_path is not None:
                return best_path, True
            return None, False

        return step

    def _make_dar_step(self, policy, capacities, thresholds, occupancy):
        """Admission closure for DAR (sticky random alternate) selection.

        Each pair remembers one sticky alternate index (initially the
        shortest alternate).  A primary-blocked call tries only the sticky
        alternate; if that is infeasible the call is lost and the pair
        resamples its sticky index from the call's positional draw in
        ``policy.route_draws(trace)`` — draw ``j`` belongs to call ``j``
        whether or not earlier calls consumed theirs.  Sticky state resets
        on fault-plane reconvergence (the closure is rebuilt).
        """
        draws = policy.route_draws(self.trace)
        sticky = [0] * len(self.trace.od_pairs)

        def step(choice, width, pair, call):
            for link in choice.primary:
                if occupancy[link] + width > capacities[link]:
                    break
            else:
                return choice.primary, False
            alts = choice.alternates
            n_alts = len(alts)
            if n_alts == 0:
                return None, False
            alt = alts[sticky[pair]]
            for link in alt:
                if occupancy[link] + width > thresholds[link]:
                    sticky[pair] = int(draws[call] * n_alts)
                    return None, False
            return alt, True

        return step

    def _make_power_of_d_step(self, policy, capacities, thresholds, occupancy):
        """Admission closure for power-of-d random alternate selection.

        A primary-blocked call samples ``d`` alternates (with replacement)
        from its positional draw row and takes the first one attaining the
        best bottleneck score ``min(threshold - occupancy)``; it is admitted
        iff that score covers the call's width.  The score is evaluated for
        infeasible candidates too (an argmax over all ``d`` samples).
        """
        draws = policy.route_draws(self.trace)

        def step(choice, width, pair, call):
            for link in choice.primary:
                if occupancy[link] + width > capacities[link]:
                    break
            else:
                return choice.primary, False
            alts = choice.alternates
            n_alts = len(alts)
            if n_alts == 0:
                return None, False
            best_alt = None
            best_score = None
            for u in draws[call]:
                alt = alts[int(u * n_alts)]
                score = min(thresholds[link] - occupancy[link] for link in alt)
                if best_score is None or score > best_score:
                    best_score = score
                    best_alt = alt
            if best_score >= width:
                return best_alt, True
            return None, False

        return step

    def _make_shadow_step(self, policy, capacities, occupancy):
        """Build the per-call admission closure for shadow-price policies.

        Prices are per unit of bandwidth: a ``width``-unit call at link
        occupancy ``s`` is charged the sum of the unit prices at states
        ``s, s+1, ..., s+width-1`` (the unit-decomposition view).
        """
        tables = policy.price_tables
        revenue = getattr(policy, "revenue", 1.0) + _REVENUE_EPS

        def step(choice, width, pair, call):
            best_path = None
            best_price = revenue
            best_is_alternate = False
            candidates = (choice.primary,) + choice.alternates
            for position, path in enumerate(candidates):
                price = 0.0
                feasible = True
                for link in path:
                    state = occupancy[link]
                    if state + width > capacities[link]:
                        feasible = False
                        break
                    table = tables[link]
                    for unit in range(width):
                        price += table[state + unit]
                    if price >= best_price:
                        feasible = False
                        break
                if feasible and price < best_price:
                    best_price = price
                    best_path = path
                    best_is_alternate = position > 0
            return best_path, best_is_alternate

        return step


def simulate(
    network: Network,
    policy: RoutingPolicy,
    trace: ArrivalTrace,
    warmup: float = 10.0,
    collect_link_stats: bool = False,
    initial_occupancy: np.ndarray | None = None,
    faults: FaultTimeline | Sequence[FaultEvent] | None = None,
    reconvergence_delay: float = 0.0,
    rebuild_policy: Callable[[Network], RoutingPolicy] | None = None,
    timeline_bin: float | None = None,
    backend: str = "auto",
) -> SimulationResult:
    """Convenience wrapper: build and run a :class:`LossNetworkSimulator`.

    Every constructor knob is plumbed through, so link statistics, warm
    starts and the dynamic fault plane are all reachable without touching
    the class directly.  ``backend`` selects the engine (``"auto"`` or
    ``"reference"``, see :meth:`LossNetworkSimulator.run`).
    """
    return LossNetworkSimulator(
        network,
        policy,
        trace,
        warmup,
        collect_link_stats=collect_link_stats,
        initial_occupancy=initial_occupancy,
        faults=faults,
        reconvergence_delay=reconvergence_delay,
        rebuild_policy=rebuild_policy,
        timeline_bin=timeline_bin,
    ).run(backend=backend)

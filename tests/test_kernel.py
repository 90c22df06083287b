"""The compiled admission kernel against its oracles, on randomized inputs.

Every example draws a random general mesh (``random_mesh``), random
traffic, a policy with random per-link (``threshold``) or per-hop-length
(``length-threshold``) thresholds and, optionally, bifurcated pairs, warm
starts and zero holding times.  The kernel (``backend="auto"``) must match
the general loop (``backend="reference"``) bit for bit on offered, blocked
and the carried split.  Threshold schedules are checked, on both engines,
against the serving engine replayed in chunks with ``NetworkState.hot_swap``
at the schedule's times.  The last tests cover the no-compiler fallback and
the engine recorded in provenance.
"""

from __future__ import annotations

import contextlib
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.runner import ReplicationConfig, run_replications_detailed
from repro.routing.adaptive import primary_setups
from repro.routing.base import RouteChoice, RoutingPolicy, compile_route_choices
from repro.serve.cluster import ClusterConfig, ClusterRouter
from repro.serve.engine import RequestEngine
from repro.serve.loadgen import aggregate_decisions, trace_requests
from repro.serve.state import NetworkState
from repro.sim import kernel
from repro.sim.batch import simulate_batch
from repro.sim.faultplane import single_failure_timeline
from repro.sim.simulator import simulate
from repro.sim.trace import ArrivalTrace, generate_trace
from repro.topology.generators import fully_connected, random_mesh
from repro.topology.paths import build_path_table
from repro.traffic.generators import random_traffic, uniform_traffic

_COUNTERS = ("offered", "blocked", "primary_carried", "alternate_carried")


def _assert_same(result, oracle, label=""):
    for counter in _COUNTERS:
        assert np.array_equal(
            getattr(result, counter), getattr(oracle, counter)
        ), f"{label}: {counter} diverged"


@dataclasses.dataclass
class Case:
    network: object
    policy: RoutingPolicy
    trace: object
    warmup: float
    rng: np.random.Generator


@st.composite
def cases(draw, length_threshold=None, bifurcate=None, zero_holding=None):
    """A random mesh, traffic, threshold policy and trace."""
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    nodes = draw(st.integers(3, 7))
    capacity = draw(st.integers(1, 6))
    network = random_mesh(nodes, draw(st.integers(0, 6)), capacity, seed=seed)
    table = build_path_table(network, max_hops=draw(st.integers(2, 4)))
    traffic = random_traffic(nodes, draw(st.floats(0.5, 4.0)), seed=seed)
    if bifurcate is None:
        bifurcate = draw(st.booleans())
    splits = None
    if bifurcate:
        splits = {}
        for od in table.od_pairs():
            routes = table.routes(od)
            if len(routes) > 1 and rng.random() < 0.5:
                picked = routes[: int(rng.integers(2, min(3, len(routes)) + 1))]
                weights = rng.random(len(picked)) + 0.05
                splits[od] = list(zip(picked, weights / weights.sum()))
    choices, cum_probs = compile_route_choices(
        network, table, include_alternates=True, splits=splits
    )
    policy = RoutingPolicy(network, choices, cum_probs)
    capacities = network.capacities()
    if length_threshold is None:
        length_threshold = draw(st.booleans())
    if length_threshold:
        policy.discipline = "length-threshold"
        lengths = {
            len(alt) for options in policy.choices.values()
            for choice in options for alt in choice.alternates
        } or {1}
        policy.length_thresholds = {
            h: rng.integers(0, capacities + 1).tolist() for h in sorted(lengths)
        }
    else:
        policy.alt_thresholds = rng.integers(0, capacities + 1)
    duration = draw(st.floats(4.0, 12.0))
    trace = generate_trace(traffic, duration, seed)
    if zero_holding is None:
        zero_holding = draw(st.booleans())
    if zero_holding and trace.num_calls:
        holding = trace.holding_times.copy()
        holding[rng.random(holding.size) < 0.3] = 0.0
        trace = dataclasses.replace(trace, holding_times=holding)
    warmup = draw(st.floats(0.0, duration / 2))
    return Case(network, policy, trace, warmup, rng)


def _check_schedule_against_hot_swap(case, data, backend):
    """A random schedule through ``simulate_batch`` vs chunked engine swaps."""
    policy, trace = case.policy, case.trace
    capacities = case.network.capacities()
    # Some switch times coincide with arrivals: a call arriving exactly
    # at a switch already faces the new thresholds.
    instants = st.floats(0.1, trace.duration)
    if trace.num_calls:
        instants |= st.sampled_from(trace.times[trace.times > 0].tolist() or [0.1])
    times = sorted(set(data.draw(st.lists(instants, max_size=3))))
    schedule = []
    for when in times:
        # Length-threshold policies also take per-link vectors, which
        # bound every hop count alike.
        if policy.discipline == "length-threshold" and data.draw(st.booleans()):
            spec = {h: case.rng.integers(0, capacities + 1)
                    for h in policy.length_thresholds}
        else:
            spec = case.rng.integers(0, capacities + 1)
        schedule.append((when, spec))

    state = NetworkState(case.network, policy)
    engine = RequestEngine(case.network, policy, state=state)
    chunks = [[] for __ in range(len(schedule) + 1)]
    for request in trace_requests(trace):
        chunks[int(np.searchsorted(times, request.time, side="right"))
               ].append(request)
    decisions = []
    for k, chunk in enumerate(chunks):
        if k:
            when, spec = schedule[k - 1]
            state.hot_swap(spec, now=when)
        decisions.extend(engine.decide_batch(chunk))
    oracle = aggregate_decisions(trace, decisions, warmup=case.warmup)

    (result,) = simulate_batch(case.network, policy, [trace], case.warmup,
                               threshold_schedule=schedule or None)
    assert result.backend == backend
    _assert_same(result, oracle, f"{backend} schedule")


_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestDifferential:
    @_SETTINGS
    @given(case=cases(), warm=st.booleans())
    def test_kernel_matches_reference(self, case, warm):
        occupancy = None
        if warm:
            occupancy = case.rng.integers(0, case.network.capacities() + 1)
        compiled = simulate(case.network, case.policy, case.trace, case.warmup,
                            initial_occupancy=occupancy)
        assert compiled.backend == "compiled"
        reference = simulate(case.network, case.policy, case.trace, case.warmup,
                             initial_occupancy=occupancy, backend="reference")
        assert reference.backend == "reference"
        _assert_same(compiled, reference, case.policy.discipline)

    @_SETTINGS
    @given(case=cases(), data=st.data())
    def test_threshold_schedule_matches_engine_hot_swap(self, case, data):
        _check_schedule_against_hot_swap(case, data, "compiled")

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow,
                               HealthCheck.function_scoped_fixture],
    )
    @given(case=cases(), data=st.data())
    def test_reference_schedule_matches_engine_hot_swap(self, no_compiler, case, data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _check_schedule_against_hot_swap(case, data, "reference")

    def test_switch_applies_to_a_call_arriving_at_the_switch_time(self):
        network = fully_connected(3, capacity=1)
        table = build_path_table(network)
        choices, cum_probs = compile_route_choices(network, table, True)
        policy = RoutingPolicy(network, choices, cum_probs)
        policy.alt_thresholds = network.capacities()
        # Call 0 fills the 0-1 link; call 1 needs the alternate 0-2-1.
        trace = ArrivalTrace(
            od_pairs=((0, 1),), times=np.array([1.0, 2.0]),
            od_index=np.array([0, 0]), holding_times=np.array([5.0, 5.0]),
            uniforms=np.array([0.5, 0.5]), duration=6.0, seed=0,
        )
        closed = np.zeros(network.num_links, dtype=np.int64)
        (before,) = simulate_batch(network, policy, [trace], 0.0,
                                   threshold_schedule=[(2.5, closed)])
        (at,) = simulate_batch(network, policy, [trace], 0.0,
                               threshold_schedule=[(2.0, closed)])
        assert before.alternate_carried == 1 and before.total_blocked == 0
        assert at.alternate_carried == 0 and at.total_blocked == 1

    def test_all_zero_holding_times(self):
        network = random_mesh(5, 3, 2, seed=4)
        table = build_path_table(network, max_hops=3)
        choices, cum_probs = compile_route_choices(network, table, True)
        policy = RoutingPolicy(network, choices, cum_probs)
        policy.alt_thresholds = network.capacities()
        trace = generate_trace(random_traffic(5, 3.0, seed=4), 8.0, 4)
        trace = dataclasses.replace(
            trace, holding_times=np.zeros_like(trace.holding_times)
        )
        compiled = simulate(network, policy, trace, 1.0)
        reference = simulate(network, policy, trace, 1.0, backend="reference")
        assert compiled.backend == "compiled"
        _assert_same(compiled, reference)
        assert compiled.total_blocked == 0  # every call leaves before the next


class TestWrapperChecks:
    def _setup(self):
        network = random_mesh(4, 2, 3, seed=1)
        table = build_path_table(network)
        choices, cum_probs = compile_route_choices(network, table, True)
        policy = RoutingPolicy(network, choices, cum_probs)
        policy.alt_thresholds = network.capacities()
        trace = generate_trace(random_traffic(4, 2.0, seed=1), 5.0, 1)
        return network, policy, trace

    def test_out_of_range_indices_are_refused_before_the_call(self):
        network, policy, trace = self._setup()
        routes = kernel.route_table(policy, trace.od_pairs)
        rows, stride, switches = kernel.threshold_rows(
            policy, routes, network.capacities()
        )
        order, dep_times = trace.departure_order
        arguments = dict(
            times=trace.times, od_index=trace.od_index, uniforms=trace.uniforms,
            first_measured=0, dep_order=order, dep_times=dep_times,
            warm_links=np.zeros(0, dtype=np.int32),
            capacities=network.capacities(), rows=rows, row_stride=stride,
            switch_times=switches,
            occupancy=np.zeros(network.num_links, dtype=np.int32),
        )
        function = kernel.load_kernel()
        bad_od = trace.od_index.copy()
        bad_od[-1] = len(trace.od_pairs)
        bad_order = order.copy()
        bad_order[0] = -1
        for name, value, message in (
            ("od_index", bad_od, "od_index out of range"),
            ("dep_order", bad_order, "dep_order out of range"),
            ("warm_links", np.array([network.num_links], dtype=np.int32),
             "warm_links"),
            ("occupancy", np.zeros(network.num_links, dtype=np.int64), "int32"),
            ("first_measured", trace.num_calls + 1, "first_measured"),
        ):
            with pytest.raises(ValueError, match=message):
                kernel.admit(function, routes, **{**arguments, name: value})

    def test_malformed_route_tables_are_refused(self):
        network, policy, trace = self._setup()
        good = kernel.route_table(policy, trace.od_pairs)
        fields = {f.name: getattr(good, f.name)
                  for f in dataclasses.fields(good) if f.init}
        links = good.links.copy()
        links[0] = network.num_links
        cand_path_off = good.cand_path_off.copy()
        cand_path_off[-1] += 1
        for changes, message in (
            ({"links": links}, "route links out of range"),
            ({"cand_path_off": cand_path_off}, "cand_path_off"),
            ({"links": good.links.astype(np.int64)}, "dtypes"),
        ):
            with pytest.raises(ValueError, match=message):
                kernel.RouteTable(**{**fields, **changes})

    def test_route_table_is_read_only_and_cached(self):
        network, policy, trace = self._setup()
        routes = kernel.route_table(policy, trace.od_pairs)
        assert kernel.route_table(policy, trace.od_pairs) is routes
        with pytest.raises(ValueError):
            routes.links[0] = 0


class TestOneRouteTable:
    """The kernel's table is the one route artefact every plane reads."""

    def test_engine_router_kernel_and_setup_counter_share_one_table(
        self, monkeypatch
    ):
        network = fully_connected(4, capacity=3)
        table = build_path_table(network)
        choices, cum_probs = compile_route_choices(network, table, True)
        policy = RoutingPolicy(network, choices, cum_probs)
        policy.alt_thresholds = network.capacities() - 1
        trace = generate_trace(uniform_traffic(4, 2.0), 6.0, 3)
        assert trace.od_pairs == tuple(network.node_pairs())
        compiled = []
        compile_table = kernel._compile_table
        monkeypatch.setattr(
            kernel, "_compile_table",
            lambda *args: compiled.append(args) or compile_table(*args),
        )
        assert simulate(network, policy, trace, 1.0).backend == "compiled"
        routes = kernel.route_table(policy, trace.od_pairs)
        engine = RequestEngine(network, policy)
        router = ClusterRouter(network, policy, ClusterConfig(num_shards=2))
        primary_setups(policy, trace, [3.0])
        assert engine.state.routes is routes
        assert router._state.routes is routes
        assert len(compiled) == 1

    def test_tables_are_cached_per_pair_list(self):
        # A simulator on a trace over some pairs and an engine over all of
        # them must not evict each other's table.
        network, policy, __ = TestWrapperChecks()._setup()
        pairs = tuple(network.node_pairs())
        by_trace = kernel.route_table(policy, pairs[::2])
        by_network = kernel.route_table(policy, pairs)
        assert by_network is not by_trace
        assert kernel.route_table(policy, pairs[::2]) is by_trace
        assert kernel.route_table(policy, pairs) is by_network

    def test_view_decodes_the_policy(self):
        network, policy, __ = TestWrapperChecks()._setup()
        routes = kernel.route_table(policy, network.node_pairs())
        assert routes.od_pairs == tuple(network.node_pairs())
        assert set(routes.view) == {od for od, opts in policy.choices.items() if opts}
        hops = set()
        for od, (candidates, cum) in routes.view.items():
            options = policy.choices[od]
            assert candidates == tuple((c.primary, c.alternates) for c in options)
            if len(options) > 1:
                assert cum == tuple(policy.cum_probs[od])
            hops.update(len(alt) for c in options for alt in c.alternates)
        assert routes.alternate_hops == tuple(sorted(hops))

    def test_pick_is_the_first_cumulative_probability_above_the_uniform(self):
        cum = (0.25, 0.25, 0.75, 1.0)
        assert [kernel.RouteTable.pick(cum, u) for u in (0.0, 0.25, 0.5, 0.75, 1.0)] \
            == [0, 2, 2, 3, 3]
        assert kernel.RouteTable.pick((1.0,), 5.0) == 0

    def test_truncate_cuts_named_pairs_and_leaves_the_table(self):
        network, policy, __ = TestWrapperChecks()._setup()
        routes = kernel.route_table(policy, network.node_pairs())
        before = {name: getattr(routes, name).copy() for name in
                  ("cand_path_off", "path_link_off", "links")}
        od = max(routes.view, key=lambda od: len(routes.view[od][0][0][1]))
        cut = routes.truncate({od: 1, (99, 98): 0})
        assert cut is not routes and cut.od_pairs == routes.od_pairs
        for name, array in before.items():
            assert np.array_equal(getattr(routes, name), array)
        for pair, (candidates, cum) in routes.view.items():
            keep = 1 if pair == od else None
            assert cut.view[pair] == (
                tuple((p, alts[:keep]) for p, alts in candidates), cum
            )
        assert routes.truncate({}).view == routes.view
        with pytest.raises(ValueError, match="negative"):
            routes.truncate({od: -1})

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=cases(), data=st.data())
    def test_truncated_table_matches_a_policy_with_cut_alternates(self, case, data):
        policy, trace = case.policy, case.trace
        state = NetworkState(case.network, policy)
        pairs = sorted(state.routes.view)
        prefix = data.draw(st.dictionaries(
            st.sampled_from(pairs), st.integers(0, 4)
        )) if pairs else {}
        state.routes = state.routes.truncate(prefix)
        engine = RequestEngine(case.network, policy, state=state)
        oracle = aggregate_decisions(
            trace, engine.decide_batch(trace_requests(trace)), warmup=case.warmup
        )
        cut = RoutingPolicy(case.network, {
            od: [RouteChoice(c.primary, c.alternates[:prefix.get(od)])
                 for c in options]
            for od, options in policy.choices.items()
        }, policy.cum_probs)
        cut.discipline = policy.discipline
        cut.alt_thresholds = policy.alt_thresholds
        cut.length_thresholds = getattr(policy, "length_thresholds", None)
        reference = simulate(case.network, cut, trace, case.warmup,
                             backend="reference")
        _assert_same(reference, oracle, f"truncated {policy.discipline}")


@contextlib.contextmanager
def _kernel_unavailable():
    """Make the kernel build fail and forget any library already loaded."""

    def fail(target):
        raise OSError("no compiler in this test")

    kernel.load_kernel.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel, "_build", fail)
            patch.setattr(kernel, "_library_path", lambda: kernel._SOURCE.parent
                          / "__pycache__" / "absent.so")
            yield
    finally:
        kernel.load_kernel.cache_clear()


@pytest.fixture
def no_compiler():
    with _kernel_unavailable():
        yield


class TestFallback:
    def test_build_failure_warns_once_and_runs_the_reference(self, no_compiler):
        network, policy, trace = TestWrapperChecks()._setup()
        with pytest.warns(RuntimeWarning, match="kernel unavailable"):
            first = simulate(network, policy, trace, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            second = simulate(network, policy, trace, 1.0)
        reference = simulate(network, policy, trace, 1.0, backend="reference")
        for result in (first, second):
            assert result.backend == "reference"
            _assert_same(result, reference)

    def test_schedules_without_a_kernel_run_the_reference(self):
        network, policy, trace = TestWrapperChecks()._setup()
        closed = np.zeros(network.num_links, dtype=np.int64)
        schedule = [(1.5, closed), (3.0, network.capacities())]
        (compiled,) = simulate_batch(network, policy, [trace], 1.0,
                                     threshold_schedule=schedule)
        with _kernel_unavailable(), pytest.warns(RuntimeWarning):
            (fallback,) = simulate_batch(network, policy, [trace], 1.0,
                                         threshold_schedule=schedule)
        assert compiled.backend == "compiled"
        assert fallback.backend == "reference"
        _assert_same(fallback, compiled)


class TestProvenance:
    def test_auto_records_the_engine_that_ran(self):
        from repro.api import Scenario

        scenario = Scenario()
        policy = scenario.build_policy("controlled")
        config = ReplicationConfig(measured_duration=8.0, warmup=2.0, seeds=(0, 1))
        nominal = run_replications_detailed(
            scenario.network, policy, scenario.traffic_matrix, config,
        )
        assert nominal.backend == "compiled"
        assert [s.backend for s in nominal.statuses] == ["compiled"] * 2

        timeline = single_failure_timeline(2, 3, fail_at=4.0, repair_at=7.0)
        trace = scenario.make_trace(config.duration, 0)
        faulted = simulate(scenario.network, policy, trace, config.warmup,
                           faults=timeline, backend="auto")
        assert faulted.backend == "reference"

"""Tests for online protection adaptation and the length-aware policies."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.api import Scenario
from repro.core.protection import min_protection_level
from repro.routing.adaptive import (
    AdaptationConfig,
    AdaptiveProtectionSimulator,
    simulate_adaptive,
)
from repro.routing.alternate import (
    ControlledAlternateRouting,
    LengthAdaptiveControlledRouting,
    per_link_max_hops,
)
from repro.routing.single_path import SinglePathRouting
from repro.serve.engine import RequestEngine
from repro.serve.loadgen import aggregate_decisions, trace_requests
from repro.serve.state import NetworkState
from repro.sim.simulator import simulate
from repro.sim.trace import generate_multiclass_trace, generate_trace
from repro.topology.generators import fully_connected, line, ring
from repro.topology.paths import build_path_table
from repro.traffic.demand import primary_link_loads
from repro.traffic.generators import uniform_traffic
from repro.traffic.profiles import LoadProfile, generate_nonstationary_trace


class TestPerLinkMaxHops:
    def test_quadrangle_uniform(self, quad_network, quad_table):
        # Every K4 link carries 3-hop alternates.
        hops = per_link_max_hops(quad_network, quad_table)
        assert (hops == 3).all()

    def test_line_has_no_alternates(self):
        net = line(4, 5)
        table = build_path_table(net)
        hops = per_link_max_hops(net, table)
        assert (hops == 1).all()

    def test_nsfnet_unrestricted_saturates(self, nsfnet, nsfnet_table):
        # On the sparse NSFNet the longest loop-free alternates cross every
        # link, so the unrestricted table gives H^k = 11 everywhere.
        hops = per_link_max_hops(nsfnet, nsfnet_table)
        assert (hops == 11).all()

    def test_nsfnet_h6_also_saturates(self, nsfnet, nsfnet_table_h6):
        # Even hop-limited, some 6-hop alternate crosses every NSFNet link.
        hops = per_link_max_hops(nsfnet, nsfnet_table_h6)
        assert (hops == 6).all()

    def test_exact_values_on_barbell(self):
        # Triangle 0-1-2 with a pendant chain 2-3-4.  The longest alternates
        # are the 4-hop detours like (4,3,2,1,0) for the pair (4,0); they
        # cross the pendant links too, so H^k = 4 on every link — a worked
        # example of why H^k rarely drops below the global maximum on
        # connected meshes (long alternates reuse most links as segments).
        from repro.topology.graph import Network

        net = Network(5)
        for a, b in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]:
            net.add_duplex_link(a, b, 5)
        table = build_path_table(net)
        hops = per_link_max_hops(net, table)
        assert (hops == 4).all()
        # With alternates capped at 3 hops, the pendant pairs lose their
        # detours and the pendant tail link drops out of all alternates.
        capped = build_path_table(net, max_hops=3)
        capped_hops = per_link_max_hops(net, capped)
        by_endpoints = {
            net.link(i).endpoints: int(capped_hops[i]) for i in range(net.num_links)
        }
        assert by_endpoints[(0, 1)] == 3
        assert by_endpoints[(3, 4)] < 3

    def test_controlled_policy_accepts_per_link_hops(self, nsfnet, nsfnet_table):
        from repro.traffic.calibration import nsfnet_nominal_traffic

        loads = primary_link_loads(nsfnet, nsfnet_table, nsfnet_nominal_traffic())
        hops = per_link_max_hops(nsfnet, nsfnet_table)
        global_policy = ControlledAlternateRouting(nsfnet, nsfnet_table, loads)
        per_link_policy = ControlledAlternateRouting(
            nsfnet, nsfnet_table, loads, per_link_hops=hops
        )
        # Per-link H never exceeds the global maximum, so levels can only drop.
        assert (per_link_policy.protection_levels <= global_policy.protection_levels).all()

    def test_mutually_exclusive_with_max_hops(self, quad_network, quad_table):
        loads = np.zeros(quad_network.num_links)
        with pytest.raises(ValueError):
            ControlledAlternateRouting(
                quad_network,
                quad_table,
                loads,
                max_hops=2,
                per_link_hops=np.ones(quad_network.num_links, dtype=np.int64),
            )

    def test_per_link_hops_validated(self, quad_network, quad_table):
        loads = np.zeros(quad_network.num_links)
        with pytest.raises(ValueError):
            ControlledAlternateRouting(
                quad_network, quad_table, loads, per_link_hops=np.array([1, 2])
            )
        with pytest.raises(ValueError):
            ControlledAlternateRouting(
                quad_network,
                quad_table,
                loads,
                per_link_hops=np.zeros(quad_network.num_links, dtype=np.int64),
            )


class TestLengthAdaptivePolicy:
    def test_levels_monotone_in_length(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 85.0)
        loads = primary_link_loads(quad_network, quad_table, traffic)
        policy = LengthAdaptiveControlledRouting(quad_network, quad_table, loads)
        assert set(policy.protection_by_length) == {2, 3}
        assert (
            policy.protection_by_length[2] <= policy.protection_by_length[3]
        ).all()
        for length, levels in policy.protection_by_length.items():
            expected = [
                min_protection_level(loads[l.index], l.capacity, length)
                for l in quad_network.links
            ]
            assert list(levels) == expected

    def test_shortest_length_matches_equation15(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 85.0)
        loads = primary_link_loads(quad_network, quad_table, traffic)
        policy = LengthAdaptiveControlledRouting(quad_network, quad_table, loads)
        controlled_h2 = ControlledAlternateRouting(
            quad_network, quad_table, loads, max_hops=2
        )
        assert np.array_equal(
            policy.protection_by_length[2], controlled_h2.protection_levels
        )

    def test_never_worse_than_single_path(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 95.0)
        loads = primary_link_loads(quad_network, quad_table, traffic)
        policy = LengthAdaptiveControlledRouting(quad_network, quad_table, loads)
        single = SinglePathRouting(quad_network, quad_table)
        diffs = []
        for seed in range(4):
            trace = generate_trace(traffic, 40.0, seed)
            ctl = simulate(quad_network, policy, trace, 10.0)
            sp = simulate(quad_network, single, trace, 10.0)
            diffs.append(sp.network_blocking - ctl.network_blocking)
        assert np.mean(diffs) > -0.01

    def test_at_least_as_permissive_as_global_h(self, quad_network, quad_table):
        # The refinement admits every alternate the global-H scheme admits:
        # r(h) <= r(H) for h <= H, so blocking can only improve (statistically).
        traffic = uniform_traffic(4, 90.0)
        loads = primary_link_loads(quad_network, quad_table, traffic)
        adaptive = LengthAdaptiveControlledRouting(quad_network, quad_table, loads)
        global_h = ControlledAlternateRouting(quad_network, quad_table, loads)
        diffs = []
        for seed in range(4):
            trace = generate_trace(traffic, 40.0, seed)
            a = simulate(quad_network, adaptive, trace, 10.0)
            g = simulate(quad_network, global_h, trace, 10.0)
            diffs.append(g.network_blocking - a.network_blocking)
        assert np.mean(diffs) > -0.005

    def test_line_topology_degenerates(self):
        net = line(3, 5)
        table = build_path_table(net)
        policy = LengthAdaptiveControlledRouting(net, table, np.zeros(net.num_links))
        assert policy.length_thresholds  # has at least the fallback entry


class TestAdaptiveProtectionSimulator:
    def test_validation(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 20.0)
        trace = generate_trace(traffic, 20.0, 0)
        with pytest.raises(ValueError):
            AdaptiveProtectionSimulator(quad_network, quad_table, trace, warmup=30.0)
        with pytest.raises(ValueError):
            AdaptiveProtectionSimulator(
                quad_network, quad_table, trace, update_interval=0.0
            )
        with pytest.raises(ValueError):
            AdaptiveProtectionSimulator(quad_network, quad_table, trace, ewma_weight=0.0)
        with pytest.raises(ValueError):
            AdaptiveProtectionSimulator(
                quad_network, quad_table, trace, initial_loads=np.zeros(3)
            )

    def test_estimates_converge_to_true_loads(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 60.0)
        truth = primary_link_loads(quad_network, quad_table, traffic)
        trace = generate_trace(traffic, 120.0, 0)
        __, updates = simulate_adaptive(
            quad_network, quad_table, trace, update_interval=5.0, ewma_weight=0.3
        )
        final = updates[-1].estimated_loads
        assert final == pytest.approx(truth, rel=0.2)

    def test_updates_recorded_on_schedule(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 40.0)
        trace = generate_trace(traffic, 52.0, 1)
        __, updates = simulate_adaptive(
            quad_network, quad_table, trace, update_interval=10.0
        )
        times = [u.time for u in updates]
        assert times[0] == 0.0
        assert times[1:] == [10.0, 20.0, 30.0, 40.0, 50.0]

    def test_cold_start_hardens_over_time(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 90.0)
        trace = generate_trace(traffic, 60.0, 2)
        __, updates = simulate_adaptive(
            quad_network, quad_table, trace, update_interval=5.0
        )
        assert updates[0].protection_levels.sum() == 0  # cold: unprotected
        assert updates[-1].protection_levels.sum() > 0  # learned protection

    def test_tracks_surge(self, nsfnet, nsfnet_table):
        # Blocking with adaptation should not lag a static policy sized for
        # the pre-surge load.
        from repro.traffic.calibration import nsfnet_nominal_traffic

        nominal = nsfnet_nominal_traffic()
        profile = LoadProfile.step(at=30.0, before=0.8, after=1.3)
        static = ControlledAlternateRouting(
            nsfnet, nsfnet_table, primary_link_loads(nsfnet, nsfnet_table, nominal) * 0.8
        )
        deltas = []
        for seed in range(2):
            trace = generate_nonstationary_trace(nominal, profile, 70.0, seed)
            static_result = simulate(nsfnet, static, trace, 10.0)
            adaptive_result, __ = simulate_adaptive(
                nsfnet,
                nsfnet_table,
                trace,
                warmup=10.0,
                update_interval=5.0,
                initial_loads=static.primary_loads,
            )
            deltas.append(static_result.network_blocking - adaptive_result.network_blocking)
        assert np.mean(deltas) > -0.01

    def test_accounting_identity(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 80.0)
        trace = generate_trace(traffic, 30.0, 3)
        result, __ = simulate_adaptive(quad_network, quad_table, trace, warmup=5.0)
        carried = result.primary_carried + result.alternate_carried
        assert carried + result.total_blocked == result.total_offered

    def test_config_checks_are_shared(self, quad_network, quad_table):
        # The simulator's knobs are validated by AdaptationConfig, so both
        # refuse the same inputs with the same messages.
        trace = generate_trace(uniform_traffic(4, 20.0), 20.0, 0)
        for bad in (
            {"update_interval": -1.0},
            {"ewma_weight": 1.5},
            {"max_hops": 0},
            {"initial_loads": np.zeros((2, 2))},
        ):
            with pytest.raises(ValueError) as config_error:
                AdaptationConfig(**bad)
            with pytest.raises(ValueError, match=re.escape(str(config_error.value))):
                AdaptiveProtectionSimulator(quad_network, quad_table, trace, **bad)


def _engine_replay(network, table, trace, warmup, config):
    """The serve engine's live adaptation over ``trace``: result + refreshes."""
    policy = ControlledAlternateRouting(network, table, np.zeros(network.num_links))
    state = NetworkState(network, policy, adaptation=config)
    engine = RequestEngine(network, policy, state=state)
    decisions = engine.decide_batch(trace_requests(trace))
    return aggregate_decisions(trace, decisions, warmup), state.refreshes


def _assert_same_run(result, updates, oracle, refreshes):
    assert np.array_equal(result.offered, oracle.offered)
    assert np.array_equal(result.blocked, oracle.blocked)
    assert result.primary_carried == oracle.primary_carried
    assert result.alternate_carried == oracle.alternate_carried
    assert len(updates) == len(refreshes)
    for update, refresh in zip(updates, refreshes):
        assert update.time == refresh.time
        assert np.array_equal(update.estimated_loads, refresh.estimated_loads)
        assert np.array_equal(update.protection_levels, refresh.protection_levels)


class TestAdaptiveMatchesServeAdaptation:
    """``simulate_adaptive`` against the serve engine's live refresh."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("workload", ["stationary", "flash-crowd", "adversarial:0"])
    def test_nsfnet_workloads(self, workload, seed):
        scenario = Scenario(
            topology="nsfnet", traffic="nominal", max_hops=6, load_scale=1.1,
            workload=workload,
        )
        network, table = scenario.network, scenario.path_table
        loads = primary_link_loads(network, table, scenario.traffic_matrix)
        trace = scenario.make_trace(40.0, seed)
        result, updates = simulate_adaptive(
            network, table, trace, warmup=10.0, update_interval=5.0,
            ewma_weight=0.3, max_hops=6, initial_loads=loads,
        )
        config = AdaptationConfig(5.0, 0.3, 6, loads)
        oracle, refreshes = _engine_replay(network, table, trace, 10.0, config)
        assert len(updates) > 5
        _assert_same_run(result, updates, oracle, refreshes)

    def test_multirate_trace_books_call_widths(self, quad_network, quad_table):
        # Wide calls book their width on every link, offline as live.
        traffic = uniform_traffic(4, 70.0)
        trace = generate_multiclass_trace(
            [("voice", traffic, 1), ("video", traffic.scaled(0.4), 4)], 60.0, 0
        )
        result, updates = simulate_adaptive(quad_network, quad_table, trace)
        config = AdaptationConfig(max_hops=quad_table.max_hops)
        oracle, refreshes = _engine_replay(
            quad_network, quad_table, trace, 10.0, config
        )
        assert result.backend == "reference"
        _assert_same_run(result, updates, oracle, refreshes)

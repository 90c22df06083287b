"""Tests for routing-policy compilation (base, single-path, alternate)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.protection import min_protection_level
from repro.routing.alternate import (
    ControlledAlternateRouting,
    UncontrolledAlternateRouting,
)
from repro.routing.base import RouteChoice, RoutingPolicy, compile_route_choices
from repro.routing.single_path import SinglePathRouting
from repro.topology.generators import fully_connected
from repro.topology.paths import build_path_table
from repro.traffic.demand import primary_link_loads
from repro.traffic.generators import uniform_traffic


class TestCompileRouteChoices:
    def test_primary_first_alternates_by_length(self, quad_network, quad_table):
        choices, cum = compile_route_choices(
            quad_network, quad_table, include_alternates=True
        )
        choice = choices[(0, 1)][0]
        assert choice.primary == quad_network.path_links((0, 1))
        lengths = [len(alt) for alt in choice.alternates]
        assert lengths == sorted(lengths)
        assert cum[(0, 1)][-1] == pytest.approx(1.0)

    def test_without_alternates(self, quad_network, quad_table):
        choices, __ = compile_route_choices(
            quad_network, quad_table, include_alternates=False
        )
        assert all(
            choice.alternates == ()
            for entries in choices.values()
            for choice in entries
        )

    def test_splits_create_multiple_choices(self, quad_network, quad_table):
        splits = {(0, 1): [((0, 1), 0.5), ((0, 2, 1), 0.5)]}
        choices, cum = compile_route_choices(
            quad_network, quad_table, include_alternates=True, splits=splits
        )
        assert len(choices[(0, 1)]) == 2
        assert list(cum[(0, 1)]) == pytest.approx([0.5, 1.0])
        # Each choice's alternates exclude its own primary.
        for choice in choices[(0, 1)]:
            assert choice.primary not in choice.alternates

    def test_bad_split_probabilities_rejected(self, quad_network, quad_table):
        with pytest.raises(ValueError):
            compile_route_choices(
                quad_network,
                quad_table,
                include_alternates=True,
                splits={(0, 1): [((0, 1), 0.4)]},
            )


class TestRoutingPolicyBase:
    def test_select_choice_uses_uniform(self, quad_network, quad_table):
        splits = {(0, 1): [((0, 1), 0.25), ((0, 2, 1), 0.75)]}
        choices, cum = compile_route_choices(
            quad_network, quad_table, include_alternates=False, splits=splits
        )
        policy = RoutingPolicy(quad_network, choices, cum)
        direct = quad_network.path_links((0, 1))
        relay = quad_network.path_links((0, 2, 1))
        assert policy.select_choice((0, 1), 0.1).primary == direct
        assert policy.select_choice((0, 1), 0.24).primary == direct
        assert policy.select_choice((0, 1), 0.26).primary == relay
        assert policy.select_choice((0, 1), 0.99).primary == relay

    def test_single_choice_fast_path(self, quad_network, quad_table):
        choices, cum = compile_route_choices(
            quad_network, quad_table, include_alternates=False
        )
        policy = RoutingPolicy(quad_network, choices, cum)
        assert policy.select_choice((0, 1), 0.999) is policy.choices[(0, 1)][0]

    def test_mismatched_probabilities_rejected(self, quad_network):
        choice = RouteChoice(primary=(0,), alternates=())
        with pytest.raises(ValueError):
            RoutingPolicy(
                quad_network,
                {(0, 1): [choice]},
                {(0, 1): np.array([0.5])},  # does not end at 1
            )

    @pytest.mark.parametrize("cum", [[0.6, 0.3, 1.0], [-0.1, 0.5, 1.0], [0.2, np.nan, 1.0]])
    def test_cumulative_probabilities_must_be_monotone_in_unit_range(
        self, quad_network, cum
    ):
        # [0.6, 0.3, 1.0] with u = 0.4: searchsorted would pick candidate 2
        # while the engines' linear scan picks candidate 0.
        choices = [RouteChoice(primary=(link,), alternates=()) for link in range(3)]
        with pytest.raises(ValueError, match="nondecreasing"):
            RoutingPolicy(quad_network, {(0, 1): choices}, {(0, 1): np.array(cum)})

    def test_describe(self, quad_network, quad_table):
        assert SinglePathRouting(quad_network, quad_table).describe() == "single-path"


class TestUncontrolled:
    def test_thresholds_equal_capacity(self, quad_network, quad_table):
        policy = UncontrolledAlternateRouting(quad_network, quad_table)
        assert (policy.alt_thresholds == 100).all()


class TestControlled:
    def test_thresholds_are_capacity_minus_r(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 85.0)
        loads = primary_link_loads(quad_network, quad_table, traffic)
        policy = ControlledAlternateRouting(quad_network, quad_table, loads)
        for link in quad_network.links:
            r = min_protection_level(loads[link.index], link.capacity, quad_table.max_hops)
            assert policy.protection_levels[link.index] == r
            assert policy.alt_thresholds[link.index] == link.capacity - r

    def test_custom_max_hops(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 85.0)
        loads = primary_link_loads(quad_network, quad_table, traffic)
        h2 = ControlledAlternateRouting(quad_network, quad_table, loads, max_hops=2)
        h3 = ControlledAlternateRouting(quad_network, quad_table, loads, max_hops=3)
        assert (h2.protection_levels <= h3.protection_levels).all()
        assert h2.max_hops == 2

    def test_override_validated(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 50.0)
        loads = primary_link_loads(quad_network, quad_table, traffic)
        with pytest.raises(ValueError):
            ControlledAlternateRouting(
                quad_network,
                quad_table,
                loads,
                protection_override=np.full(quad_network.num_links, 101),
            )
        with pytest.raises(ValueError):
            ControlledAlternateRouting(
                quad_network, quad_table, loads, protection_override=np.array([1])
            )

    def test_load_shape_validated(self, quad_network, quad_table):
        with pytest.raises(ValueError):
            ControlledAlternateRouting(quad_network, quad_table, np.zeros(3))

    def test_failed_link_gets_zero_level(self):
        net = fully_connected(3, 10)
        net.fail_link(0, 1)
        table = build_path_table(net)
        loads = np.full(net.num_links, 5.0)
        policy = ControlledAlternateRouting(net, table, loads)
        failed_index = [l.index for l in net.links if l.endpoints == (0, 1)][0]
        assert policy.protection_levels[failed_index] == 0


class TestMaxAlternates:
    def test_cap_truncates_shortest_first(self, quad_network, quad_table):
        full = UncontrolledAlternateRouting(quad_network, quad_table)
        capped = UncontrolledAlternateRouting(quad_network, quad_table, max_alternates=2)
        for od in quad_table.od_pairs():
            full_alts = full.choices[od][0].alternates
            capped_alts = capped.choices[od][0].alternates
            assert capped_alts == full_alts[:2]

    def test_zero_cap_is_single_path(self, quad_network, quad_table):
        import numpy as np
        from repro.sim.trace import generate_trace
        from repro.sim.simulator import simulate

        traffic = uniform_traffic(4, 95.0)
        capped = UncontrolledAlternateRouting(quad_network, quad_table, max_alternates=0)
        single = SinglePathRouting(quad_network, quad_table)
        trace = generate_trace(traffic, 20.0, 0)
        a = simulate(quad_network, capped, trace, 5.0)
        b = simulate(quad_network, single, trace, 5.0)
        assert np.array_equal(a.blocked, b.blocked)

    def test_controlled_accepts_cap(self, quad_network, quad_table):
        import numpy as np

        traffic = uniform_traffic(4, 85.0)
        loads = primary_link_loads(quad_network, quad_table, traffic)
        policy = ControlledAlternateRouting(
            quad_network, quad_table, loads, max_alternates=1
        )
        assert all(
            len(choice.alternates) <= 1
            for entries in policy.choices.values()
            for choice in entries
        )

    def test_negative_cap_rejected(self, quad_network, quad_table):
        with pytest.raises(ValueError):
            UncontrolledAlternateRouting(quad_network, quad_table, max_alternates=-1)

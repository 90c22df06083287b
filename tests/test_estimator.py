"""Tests for the measured primary loads and the shared set-up counter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.routing.adaptive import primary_setups
from repro.routing.alternate import ControlledAlternateRouting
from repro.routing.estimator import estimate_loads_from_trace
from repro.routing.minloss import optimize_primary_flows
from repro.routing.single_path import SinglePathRouting
from repro.sim.trace import generate_trace
from repro.topology.paths import build_path_table
from repro.traffic.calibration import nsfnet_nominal_traffic
from repro.traffic.demand import primary_link_loads
from repro.traffic.generators import uniform_traffic


class TestEstimateLoadsFromTrace:
    def test_estimates_approach_equation_one(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 40.0)
        truth = primary_link_loads(quad_network, quad_table, traffic)
        policy = SinglePathRouting(quad_network, quad_table)
        trace = generate_trace(traffic, 210.0, seed=0)
        estimate = estimate_loads_from_trace(quad_network, policy, trace, warmup=10.0)
        # Per-link Poisson counts over 200 units: relative error ~ 1/sqrt(8000).
        assert estimate == pytest.approx(truth, rel=0.12)

    def test_nsfnet_estimates(self, nsfnet, nsfnet_table):
        traffic = nsfnet_nominal_traffic()
        truth = primary_link_loads(nsfnet, nsfnet_table, traffic)
        policy = SinglePathRouting(nsfnet, nsfnet_table)
        trace = generate_trace(traffic, 110.0, seed=1)
        estimate = estimate_loads_from_trace(nsfnet, policy, trace, warmup=10.0)
        relative = np.abs(estimate - truth) / np.maximum(truth, 1.0)
        assert np.median(relative) < 0.15

    def test_counts_blocked_setups_too(self):
        # Setup packets fly past the link even when the call will be blocked,
        # so estimates track *demand*, not carried load.  Use a capacity-1
        # network under heavy demand: carried load saturates at ~1 Erlang but
        # the estimate must track the full offered rate.
        from repro.topology.generators import line

        net = line(2, 1)
        table = build_path_table(net)
        traffic = uniform_traffic(2, 20.0)
        policy = SinglePathRouting(net, table)
        trace = generate_trace(traffic, 110.0, seed=2)
        estimate = estimate_loads_from_trace(net, policy, trace, warmup=10.0)
        assert estimate.max() > 15.0

    def test_empty_trace_estimates_all_zero(self, quad_network, quad_table):
        # Zero demand generates a trace with no arrivals at all; the
        # estimator must return finite all-zero loads, not divide by a
        # zero count or choke on the empty arrays.
        traffic = uniform_traffic(4, 0.0)
        policy = SinglePathRouting(quad_network, quad_table)
        trace = generate_trace(traffic, 20.0, seed=0)
        assert trace.num_calls == 0
        estimate = estimate_loads_from_trace(
            quad_network, policy, trace, warmup=10.0
        )
        assert estimate.shape == (quad_network.num_links,)
        assert np.all(estimate == 0.0)
        assert np.all(np.isfinite(estimate))

    def test_bad_warmup_rejected(self, quad_network, quad_table):
        traffic = uniform_traffic(4, 10.0)
        policy = SinglePathRouting(quad_network, quad_table)
        trace = generate_trace(traffic, 20.0, seed=0)
        with pytest.raises(ValueError):
            estimate_loads_from_trace(quad_network, policy, trace, warmup=25.0)


class TestPrimarySetups:
    def test_matches_a_per_call_count_on_bifurcated_pairs(self, nsfnet, nsfnet_table):
        # The vectorised counter against the obvious loop: each call picks
        # its primary with select_choice and counts one set-up per link in
        # the window its arrival time falls in.
        traffic = nsfnet_nominal_traffic().scaled(1.2)
        splits = optimize_primary_flows(
            nsfnet, nsfnet_table, traffic, max_iterations=30
        ).splits
        policy = ControlledAlternateRouting(
            nsfnet, nsfnet_table, primary_link_loads(nsfnet, nsfnet_table, traffic),
            splits=splits,
        )
        assert any(len(options) > 1 for options in policy.choices.values())
        trace = generate_trace(traffic, 30.0, seed=3)
        boundaries = [5.0, 12.5, trace.times[40], 25.0]
        expected = np.zeros((len(boundaries) + 1, nsfnet.num_links), dtype=np.int64)
        for call in range(trace.num_calls):
            od = trace.od_pairs[trace.od_index[call]]
            if not policy.choices.get(od):
                continue
            window = int(np.searchsorted(boundaries, trace.times[call], side="right"))
            for link in policy.select_choice(od, float(trace.uniforms[call])).primary:
                expected[window, link] += 1
        assert np.array_equal(primary_setups(policy, trace, boundaries), expected)

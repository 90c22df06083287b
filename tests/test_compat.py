"""Tests for the deprecation shims in ``repro._compat``.

Two shims live there: :func:`positional_shim` keeps the kw-only config
dataclasses accepting positional construction (the pre-keyword-only calling
convention), and :func:`resolve_backend` keeps the legacy ``reference=``
boolean working on the simulation entry points after the ``backend=``
redesign.  These tests pin down both contracts directly instead of relying
on the incidental coverage the callers provide.
"""

from __future__ import annotations

import warnings

import pytest

from repro._compat import resolve_backend
from repro.experiments.runner import ReplicationConfig
from repro.sim.signaling import SignalingConfig


class TestReplicationConfigShim:
    def test_positional_maps_in_declaration_order(self):
        with pytest.warns(DeprecationWarning, match="ReplicationConfig"):
            config = ReplicationConfig(25.0, 5.0, (0, 1))
        assert config.measured_duration == 25.0
        assert config.warmup == 5.0
        assert config.seeds == (0, 1)

    def test_positional_equals_keyword(self):
        with pytest.warns(DeprecationWarning):
            positional = ReplicationConfig(25.0, 5.0, (0, 1))
        keyword = ReplicationConfig(measured_duration=25.0, warmup=5.0, seeds=(0, 1))
        assert positional == keyword

    def test_mixed_positional_and_keyword(self):
        with pytest.warns(DeprecationWarning):
            config = ReplicationConfig(25.0, warmup=7.0)
        assert config.measured_duration == 25.0
        assert config.warmup == 7.0
        assert config.seeds == tuple(range(10))

    def test_keyword_only_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ReplicationConfig(measured_duration=25.0)

    def test_too_many_positional_raises(self):
        with pytest.raises(TypeError, match="at most 3"):
            ReplicationConfig(25.0, 5.0, (0,), "extra")

    def test_duplicate_positional_and_keyword_raises(self):
        with pytest.raises(TypeError, match="multiple values"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                ReplicationConfig(25.0, measured_duration=30.0)

    def test_derived_properties_survive_shim(self):
        with pytest.warns(DeprecationWarning):
            config = ReplicationConfig(25.0, 5.0)
        assert config.duration == 30.0
        assert config.scaled(duration_factor=2.0).measured_duration == 50.0


class TestSignalingConfigShim:
    def test_positional_maps_in_declaration_order(self):
        with pytest.warns(DeprecationWarning, match="SignalingConfig"):
            config = SignalingConfig(1e-4, 0.0, 0.5)
        assert config.propagation_delay == 1e-4
        assert config.message_loss_probability == 0.0
        assert config.setup_timeout == 0.5

    def test_keyword_only_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SignalingConfig(propagation_delay=1e-4)

    def test_validation_still_runs_after_shim(self):
        # Positive loss without a setup timeout is rejected by the real
        # __post_init__ — the shim must not bypass it.
        with pytest.raises(ValueError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                SignalingConfig(0.0, 0.5)


class TestResolveBackend:
    def test_plain_backend_passes_through(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in ("auto", "fast", "reference"):
                assert resolve_backend(name, None) == name

    def test_defaults_to_auto(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend(None, None) == "auto"

    def test_reference_true_maps_with_warning(self):
        with pytest.warns(DeprecationWarning, match="backend"):
            assert resolve_backend(None, True) == "reference"

    def test_reference_false_maps_with_warning(self):
        with pytest.warns(DeprecationWarning):
            assert resolve_backend(None, False) == "auto"

    def test_conflicting_flags_raise(self):
        with pytest.raises(ValueError, match="conflicting"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                resolve_backend("fast", True)

    def test_agreeing_flags_allowed(self):
        with pytest.warns(DeprecationWarning):
            assert resolve_backend("reference", True) == "reference"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu", None)


class TestBackendShim:
    """The public entry points honour the legacy ``reference=`` flag."""

    def _scenario(self):
        from repro.api import Scenario

        return Scenario(topology="quadrangle", traffic=2.0, policy="controlled")

    def test_run_scenario_reference_flag_warns_and_matches(self):
        from repro.api import run_scenario

        scenario = self._scenario()
        with pytest.warns(DeprecationWarning, match="run_scenario"):
            legacy = run_scenario(scenario, seed=3, duration=8.0, warmup=1.0,
                                  reference=True)
        modern = run_scenario(scenario, seed=3, duration=8.0, warmup=1.0,
                              backend="reference")
        assert legacy.network_blocking == modern.network_blocking
        assert (legacy.blocked == modern.blocked).all()

    def test_simulate_reference_flag_warns(self):
        from repro.sim.simulator import simulate
        from repro.sim.trace import generate_trace

        scenario = self._scenario()
        trace = generate_trace(scenario.traffic_matrix, 8.0, 1)
        policy = scenario.build_policy("controlled")
        with pytest.warns(DeprecationWarning, match="simulate"):
            legacy = simulate(scenario.network, policy, trace, warmup=1.0,
                              reference=True)
        modern = simulate(scenario.network, policy, trace, warmup=1.0,
                          backend="reference")
        assert legacy.network_blocking == modern.network_blocking

    def test_simulate_conflict_raises(self):
        from repro.sim.simulator import simulate
        from repro.sim.trace import generate_trace

        scenario = self._scenario()
        trace = generate_trace(scenario.traffic_matrix, 4.0, 0)
        policy = scenario.build_policy("controlled")
        with pytest.raises(ValueError, match="conflicting"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                simulate(scenario.network, policy, trace, warmup=1.0,
                         backend="fast", reference=True)

    def test_simulate_unknown_backend_raises(self):
        from repro.sim.simulator import simulate
        from repro.sim.trace import generate_trace

        scenario = self._scenario()
        trace = generate_trace(scenario.traffic_matrix, 4.0, 0)
        policy = scenario.build_policy("controlled")
        with pytest.raises(ValueError, match="unknown backend"):
            simulate(scenario.network, policy, trace, warmup=1.0,
                     backend="warp")

"""Tests for the keyword-only config contract and backend validation.

The public config dataclasses (:class:`ReplicationConfig`,
:class:`SignalingConfig`) are keyword-only, and every entry point's
``backend=`` keyword accepts exactly :data:`repro.sim.simulator.BACKENDS`.
"""

from __future__ import annotations

import inspect
import warnings

import pytest

from repro.experiments.runner import ReplicationConfig
from repro.sim.signaling import SignalingConfig
from repro.sim.simulator import BACKENDS, check_backend, simulate


class TestReplicationConfigShim:
    def test_keyword_only_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ReplicationConfig(measured_duration=25.0)

    def test_too_many_positional_raises(self):
        with pytest.raises(TypeError, match="positional argument"):
            ReplicationConfig(25.0, 5.0, (0,), "extra")

    def test_duplicate_positional_and_keyword_raises(self):
        with pytest.raises(TypeError, match="positional argument"):
            ReplicationConfig(25.0, measured_duration=30.0)


class TestSignalingConfigShim:
    def test_keyword_only_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SignalingConfig(propagation_delay=1e-4)


class TestResolveBackend:
    def test_plain_backend_passes_through(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in BACKENDS:
                assert check_backend(name) == name
        assert BACKENDS == ("auto", "reference")

    def test_defaults_to_auto(self):
        assert inspect.signature(simulate).parameters["backend"].default == "auto"

    def test_unknown_backend_raises(self):
        for name in ("gpu", "fast", "batch", None):
            with pytest.raises(ValueError, match="unknown backend"):
                check_backend(name)


class TestBackendShim:
    """Every public entry point refuses an unknown backend name."""

    def _scenario(self):
        from repro.api import Scenario

        return Scenario(topology="quadrangle", traffic=2.0, policy="controlled")

    def test_simulate_unknown_backend_raises(self):
        from repro.sim.trace import generate_trace

        scenario = self._scenario()
        trace = generate_trace(scenario.traffic_matrix, 4.0, 0)
        policy = scenario.build_policy("controlled")
        with pytest.raises(ValueError, match="unknown backend"):
            simulate(scenario.network, policy, trace, warmup=1.0,
                     backend="warp")

    def test_study_entry_points_refuse_unknown_backends(self, tmp_path):
        from repro.api import run_scenario, run_study
        from repro.experiments.runner import run_replications_detailed
        from repro.lab.config import LabConfig
        from repro.lab.scheduler import run_lab_study

        scenario = self._scenario()
        config = ReplicationConfig(measured_duration=2.0, warmup=1.0, seeds=(0,))
        calls = (
            lambda: run_scenario(scenario, duration=3.0, warmup=1.0,
                                 backend="fast"),
            lambda: run_study(scenario, config=config, backend="fast"),
            lambda: run_replications_detailed(
                scenario.network, scenario.build_policy(),
                scenario.traffic_matrix, config, backend="fast"),
            lambda: run_lab_study(scenario, config=config, backend="fast",
                                  lab=LabConfig(store=tmp_path)),
        )
        for call in calls:
            with pytest.raises(ValueError, match="unknown backend"):
                call()

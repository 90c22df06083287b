"""The benchmark's own tests, at tiny fidelity.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import common  # noqa: E402
import run  # noqa: E402
import serve_control  # noqa: E402
import serve_socket  # noqa: E402
import study  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few seconds of work."""
    for module in (common, serve_socket):
        monkeypatch.setattr(module, "SETUP_REPEATS", 1)
    monkeypatch.setattr(study, "NSFNET_SEEDS", 2)
    monkeypatch.setattr(study, "NSFNET_MEASURED", 3.0)
    monkeypatch.setattr(study, "NSFNET_WARMUP", 1.0)
    monkeypatch.setattr(study, "MESH_NODES", 10)
    monkeypatch.setattr(study, "MESH_TOTAL_ERLANGS", 300.0)
    monkeypatch.setattr(study, "MESH_MEASURED", 2.0)
    monkeypatch.setattr(study, "MESH_WARMUP", 1.0)
    monkeypatch.setattr(serve_control, "DURATION", 6.0)
    monkeypatch.setattr(serve_control, "WARMUP", 1.0)
    monkeypatch.setattr(serve_control, "SEEDS_PER_PASS", 1)
    monkeypatch.setattr(serve_socket, "OPEN_LOOP_S", 0.1)
    monkeypatch.setattr(serve_socket, "LADDER_RPS", (40_000,))
    monkeypatch.setattr(serve_socket, "LADDER_STEP_S", 0.1)
    monkeypatch.setattr(serve_socket, "OPEN_LOOP_DURATION", 8.0)
    monkeypatch.setattr(serve_socket, "PIPELINED_DURATION", 3.0)


@pytest.mark.parametrize("traced", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_emits_exactly_the_listed_metrics(tiny, workload, traced):
    result = run.run(workload, seed=0, seconds=0.01, traced=traced)["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if traced else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for entry in listed:
        got = result["metrics"][entry["name"]]
        assert got["unit"] == entry["unit"]
        assert isinstance(got["value"], float)


def test_study_nsfnet_reports_the_batch_default(tiny):
    layers = run.run("study-nsfnet", seed=0, seconds=0.01, traced=True)["result"]["metrics"]
    assert layers["sim.batch_seed_share"]["value"] == 1.0
    assert layers["control.clamp_violations"]["value"] == 0.0


@pytest.mark.parametrize("fingerprint", [
    lambda seed: study.input_fingerprint("study-nsfnet", seed),
    lambda seed: study.input_fingerprint("study-mesh-adversarial", seed),
    serve_socket.input_fingerprint,
    serve_control.input_fingerprint,
], ids=["study-nsfnet", "study-mesh-adversarial", "serve-socket", "serve-control"])
def test_workload_seed_changes_inputs(tiny, fingerprint):
    assert fingerprint(0) == fingerprint(0)
    assert fingerprint(0) != fingerprint(1)


def _tampered(decisions):
    first = decisions[0]
    return [replace(first, admitted=not first.admitted)] + list(decisions[1:])


def test_tampered_blocking_array_fails_the_study_check(tiny):
    import repro.api

    config = study._config("study-nsfnet", 0)
    scenario = study._scenario("study-nsfnet", 0)
    arrays = study.study_arrays(repro.api.run_study(
        scenario, policies=study.POLICIES_NSFNET, config=config))
    reference = study.study_arrays(repro.api.run_study(
        scenario, policies=study.POLICIES_NSFNET, config=config, backend="reference"))
    expected = len(study.POLICIES_NSFNET) * len(config.seeds)
    assert study.check_study(arrays, reference, expected) == 0
    key = next(iter(arrays))
    offered, blocked = arrays[key]
    tampered = blocked.copy()
    tampered[0] += 1
    assert study.check_study({**arrays, key: (offered, tampered)}, reference, expected) == 1
    del arrays[key]
    assert study.check_study(arrays, reference, expected) == 1


def test_tampered_decisions_fail_the_serve_checks(tiny):
    from repro.api import Scenario
    from repro.serve.engine import RequestEngine
    from repro.serve.loadgen import decisions_digest, trace_requests

    scenario = Scenario()
    requests = trace_requests(scenario.make_trace(3.0, 0))
    engine = RequestEngine(scenario.network, scenario.build_policy("controlled"))
    decisions = engine.decide_batch(requests)
    n = len(requests)
    good = ("pipelined", n, decisions_digest(decisions))
    bad = ("pipelined", n, decisions_digest(_tampered(decisions)))
    assert serve_socket.check_passes([good], [], requests) == (n, 0)
    assert serve_socket.check_passes([good, bad], [], requests) == (2 * n, n)
    assert serve_socket.check_passes([("light", n, None)], requests, []) == (n, n)

    entry = {"requests": n, "digests": [decisions_digest(decisions)], "violations": 0}
    expected = [decisions_digest(decisions)]
    assert serve_control.check_passes([entry], expected) == (n, 0)
    tampered = {**entry, "digests": [decisions_digest(_tampered(decisions))]}
    assert serve_control.check_passes([tampered], expected) == (n, n)
    violated = {**entry, "violations": 1}
    assert serve_control.check_passes([violated], expected) == (n, n)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-control",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""

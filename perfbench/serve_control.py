"""``serve-control``: the in-process engine under a live control loop.

A :class:`~repro.serve.engine.RequestEngine` over NSFNet with the
controlled policy and ``make_control_loop(controller="gradient",
interval=1.0)`` replays flash-crowd traces with ``replay_trace(batch_size=64)``.
Hot-swap writes land beside admission reads in the engine and state layers;
there is no transport at all.  One pass replays ``SEEDS_PER_PASS`` traces
so that it lasts over a second on a 2-core box.
"""

from __future__ import annotations

import numpy as np

from common import metric, percentile, run_passes, timing
from tracing import Tracer

WORKLOAD = "flash-crowd"
POLICY = "controlled"
CONTROLLER = "gradient"
INTERVAL = 1.0
BATCH = 64
SEEDS_PER_PASS = 2
DURATION = 110.0
WARMUP = 10.0


def fidelity() -> dict:
    return {"topology": "nsfnet", "traffic": "nominal", "workload": WORKLOAD,
            "policy": POLICY, "controller": CONTROLLER, "interval": INTERVAL,
            "batch_size": BATCH, "traces_per_pass": SEEDS_PER_PASS,
            "duration": DURATION, "warmup": WARMUP}


def _scenario():
    from repro.api import Scenario

    return Scenario(workload=WORKLOAD)


def _engine(scenario, policy):
    from repro.control import make_control_loop
    from repro.serve.engine import RequestEngine
    from repro.serve.state import NetworkState

    state = NetworkState(scenario.network, policy)
    loop = make_control_loop(state, scenario.path_table, scenario.traffic_matrix,
                             controller=CONTROLLER, interval=INTERVAL)
    return RequestEngine(scenario.network, policy, state=state, control=loop), loop


def _traces(scenario, seed: int, duration: float = DURATION):
    return [scenario.make_trace(duration, SEEDS_PER_PASS * seed + i)
            for i in range(SEEDS_PER_PASS)]


def setup_probe(seed: int) -> None:
    """Import, engine + loop build and a first replay of a tiny trace."""
    from repro.serve.loadgen import replay_trace

    scenario = _scenario()
    engine, __ = _engine(scenario, scenario.build_policy(POLICY))
    replay_trace(engine, scenario.make_trace(2.0, seed), warmup=1.0, batch_size=BATCH)


def input_fingerprint(seed: int) -> str:
    import hashlib

    digest = hashlib.sha256()
    for trace in _traces(_scenario(), seed):
        for array in (trace.times, trace.od_index, trace.holding_times, trace.uniforms):
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def check_passes(passes, expected: list[str]) -> tuple[int, int]:
    """(requests attempted, requests failed): a pass fails whole when its
    decision digests differ from the expected ones or the clamp was
    violated."""
    attempted = failed = 0
    for entry in passes:
        attempted += int(entry["requests"])
        if entry["digests"] != expected or entry["violations"]:
            failed += int(entry["requests"])
    return attempted, failed


def install_layers(tracer: Tracer) -> None:
    from repro.control.loop import ControlLoop
    from repro.serve.engine import RequestEngine
    from repro.serve.state import NetworkState

    def batch(args, kwargs, result):
        return {"serve.engine.decisions": len(result), "serve.engine.batches": 1}

    tracer.patch_method(RequestEngine, "decide_batch", "serve.engine.decide_batch", batch)
    tracer.patch_method(NetworkState, "hot_swap", "serve.state.hot_swap")
    tracer.patch_method(ControlLoop, "step", "control.step")


def run(seed: int, seconds: float, traced: bool, tracer: Tracer) -> dict:
    from repro.serve.loadgen import decisions_digest, replay_trace

    scenario = _scenario()
    policy = scenario.build_policy(POLICY)
    traces = _traces(scenario, seed)
    setup_probe(seed)  # warm first-use paths outside timing

    passes = []

    def one_pass(index: int) -> dict:
        trace_this = traced and index % 2 == 1
        if trace_this:
            install_layers(tracer)
            tracer.run_id = f"serve-control-{seed}-pass{index}"
            tracer.counts.clear()
            since = tracer.mark()
        requests = wall = 0.0
        digests, violations = [], 0
        for trace in traces:
            engine, loop = _engine(scenario, policy)
            report = replay_trace(engine, trace, warmup=WARMUP, batch_size=BATCH)
            requests += report.requests
            wall += report.wall_seconds
            digests.append(decisions_digest(report.decisions))
            violations += loop.clamp.violations
        entry = {"rate": requests / wall, "wall": wall, "requests": requests,
                 "digests": digests, "violations": violations,
                 "traced": trace_this}
        if trace_this:
            tracer.unpatch()
            entry["layers"] = _layers(tracer, since, dict(tracer.counts))
            entry["swap_us"] = [d * 1e6 for d in tracer.durations("serve.state.hot_swap", since)]
        passes.append(entry)
        return entry

    run_passes(seconds, one_pass, min_passes=2 if traced else 1)

    # Output check (untimed): the batched closed-loop replay must equal a
    # one-request-at-a-time replay, with zero safety-clamp violations.
    expected = []
    for trace in traces:
        engine, __ = _engine(scenario, policy)
        expected.append(decisions_digest(
            replay_trace(engine, trace, warmup=WARMUP, batch_size=1).decisions))
    attempted, failed = check_passes(passes, expected)

    untraced = [p for p in passes if not p["traced"]]
    rates = [p["rate"] for p in untraced]
    result = {
        "e2e": {"decisions_per_s": metric(np.median(rates), "1/s")},
        "report": {"decisions_per_s": timing(rates, "1/s"),
                   "pass_s": timing([p["wall"] for p in untraced], "s"),
                   "clamp_violations": sum(p["violations"] for p in passes)},
        "attempted": attempted, "failed": failed,
    }
    if traced:
        traced_passes = [p for p in passes if p["traced"]]
        layers = {key: float(np.median([p["layers"][key] for p in traced_passes]))
                  for key in traced_passes[0]["layers"]}
        swaps = [us for p in traced_passes for us in p["swap_us"]]
        layers["serve.state.hot_swap_p99_us"] = percentile(swaps, 99) if swaps else 0.0
        layers["control.clamp_violations"] = float(sum(p["violations"] for p in passes))
        traced_rate = float(np.median([p["rate"] for p in traced_passes]))
        # Overhead as a share of the untraced figure (positive = slower).
        layers["trace.overhead_frac"] = float(np.median(rates)) / traced_rate - 1.0
        result["layers"] = layers
        traced_wall = float(np.median([p["wall"] for p in traced_passes]))
        result["report"]["layer_shares"] = {
            key: layers[key] / traced_wall
            for key in ("serve.engine.decide_s", "control.step_s")}
    return result


def _layers(tracer: Tracer, since: int, counts: dict) -> dict:
    spans = tracer.summary(since)

    def get(name, field):
        return spans.get(name, {}).get(field, 0.0)

    batches = counts.get("serve.engine.batches", 0)
    return {
        "serve.engine.decide_s": get("serve.engine.decide_batch", "self_s"),
        "serve.engine.decisions": counts.get("serve.engine.decisions", 0),
        "serve.engine.batch_mean": (counts.get("serve.engine.decisions", 0) / batches
                                    if batches else 0.0),
        "serve.state.hot_swaps": get("serve.state.hot_swap", "count"),
        "control.steps": get("control.step", "count"),
        "control.step_s": get("control.step", "self_s"),
    }

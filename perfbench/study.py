"""Study workloads: ``run_study`` as users call it, on NSFNet and a mesh.

``study-nsfnet`` is the paper's headline comparison: three policies on the
calibrated NSFNet matrix at paper fidelity (10 seeds x 110 units, common
random numbers, default backend, serial).  ``study-mesh-adversarial`` runs
the same call on a 30-node Waxman mesh under skewed gravity demand and the
alternate-overlap adversary, sized so that compiling the scenario (path
enumeration, Theorem-1 levels, the adversary's overlap scores) dominates.

The workload seed picks the replication seeds (and, on the mesh, the
adversary's seed); the program only ever sees the traces generated from
them.  Every pass builds a fresh :class:`~repro.api.Scenario`, so cached
compile products never carry over between timed calls.
"""

from __future__ import annotations

import time

import numpy as np

from common import metric, run_passes, timing
from tracing import Tracer

POLICIES_NSFNET = ("single-path", "uncontrolled", "controlled")
POLICIES_MESH = ("single-path", "controlled")

#: Paper fidelity: 10 seeds x (100 measured + 10 warm-up) units.
NSFNET_SEEDS = 10
NSFNET_MEASURED = 100.0
NSFNET_WARMUP = 10.0

#: Mesh sizing: single-path blocking lands in 5-15% and compile dominates.
MESH_NODES = 30
MESH_CAPACITY = 40
MESH_TOPOLOGY_SEED = 3
MESH_TOTAL_ERLANGS = 2500.0
MESH_MAX_HOPS = 5
MESH_SEEDS = 2
MESH_MEASURED = 10.0
MESH_WARMUP = 5.0


def _config(name: str, seed: int, tiny: bool = False):
    from repro.experiments.runner import ReplicationConfig

    if name == "study-nsfnet":
        seeds = tuple(range(NSFNET_SEEDS * seed, NSFNET_SEEDS * (seed + 1)))
        if tiny:
            return ReplicationConfig(measured_duration=2.0, warmup=1.0, seeds=seeds[:2])
        return ReplicationConfig(measured_duration=NSFNET_MEASURED,
                                 warmup=NSFNET_WARMUP, seeds=seeds)
    seeds = tuple(range(MESH_SEEDS * seed, MESH_SEEDS * seed + MESH_SEEDS))
    if tiny:
        return ReplicationConfig(measured_duration=1.0, warmup=1.0, seeds=seeds[:1])
    return ReplicationConfig(measured_duration=MESH_MEASURED, warmup=MESH_WARMUP,
                             seeds=seeds)


def _scenario(name: str, seed: int):
    """A fresh scenario (fresh network object, so nothing is pre-compiled)."""
    from repro.api import Scenario

    if name == "study-nsfnet":
        return Scenario()
    from repro.topology.generators import waxman_mesh
    from repro.traffic.generators import gravity_traffic

    network = waxman_mesh(MESH_NODES, capacity=MESH_CAPACITY, seed=MESH_TOPOLOGY_SEED)
    # The gravity weights of experiments/generalization.py: skewed demand.
    weights = [1.0 + 0.35 * node for node in network.nodes()]
    traffic = gravity_traffic(weights, total=MESH_TOTAL_ERLANGS)
    return Scenario(topology=network, traffic=traffic, max_hops=MESH_MAX_HOPS,
                    workload=f"adversarial:{seed}")


def _policies(name: str) -> tuple[str, ...]:
    return POLICIES_NSFNET if name == "study-nsfnet" else POLICIES_MESH


def fidelity(name: str) -> dict:
    config = _config(name, 0)
    out = {
        "policies": list(_policies(name)),
        "seeds_per_study": len(config.seeds),
        "measured_duration": config.measured_duration,
        "warmup": config.warmup,
        "backend": "auto (default)",
        "parallel": False,
    }
    if name != "study-nsfnet":
        out.update(topology=f"waxman_mesh({MESH_NODES}, capacity={MESH_CAPACITY}, "
                            f"seed={MESH_TOPOLOGY_SEED})",
                   total_erlangs=MESH_TOTAL_ERLANGS, max_hops=MESH_MAX_HOPS,
                   workload="adversarial:<seed>")
    return out


def input_fingerprint(name: str, seed: int) -> str:
    """Digest of the traces one study at this workload seed simulates."""
    import hashlib

    config = _config(name, seed)
    scenario = _scenario(name, seed)
    digest = hashlib.sha256()
    for replication in config.seeds:
        trace = scenario.make_trace(config.duration, replication)
        for array in (trace.times, trace.od_index, trace.holding_times, trace.uniforms):
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def setup_probe(name: str, seed: int) -> None:
    """Import, scenario build and a first ``run_study`` on a tiny input."""
    import repro.api

    repro.api.run_study(_scenario(name, seed), policies=_policies(name),
                        config=_config(name, seed, tiny=True))


def study_arrays(study) -> dict:
    """Per (policy, seed): the offered and blocked per-pair arrays."""
    return {
        (policy, result.seed): (np.asarray(result.offered), np.asarray(result.blocked))
        for policy, outcome in study.outcomes.items()
        for result in outcome.results
    }


def check_study(arrays: dict, reference: dict, expected: int) -> int:
    """Replications missing or differing from the reference, bit for bit."""
    bad = expected - len(arrays)
    for key, (offered, blocked) in arrays.items():
        ref = reference.get(key)
        if ref is None or not (np.array_equal(offered, ref[0])
                               and np.array_equal(blocked, ref[1])):
            bad += 1
    return max(bad, 0)


def install_layers(tracer: Tracer) -> None:
    """Wrap the study path's layer entry points (see module docstring)."""
    import repro.api
    import repro.experiments.runner  # noqa: F401 - patched by name below
    import repro.sim.batch  # noqa: F401
    import repro.sim.simulator  # noqa: F401
    import repro.sim.trace  # noqa: F401
    import repro.topology.paths  # noqa: F401
    import repro.traffic.workload  # noqa: F401

    def calls(args, kwargs, result):
        return {"traffic.calls": int(result.times.size)}

    def sim_one(args, kwargs, result):
        return {"sim.calls": int(args[2].times.size), "sim.seeds": 1}

    def sim_batch(args, kwargs, result):
        traces = args[2]
        return {"sim.calls": sum(int(t.times.size) for t in traces),
                "sim.seeds": len(traces), "sim.batch_seeds": len(traces)}

    def alternates(args, kwargs, result):
        return {"topology.alternates": sum(len(a) for a in result.alternates.values())}

    tracer.patch_function("repro.api", "run_study", "api.run_study")
    tracer.patch_function("repro.experiments.runner", "run_replications_detailed",
                          "experiments.runner")
    tracer.patch_function("repro.sim.simulator", "simulate", "sim.simulate", sim_one)
    tracer.patch_function("repro.sim.batch", "simulate_batch", "sim.simulate_batch",
                          sim_batch)
    tracer.patch_function("repro.topology.paths", "build_path_table",
                          "topology.path_table", alternates)
    tracer.patch_method(repro.api.Scenario, "build_policy", "routing.build_policy")
    tracer.patch_function("repro.traffic.workload", "build_workload",
                          "traffic.build_workload")
    tracer.patch_function("repro.sim.trace", "generate_trace", "traffic.trace", calls)
    tracer.patch_function("repro.traffic.workload", "generate_workload_trace",
                          "traffic.trace", calls)


def layer_metrics(tracer: Tracer, since: int, counts: dict, study) -> dict:
    """One traced pass's per-layer figures (see BENCHMARK.json)."""
    spans = tracer.summary(since)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def builds(name):
        return spans.get(name, {}).get("count", 0)

    kernel = self_s("sim.simulate") + self_s("sim.simulate_batch")
    seeds = counts.get("sim.seeds", 0)
    fallback = sum(
        1 for outcome in study.outcomes.values() for status in outcome.statuses
        if status.backend != "batch" or status.fallback
    )
    return {
        "sim.kernel_s": kernel,
        "sim.calls_per_s": counts.get("sim.calls", 0) / kernel if kernel else 0.0,
        "sim.batch_seed_share": counts.get("sim.batch_seeds", 0) / seeds if seeds else 0.0,
        "sim.fallback_seeds": fallback,
        "topology.path_table_s": self_s("topology.path_table"),
        "topology.alternates": counts.get("topology.alternates", 0),
        "routing.policy_build_s": self_s("routing.build_policy"),
        "routing.policy_builds": builds("routing.build_policy"),
        "traffic.workload_build_s": self_s("traffic.build_workload"),
        "traffic.workload_builds": builds("traffic.build_workload"),
        "traffic.trace_s": self_s("traffic.trace"),
        "traffic.calls": counts.get("traffic.calls", 0),
        "experiments.runner_self_s": self_s("experiments.runner"),
        "api.self_s": self_s("api.run_study"),
    }


def run(name: str, seed: int, seconds: float, traced: bool, tracer: Tracer) -> dict:
    import repro.api

    policies = _policies(name)
    config = _config(name, seed)
    expected = len(policies) * len(config.seeds)
    # Warm the interpreter (imports, first-use caches) outside timing.
    repro.api.run_study(_scenario(name, seed), policies=policies,
                        config=_config(name, seed, tiny=True))

    passes = []

    def one_pass(index: int) -> dict:
        # Traced runs alternate untraced and traced passes, so the tracing
        # overhead is measured on the same inputs in the same process.
        trace_this = traced and index % 2 == 1
        scenario = _scenario(name, seed)
        if trace_this:
            install_layers(tracer)
            tracer.run_id = f"{name}-{seed}-pass{index}"
            tracer.counts.clear()
            since = tracer.mark()
        start = time.perf_counter()
        try:
            study = repro.api.run_study(scenario, policies=policies, config=config)
        except RuntimeError as exc:  # every seed failed: the pass fails whole
            entry = {"failed": str(exc), "traced": trace_this, "arrays": {}}
            passes.append(entry)
            return entry
        finally:
            elapsed = time.perf_counter() - start
            if trace_this:
                tracer.unpatch()
        layers = None
        if trace_this:
            layers = layer_metrics(tracer, since, dict(tracer.counts), study)
        decided = sum(
            int(result.offered.sum()) for outcome in study.outcomes.values()
            for result in outcome.results
        )
        entry = {"study_s": elapsed, "traced": trace_this, "layers": layers,
                 "arrays": study_arrays(study), "decided": decided,
                 "blocking": {p: o.stat.mean for p, o in study.outcomes.items()},
                 "backends": {p: o.backend for p, o in study.outcomes.items()}}
        passes.append(entry)
        return entry

    run_passes(seconds, one_pass, min_passes=2 if traced else 1)

    # Output check (untimed): every pass must match the reference oracle
    # bit for bit on the run's seeds.
    reference = study_arrays(repro.api.run_study(
        _scenario(name, seed), policies=policies, config=config,
        backend="reference"))
    failed = sum(check_study(p["arrays"], reference, expected) for p in passes)
    attempted = expected * len(passes)

    completed = [p for p in passes if "failed" not in p]
    untraced = [p for p in completed if not p["traced"]]
    study_times = [p["study_s"] for p in untraced]
    # Decisions per second: measured (post-warm-up) calls decided, summed
    # over policies and seeds, over study_s.
    rates = [p["decided"] / p["study_s"] for p in untraced]
    report = {
        "study_s": timing(study_times, "s"),
        "decisions_per_s": timing(rates, "1/s"),
        "blocking": untraced[0]["blocking"] if untraced else None,
        "backends": untraced[0]["backends"] if untraced else None,
    }
    result = {
        "e2e": {"decisions_per_s": metric(np.median(rates), "1/s")},
        "report": report, "attempted": attempted, "failed": failed,
    }
    if traced:
        traced_passes = [p for p in completed if p["traced"]]
        layers = {key: float(np.median([p["layers"][key] for p in traced_passes]))
                  for key in traced_passes[0]["layers"]}
        traced_s = float(np.median([p["study_s"] for p in traced_passes]))
        layers["trace.overhead_frac"] = traced_s / float(np.median(study_times)) - 1.0
        result["layers"] = layers
        report["layer_shares"] = {
            key: layers[key] / traced_s for key in layers
            if key.endswith("_s") and not key.endswith("per_s")}
    return result


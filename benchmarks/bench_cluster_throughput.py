"""CLUSTER — aggregate decision throughput of the sharded admission cluster.

One workload, measured twice end to end over real sockets with real
processes: the symmetric quadrangle (the paper's canonical topology)
under 95% uniform load, its admit/release stream call-partitioned across
four barrier-released loadgen client processes.

* **baseline** — the single-process socket server from PR 5
  (:class:`~repro.serve.server.ServeServer`, JSON lines, micro-batched
  engine), clients streaming pre-encoded lines;
* **cluster** — four shard worker processes behind a pipelined
  :class:`~repro.serve.cluster.ClusterRouter`, clients streaming
  pre-encoded JSON batch frames.

The speedup bar is **hardware-aware**: the cluster's win is parallel
shard decisions, so the nominal 3x bar presumes the shards actually get
cores.  The bar scales by ``min(1, (cpu_count - 1) / num_shards)`` —
full 3x with five or more cores, proportionally less below, zero on a
single-core box where nine processes time-slice one CPU and only the
wire-protocol efficiency (batched JSON frames vs per-request JSON
lines) can show through.  ``REPRO_BENCH_SPEEDUP_SCALE`` overrides the
derived scale, as in the other benchmarks.

Results land in ``BENCH_cluster_throughput.json`` at the repo root,
with the machine context recorded so a reader can judge the number.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.routing.alternate import ControlledAlternateRouting
from repro.serve.loadgen import measure_cluster_throughput
from repro.sim.trace import generate_trace
from repro.topology.generators import quadrangle
from repro.topology.paths import build_path_table
from repro.traffic.demand import primary_link_loads
from repro.traffic.generators import uniform_traffic

_REPO_ROOT = Path(__file__).resolve().parent.parent
_OUTPUT = _REPO_ROOT / "BENCH_cluster_throughput.json"

_NUM_SHARDS = 4
_CLIENTS = 4
_BATCH_SIZE = 1024

_CPU_COUNT = os.cpu_count() or 1
_SCALE_ENV = os.environ.get("REPRO_BENCH_SPEEDUP_SCALE")
if _SCALE_ENV is not None:
    _SPEEDUP_SCALE = float(_SCALE_ENV)
else:
    _SPEEDUP_SCALE = min(1.0, max(0.0, (_CPU_COUNT - 1) / _NUM_SHARDS))
_CLUSTER_SPEEDUP_BAR = 3.0 * _SPEEDUP_SCALE


def test_cluster_throughput(bench_config):
    network = quadrangle(100)
    table = build_path_table(network)
    traffic = uniform_traffic(network.num_nodes, 95.0)
    loads = primary_link_loads(network, table, traffic)
    policy = ControlledAlternateRouting(network, table, loads)
    trace = generate_trace(
        traffic, bench_config.measured_duration + 10.0, seed=42
    )

    report = measure_cluster_throughput(
        network, policy, trace,
        num_shards=_NUM_SHARDS, clients=_CLIENTS, batch_size=_BATCH_SIZE,
    )
    assert report["cluster_admitted"] > 0, "cluster admitted nothing"
    if _CLUSTER_SPEEDUP_BAR > 0:
        assert report["speedup"] >= _CLUSTER_SPEEDUP_BAR, (
            f"cluster {report['speedup']:.2f}x below the "
            f"{_CLUSTER_SPEEDUP_BAR:g}x bar "
            f"({_CPU_COUNT} cpus, scale {_SPEEDUP_SCALE:g})"
        )

    document = {
        "schema": "repro-bench-cluster-throughput-v1",
        "fidelity": {
            "measured_duration": bench_config.measured_duration,
            "speedup_scale": _SPEEDUP_SCALE,
            "speedup_bar": _CLUSTER_SPEEDUP_BAR,
            "cpu_count": _CPU_COUNT,
        },
        "workload": (
            "quadrangle(100) at 95% uniform load, controlled alternate "
            "routing, simulator-ordered admit/release stream partitioned "
            f"across {_CLIENTS} client processes"
        ),
        "cluster": report,
    }
    _OUTPUT.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print()
    print(
        f"baseline: {report['baseline_decisions_per_sec']:,.0f} decisions/sec"
        " (single-process JSON socket server)"
    )
    print(
        f"cluster : {report['cluster_decisions_per_sec']:,.0f} decisions/sec"
        f"  ({report['speedup']:.2f}x, {_NUM_SHARDS} shards, "
        f"bar {_CLUSTER_SPEEDUP_BAR:g}x on {_CPU_COUNT} cpus)"
    )
    print(f"wrote {_OUTPUT}")

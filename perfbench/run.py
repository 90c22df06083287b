"""The repository benchmark: four workloads, timed end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload study-nsfnet --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs traced and untraced passes side by side and reports the per-layer
metrics plus the tracing overhead.  Every run checks the program's outputs
against an oracle outside the timed region.  The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metric names are exactly those ``BENCHMARK.json`` lists for the mode.
The line before it is the full report: every metric with its sample count
and tail percentile, workload-specific figures and provenance.  The same
report, and the spans of a traced run, are written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    OUT_DIR, ROOT, SRC, median, metric, peak_rss_mb, provenance, time_setup, timing,
)

WORKLOADS = ("study-nsfnet", "study-mesh-adversarial", "serve-socket", "serve-control")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _check_checkout() -> None:
    """Refuse to run (non-zero exit, no result) without the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'repro'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        raise SystemExit("perfbench: BENCHMARK.json missing from the checkout root")
    sys.path.insert(0, str(SRC))


def _module(workload: str):
    if workload.startswith("study-"):
        import study

        return study
    if workload == "serve-socket":
        import serve_socket

        return serve_socket
    import serve_control

    return serve_control


def setup_probe(workload: str, seed: int) -> None:
    module = _module(workload)
    if workload.startswith("study-"):
        module.setup_probe(workload, seed)
    else:
        module.setup_probe(seed)


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    from tracing import Tracer

    module = _module(workload)
    tracer = Tracer()
    wall = time.perf_counter()
    if workload.startswith("study-"):
        fidelity = module.fidelity(workload)
        outcome = module.run(workload, seed, seconds, traced, tracer)
    else:
        fidelity = module.fidelity()
        outcome = module.run(seed, seconds, traced, tracer)
    setup = outcome.get("setup") or time_setup(workload, seed)
    rss = peak_rss_mb() + outcome.get("server_rss_mb", 0.0)
    attempted, failed = int(outcome["attempted"]), int(outcome["failed"])
    e2e = {
        "setup_s": metric(median(setup), "s"),
        "peak_rss_mb": metric(rss, "MiB"),
        **outcome["e2e"],
    }
    report = {
        "workload": workload,
        "traced": traced,
        "provenance": provenance(workload, seed, fidelity),
        "setup_s": timing(setup, "s"),
        "peak_rss_mb": metric(rss, "MiB"),
        "failed_frac": metric(failed / attempted if attempted else 1.0, "1"),
        **outcome["report"],
        "wall_s": time.perf_counter() - wall,
    }
    names = spec()
    OUT_DIR.mkdir(exist_ok=True)
    if traced:
        values = outcome["layers"]
        metrics = {m["name"]: metric(values.get(m["name"], 0.0), m["unit"])
                   for m in names["per_layer"]}
        report["layers"] = metrics
        if tracer.spans:
            tracer.write(OUT_DIR / f"{workload}-seed{seed}-spans.csv.gz")
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in names["end_to_end"]}
    suffix = "traced" if traced else "e2e"
    (OUT_DIR / f"{workload}-seed{seed}-{suffix}.json").write_text(
        json.dumps(report, indent=2, default=str))
    return {
        "report": report,
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: one fresh-interpreter set-up, then exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    _check_checkout()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": out["report"]}, default=str))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Server launcher for ``serve-socket``: a ServeServer in its own process.

Started by the benchmark as ``python perfbench/server.py``.  It builds the
NSFNet nominal / controlled engine with static thresholds, serves it on an
ephemeral localhost port, prints ``PORT <n>`` and then takes one-line
commands on stdin, answering each with one JSON line on stdout:

* ``reset`` - fresh engine and micro-batcher (idle network, no held calls);
* ``trace on <run-id>`` / ``trace off`` - wrap the server-side layer entry
  points for one pass; ``off`` answers with that pass's span summary;
* ``stats`` - peak resident memory of this process;
* ``quit`` - write the kept spans (``--spans PATH``), stop and exit.

Tracing is applied here, around the program's own callables, so the server
code under test is never edited.  The data path sees no benchmark code at
all while tracing is off.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, peak_rss_mb  # noqa: E402
from tracing import Tracer  # noqa: E402

sys.path.insert(0, str(SRC))

POLICY = "controlled"


def build_engine():
    from repro.api import Scenario
    from repro.serve.engine import RequestEngine

    scenario = Scenario()
    return RequestEngine(scenario.network, scenario.build_policy(POLICY))


def install_layers(tracer: Tracer) -> None:
    from repro.serve import server as server_module
    from repro.serve.engine import Decision, RequestEngine

    def batch(args, kwargs, result):
        size = len(result)
        return {"serve.engine.decisions": size, "serve.engine.batches": 1,
                "serve.server.partial_batches": int(size < args[0].batch.max_batch)}

    tracer.patch_method(server_module.ServeServer, "_receive", "serve.server.parse")
    tracer.patch_method(server_module._MicroBatcher, "submit", "serve.server.submit")
    tracer.patch_method(RequestEngine, "decide_batch", "serve.engine.decide_batch", batch)
    tracer.patch_method(Decision, "to_json", "serve.server.encode")
    # The response line is serialized with the module's ``json.dumps``.
    shim = types.SimpleNamespace(
        loads=json.loads, JSONDecodeError=json.JSONDecodeError,
        dumps=tracer.wrap("serve.server.encode", json.dumps),
    )
    tracer.replace(server_module, "json", shim)


def summarize(tracer: Tracer, since: int) -> dict:
    spans = tracer.summary(since)

    def get(name, field):
        return spans.get(name, {}).get(field, 0.0)

    counts = tracer.counts
    batches = counts.get("serve.engine.batches", 0)
    return {
        # The parse span wraps the whole inbound-line handler; submitting to
        # the micro-batcher (and any decide it triggers) are its children.
        "serve.server.parse_s": get("serve.server.parse", "self_s"),
        "serve.server.encode_s": get("serve.server.encode", "total_s"),
        # Everything else the pass spent: event loop, sockets, futures, idle.
        "serve.server.transport_self_s": get("serve.server.pass", "self_s")
        + get("serve.server.submit", "self_s"),
        "serve.server.partial_batch_share": (
            counts.get("serve.server.partial_batches", 0) / batches if batches else 0.0),
        "serve.engine.decide_s": get("serve.engine.decide_batch", "self_s"),
        "serve.engine.decisions": counts.get("serve.engine.decisions", 0),
        "serve.engine.batch_mean": (
            counts.get("serve.engine.decisions", 0) / batches if batches else 0.0),
        "serve.server.pass_s": get("serve.server.pass", "total_s"),
    }


async def main(spans_path: Path | None) -> None:
    from repro.serve.server import ServeServer, _MicroBatcher

    server = ServeServer(build_engine())
    host, port = await server.start()
    loop = asyncio.get_running_loop()
    tracer = Tracer()
    commands: asyncio.Queue = asyncio.Queue()

    def read_stdin() -> None:
        for line in sys.stdin:
            loop.call_soon_threadsafe(commands.put_nowait, line.split())
        loop.call_soon_threadsafe(commands.put_nowait, ["quit"])

    threading.Thread(target=read_stdin, daemon=True).start()
    print(f"PORT {port}", flush=True)
    state = {}
    while True:
        words = await commands.get()
        answer: dict = {"ok": True}
        if not words:
            continue
        if words[0] == "reset":
            server.engine = build_engine()
            server.batcher = _MicroBatcher(server.engine)
        elif words[0] == "trace" and words[1] == "on":
            install_layers(tracer)
            tracer.run_id = words[2] if len(words) > 2 else ""
            tracer.counts.clear()
            state["since"] = tracer.mark()
            state["pass"] = tracer.open("serve.server.pass")
        elif words[0] == "trace" and words[1] == "off":
            tracer.close(state.pop("pass"))
            tracer.unpatch()
            answer.update(summarize(tracer, state.pop("since")))
        elif words[0] == "stats":
            answer["peak_rss_mb"] = peak_rss_mb()
        elif words[0] == "quit":
            break
        else:
            answer = {"ok": False, "error": f"unknown command {words!r}"}
        print(json.dumps(answer), flush=True)
    await server.stop()
    if spans_path is not None and tracer.spans:
        tracer.write(spans_path)
    print(json.dumps({"ok": True, "bye": True}), flush=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()
    asyncio.run(main(args.spans))

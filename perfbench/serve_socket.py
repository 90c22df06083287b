"""``serve-socket``: the JSON-lines ServeServer over a localhost socket.

The server (NSFNet nominal, controlled policy, static thresholds) runs in a
child process started by :mod:`server`.  One client connection at a time
replays ``trace_requests`` of a stationary trace, in three parts:

* open loop at a light and a heavy fixed rate.  A sender thread writes each
  request when it falls due and a receiver thread stamps each answer, so
  latency runs from the request's *due* time: a stalled generator counts
  against the system, and its own lateness is reported beside it;
* a rate ladder, for the highest rate whose p99 stays within the limit
  without a growing backlog;
* flat-out pipelined passes, for the rest of the run, through the
  program's own socket client ``repro.serve.loadgen.replay_trace_socket``.

The engine is reset before every pass, so each pass's decisions must equal
an in-process replay of the same request prefix.
"""

from __future__ import annotations

import asyncio
import gc
import json
import socket
import subprocess
import sys
import threading
import time

import numpy as np

from common import (
    OUT_DIR, ROOT, SETUP_REPEATS, child_env, metric, percentile, run_passes, timing,
)
from tracing import Tracer

LIGHT_RPS = 10_000
HEAVY_RPS = 40_000
OPEN_LOOP_S = 2.0
#: Offered rates of the ladder, from the light rate up; above the heavy
#: rate each is 25% above the last.
LADDER_RPS = (10_000, 20_000, 30_000, 40_000, 50_000, 62_500, 78_125, 97_656, 122_070)
LADDER_STEP_S = 0.5
#: The latency limit the ladder holds p99 to.
LAT_LIMIT_MS = 10.0
#: A pass whose generator ran later than this at p99 is invalid, not reported.
LATE_BOUND_MS = 2.0
SWITCH_INTERVAL_S = 0.0005
OPEN_LOOP_DURATION = 65.0
PIPELINED_DURATION = 30.0
WARMUP = 10.0


def fidelity() -> dict:
    return {"topology": "nsfnet", "traffic": "nominal", "policy": "controlled",
            "thresholds": "static", "light_rps": LIGHT_RPS, "heavy_rps": HEAVY_RPS,
            "open_loop_s": OPEN_LOOP_S, "ladder_rps": list(LADDER_RPS),
            "ladder_step_s": LADDER_STEP_S, "lat_limit_ms": LAT_LIMIT_MS,
            "late_bound_ms": LATE_BOUND_MS,
            "open_loop_trace_duration": OPEN_LOOP_DURATION,
            "pipelined_trace_duration": PIPELINED_DURATION}


# ------------------------------------------------------------ server process


class ServerProcess:
    """The launcher child: start, command over stdin, stop."""

    def __init__(self, spans_path=None):
        command = [sys.executable, str(ROOT / "perfbench" / "server.py")]
        if spans_path is not None:
            command += ["--spans", str(spans_path)]
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"server failed to start: {line!r}")
        self.port = int(line.split()[1])

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        answer = json.loads(self.proc.stdout.readline())
        if not answer.get("ok"):
            raise RuntimeError(f"server command {text!r} failed: {answer}")
        return answer

    def ping(self) -> None:
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as sock:
            sock.sendall(b'{"op": "ping"}\n')
            if json.loads(sock.makefile("rb").readline()) != {"op": "pong"}:
                raise RuntimeError("server did not answer ping")

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def start_server(spans_path=None) -> tuple[ServerProcess, float]:
    """Spawn a server; seconds until it answers ``ping`` (the set-up time)."""
    start = time.perf_counter()
    server = ServerProcess(spans_path)
    try:
        server.ping()
    except BaseException:
        server.close()
        raise
    return server, time.perf_counter() - start


def setup_probe(seed: int) -> None:
    """One server start, up to its first ``ping`` answer."""
    server, __ = start_server()
    server.close()


# ----------------------------------------------------------- request streams


def build_inputs(seed: int) -> dict:
    from repro.api import Scenario
    from repro.serve.loadgen import trace_requests

    scenario = Scenario()
    return {
        "open": trace_requests(scenario.make_trace(OPEN_LOOP_DURATION, 2 * seed)),
        "pipelined": scenario.make_trace(PIPELINED_DURATION, 2 * seed + 1),
    }


def expected_digest(requests) -> str:
    """Decisions of a fresh in-process engine on the same request stream."""
    from repro.api import Scenario
    from repro.serve.engine import RequestEngine
    from repro.serve.loadgen import decisions_digest

    scenario = Scenario()
    engine = RequestEngine(scenario.network, scenario.build_policy("controlled"))
    return decisions_digest(engine.decide_batch(requests))


def check_passes(checks, stream, pipe_requests) -> tuple[int, int]:
    """(requests attempted, requests failed) over ``(label, n, digest)``
    records: a pass fails whole unless its digest equals a fresh in-process
    engine's on the same requests."""
    expected: dict[tuple[str, int], str] = {}
    attempted = failed = 0
    for label, n, digest in checks:
        attempted += n
        key = (label == "pipelined", n)
        if key not in expected:
            expected[key] = expected_digest(pipe_requests if key[0] else stream[:n])
        if digest != expected[key]:
            failed += n
    return attempted, failed


def input_fingerprint(seed: int) -> str:
    import hashlib

    inputs = build_inputs(seed)
    digest = hashlib.sha256(repr(inputs["open"]).encode())
    trace = inputs["pipelined"]
    for array in (trace.times, trace.od_index, trace.holding_times, trace.uniforms):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------- open loop


def open_loop(port: int, requests, rate: float) -> dict:
    """Send ``requests`` at ``rate`` per second; time answers from due time."""
    from repro.serve import loadgen

    count = len(requests)
    due = np.arange(count) / rate
    sent_at = np.zeros(count)
    recv_at = np.full(count, np.nan)
    lines: list[bytes] = []
    backlog = [0]
    errors: list[BaseException] = []
    sock = socket.create_connection(("127.0.0.1", port), timeout=60)
    origin = 0.0

    def sender() -> None:
        try:
            index = 0
            clock = time.perf_counter
            while index < count:
                now = clock() - origin
                end = int(np.searchsorted(due, now, side="right"))
                if end <= index:
                    time.sleep(due[index] - now)
                    continue
                backlog[0] = max(backlog[0], end - index)
                payload = b"".join(loadgen._encode(r) for r in requests[index:end])
                sent_at[index:end] = clock() - origin
                sock.sendall(payload)
                index = end
        except BaseException as exc:  # noqa: BLE001 - reported by the caller
            errors.append(exc)

    def receiver() -> None:
        try:
            buffer = b""
            while len(lines) < count:
                chunk = sock.recv(1 << 16)
                stamp = time.perf_counter() - origin
                if not chunk:
                    break
                parts = (buffer + chunk).split(b"\n")
                buffer = parts.pop()
                recv_at[len(lines):len(lines) + len(parts)] = stamp
                lines.extend(parts)
        except BaseException as exc:  # noqa: BLE001 - reported by the caller
            errors.append(exc)

    threads = [threading.Thread(target=sender), threading.Thread(target=receiver)]
    # Keep the generator on schedule: a short switch interval lets whichever
    # thread wakes take the interpreter lock promptly, and no collection of
    # the client's own large heap may stall the sender mid-pass.
    switch = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    gc.collect()
    gc.disable()
    origin = time.perf_counter() + 0.005
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        gc.enable()
        sys.setswitchinterval(switch)
        sock.close()
    decisions, failed = [], 0
    for line in lines:
        try:
            decisions.append(loadgen._decode(line))
        except (RuntimeError, KeyError, ValueError):
            failed += 1
    failed += count - len(lines)
    answered = ~np.isnan(recv_at)
    latency_ms = (recv_at[answered] - due[answered]) * 1e3
    late_ms = (sent_at - due) * 1e3
    quarter = max(1, len(latency_ms) // 4)
    growing = bool(len(latency_ms)) and (
        np.median(latency_ms[-quarter:]) > 2 * np.median(latency_ms[:quarter]) + 1.0)
    late_p99 = percentile(late_ms, 99)
    return {
        "rate": rate, "requests": count, "failed": failed or len(errors),
        "decisions": decisions, "latency_ms": latency_ms.tolist(),
        "late_p99_ms": late_p99, "backlog_max": backlog[0],
        "growing": growing, "valid": late_p99 <= LATE_BOUND_MS and not errors,
    }


def pipelined(port: int, trace) -> dict:
    from repro.serve.loadgen import replay_trace_socket

    try:
        report = asyncio.run(replay_trace_socket("127.0.0.1", port, trace, WARMUP))
    except (ConnectionError, OSError, RuntimeError) as exc:
        return {"rate": float("nan"), "wall": float("nan"), "requests": 0,
                "decisions": [], "failed": str(exc)}
    return {"rate": report.decisions_per_second, "wall": report.wall_seconds,
            "requests": report.requests, "decisions": report.decisions}


def install_client_layers(tracer: Tracer) -> None:
    import repro.serve.loadgen  # noqa: F401 - patched by name below

    tracer.patch_function("repro.serve.loadgen", "_encode", "loadgen.encode")
    tracer.patch_function("repro.serve.loadgen", "_decode", "loadgen.decode")


# ------------------------------------------------------------------ workload


def run(seed: int, seconds: float, traced: bool, tracer: Tracer) -> dict:
    from repro.serve.loadgen import decisions_digest, trace_requests

    inputs = build_inputs(seed)
    stream = inputs["open"]
    pipe_requests = trace_requests(inputs["pipelined"])
    # Each pass's decisions are reduced to a digest as soon as it ends and
    # checked against an in-process replay once the timed work is over.
    checks: list[tuple[str, int, str | None]] = []  # (what, requests, digest)

    def record(label: str, n: int, outcome: dict) -> dict:
        ok = not outcome.get("failed") and len(outcome["decisions"]) == n
        checks.append((label, n, decisions_digest(outcome.pop("decisions")) if ok else None))
        return outcome

    spans_path = OUT_DIR / f"serve-socket-seed{seed}-server-spans.csv.gz" if traced else None
    OUT_DIR.mkdir(exist_ok=True)
    setup = []
    server = None
    for __ in range(SETUP_REPEATS):  # set-up timed repeatedly; the last server is used
        if server is not None:
            server.close()
        server, elapsed = start_server(spans_path)
        setup.append(elapsed)
    pipes: list[dict] = []
    try:
        light_n = int(LIGHT_RPS * OPEN_LOOP_S)
        heavy_n = int(HEAVY_RPS * OPEN_LOOP_S)
        # Warm the server and client paths outside timing.
        server.command("reset")
        open_loop(server.port, stream[:2000], LIGHT_RPS)
        begin = time.perf_counter()

        # Open loop: one pass at each fixed rate.  A traced run adds a light
        # pass traced on the server side, for the timer-flush share.
        open_passes = {}
        for label, n, rate in (("light", light_n, LIGHT_RPS),
                               ("heavy", heavy_n, HEAVY_RPS)):
            server.command("reset")
            open_passes[label] = record(label, n, open_loop(server.port, stream[:n], rate))
        light_server = None
        if traced:
            server.command("reset")
            server.command(f"trace on light-{seed}")
            open_passes["light-traced"] = record(
                "light", light_n, open_loop(server.port, stream[:light_n], LIGHT_RPS))
            light_server = server.command("trace off")

        ladder = []
        max_rate = 0.0
        if not traced:
            for rate in LADDER_RPS:
                n = int(rate * LADDER_STEP_S)
                server.command("reset")
                step = record("ladder", n, open_loop(server.port, stream[:n], rate))
                p99 = percentile(step["latency_ms"], 99)
                ok = (step["valid"] and not step["failed"] and not step["growing"]
                      and p99 <= LAT_LIMIT_MS)
                ladder.append({"rate": rate, "p99_ms": p99, "ok": ok,
                               "late_p99_ms": step["late_p99_ms"]})
                if not ok:
                    break
                max_rate = float(rate)

        # Flat out for the rest of the budget; a traced run alternates
        # untraced and traced passes.
        def one_pass(index: int) -> dict:
            trace_this = traced and index % 2 == 1
            server.command("reset")
            if trace_this:
                install_client_layers(tracer)
                tracer.run_id = f"pipelined-{seed}-pass{index}"
                since = tracer.mark()
                server.command(f"trace on {tracer.run_id}")
            outcome = record("pipelined", len(pipe_requests),
                             pipelined(server.port, inputs["pipelined"]))
            outcome["traced"] = trace_this
            if trace_this:
                outcome["server"] = server.command("trace off")
                tracer.unpatch()
                spans = tracer.summary(since)
                outcome["client"] = {
                    key: spans.get(key[:-2], {}).get("total_s", 0.0)
                    for key in ("loadgen.encode_s", "loadgen.decode_s")
                }
            pipes.append(outcome)
            return outcome

        remaining = seconds - (time.perf_counter() - begin)
        run_passes(max(remaining, 1.0), one_pass, min_passes=2 if traced else 1)
        server_rss = server.command("stats")["peak_rss_mb"]
    finally:
        server.close()

    # Output check (untimed): every pass's decisions equal an in-process
    # replay of the same request prefix; errors and missing answers fail.
    attempted, failed = check_passes(checks, stream, pipe_requests)

    rates = [p["rate"] for p in pipes if not p["traced"] and not p.get("failed")]
    report = {"decisions_per_s": timing(rates, "1/s"), "server_peak_rss_mb": server_rss}
    for label in ("light", "heavy"):
        outcome = open_passes[label]
        # Latency from due time over every request of the pass; a pass
        # whose generator fell behind is counted, not reported.
        for q in (50, 99):
            report[f"lat_p{q}_ms.{label}"] = (
                {**metric(percentile(outcome["latency_ms"], q), "ms"),
                 "n": len(outcome["latency_ms"])}
                if outcome["valid"] else None)
        for key in ("valid", "late_p99_ms", "backlog_max"):
            report[f"{key}.{label}"] = outcome[key]
    if not traced:
        report["max_rate_rps"] = {"value": max_rate, "unit": "1/s", "ladder": ladder}
    result = {
        "e2e": {"decisions_per_s": metric(np.median(rates), "1/s")},
        "setup": setup, "server_rss_mb": server_rss,
        "report": report, "attempted": attempted, "failed": failed,
    }
    if traced:
        layers = _layers(pipes, open_passes, light_server)
        result["layers"] = layers
        pass_s = float(np.median([p["server"]["serve.server.pass_s"]
                                  for p in pipes if p["traced"]]))
        report["layer_shares"] = {
            key: layers[key] / pass_s for key in (
                "serve.server.parse_s", "serve.server.encode_s",
                "serve.server.transport_self_s", "serve.engine.decide_s")}
    return result


def _layers(pipes, open_passes, light_server) -> dict:
    traced = [p for p in pipes if p["traced"]]

    def med(values):
        return float(np.median(values))

    layers = {key: med([p["server"][key] for p in traced]) for key in (
        "serve.server.parse_s", "serve.server.encode_s",
        "serve.server.transport_self_s", "serve.engine.decide_s",
        "serve.engine.decisions", "serve.engine.batch_mean")}
    layers["serve.server.partial_batch_share"] = light_server[
        "serve.server.partial_batch_share"]
    for key in ("loadgen.encode_s", "loadgen.decode_s"):
        layers[key] = med([p["client"][key] for p in traced])
    layers["loadgen.late_p99_ms"] = max(p["late_p99_ms"] for p in open_passes.values())
    layers["loadgen.backlog_max"] = float(max(p["backlog_max"] for p in open_passes.values()))
    plain = med([p["rate"] for p in pipes if not p["traced"]])
    layers["trace.overhead_frac"] = plain / med([p["rate"] for p in traced]) - 1.0
    return layers

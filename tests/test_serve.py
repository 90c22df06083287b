"""Tests for repro.serve: the online admission-control service.

The load-bearing property is decision equivalence: replaying a trace
through the engine — in-process, batched at any size, or over the socket
server — must reproduce :class:`LossNetworkSimulator`'s per-call
decisions bit for bit.  Around that: deterministic overload shedding
(alternates first, recovery visible), a hard queue bound, telemetry
correctness, online threshold adaptation, and protocol/lifecycle edges.
"""

from __future__ import annotations

import asyncio
import json
import pickle

import numpy as np
import pytest

from repro.lab.events import read_events
from repro.routing.alternate import (
    ControlledAlternateRouting,
    LengthAdaptiveControlledRouting,
)
from repro.serve import (
    AdaptationConfig,
    AdmitRequest,
    BatchConfig,
    ClusterConfig,
    ClusterRouter,
    ClusterServer,
    Decision,
    MetricsRegistry,
    NetworkState,
    OverloadConfig,
    OverloadControl,
    ReleaseRequest,
    RequestEngine,
    ServeServer,
    TokenBucket,
    aggregate_decisions,
    replay_trace,
    replay_trace_socket,
    trace_requests,
)
from repro.serve.cluster import _HEADER, MAX_FRAME_BYTES, _frame
from repro.serve.server import parse_request
from repro.serve.telemetry import Counter, Histogram
from repro.sim.simulator import simulate
from repro.sim.trace import generate_trace
from repro.traffic.calibration import nsfnet_nominal_traffic
from repro.traffic.demand import primary_link_loads
from repro.traffic.generators import uniform_traffic

WARMUP = 5.0


@pytest.fixture(scope="module")
def nsf_policy(nsfnet, nsfnet_table):
    traffic = nsfnet_nominal_traffic()
    loads = primary_link_loads(nsfnet, nsfnet_table, traffic)
    return ControlledAlternateRouting(nsfnet, nsfnet_table, loads)


@pytest.fixture(scope="module")
def nsf_trace(nsfnet):
    return generate_trace(nsfnet_nominal_traffic(), duration=25.0, seed=11)


@pytest.fixture(scope="module")
def quad_policy(quad_network, quad_table):
    traffic = uniform_traffic(quad_network.num_nodes, 95.0)
    loads = primary_link_loads(quad_network, quad_table, traffic)
    return ControlledAlternateRouting(quad_network, quad_table, loads)


@pytest.fixture(scope="module")
def quad_trace(quad_network):
    traffic = uniform_traffic(quad_network.num_nodes, 95.0)
    return generate_trace(traffic, duration=20.0, seed=3)


def _assert_result_equal(result, reference):
    assert np.array_equal(result.offered, reference.offered)
    assert np.array_equal(result.blocked, reference.blocked)
    assert result.primary_carried == reference.primary_carried
    assert result.alternate_carried == reference.alternate_carried


class TestSimulatorEquivalence:
    def test_in_process_replay_matches_simulator(
        self, nsfnet, nsf_policy, nsf_trace
    ):
        reference = simulate(nsfnet, nsf_policy, nsf_trace, warmup=WARMUP)
        engine = RequestEngine(nsfnet, nsf_policy)
        report = replay_trace(engine, nsf_trace, warmup=WARMUP)
        _assert_result_equal(report.result, reference)
        # The trace blocks some calls at nominal load, so the equivalence
        # is exercised on both admitted and rejected paths.
        assert reference.total_blocked > 0
        assert reference.alternate_carried > 0

    def test_batch_size_never_changes_decisions(
        self, quad_network, quad_policy, quad_trace
    ):
        baseline = replay_trace(
            RequestEngine(quad_network, quad_policy), quad_trace, batch_size=1
        ).decisions
        for size in (7, 64, 4096):
            decisions = replay_trace(
                RequestEngine(quad_network, quad_policy),
                quad_trace,
                batch_size=size,
            ).decisions
            assert decisions == baseline

    def test_socket_replay_matches_in_process(
        self, quad_network, quad_policy, quad_trace
    ):
        reference = simulate(
            quad_network, quad_policy, quad_trace, warmup=WARMUP
        )
        in_process = replay_trace(
            RequestEngine(quad_network, quad_policy), quad_trace, warmup=WARMUP
        )

        async def run():
            engine = RequestEngine(quad_network, quad_policy)
            async with ServeServer(engine) as server:
                return await replay_trace_socket(
                    server.host, server.port, quad_trace, warmup=WARMUP
                )

        socket_report = asyncio.run(run())
        assert socket_report.decisions == in_process.decisions
        _assert_result_equal(socket_report.result, reference)

    def test_length_threshold_discipline(self, nsfnet, nsfnet_table, nsf_trace):
        traffic = nsfnet_nominal_traffic()
        loads = primary_link_loads(nsfnet, nsfnet_table, traffic)
        policy = LengthAdaptiveControlledRouting(nsfnet, nsfnet_table, loads)
        assert policy.discipline == "length-threshold"
        reference = simulate(nsfnet, policy, nsf_trace, warmup=WARMUP)
        report = replay_trace(
            RequestEngine(nsfnet, policy), nsf_trace, warmup=WARMUP
        )
        _assert_result_equal(report.result, reference)

    def test_request_stream_is_simulator_ordered(self, quad_trace):
        requests = trace_requests(quad_trace)
        admits = [r for r in requests if isinstance(r, AdmitRequest)]
        assert len(admits) == len(quad_trace.times)
        # Every departure due at or before an arrival is released before
        # that arrival decides (the simulator's event order), releases come
        # out in non-decreasing time, and every call releases at most once.
        seen_admits = set()
        released = set()
        last_release = -float("inf")
        pending_releases: list[ReleaseRequest] = []
        for request in requests:
            assert request.time >= 0.0
            if isinstance(request, AdmitRequest):
                for release in pending_releases:
                    assert release.time <= request.time
                pending_releases.clear()
                seen_admits.add(request.id)
            else:
                assert request.id in seen_admits
                assert request.id not in released
                released.add(request.id)
                assert request.time >= last_release
                last_release = request.time
                pending_releases.append(request)


class TestOverloadControl:
    def test_token_bucket_is_deterministic(self):
        a = TokenBucket(rate=2.0, burst=4.0)
        b = TokenBucket(rate=2.0, burst=4.0)
        for now in (0.0, 0.1, 0.5, 0.5, 2.0, 10.0):
            assert a.refill(now) == b.refill(now)
            a.consume()
            b.consume()
        assert a.tokens == b.tokens

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OverloadConfig(rate=0.0)
        with pytest.raises(ValueError):
            OverloadConfig(alternate_reserve=1.0)
        with pytest.raises(ValueError):
            OverloadConfig(queue_limit=4, queue_reserve=4)

    def test_modes_degrade_then_shed_then_recover(self):
        control = OverloadControl(
            OverloadConfig(rate=1.0, burst=4.0, alternate_reserve=0.5)
        )
        modes = [control.classify(0.0) for __ in range(8)]
        # Burst of 4 tokens, reserve of 2: two normal queries, then
        # alternates are shed (degraded) while tokens last, then outright
        # shedding — the paper's ordering applied to the service itself.
        assert modes[:2] == ["normal", "normal"]
        assert "degraded" in modes
        assert modes[-1] == "shed"
        # Idle time refills the bucket: the service recovers by itself.
        assert control.classify(100.0) == "normal"
        assert [mode for __, mode in control.transitions] == [
            "degraded", "shed", "normal"
        ]

    def test_shedding_is_deterministic_for_a_fixed_trace(
        self, quad_network, quad_policy, quad_trace
    ):
        def run():
            control = OverloadControl(OverloadConfig(rate=40.0, burst=16.0))
            engine = RequestEngine(quad_network, quad_policy, overload=control)
            report = replay_trace(engine, quad_trace)
            return report.decisions, tuple(control.transitions)

        first = run()
        second = run()
        assert first == second
        shed = sum(1 for d in first[0] if d.reason == "shed")
        assert shed > 0

    def test_degraded_mode_sheds_alternates_first(self, quad_network, quad_policy):
        # Tokens start below 1 + reserve, so the control opens in degraded
        # mode (alternates refused, primaries still served) with plenty of
        # tokens left before outright shedding.
        control = OverloadControl(
            OverloadConfig(rate=1e-9, burst=50.0, alternate_reserve=0.99)
        )
        engine = RequestEngine(quad_network, quad_policy, overload=control)
        full_od, open_od = (0, 1), (2, 3)
        kind, primary, __ = engine._routes[full_od]
        assert kind == "single"
        engine.state.admit(primary, width=100)  # primary at capacity
        # Sanity: an unthrottled engine routes the same call on an alternate.
        reference = RequestEngine(quad_network, quad_policy)
        reference.state.admit(primary, width=100)
        assert reference.decide(
            AdmitRequest(id="r", od=full_od, time=0.0)
        ).tier == "alternate"
        overflow = engine.decide(AdmitRequest(id="a", od=full_od, time=0.0))
        assert control.mode == "degraded"
        assert overflow.reason == "degraded"
        assert not overflow.admitted and overflow.route is None
        direct = engine.decide(AdmitRequest(id="b", od=open_od, time=0.0))
        assert direct.admitted and direct.tier == "primary"

    def test_overload_recovery_is_visible_in_telemetry(
        self, quad_network, quad_policy
    ):
        control = OverloadControl(OverloadConfig(rate=5.0, burst=4.0))
        engine = RequestEngine(quad_network, quad_policy, overload=control)
        od = next(iter(quad_policy.choices))
        # Flood at t=0 until shedding, then one query after a long idle gap.
        flood = [
            AdmitRequest(id=i, od=od, time=0.0) for i in range(10)
        ]
        engine.decide_batch(flood)
        assert control.mode == "shed"
        assert engine.telemetry.gauge("serve_mode").value == 2.0
        late = engine.decide(AdmitRequest(id="late", od=od, time=50.0))
        assert late.reason != "shed"
        assert control.mode == "normal"
        assert engine.telemetry.gauge("serve_mode").value == 0.0
        snapshot = engine.telemetry.snapshot()
        assert snapshot['serve_rejected_total{reason="shed"}'] > 0


class TestServer:
    def test_queue_limit_bounds_the_batcher(self, quad_network, quad_policy):
        od = next(iter(quad_policy.choices))

        async def run():
            control = OverloadControl(
                OverloadConfig(rate=float("inf"), queue_limit=8, queue_reserve=2)
            )
            engine = RequestEngine(
                quad_network, quad_policy, overload=control,
                batch=BatchConfig(max_batch=1000, max_latency=10.0),
            )
            server = ServeServer(engine)
            futures = [
                server.batcher.submit(AdmitRequest(id=i, od=od, time=0.0))
                for i in range(20)
            ]
            # Submissions past the hard limit were answered immediately.
            overflow = [f for f in futures if f.done()]
            assert len(overflow) == 12
            for future in overflow:
                decision = future.result()
                assert decision.reason == "shed"
                assert not decision.admitted
            assert engine.queue_depth == 8
            server.batcher.flush()
            queued = [await f for f in futures[:8]]
            assert all(d.reason != "shed" for d in queued)
            shed_counter = engine.telemetry.counter(
                "serve_rejected_total", reason="shed"
            )
            assert shed_counter.value == 12

        asyncio.run(run())

    def test_drain_refuses_new_requests(self, quad_network, quad_policy):
        od = next(iter(quad_policy.choices))

        async def run():
            engine = RequestEngine(quad_network, quad_policy)
            server = ServeServer(engine)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                json.dumps({"op": "admit", "id": 1, "od": list(od)}).encode()
                + b"\n"
            )
            await writer.drain()
            first = json.loads(await reader.readline())
            assert first["admitted"] is True
            await server.drain()
            writer.write(
                json.dumps({"op": "admit", "id": 2, "od": list(od)}).encode()
                + b"\n"
            )
            await writer.drain()
            second = json.loads(await reader.readline())
            assert second["error"] == "draining"
            assert second["id"] == 2
            writer.close()
            await server.stop()
            assert engine.decisions_total == 1

        asyncio.run(run())

    def test_protocol_errors_are_answered_not_fatal(
        self, quad_network, quad_policy
    ):
        od = next(iter(quad_policy.choices))

        async def run():
            engine = RequestEngine(quad_network, quad_policy)
            async with ServeServer(engine) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                lines = [
                    b"not json\n",
                    json.dumps({"op": "warp", "id": 0}).encode() + b"\n",
                    json.dumps({"op": "admit", "id": 1, "od": [1]}).encode()
                    + b"\n",
                    json.dumps({"op": "ping"}).encode() + b"\n",
                    json.dumps(
                        {"op": "admit", "id": 2, "od": list(od)}
                    ).encode() + b"\n",
                ]
                writer.write(b"".join(lines))
                await writer.drain()
                answers = [
                    json.loads(await reader.readline()) for __ in lines
                ]
                writer.close()
            assert "malformed JSON" in answers[0]["error"]
            assert "unknown op" in answers[1]["error"]
            assert "origin, destination" in answers[2]["error"]
            assert answers[3] == {"op": "pong"}
            assert answers[4]["admitted"] in (True, False)

        asyncio.run(run())

    def test_metrics_op_round_trips(self, quad_network, quad_policy):
        od = next(iter(quad_policy.choices))

        async def run():
            engine = RequestEngine(quad_network, quad_policy)
            async with ServeServer(engine) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(
                    json.dumps({"op": "admit", "id": 1, "od": list(od)}).encode()
                    + b"\n" + json.dumps({"op": "drain"}).encode() + b"\n"
                    + json.dumps({"op": "metrics"}).encode() + b"\n"
                )
                await writer.drain()
                await reader.readline()  # the admit decision
                drained = json.loads(await reader.readline())
                metrics = json.loads(await reader.readline())
                writer.close()
            assert drained == {"op": "drain", "ok": True}
            assert 'serve_decisions_total{tier="primary"} 1' in metrics["text"]
            assert metrics["snapshot"]['serve_decisions_total{tier="primary"}'] == 1.0

        asyncio.run(run())

    def test_parse_request_edges(self):
        with pytest.raises(ValueError, match="unknown op"):
            parse_request({"op": "nope"})
        with pytest.raises(ValueError, match="origin, destination"):
            parse_request({"op": "admit", "id": 1, "od": [1, 2, 3]})
        release = parse_request({"op": "release", "id": 9})
        assert isinstance(release, ReleaseRequest)
        assert release.time is None


class TestServerAbuseBounds:
    """Abusive or unlucky clients are bounded per connection: one error
    answer, then disconnect — and every such path must leave the engine
    serving subsequent clients."""

    @staticmethod
    async def _served(server, od, call_id) -> dict:
        """A fresh client gets a real decision — the engine still serves."""
        reader, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(
            json.dumps({"op": "admit", "id": call_id, "od": list(od)}).encode()
            + b"\n"
        )
        await writer.drain()
        answer = json.loads(await reader.readline())
        writer.close()
        assert answer["admitted"] in (True, False)
        return answer

    def test_config_validation(self, quad_network, quad_policy):
        engine = RequestEngine(quad_network, quad_policy)
        with pytest.raises(ValueError, match="read_timeout"):
            ServeServer(engine, read_timeout=0.0)
        with pytest.raises(ValueError, match="max_line_bytes"):
            ServeServer(engine, max_line_bytes=1)

    def test_oversized_line_disconnects_with_error(
        self, quad_network, quad_policy
    ):
        od = next(iter(quad_policy.choices))

        async def run():
            engine = RequestEngine(quad_network, quad_policy)
            async with ServeServer(engine, max_line_bytes=64) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(b'{"op": "admit", "pad": "' + b"x" * 200 + b'"}\n')
                await writer.drain()
                answer = json.loads(await reader.readline())
                assert "exceeds 64 bytes" in answer["error"]
                assert await reader.readline() == b""  # disconnected
                writer.close()
                await self._served(server, od, call_id=1)

        asyncio.run(run())

    def test_idle_connection_times_out(self, quad_network, quad_policy):
        od = next(iter(quad_policy.choices))

        async def run():
            engine = RequestEngine(quad_network, quad_policy)
            async with ServeServer(engine, read_timeout=0.1) as server:
                reader, __ = await asyncio.open_connection(
                    server.host, server.port
                )
                # Send nothing: the stalled connection must be answered and
                # dropped, not hold its reader task forever.
                answer = json.loads(
                    await asyncio.wait_for(reader.readline(), 5.0)
                )
                assert "idle past 0.1s" in answer["error"]
                assert await reader.readline() == b""
                await self._served(server, od, call_id=1)

        asyncio.run(run())

    def test_malformed_line_leaves_other_clients_served(
        self, quad_network, quad_policy
    ):
        od = next(iter(quad_policy.choices))

        async def run():
            engine = RequestEngine(quad_network, quad_policy)
            async with ServeServer(engine) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(b"{not json\n")
                await writer.drain()
                answer = json.loads(await reader.readline())
                assert "malformed JSON" in answer["error"]
                writer.close()
                await self._served(server, od, call_id=1)

        asyncio.run(run())

    def test_request_mid_drain_is_refused_but_backlog_flushes(
        self, quad_network, quad_policy
    ):
        od = next(iter(quad_policy.choices))

        async def run():
            engine = RequestEngine(
                quad_network, quad_policy,
                batch=BatchConfig(max_batch=1000, max_latency=30.0),
            )
            server = ServeServer(engine)
            await server.start()
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            # Queued but unflushed (the batch window is far away) ...
            writer.write(
                json.dumps({"op": "admit", "id": 1, "od": list(od)}).encode()
                + b"\n"
            )
            await writer.drain()
            while not server.batcher._pending:
                await asyncio.sleep(0)
            # ... when the drain starts: the backlog must still be decided,
            # while anything arriving after the drain is refused.
            await server.drain()
            flushed = json.loads(await reader.readline())
            assert flushed["admitted"] is True
            writer.write(
                json.dumps({"op": "admit", "id": 2, "od": list(od)}).encode()
                + b"\n"
            )
            await writer.drain()
            refused = json.loads(await reader.readline())
            assert refused["error"] == "draining"
            writer.close()
            await server.stop()
            assert engine.decisions_total == 1

        asyncio.run(run())

    def test_connection_reset_mid_batch_still_decides(
        self, quad_network, quad_policy
    ):
        od = next(iter(quad_policy.choices))

        async def run():
            engine = RequestEngine(
                quad_network, quad_policy,
                batch=BatchConfig(max_batch=1000, max_latency=0.02),
            )
            async with ServeServer(engine) as server:
                __, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(
                    json.dumps({"op": "admit", "id": 1, "od": list(od)}).encode()
                    + b"\n"
                )
                await writer.drain()
                while not server.batcher._pending:
                    await asyncio.sleep(0)
                # Vanish before the batch flushes: the decision has nowhere
                # to go, but the batch must still be decided and the server
                # must keep serving everyone else.
                writer.transport.abort()
                await asyncio.sleep(0.05)
                assert engine.decisions_total == 1
                await self._served(server, od, call_id=2)
                assert engine.decisions_total == 2

        asyncio.run(run())


class TestClusterServerAbuseBounds:
    """The cluster's JSON-frame front end: an oversized or malformed frame
    earns one error frame and a disconnect, and nothing read off the
    socket is unpickled; the cluster keeps serving other clients."""

    @staticmethod
    async def _send(server, payload: bytes, size: int | None = None):
        """Write one raw frame; returns (reply, whether the server then hung up)."""
        reader, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(_HEADER.pack(len(payload) if size is None else size) + payload)
        await writer.drain()
        header = await asyncio.wait_for(reader.readexactly(_HEADER.size), 10.0)
        reply = json.loads(await reader.readexactly(_HEADER.unpack(header)[0]))
        at_eof = await asyncio.wait_for(reader.read(1), 10.0) == b""
        writer.close()
        return reply, at_eof

    @classmethod
    async def _served(cls, server, od, call_id) -> list:
        """A fresh client gets a real decision — the cluster still serves."""
        request = {"op": "batch",
                   "requests": [["admit", call_id, list(od), 0.0, 0.0, 1]]}
        reader, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(_frame(request))
        await writer.drain()
        header = await asyncio.wait_for(reader.readexactly(_HEADER.size), 10.0)
        reply = json.loads(await reader.readexactly(_HEADER.unpack(header)[0]))
        writer.close()
        ((admitted, tier, reason),) = reply["decisions"]
        assert admitted is True and tier == "primary" and reason is None
        return reply

    def _run(self, quad_network, quad_policy, body) -> None:
        async def run():
            router = ClusterRouter(
                quad_network, quad_policy, ClusterConfig(num_shards=2)
            )
            server = ClusterServer(router)
            await server.start()
            try:
                await body(server, next(iter(quad_policy.choices)))
            finally:
                await server.stop()

        asyncio.run(run())

    def test_oversized_frame_disconnects_before_reading_payload(
        self, quad_network, quad_policy
    ):
        async def body(server, od):
            # Announce 4 GiB but send nothing: the server must answer from
            # the header alone, never wait for (or allocate) the payload.
            reply, at_eof = await self._send(server, b"", size=2**32 - 1)
            assert f"exceeds {MAX_FRAME_BYTES} bytes" in reply["error"]
            assert at_eof
            reply, at_eof = await self._send(
                server, b"", size=MAX_FRAME_BYTES + 1
            )
            assert "exceeds" in reply["error"] and at_eof
            await self._served(server, od, call_id=1)

        self._run(quad_network, quad_policy, body)

    def test_malformed_frames_disconnect_with_error(
        self, quad_network, quad_policy
    ):
        async def body(server, od):
            for payload in (
                b"{not json",
                b"\xff\xfe",
                b"[1, 2]",
                pickle.dumps({"op": "ping"}),
            ):
                reply, at_eof = await self._send(server, payload)
                assert reply["error"].startswith("malformed frame"), payload
                assert at_eof
            await self._served(server, od, call_id=1)

        self._run(quad_network, quad_policy, body)

    def test_malformed_batch_is_answered_not_fatal(
        self, quad_network, quad_policy
    ):
        async def body(server, od):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            for message in (
                {"op": "batch", "requests": [["admit", 1]]},
                {"op": "batch", "requests": [["teleport", 1]]},
                {"op": "batch", "requests": [["release", [1], 0.0]]},
                {"op": "batch"},
                {"op": "ping"},
            ):
                writer.write(_frame(message))
                await writer.drain()
                header = await reader.readexactly(_HEADER.size)
                reply = json.loads(
                    await reader.readexactly(_HEADER.unpack(header)[0])
                )
                if message["op"] == "ping":
                    assert reply == {"ok": True}  # same connection still open
                else:
                    assert reply["error"].startswith("malformed batch")
            writer.close()
            await self._served(server, od, call_id=1)

        self._run(quad_network, quad_policy, body)


class TestEngineEdges:
    def test_release_unknown_and_duplicate_ids(self, quad_network, quad_policy):
        engine = RequestEngine(quad_network, quad_policy)
        od = next(iter(quad_policy.choices))
        ghost = engine.decide(ReleaseRequest(id="ghost"))
        assert ghost.reason == "unknown-call"
        assert not ghost.admitted
        first = engine.decide(AdmitRequest(id="c1", od=od))
        assert first.admitted
        duplicate = engine.decide(AdmitRequest(id="c1", od=od))
        assert duplicate.reason == "duplicate-call"
        release = engine.decide(ReleaseRequest(id="c1"))
        assert release.admitted and release.tier == "release"
        assert engine.state.occupancy.sum() == 0
        assert engine.telemetry.counter("serve_errors_total").value == 2

    def test_no_route_for_disconnected_pair(self, quad_network, quad_policy):
        engine = RequestEngine(quad_network, quad_policy)
        decision = engine.decide(AdmitRequest(id=1, od=(0, 0)))
        assert decision.reason == "no-route"

    def test_state_rejects_unsupported_discipline(
        self, nsfnet, nsfnet_table
    ):
        from repro.routing.shadow import OttKrishnanRouting

        loads = primary_link_loads(
            nsfnet, nsfnet_table, nsfnet_nominal_traffic()
        )
        policy = OttKrishnanRouting(nsfnet, nsfnet_table, loads)
        with pytest.raises(ValueError, match="serve supports disciplines"):
            NetworkState(nsfnet, policy)

    def test_admit_release_book_and_free(self, quad_network, quad_policy):
        state = NetworkState(quad_network, quad_policy)
        state.admit((0, 2), width=3)
        assert state.occupancy[0] == 3 and state.occupancy[2] == 3
        assert state.utilization() > 0
        state.release((0, 2), width=3)
        assert state.occupancy.sum() == 0


class TestAdaptation:
    def test_thresholds_refresh_on_schedule(self, quad_network, quad_policy):
        state = NetworkState(
            quad_network, quad_policy,
            adaptation=AdaptationConfig(update_interval=4.0, ewma_weight=0.5),
        )
        engine = RequestEngine(quad_network, quad_policy, state=state)
        traffic = uniform_traffic(quad_network.num_nodes, 95.0)
        trace = generate_trace(traffic, duration=20.0, seed=9)
        replay_trace(engine, trace)
        times = [refresh.time for refresh in state.refreshes]
        assert times[0] == 0.0  # the cold-start level application
        assert times[1:] == [4.0, 8.0, 12.0, 16.0]
        # Links learn demand: the estimates move off the cold start and the
        # protection levels harden somewhere.
        assert state.refreshes[-1].estimated_loads.sum() > 0
        assert state.refreshes[-1].protection_levels.max() > 0

    def test_adaptation_requires_threshold_discipline(
        self, nsfnet, nsfnet_table
    ):
        traffic = nsfnet_nominal_traffic()
        loads = primary_link_loads(nsfnet, nsfnet_table, traffic)
        policy = LengthAdaptiveControlledRouting(nsfnet, nsfnet_table, loads)
        with pytest.raises(ValueError, match="threshold"):
            NetworkState(nsfnet, policy, adaptation=AdaptationConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdaptationConfig(update_interval=0.0)
        with pytest.raises(ValueError):
            AdaptationConfig(ewma_weight=0.0)


class TestTelemetry:
    def test_counters_balance_the_decisions(
        self, quad_network, quad_policy, quad_trace
    ):
        engine = RequestEngine(quad_network, quad_policy)
        report = replay_trace(engine, quad_trace)
        snapshot = engine.telemetry.snapshot()
        admits = len(quad_trace.times)
        accounted = (
            snapshot['serve_decisions_total{tier="primary"}']
            + snapshot['serve_decisions_total{tier="alternate"}']
            + snapshot['serve_rejected_total{reason="blocked"}']
            + snapshot['serve_rejected_total{reason="no-route"}']
        )
        assert accounted == admits
        # Unknown-call releases (the blind release of a blocked call) answer
        # with tier "release" but only booked calls bump the counter.
        releases = sum(
            1 for d in report.decisions if d.tier == "release" and d.admitted
        )
        assert snapshot["serve_released_total"] == releases
        assert snapshot["serve_decision_seconds_count"] == len(report.decisions)

    def test_histogram_quantiles_and_counter_monotonicity(self):
        histogram = Histogram(buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        assert histogram.total == 5
        assert histogram.mean == pytest.approx(106.5 / 5)
        assert histogram.quantile(0.5) == 2.0
        assert histogram.quantile(1.0) == float("inf")
        # A value equal to a bound lands in that bucket (Prometheus "le").
        exact = Histogram(buckets=(1.0, 2.0))
        exact.observe(1.0)
        assert exact.counts[0] == 1
        counter = Counter()
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_render_text_format(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", tier="primary").inc(3)
        registry.gauge("depth").set(7)
        text = registry.render_text()
        assert 'requests_total{tier="primary"} 3' in text
        assert "depth 7" in text

    def test_publish_emits_jsonl_snapshot(
        self, tmp_path, quad_network, quad_policy, quad_trace
    ):
        from repro.lab.events import EventBus

        engine = RequestEngine(quad_network, quad_policy)
        bus = EventBus(tmp_path / "events.jsonl")
        engine.telemetry.bind(bus)
        replay_trace(engine, quad_trace)
        engine.publish_metrics(phase="test")
        bus.close()
        events = list(read_events(tmp_path / "events.jsonl"))
        assert [event["kind"] for event in events] == ["serve_metrics"]
        assert events[0]["phase"] == "test"
        assert events[0]['serve_decisions_total{tier="primary"}'] > 0


class TestAggregation:
    def test_aggregate_skips_warmup_and_releases(self, quad_trace):
        decisions = [
            Decision(
                id=call,
                admitted=True,
                route=(0,),
                tier="primary",
                reason=None,
            )
            for call in range(len(quad_trace.times))
        ]
        result = aggregate_decisions(quad_trace, decisions, warmup=WARMUP)
        measured = int((quad_trace.times >= WARMUP).sum())
        assert result.total_offered == measured
        assert result.total_blocked == 0
        assert result.primary_carried == measured

    def test_every_loss_reason_counts_as_blocked(self, quad_trace):
        reasons = ("blocked", "no-route", "shed", "degraded")
        decisions = [
            Decision(
                id=call,
                admitted=False,
                route=None,
                tier="none",
                reason=reasons[call % len(reasons)],
            )
            for call in range(len(quad_trace.times))
        ]
        result = aggregate_decisions(quad_trace, decisions, warmup=WARMUP)
        assert result.total_blocked == result.total_offered
        assert result.network_blocking == 1.0

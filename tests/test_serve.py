"""Tests for ``repro.serve``: wire protocol, session server, load generator.

The server's core claim is that serving adds zero arithmetic: every
response must be byte-identical to what a direct serial engine call
produces.  These tests drive a real server over real sockets (loopback,
ephemeral ports) and check exactly that, plus the robustness contract:
malformed frames, oversized frames, mid-edit disconnects, TTL eviction
and graceful drain must never kill the daemon.
"""

import asyncio
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.io.serialize import (
    SERVE_SCHEMA,
    WireProtocolError,
    ard_result_to_dict,
    decode_frame,
    encode_frame,
    eval_context_from_dict,
    eval_context_to_dict,
    repeater_to_dict,
    subtree_timing_from_dict,
    subtree_timing_to_dict,
    terminal_to_dict,
    tree_to_dict,
)
from repro.core.ard import ard
from repro.core.msri import insert_repeaters
from repro.netgen.random_nets import chain_net, star_net
from repro.netgen.workloads import (
    paper_net_spec,
    paper_repeater_library,
    paper_technology,
    repeater_insertion_options,
)
from repro.rctree.engine import EvalContext
from repro.rctree.flat import evaluate_batch
from repro.rctree.registry import make_editable_engine
from repro.serve.loadgen import ServeClient, edit_stream, run_load
from repro.serve.server import ServeConfig, TimingServer, start_in_thread
from repro.serve.session import SessionManager, apply_edit

TECH = paper_technology()


@pytest.fixture(scope="module")
def server():
    srv, stop = start_in_thread(ServeConfig())
    yield srv
    stop()


@pytest.fixture()
def client(server):
    c = ServeClient("127.0.0.1", server.port)
    yield c
    c.close()


def _net(i=0):
    return star_net(3 + i, paper_net_spec())


# -- wire codecs ----------------------------------------------------------------


class TestWireCodecs:
    def test_frame_roundtrip_is_deterministic(self):
        frame = {"schema": SERVE_SCHEMA, "id": 7, "op": "hello", "z": 1, "a": 2}
        raw = encode_frame(frame)
        assert raw.endswith(b"\n")
        assert decode_frame(raw) == frame
        assert encode_frame(decode_frame(raw)) == raw

    def test_ard_result_roundtrips_bitwise(self):
        result = ard(_net(), TECH)
        d = ard_result_to_dict(result, include_timing=True)
        back = decode_frame(encode_frame({"schema": SERVE_SCHEMA, "ard": d}))
        from repro.io.serialize import ard_result_from_dict

        again = ard_result_from_dict(back["ard"])
        assert again.value == result.value
        assert (again.source, again.sink) == (result.source, result.sink)
        assert again.timing == result.timing

    def test_never_travels_as_token(self):
        from repro.rctree.engine import SubtreeTiming
        from repro.tech.terminals import NEVER

        st = SubtreeTiming(NEVER, None, 1.5, 3, NEVER, None)
        d = subtree_timing_to_dict(st)
        assert d["arrival"] == "never" and d["diameter"] == "never"
        assert subtree_timing_from_dict(d) == st

    @pytest.mark.parametrize(
        "raw, code",
        [
            (b"{truncated", "bad-frame"),
            (b"[1, 2, 3]\n", "bad-frame"),
            (b"42\n", "bad-frame"),
            (b"\xff\xfe\x00", "bad-frame"),
            (b"", "bad-frame"),
            (b'{"op": "hello"}\n', "bad-request"),  # missing schema
            (b'{"schema": 99, "op": "hello"}\n', "bad-request"),
        ],
    )
    def test_decode_rejections(self, raw, code):
        with pytest.raises(WireProtocolError) as exc:
            decode_frame(raw)
        assert exc.value.code == code

    def test_eval_context_roundtrip(self):
        rep = paper_repeater_library().repeaters[0]
        ctx = EvalContext(
            assignment={4: rep},
            wire_widths={2: 1.5},
            include_companion_cap=True,
        )
        back = eval_context_from_dict(eval_context_to_dict(ctx))
        assert back.wire_widths == {2: 1.5}
        assert back.include_companion_cap
        assert dict(back.assignment)[4].r_ab == rep.r_ab
        assert eval_context_from_dict({}) == EvalContext()


# -- session layer --------------------------------------------------------------


class TestSessionLayer:
    def test_apply_edit_matches_direct_calls(self):
        tree = chain_net(5, paper_net_spec())
        via_frames = make_editable_engine("flat", tree, TECH)
        direct = make_editable_engine("flat", tree, TECH)
        rep = paper_repeater_library().repeaters[0]
        ins = sorted(tree.insertion_indices())[0]

        apply_edit(
            via_frames,
            {"edit": "set_assignment", "node": ins, "repeater": repeater_to_dict(rep)},
        )
        direct.set_assignment(ins, rep)
        apply_edit(via_frames, {"edit": "set_wire_width", "edge": 1, "width": 2.0})
        direct.set_wire_width(1, 2.0)
        apply_edit(
            via_frames,
            {"edit": "set_wire_scale", "resistance_factor": 1.1},
        )
        direct.set_wire_scale(resistance_factor=1.1)
        assert via_frames.evaluate().value == direct.evaluate().value

    def test_apply_edit_rejects_unknown_and_malformed(self):
        engine = make_editable_engine("flat", _net(), TECH)
        with pytest.raises(WireProtocolError, match="unknown edit op"):
            apply_edit(engine, {"edit": "explode"})
        with pytest.raises(WireProtocolError, match="malformed"):
            apply_edit(engine, {"edit": "set_wire_width"})  # no edge
        # engine-side rejection is NOT a protocol error
        with pytest.raises(ValueError, match="width factor"):
            apply_edit(
                engine, {"edit": "set_wire_width", "edge": 1, "width": -2.0}
            )

    def test_manager_open_get_close_evict(self):
        mgr = SessionManager(ttl_s=0.05)
        s = mgr.open(_net(), TECH)
        assert mgr.get(s.sid) is s and len(mgr) == 1
        with pytest.raises(WireProtocolError) as exc:
            mgr.get("s999")
        assert exc.value.code == "unknown-session"
        time.sleep(0.08)
        assert mgr.evict_idle() == [s.sid]
        assert len(mgr) == 0
        assert mgr.close(s.sid) is False


# -- the live server ------------------------------------------------------------


class TestServer:
    def test_hello_reports_editable_engines(self, client):
        # every session runs the one editable engine, FlatARDEngine, so
        # hello names no engines
        resp = client.check("hello")
        assert set(resp) == {"schema", "id", "ok", "server", "version"}
        assert resp["server"] == "repro-msri"

    def test_session_stream_matches_direct_engine(self, client):
        tree = _net(2)
        resp = client.check("open", net=tree_to_dict(tree))
        sid = resp["session"]
        direct = make_editable_engine("flat", tree, TECH)
        assert resp["n"] == len(tree)
        assert resp["ard"] == ard_result_to_dict(direct.evaluate())

        edits = edit_stream(11, tree, 15)
        for e in edits:
            got = client.check("edit", session=sid, **e)
            apply_edit(direct, e)
            assert got["ard"] == ard_result_to_dict(direct.evaluate())
        assert client.check("eval", session=sid)["ard"] == ard_result_to_dict(
            direct.evaluate()
        )
        terms = sorted(tree.terminal_indices())
        got = client.check(
            "path_delay", session=sid, src=terms[0], dst=terms[-1]
        )
        assert got["delay"] == direct.path_delay(terms[0], terms[-1])
        assert client.check("close", session=sid)["closed"] is True
        assert client.check("close", session=sid)["closed"] is False

    def test_include_timing_session_ships_timing_tables(self, client):
        tree = _net(1)
        resp = client.check(
            "open", net=tree_to_dict(tree), include_timing=True
        )
        expected = ard(tree, TECH)
        assert resp["ard"] == ard_result_to_dict(expected, include_timing=True)
        assert resp["ard"]["timing"]  # non-empty per-node table

    def test_malformed_frames_do_not_kill_the_connection(self, client):
        for raw in (
            b"this is not json\n",
            b"[1,2,3]\n",
            b'{"schema": 1}\n',  # no op
            b'{"schema": 77, "op": "hello"}\n',
        ):
            client.send_raw(raw)
            resp = client.read_response()
            assert resp["ok"] is False, raw
        # the connection still works
        assert client.check("hello")["server"] == "repro-msri"

    def test_unknown_op_and_unknown_session(self, client):
        assert client.request("frobnicate")["error"]["code"] == "unknown-op"
        resp = client.request("edit", session="s424242", edit="reroot", node=0)
        assert resp["error"]["code"] == "unknown-session"

    def test_engine_error_reports_and_preserves_session(self, client):
        tree = _net(3)
        sid = client.check("open", net=tree_to_dict(tree))["session"]
        direct = make_editable_engine("flat", tree, TECH)
        resp = client.request(
            "edit", session=sid, edit="set_wire_width", edge=1, width=-1.0
        )
        assert resp["error"]["code"] == "engine-error"
        # the rejected edit left the engine state untouched
        got = client.check("eval", session=sid)
        assert got["ard"] == ard_result_to_dict(direct.evaluate())
        client.check("close", session=sid)

    def test_out_of_range_edits_report_and_preserve_session(self, client):
        tree = chain_net(5, paper_net_spec())
        sid = client.check("open", net=tree_to_dict(tree))["session"]
        direct = make_editable_engine("flat", tree, TECH)
        m = sorted(tree.insertion_indices())[-1]
        rep = paper_repeater_library().repeaters[0]
        client.check(
            "edit", session=sid, edit="set_assignment", node=m,
            repeater=repeater_to_dict(rep),
        )
        direct.set_assignment(m, rep)
        expected = ard_result_to_dict(direct.evaluate())
        bad = [
            {"edit": "set_assignment", "node": 999},
            {"edit": "set_assignment", "node": -1},
            {"edit": "set_assignment", "node": len(tree),
             "repeater": repeater_to_dict(rep)},
        ]
        for edit in bad:
            resp = client.request("edit", session=sid, **edit)
            assert resp["ok"] is False, edit
            assert resp["error"]["code"] == "engine-error", edit
        resp = client.request("path_delay", session=sid, src=999, dst=tree.root)
        assert resp["error"]["code"] == "engine-error"
        # the connection and the session survive, and the answer is unchanged
        assert client.check("eval", session=sid)["ard"] == expected
        client.check("close", session=sid)

    def test_one_shot_evaluate_matches_direct_batch(self, client):
        trees = [_net(i) for i in range(3)] + [chain_net(6, paper_net_spec())]
        nets = [tree_to_dict(t) for t in trees]
        shared = EvalContext(
            wire_widths={1: 1.5, 2: 0.5}, include_companion_cap=True
        )
        for fields, context, timing in (
            ({}, None, False),
            (
                {"context": eval_context_to_dict(shared),
                 "include_timing": True},
                shared,
                True,
            ),
        ):
            resp = client.check("evaluate", nets=nets, **fields)
            direct = evaluate_batch(
                trees, TECH, contexts=context, include_timing=timing
            )
            expected = encode_frame(
                {
                    "schema": SERVE_SCHEMA,
                    "id": resp["id"],
                    "ok": True,
                    "ards": [
                        ard_result_to_dict(r, include_timing=timing)
                        for r in direct
                    ],
                }
            )
            assert client.last_raw == expected, fields
        assert resp["ards"][0]["timing"]  # the timed pass shipped tables

    def test_evaluate_engine_failure_keeps_the_connection(
        self, client, monkeypatch
    ):
        import repro.serve.server as server_module

        def boom(*args, **kwargs):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr(server_module, "evaluate_batch", boom)
        resp = client.request("evaluate", nets=[tree_to_dict(_net())])
        assert resp["error"]["code"] == "engine-error"
        assert "kernel exploded" in resp["error"]["message"]
        assert client.check("hello")["server"] == "repro-msri"

    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
    def test_include_timing_must_be_a_boolean(self, client, value):
        net = tree_to_dict(_net())
        before = client.check("stats")["sessions"]
        for op, fields in (("open", {"net": net}), ("evaluate", {"nets": [net]})):
            resp = client.request(op, include_timing=value, **fields)
            assert resp["error"]["code"] == "bad-request", (op, value)
            assert "include_timing" in resp["error"]["message"]
        # the refused open left no session behind
        assert client.check("stats")["sessions"] <= before

    def test_evaluate_rejects_empty_net_list(self, client):
        resp = client.request("evaluate", nets=[])
        assert resp["error"]["code"] == "bad-request"

    def test_stats_reports_sessions_and_cache(self, client):
        sid = client.check("open", net=tree_to_dict(_net()))["session"]
        stats = client.check("stats")
        assert stats["sessions"] >= 1
        assert stats["timeouts"] == 0
        assert stats["workers_in_flight"] == 0
        client.check("close", session=sid)


class TestOptimizeOp:
    def test_optimize_matches_direct_msri(self, client):
        tree = _net(4)
        sid = client.check("open", net=tree_to_dict(tree))["session"]
        resp = client.check("optimize", session=sid)
        direct = insert_repeaters(tree, TECH, repeater_insertion_options())
        assert resp["mode"] == "repeater"
        assert resp["tradeoff"] == [
            {"cost": c, "ard": a} for c, a in direct.tradeoff()
        ]
        assert resp["stats"]["nodes"] == direct.stats.nodes_processed
        assert resp["stats"]["generated"] == direct.stats.solutions_generated
        assert "chosen" not in resp  # no spec in play
        client.check("close", session=sid)

    def test_repeat_optimize_is_one_root_suite_hit(self, client):
        tree = _net(2)
        sid = client.check("open", net=tree_to_dict(tree))["session"]
        first = client.check("optimize", session=sid)
        before = client.check("stats")["msri_cache"]
        assert set(before) == {"size", "hits", "misses", "stores", "evictions"}
        again = client.check("optimize", session=sid)
        after = client.check("stats")["msri_cache"]
        # one root lookup answers the whole solve: nothing missed or stored
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert after["stores"] == before["stores"]
        assert again["tradeoff"] == first["tradeoff"]
        assert again["stats"]["nodes"] == 0
        assert again["stats"]["cache_hits"] == 1
        assert again["stats"]["nodes_reused"] == len(tree) - 1
        client.check("close", session=sid)

    def test_session_defaults_overrides_and_spec(self, client):
        tree = _net(4)
        sid = client.check(
            "open", net=tree_to_dict(tree), msri={"prefilter": False}
        )["session"]
        base = client.check("optimize", session=sid)
        # exact knobs, whatever the combination, leave the frontier alone
        tuned = client.check(
            "optimize",
            session=sid,
            msri={"prefilter": True, "max_front_width": 8},
        )
        assert tuned["tradeoff"] == base["tradeoff"]
        # top-level spec is shorthand for {"msri": {"spec": ...}}
        met = client.check("optimize", session=sid, spec=1e9)
        assert met["chosen"] == base["tradeoff"][0]  # cheapest meets 1e9 ps
        unmet = client.check("optimize", session=sid, spec=1e-6)
        assert unmet["chosen"] is None
        client.check("close", session=sid)

    def test_sizing_mode(self, client):
        tree = _net(5)
        sid = client.check("open", net=tree_to_dict(tree))["session"]
        resp = client.check("optimize", session=sid, mode="sizing")
        assert resp["mode"] == "sizing"
        assert resp["tradeoff"]
        client.check("close", session=sid)

    def test_bad_mode_and_bad_knob_are_bad_requests(self, client):
        sid = client.check("open", net=tree_to_dict(_net()))["session"]
        resp = client.request("optimize", session=sid, mode="anneal")
        assert resp["error"]["code"] == "bad-request"
        resp = client.request("optimize", session=sid, msri={"max_width": 8})
        assert resp["error"]["code"] == "bad-request"
        # the failed requests leave the session usable
        assert client.check("eval", session=sid)["session"] == sid
        client.check("close", session=sid)


class TestServerFaults:
    def test_oversized_frame_is_rejected(self):
        srv, stop = start_in_thread(ServeConfig(max_frame_bytes=4096))
        try:
            with ServeClient("127.0.0.1", srv.port) as c:
                c.send_raw(b'{"schema": 1, "junk": "' + b"x" * 8192 + b'"}\n')
                resp = c.read_response()
                assert resp["ok"] is False
                assert resp["error"]["code"] == "frame-too-large"
            # the server accepts fresh connections afterwards
            with ServeClient("127.0.0.1", srv.port) as c2:
                assert c2.check("hello")["server"] == "repro-msri"
        finally:
            stop()

    def test_mid_edit_disconnect_cleans_up_sessions(self, server):
        c = ServeClient("127.0.0.1", server.port)
        sid = c.check("open", net=tree_to_dict(_net()))["session"]
        # fire an edit and slam the socket without reading the response
        c.send_raw(
            encode_frame(
                {
                    "schema": SERVE_SCHEMA,
                    "id": 99,
                    "op": "edit",
                    "session": sid,
                    "edit": "set_wire_width",
                    "edge": 1,
                    "width": 2.0,
                }
            )
        )
        c.close()  # slams both the file wrapper and the socket: FIN mid-edit
        # the daemon survives and the orphaned session disappears
        with ServeClient("127.0.0.1", server.port) as c2:
            deadline = time.time() + 5.0
            code = None
            while time.time() < deadline:
                resp = c2.request("eval", session=sid)
                code = (resp.get("error") or {}).get("code")
                if code == "unknown-session":
                    break
                time.sleep(0.05)
            assert code == "unknown-session"

    def test_truncated_frame_then_disconnect(self, server):
        raw = socket.create_connection(("127.0.0.1", server.port))
        raw.sendall(b'{"schema": 1, "op": "hel')  # no newline, then gone
        raw.close()
        with ServeClient("127.0.0.1", server.port) as c:
            assert c.check("hello")["server"] == "repro-msri"

    def test_ttl_evicts_idle_sessions(self):
        srv, stop = start_in_thread(
            ServeConfig(session_ttl_s=0.1, eviction_interval_s=0.02)
        )
        try:
            with ServeClient("127.0.0.1", srv.port) as c:
                sid = c.check("open", net=tree_to_dict(_net()))["session"]
                time.sleep(0.4)
                resp = c.request("eval", session=sid)
                assert resp["error"]["code"] == "unknown-session"
        finally:
            stop()

    def test_drain_stops_accepting(self):
        srv, stop = start_in_thread(ServeConfig())
        port = srv.port
        with ServeClient("127.0.0.1", port) as c:
            assert c.check("hello")["ok"]
        stop()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=0.5)


class _CountingExecutor(ThreadPoolExecutor):
    """A default executor that counts what the loop submits to it."""

    def __init__(self):
        super().__init__(max_workers=2)
        self.submitted = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submitted += 1
        return super().submit(fn, *args, **kwargs)


class TestThreadingModel:
    def test_session_ops_never_reach_the_executor(self):
        tree = chain_net(4, paper_net_spec())
        src, dst = tree.terminal_indices()
        edits = [
            {
                "edit": "set_assignment",
                "node": tree.insertion_indices()[0],
                "repeater": repeater_to_dict(
                    paper_repeater_library().repeaters[0]
                ),
            },
            {
                "edit": "set_terminal",
                "node": dst,
                "terminal": terminal_to_dict(tree.node(dst).terminal),
            },
            {"edit": "set_wire_width", "edge": 1, "width": 2.0},
            {"edit": "set_wire_scale", "resistance_factor": 1.5},
            {"edit": "reroot", "node": dst},
        ]

        async def main():
            pool = _CountingExecutor()
            asyncio.get_running_loop().set_default_executor(pool)
            server = TimingServer(ServeConfig())
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )

            async def call(op, **fields):
                writer.write(
                    encode_frame(
                        {"schema": SERVE_SCHEMA, "id": 1, "op": op, **fields}
                    )
                )
                await writer.drain()
                resp = json.loads(await reader.readline())
                assert resp["ok"], resp
                return resp

            try:
                before = pool.submitted
                sid = (await call("open", net=tree_to_dict(tree)))["session"]
                for edit in edits:
                    await call("edit", session=sid, **edit)
                await call("eval", session=sid)
                await call("path_delay", session=sid, src=src, dst=dst)
                await call("evaluate", nets=[tree_to_dict(tree)])
                inline = pool.submitted - before
                await call("optimize", session=sid)
                return inline, pool.submitted - before - inline
            finally:
                writer.close()
                await server.drain()

        assert asyncio.run(main()) == (0, 1)


@pytest.fixture()
def blocked_optimize(monkeypatch):
    """A server whose ``optimize`` worker blocks until ``release`` is set."""
    import repro.core.msri_engine as msri_engine

    real = msri_engine.insert_repeaters_cached
    release = threading.Event()

    def blocked(*args, **kwargs):
        if not release.wait(timeout=30.0):
            raise RuntimeError("optimize worker was never released")
        return real(*args, **kwargs)

    monkeypatch.setattr(msri_engine, "insert_repeaters_cached", blocked)
    srv, stop = start_in_thread(ServeConfig(request_timeout_s=0.25))
    c = ServeClient("127.0.0.1", srv.port)
    try:
        yield c, release
    finally:
        release.set()
        c.close()
        stop()


def _await_idle_workers(client):
    deadline = time.time() + 10.0
    while client.check("stats")["workers_in_flight"]:
        assert time.time() < deadline, "optimize worker never returned"
        time.sleep(0.01)


class TestTimeouts:
    def test_timed_out_optimize_holds_the_session_lock(self, blocked_optimize):
        client, release = blocked_optimize
        tree = _net(1)
        sid = client.check("open", net=tree_to_dict(tree))["session"]
        resp = client.request("optimize", session=sid)
        assert resp["error"]["code"] == "timeout"
        # the abandoned worker still owns the session: this edit must wait
        # for the lock, time out, and leave the engine untouched
        blocked_edit = {"edit": "set_wire_width", "edge": 1, "width": 4.0}
        resp = client.request("edit", session=sid, **blocked_edit)
        assert resp["error"]["code"] == "timeout"
        release.set()
        _await_idle_workers(client)
        applied = {"edit": "set_wire_width", "edge": 2, "width": 2.0}
        client.check("edit", session=sid, **applied)
        direct = make_editable_engine("flat", tree, TECH)
        apply_edit(direct, applied)
        got = client.check("eval", session=sid)["ard"]
        assert got == ard_result_to_dict(direct.evaluate())

    def test_stats_count_timeouts_and_workers_in_flight(
        self, blocked_optimize
    ):
        client, release = blocked_optimize
        sid = client.check("open", net=tree_to_dict(_net()))["session"]
        assert client.request("optimize", session=sid)["error"]["code"] == (
            "timeout"
        )
        stats = client.check("stats")
        assert stats["timeouts"] == 1
        assert stats["workers_in_flight"] == 1  # abandoned, still running
        release.set()
        _await_idle_workers(client)
        assert client.check("stats")["timeouts"] == 1
        # the released session answers optimize again
        assert client.check("optimize", session=sid)["tradeoff"]
        assert client.check("stats")["workers_in_flight"] == 0


class TestConcurrentDifferential:
    def test_concurrent_sessions_are_byte_identical(self, server):
        report = run_load(
            "127.0.0.1",
            server.port,
            sessions=6,
            edits_per_session=12,
            seed=5,
        )
        assert report.errors == []
        assert report.mismatch_details == []
        assert report.mismatches == 0
        assert report.edits_total == 6 * 12

    def test_flat_engine_sessions_are_byte_identical(self, server):
        # with per-node timing tables, so every table entry is replayed too
        report = run_load(
            "127.0.0.1",
            server.port,
            sessions=4,
            edits_per_session=10,
            seed=9,
            include_timing=True,
        )
        assert report.ok, (report.mismatch_details, report.errors)

    def test_edit_stream_is_deterministic(self):
        tree = _net(4)
        assert edit_stream(3, tree, 20) == edit_stream(3, tree, 20)
        assert edit_stream(3, tree, 20) != edit_stream(4, tree, 20)

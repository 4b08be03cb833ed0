"""The asyncio NDJSON session daemon behind ``repro-msri serve``.

One connection carries a sequence of newline-delimited JSON frames
(``docs/SERVING.md`` is the normative wire reference).  Frames on a
connection are processed strictly in order; concurrency comes from
serving many connections, each owning its sessions.  Session ops whose
work is one kernel sweep of the session's net (``open``, ``edit``,
``eval``, ``path_delay``) run inline on the event loop under the session
lock.  The one-shot ``evaluate`` op is one inline
:func:`repro.rctree.flat.evaluate_batch` call over the frame's nets.
Only the MSRI DP (``optimize``) goes to the default executor.

Robustness contract (exercised by ``tests/test_serve.py``):

* malformed or truncated frames get an ``ok: false`` error response and
  never kill the daemon;
* a line exceeding ``max_frame_bytes`` gets a ``frame-too-large`` error
  and closes that connection (the stream is unrecoverable mid-line);
* every request is bounded by ``request_timeout_s``; a timed-out
  ``optimize`` keeps its session locked until its worker returns;
* a client disconnect closes the sessions it opened;
* sessions idle past ``session_ttl_s`` are evicted;
* SIGTERM/SIGINT drain gracefully — in-flight requests finish, new ones
  are refused with ``shutting-down``.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import __version__
from ..io.serialize import (
    SERVE_SCHEMA,
    WireProtocolError,
    ard_result_to_dict,
    decode_frame,
    encode_frame,
    eval_context_from_dict,
    load_tree,
    technology_from_dict,
    tree_from_dict,
)
from ..core.msri import validate_msri_overrides
from ..netgen.workloads import paper_technology
from ..obs import core as obs
from ..rctree.flat import evaluate_batch
from .session import SessionManager, apply_edit

__all__ = ["ServeConfig", "TimingServer", "run_server", "start_in_thread"]

# Server-level metrics (naming contract: docs/OBSERVABILITY.md).
_OBS_CONNECTIONS = obs.Counter("serve.connections")
_OBS_REQUESTS = obs.Counter("serve.requests")
_OBS_BAD_FRAMES = obs.Counter("serve.frames.bad")
_OBS_TIMEOUTS = obs.Counter("serve.timeouts")
_OBS_EDIT_LATENCY = obs.Histogram("serve.edit.latency_ms")
_OBS_EVAL_LATENCY = obs.Histogram("serve.eval.latency_ms")


@dataclass(frozen=True)
class ServeConfig:
    """All server knobs in one frozen value object (see docs/SERVING.md)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the OS pick; read it back from ``server.port``
    request_timeout_s: float = 30.0
    session_ttl_s: float = 300.0
    eviction_interval_s: float = 1.0
    max_frame_bytes: int = 1 << 20
    drain_grace_s: float = 5.0  # max wait for in-flight requests on drain


def _error(rid: Any, code: str, message: str) -> Dict[str, Any]:
    return {
        "schema": SERVE_SCHEMA,
        "id": rid,
        "ok": False,
        "error": {"code": code, "message": message},
    }


class TimingServer:
    """The session server; construct, ``await start()``, then serve."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.sessions = SessionManager(ttl_s=self.config.session_ttl_s)
        self._server: Optional[asyncio.AbstractServer] = None
        self._background: List[asyncio.Task] = []
        self._writers: set = set()
        self._active_requests = 0
        self._timeouts = 0
        self._workers_in_flight = 0  # executor jobs, abandoned ones included
        self._draining = False
        self._drained = asyncio.Event()

    # -- lifecycle --------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``); 0 before ``start()``."""
        if self._server is None or not self._server.sockets:
            return 0
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client,
            self.config.host,
            self.config.port,
            limit=self.config.max_frame_bytes,
        )
        self._background = [
            asyncio.create_task(self._evictor_loop(), name="serve-evictor"),
        ]

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (POSIX event loops only)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self.drain())
                )
            except NotImplementedError:  # pragma: no cover - non-POSIX loops
                pass

    async def serve_until_drained(self) -> None:
        await self._drained.wait()

    async def drain(self) -> None:
        """Stop accepting, let in-flight requests finish, close everything."""
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_grace_s
        while (
            self._active_requests or self._workers_in_flight
        ) and loop.time() < deadline:
            await asyncio.sleep(0.01)
        for writer in list(self._writers):
            writer.close()
        for task in self._background:
            task.cancel()
        for task in self._background:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._drained.set()

    # -- connection handling ----------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if obs.enabled():
            _OBS_CONNECTIONS.add()
        self._writers.add(writer)
        owned: List[str] = []
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # the frame exceeded max_frame_bytes; mid-line the
                    # stream has no recoverable framing, so answer and hang up
                    await self._send(
                        writer,
                        _error(
                            None,
                            "frame-too-large",
                            f"frame exceeds {self.config.max_frame_bytes} bytes",
                        ),
                    )
                    break
                if not line:
                    break  # EOF: client disconnected
                if not line.strip():
                    continue  # blank keep-alive line
                self._active_requests += 1
                try:
                    response = await self._handle_frame(line, owned)
                finally:
                    self._active_requests -= 1
                await self._send(writer, response)
                if self._draining:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # mid-frame disconnect: cleanup below still runs
        finally:
            self._writers.discard(writer)
            self.sessions.close_many(owned)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, frame: Dict[str, Any]) -> None:
        writer.write(encode_frame(frame))
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def _handle_frame(
        self, line: bytes, owned: List[str]
    ) -> Dict[str, Any]:
        if obs.enabled():
            _OBS_REQUESTS.add()
        try:
            frame = decode_frame(line)
        except WireProtocolError as exc:
            if obs.enabled():
                _OBS_BAD_FRAMES.add()
            return _error(_salvage_id(line), exc.code, str(exc))
        rid = frame.get("id")
        op = frame.get("op")
        if self._draining and op not in ("hello", "close", "stats"):
            return _error(rid, "shutting-down", "server is draining")
        try:
            result = await asyncio.wait_for(
                self._dispatch(op, frame, owned),
                timeout=self.config.request_timeout_s,
            )
        except asyncio.TimeoutError:
            self._timeouts += 1
            if obs.enabled():
                _OBS_TIMEOUTS.add()
            return _error(
                rid,
                "timeout",
                f"request exceeded {self.config.request_timeout_s}s",
            )
        except WireProtocolError as exc:
            return _error(rid, exc.code, str(exc))
        except (ValueError, TypeError) as exc:
            return _error(rid, "engine-error", str(exc))
        return {"schema": SERVE_SCHEMA, "id": rid, "ok": True, **result}

    # -- request dispatch -------------------------------------------------------

    async def _dispatch(
        self, op: Any, frame: Dict[str, Any], owned: List[str]
    ) -> Dict[str, Any]:
        if op == "hello":
            return {"server": "repro-msri", "version": __version__}
        if op == "open":
            return await self._op_open(frame, owned)
        if op == "edit":
            return await self._op_edit(frame)
        if op == "optimize":
            return await self._op_optimize(frame)
        if op == "eval":
            return await self._op_eval(frame)
        if op == "path_delay":
            return await self._op_path_delay(frame)
        if op == "evaluate":
            return await self._op_evaluate(frame)
        if op == "close":
            sid = frame.get("session")
            closed = self.sessions.close(sid) if isinstance(sid, str) else False
            if sid in owned:
                owned.remove(sid)
            return {"closed": closed}
        if op == "stats":
            return self._op_stats()
        raise WireProtocolError(f"unknown op {op!r}", code="unknown-op")

    async def _op_open(
        self, frame: Dict[str, Any], owned: List[str]
    ) -> Dict[str, Any]:
        try:
            if "net" in frame:
                tree = tree_from_dict(frame["net"])
            elif "path" in frame:
                tree = load_tree(str(frame["path"]))
            else:
                raise WireProtocolError(
                    "open needs an inline 'net' or a 'path'", code="bad-request"
                )
            tech = (
                technology_from_dict(frame["tech"])
                if "tech" in frame
                else paper_technology()
            )
            context = eval_context_from_dict(frame.get("context") or {})
            include_timing = _flag(frame, "include_timing")
            msri = validate_msri_overrides(frame.get("msri")) or None
        except WireProtocolError:
            raise
        except (KeyError, TypeError, ValueError, OSError) as exc:
            raise WireProtocolError(
                f"malformed open frame: {exc}", code="bad-request"
            ) from exc
        try:
            session = self.sessions.open(
                tree,
                tech,
                context=context,
                include_timing=include_timing,
                msri=msri,
            )
        except ValueError as exc:
            # a context the net cannot take (a repeater on an unknown node,
            # say): a client mistake, not an engine runtime failure
            raise WireProtocolError(str(exc), code="bad-request") from exc
        owned.append(session.sid)
        async with session.lock:
            result = session.evaluate()
            session.touch()
        return {
            "session": session.sid,
            "n": len(tree),
            "ard": ard_result_to_dict(
                result, include_timing=session.include_timing
            ),
        }

    async def _op_edit(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        session = self.sessions.get(frame.get("session"))
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        async with session.lock:
            apply_edit(session.engine, frame)
            result = session.evaluate()
            session.touch()
            session.edits += 1
        if obs.enabled():
            _OBS_EDIT_LATENCY.observe((loop.time() - t0) * 1e3)
        return {
            "session": session.sid,
            "ard": ard_result_to_dict(
                result, include_timing=session.include_timing
            ),
        }

    async def _op_optimize(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Run the MSRI optimizer over a session's net (docs/SERVING.md).

        ``mode`` selects ``repeater`` (default) or ``sizing``; ``msri``
        carries per-request pruning-knob overrides, merged over the
        session's defaults from the ``open`` frame.  Responds with the
        (cost, ARD) trade-off frontier and the DP statistics; with a
        ``spec`` (here or in the knobs) the cheapest solution meeting it
        is additionally resolved (Problem 2.1).

        Requests run through the manager-wide subtree-front cache
        (:class:`~repro.core.msri_cache.MSRICache`): a repeated optimize on
        an unchanged net is answered from its stored root suite, and one
        that shares subtrees with an earlier request reuses stored fronts,
        both bit-identically; ``stats`` reports ``cache_hits`` /
        ``nodes_reused`` alongside the DP counters.
        """
        from ..core.msri_engine import insert_repeaters_cached
        from ..netgen.workloads import (
            driver_sizing_options,
            repeater_insertion_options,
        )

        session = self.sessions.get(frame.get("session"))
        mode = frame.get("mode", "repeater")
        if mode not in ("repeater", "sizing"):
            raise WireProtocolError(
                f"unknown optimize mode {mode!r}; expected 'repeater' or "
                f"'sizing'",
                code="bad-request",
            )
        overrides = dict(session.msri or {})
        try:
            overrides.update(validate_msri_overrides(frame.get("msri")))
            if "spec" in frame:
                overrides.update(
                    validate_msri_overrides({"spec": frame["spec"]})
                )
        except ValueError as exc:
            raise WireProtocolError(str(exc), code="bad-request") from exc
        build = (
            repeater_insertion_options
            if mode == "repeater"
            else driver_sizing_options
        )
        options = build(**overrides)

        def work():
            return insert_repeaters_cached(
                session.tree,
                session.tech,
                options,
                cache=self.sessions.msri_cache,
            )

        await session.lock.acquire()
        try:
            worker = self._worker(work)
        except BaseException:
            session.lock.release()
            raise
        worker.add_done_callback(lambda _: session.lock.release())
        # a timeout cancels this wait, not the worker: the session stays
        # locked until the DP returns, so no edit interleaves with it
        result = await asyncio.shield(worker)
        session.touch()
        response: Dict[str, Any] = {
            "session": session.sid,
            "mode": mode,
            "tradeoff": [
                {"cost": cost, "ard": ard} for cost, ard in result.tradeoff()
            ],
            "stats": {
                "nodes": result.stats.nodes_processed,
                "generated": result.stats.solutions_generated,
                "kept": result.stats.solutions_after_pruning,
                "max_set_size": result.stats.max_set_size,
                "front_width_p95": result.stats.front_width_p95(),
                "runtime_s": result.stats.runtime_seconds,
                "cache_hits": result.stats.cache_hits,
                "nodes_reused": result.stats.nodes_reused,
            },
        }
        if options.spec is not None:
            chosen = result.min_cost_meeting(options.spec)
            response["chosen"] = (
                None
                if chosen is None
                else {"cost": chosen.cost, "ard": chosen.ard}
            )
        return response

    async def _op_eval(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        session = self.sessions.get(frame.get("session"))
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        async with session.lock:
            result = session.evaluate()
            session.touch()
        if obs.enabled():
            _OBS_EVAL_LATENCY.observe((loop.time() - t0) * 1e3)
        return {
            "session": session.sid,
            "ard": ard_result_to_dict(
                result, include_timing=session.include_timing
            ),
        }

    async def _op_path_delay(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        session = self.sessions.get(frame.get("session"))
        try:
            src = int(frame["src"])
            dst = int(frame["dst"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WireProtocolError(
                f"malformed path_delay frame: {exc!r}", code="bad-request"
            ) from exc
        async with session.lock:
            value = session.engine.path_delay(src, dst)
            session.touch()
        return {
            "session": session.sid,
            "delay": value if math.isfinite(value) else "never",
        }

    async def _op_evaluate(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        try:
            nets = frame["nets"]
            if not isinstance(nets, list) or not nets:
                raise WireProtocolError(
                    "'nets' must be a non-empty list", code="bad-request"
                )
            trees = [tree_from_dict(d) for d in nets]
            tech = (
                technology_from_dict(frame["tech"])
                if "tech" in frame
                else paper_technology()
            )
            context = eval_context_from_dict(frame.get("context") or {})
            include_timing = _flag(frame, "include_timing")
        except WireProtocolError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise WireProtocolError(
                f"malformed evaluate frame: {exc}", code="bad-request"
            ) from exc
        try:
            results = evaluate_batch(
                trees, tech, contexts=context, include_timing=include_timing
            )
        except (ValueError, TypeError):
            raise
        except Exception as exc:  # any engine failure answers engine-error
            raise ValueError(str(exc)) from exc
        return {
            "ards": [
                ard_result_to_dict(r, include_timing=include_timing)
                for r in results
            ]
        }

    def _op_stats(self) -> Dict[str, Any]:
        return {
            "sessions": len(self.sessions),
            "msri_cache": self.sessions.msri_cache.stats(),
            "draining": self._draining,
            "timeouts": self._timeouts,
            "workers_in_flight": self._workers_in_flight,
        }

    def _worker(self, fn: Callable[[], Any]) -> asyncio.Future:
        """Run ``fn`` on the default executor, counted until it returns."""
        worker = asyncio.get_running_loop().run_in_executor(None, fn)
        self._workers_in_flight += 1
        worker.add_done_callback(self._worker_done)
        return worker

    def _worker_done(self, _: asyncio.Future) -> None:
        self._workers_in_flight -= 1

    # -- background loops -------------------------------------------------------

    async def _evictor_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.eviction_interval_s)
            self.sessions.evict_idle()


def _flag(frame: Dict[str, Any], key: str) -> bool:
    """A boolean frame field (absent = false); anything but a bool is refused."""
    value = frame.get(key, False)
    if not isinstance(value, bool):
        raise ValueError(f"{key!r} must be true or false, got {value!r}")
    return value


def _salvage_id(line: bytes) -> Any:
    """Best-effort request id from an otherwise unusable frame."""
    try:
        obj = json.loads(line)
        if isinstance(obj, dict):
            rid = obj.get("id")
            if isinstance(rid, (int, str)):
                return rid
    except Exception:
        pass
    return None


def run_server(config: Optional[ServeConfig] = None) -> None:
    """Blocking entry point: serve until SIGTERM/SIGINT drains the daemon."""

    async def main() -> None:
        server = TimingServer(config)
        await server.start()
        server.install_signal_handlers()
        print(
            f"repro-msri serve: listening on "
            f"{server.config.host}:{server.port} "
            f"(engine={server.config.engine})",
            flush=True,
        )
        await server.serve_until_drained()

    asyncio.run(main())


def start_in_thread(
    config: Optional[ServeConfig] = None,
) -> Tuple[TimingServer, Callable[[], None]]:
    """Run a server on a daemon thread; returns ``(server, stop)``.

    ``server.port`` is valid on return.  ``stop()`` drains the server and
    joins the thread — the in-process harness used by the self-test, the
    benchmark and the test suite.
    """
    started = threading.Event()
    holder: Dict[str, Any] = {}

    async def main() -> None:
        server = TimingServer(config)
        await server.start()
        holder["server"] = server
        holder["loop"] = asyncio.get_running_loop()
        started.set()
        await server.serve_until_drained()

    thread = threading.Thread(
        target=lambda: asyncio.run(main()), name="repro-serve", daemon=True
    )
    thread.start()
    if not started.wait(timeout=10.0):
        raise RuntimeError("server thread failed to start")
    server: TimingServer = holder["server"]
    loop: asyncio.AbstractEventLoop = holder["loop"]

    def stop() -> None:
        if thread.is_alive():
            asyncio.run_coroutine_threadsafe(server.drain(), loop).result(
                timeout=30.0
            )
            thread.join(timeout=10.0)

    return server, stop

"""Load generator: concurrent sessions + serial byte-identity replay.

``run_load`` drives N concurrent client sessions against a running
server, each streaming a seeded pseudo-random edit sequence, then
*replays every session serially* on a local engine and asserts the
streamed responses were **byte-identical** to the serially recomputed
frames.  That is the server's core correctness claim: concurrency and
executor offload are pure plumbing — they must never change a single
bit of any response.

The replay reuses :func:`repro.serve.session.apply_edit` (the server's
own dispatcher) and :func:`repro.io.serialize.encode_frame` (the
server's own encoder), so the comparison covers the full path from edit
decoding through engine arithmetic to response bytes.

Also home of :class:`ServeClient`, a small blocking NDJSON client used
by the CLI self-test and the test suite.
"""

from __future__ import annotations

import itertools
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..io.serialize import (
    SERVE_SCHEMA,
    ard_result_to_dict,
    decode_frame,
    encode_frame,
    repeater_to_dict,
    terminal_to_dict,
    tree_to_dict,
)
from ..netgen.random_nets import chain_net, star_net
from ..netgen.workloads import (
    paper_net_spec,
    paper_repeater_library,
    paper_technology,
)
from ..rctree.flat import FlatARDEngine
from ..rctree.topology import RoutingTree
from .session import apply_edit

__all__ = ["ServeClient", "LoadReport", "edit_stream", "run_load"]


class ServeClient:
    """A blocking NDJSON client for one server connection."""

    def __init__(self, host: str, port: int, *, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._fh = self._sock.makefile("rb")
        self._ids = itertools.count(1)
        #: raw bytes of the last response line, for byte-identity checks
        self.last_raw: bytes = b""

    def send_raw(self, payload: bytes) -> None:
        """Ship arbitrary bytes — the fuzz tests' malformed-frame hook."""
        self._sock.sendall(payload)

    def read_response(self) -> Dict[str, Any]:
        line = self._fh.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        self.last_raw = line
        return decode_frame(line)

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """One round-trip; returns the decoded response frame."""
        rid = next(self._ids)
        frame = {"schema": SERVE_SCHEMA, "id": rid, "op": op, **fields}
        self.send_raw(encode_frame(frame))
        return self.read_response()

    def check(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Like :meth:`request` but raises on an ``ok: false`` response."""
        resp = self.request(op, **fields)
        if not resp.get("ok"):
            err = resp.get("error") or {}
            raise RuntimeError(
                f"{op} failed: {err.get('code')}: {err.get('message')}"
            )
        return resp

    def close(self) -> None:
        try:
            self._fh.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _session_net(index: int) -> RoutingTree:
    """Deterministic per-session net: alternating star/chain shapes."""
    spec = paper_net_spec()
    if index % 2 == 0:
        return star_net(3 + index % 5, spec)
    return chain_net(4 + index % 7, spec)


def edit_stream(
    seed: int, tree: RoutingTree, n_edits: int
) -> List[Dict[str, Any]]:
    """A seeded, orientation-aware edit sequence valid for ``tree``.

    Tracks the current root across ``reroot`` edits so wire-width targets
    (which must not name the root) and reroot targets stay legal however
    the stream reorders the tree.  Deterministic: the same ``(seed, tree,
    n_edits)`` always yields the same frames, which is what lets the
    serial replay regenerate nothing — it replays the *sent* frames.
    """
    rng = random.Random(seed)
    rep = repeater_to_dict(paper_repeater_library().repeaters[0])
    insertion = sorted(tree.insertion_indices())
    terminals = sorted(tree.terminal_indices())
    current_root = tree.root
    edits: List[Dict[str, Any]] = []
    ops = ["set_wire_width", "set_wire_scale", "set_terminal"]
    if insertion:
        ops += ["set_assignment"] * 3
    if len(terminals) > 1:
        ops += ["reroot"]
    for _ in range(n_edits):
        op = rng.choice(ops)
        if op == "set_assignment":
            edits.append(
                {
                    "edit": op,
                    "node": rng.choice(insertion),
                    "repeater": rep if rng.random() < 0.7 else None,
                }
            )
        elif op == "set_wire_width":
            carriers = [i for i in range(len(tree)) if i != current_root]
            width = (
                round(rng.uniform(0.5, 4.0), 3) if rng.random() < 0.8 else None
            )
            edits.append(
                {"edit": op, "edge": rng.choice(carriers), "width": width}
            )
        elif op == "set_wire_scale":
            edits.append(
                {
                    "edit": op,
                    "resistance_factor": round(rng.uniform(0.8, 1.25), 3),
                    "capacitance_factor": round(rng.uniform(0.8, 1.25), 3),
                }
            )
        elif op == "set_terminal":
            node = rng.choice(terminals)
            payload = terminal_to_dict(tree.node(node).terminal)
            payload["arrival_time"] = round(rng.uniform(0.0, 100.0), 3)
            payload["downstream_delay"] = round(rng.uniform(0.0, 100.0), 3)
            payload["capacitance"] = round(rng.uniform(0.01, 0.5), 4)
            edits.append({"edit": op, "node": node, "terminal": payload})
        else:  # reroot
            node = rng.choice([t for t in terminals if t != current_root])
            edits.append({"edit": op, "node": node})
            current_root = node
    return edits


@dataclass
class LoadReport:
    """What one ``run_load`` measured (latencies in milliseconds)."""

    sessions: int
    edits_total: int
    wall_s: float
    throughput_eps: float  # edit round-trips per second, all sessions
    p50_ms: float
    p99_ms: float
    max_ms: float
    mismatches: int  # responses differing from the serial replay (must be 0)
    mismatch_details: List[str]
    errors: List[str]

    @property
    def ok(self) -> bool:
        return self.mismatches == 0 and not self.errors


def _percentile(sorted_vals: List[float], pct: float) -> float:
    if not sorted_vals:
        return 0.0
    rank = max(1, int(-(-pct / 100.0 * len(sorted_vals) // 1)))  # ceil
    return sorted_vals[min(rank, len(sorted_vals)) - 1]


def run_load(
    host: str,
    port: int,
    *,
    sessions: int = 8,
    edits_per_session: int = 50,
    seed: int = 0,
    include_timing: bool = False,
) -> LoadReport:
    """Drive concurrent sessions, then serially verify every byte.

    Each session thread opens its own connection and net, streams its
    seeded edit sequence and records the raw response bytes.  After all
    threads finish, each session is replayed on a fresh local
    :class:`~repro.rctree.flat.FlatARDEngine` and the expected response
    frames are re-encoded; any byte difference is a mismatch.
    """
    if sessions < 1 or edits_per_session < 0:
        raise ValueError("sessions must be >= 1 and edits_per_session >= 0")
    transcripts: List[Optional[Dict[str, Any]]] = [None] * sessions
    errors: List[str] = []
    lock = threading.Lock()

    def worker(i: int) -> None:
        tree = _session_net(i)
        edits = edit_stream(seed * 10_000 + i, tree, edits_per_session)
        latencies: List[float] = []
        raws: List[bytes] = []
        try:
            with ServeClient(host, port) as client:
                resp = client.check(
                    "open",
                    net=tree_to_dict(tree),
                    include_timing=include_timing,
                )
                sid = resp["session"]
                raw_open = client.last_raw
                for e in edits:
                    t0 = time.perf_counter()
                    client.check("edit", session=sid, **e)
                    latencies.append((time.perf_counter() - t0) * 1e3)
                    raws.append(client.last_raw)
                client.check("close", session=sid)
            with lock:
                transcripts[i] = {
                    "tree": tree,
                    "edits": edits,
                    "sid": sid,
                    "raw_open": raw_open,
                    "raws": raws,
                    "latencies": latencies,
                }
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            with lock:
                errors.append(f"session {i}: {type(exc).__name__}: {exc}")

    t_start = time.perf_counter()
    threads = [
        threading.Thread(target=worker, args=(i,), name=f"loadgen-{i}")
        for i in range(sessions)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall_s = time.perf_counter() - t_start

    # -- serial replay: recompute what every response must have been ---------
    mismatches = 0
    details: List[str] = []
    all_latencies: List[float] = []
    edits_total = 0
    for i, tr in enumerate(transcripts):
        if tr is None:
            continue
        all_latencies.extend(tr["latencies"])
        edits_total += len(tr["edits"])
        local = FlatARDEngine(
            tr["tree"], paper_technology(), include_timing=include_timing
        )
        sid = tr["sid"]
        expected = encode_frame(
            {
                "schema": SERVE_SCHEMA,
                "id": 1,
                "ok": True,
                "session": sid,
                "n": len(tr["tree"]),
                "ard": ard_result_to_dict(
                    local.evaluate(), include_timing=include_timing
                ),
            }
        )
        if expected != tr["raw_open"]:
            mismatches += 1
            details.append(f"session {i}: open response differs")
        for k, (edit, raw) in enumerate(zip(tr["edits"], tr["raws"])):
            apply_edit(local, edit)
            expected = encode_frame(
                {
                    "schema": SERVE_SCHEMA,
                    "id": k + 2,
                    "ok": True,
                    "session": sid,
                    "ard": ard_result_to_dict(
                        local.evaluate(), include_timing=include_timing
                    ),
                }
            )
            if expected != raw:
                mismatches += 1
                details.append(
                    f"session {i} edit {k} ({edit['edit']}): "
                    f"expected {expected!r} got {raw!r}"
                )

    ordered = sorted(all_latencies)
    return LoadReport(
        sessions=sessions,
        edits_total=edits_total,
        wall_s=wall_s,
        throughput_eps=edits_total / wall_s if wall_s > 0 else 0.0,
        p50_ms=_percentile(ordered, 50.0),
        p99_ms=_percentile(ordered, 99.0),
        max_ms=ordered[-1] if ordered else 0.0,
        mismatches=mismatches,
        mismatch_details=details[:10],
        errors=errors,
    )

"""Server-side session state and the edit-frame dispatcher.

A *session* pins one :class:`~repro.rctree.flat.FlatARDEngine` to one
opened net; the client streams edit frames and the server re-evaluates
after each.  The dispatcher (:func:`apply_edit`) is deliberately the only
place that maps wire edit ops onto protocol methods — the load
generator's serial replay calls the same function, so "what the server
did" and "what the differential check recomputes" cannot drift apart.

Sessions are single-writer: the server serializes frames per connection
and additionally holds ``session.lock`` across apply+evaluate, so an edit
is never interleaved with another edit or evaluation of the same session.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Dict, List, Optional

from ..io.serialize import (
    WireProtocolError,
    repeater_from_dict,
    terminal_from_dict,
)
from ..obs import core as obs
from ..rctree.engine import ARDResult, EditableEngine, EvalContext
from ..rctree.flat import FlatARDEngine
from ..rctree.topology import RoutingTree
from ..tech.parameters import Technology

__all__ = ["Session", "SessionManager", "apply_edit", "EDIT_OPS"]

# Session lifecycle counters (naming contract: docs/OBSERVABILITY.md).
_OBS_OPENED = obs.Counter("serve.sessions.opened")
_OBS_CLOSED = obs.Counter("serve.sessions.closed")
_OBS_EVICTED = obs.Counter("serve.sessions.evicted")
_OBS_EDITS = obs.Counter("serve.edits")

#: Wire edit ops, in protocol order (docs/SERVING.md).
EDIT_OPS = (
    "set_assignment",
    "set_terminal",
    "set_wire_width",
    "set_wire_scale",
    "reroot",
)


def apply_edit(engine: EditableEngine, edit: Dict[str, object]) -> None:
    """Apply one wire edit frame to an editable engine.

    Raises :class:`WireProtocolError` (``code="bad-request"``) for frames
    that do not decode to a known edit; engine-side rejections
    (``ValueError`` / ``TypeError``) propagate for the server to report as
    ``engine-error`` — the engine validates eagerly, so a rejected edit
    leaves the session state untouched.
    """
    op = edit.get("edit")
    if op not in EDIT_OPS:
        raise WireProtocolError(
            f"unknown edit op {op!r}; expected one of {', '.join(EDIT_OPS)}",
            code="bad-request",
        )
    # decode the frame fields first (malformed → bad-request), then
    # dispatch — so engine-side rejections are never misreported as
    # protocol errors
    try:
        if op == "set_assignment":
            rep = edit.get("repeater")
            args = (
                int(edit["node"]),  # type: ignore[arg-type]
                None if rep is None else repeater_from_dict(rep),  # type: ignore[arg-type]
            )
        elif op == "set_terminal":
            args = (
                int(edit["node"]),  # type: ignore[arg-type]
                terminal_from_dict(edit["terminal"]),  # type: ignore[arg-type]
            )
        elif op == "set_wire_width":
            width = edit.get("width")
            args = (
                int(edit["edge"]),  # type: ignore[arg-type]
                None if width is None else float(width),  # type: ignore[arg-type]
            )
        elif op == "set_wire_scale":
            kwargs = {
                "resistance_factor": float(edit.get("resistance_factor", 1.0)),  # type: ignore[arg-type]
                "capacitance_factor": float(edit.get("capacitance_factor", 1.0)),  # type: ignore[arg-type]
            }
        else:  # reroot
            args = (int(edit["node"]),)  # type: ignore[arg-type]
    except (KeyError, TypeError, ValueError) as exc:
        raise WireProtocolError(
            f"malformed {op!r} edit frame: {exc!r}", code="bad-request"
        ) from exc
    if op == "set_wire_scale":
        engine.set_wire_scale(**kwargs)
    else:
        getattr(engine, op)(*args)
    if obs.enabled():
        _OBS_EDITS.add()


class Session:
    """One opened net bound to one :class:`FlatARDEngine`."""

    __slots__ = (
        "sid",
        "engine",
        "tree",
        "tech",
        "include_timing",
        "msri",
        "lock",
        "last_used",
        "edits",
    )

    def __init__(
        self,
        sid: str,
        engine: FlatARDEngine,
        tree: RoutingTree,
        tech: Technology,
        include_timing: bool,
        msri: Optional[Dict] = None,
    ):
        self.sid = sid
        self.engine = engine
        self.tree = tree
        self.tech = tech
        self.include_timing = include_timing
        #: session-default MSRI pruning-knob overrides (docs/SERVING.md);
        #: per-request overrides in an ``optimize`` frame merge over these
        self.msri = msri
        self.lock = asyncio.Lock()
        self.last_used = time.monotonic()
        self.edits = 0

    def touch(self) -> None:
        self.last_used = time.monotonic()

    def evaluate(self) -> ARDResult:
        """Current ARD of the session's engine (caller holds the lock)."""
        return self.engine.evaluate()


class SessionManager:
    """The server's session table with TTL-based idle eviction."""

    def __init__(self, *, ttl_s: float = 300.0):
        if ttl_s <= 0:
            raise ValueError(f"session TTL must be positive, got {ttl_s}")
        self.ttl_s = ttl_s
        self._sessions: Dict[str, Session] = {}
        self._ids = itertools.count(1)
        # one subtree-front cache across all sessions: repeated `optimize`
        # frames on the same (or an edited) net reuse fronts bit-identically
        # (docs/ALGORITHMS.md §13); the cache itself is thread-safe for the
        # daemon's concurrent thread-pool evaluations
        from ..core.msri_cache import MSRICache

        self.msri_cache = MSRICache()

    def __len__(self) -> int:
        return len(self._sessions)

    def open(
        self,
        tree: RoutingTree,
        tech: Technology,
        *,
        context: Optional[EvalContext] = None,
        include_timing: bool = False,
        msri: Optional[Dict] = None,
    ) -> Session:
        engine = FlatARDEngine(
            tree, tech, context=context, include_timing=include_timing
        )
        sid = f"s{next(self._ids)}"
        session = Session(sid, engine, tree, tech, include_timing, msri)
        self._sessions[sid] = session
        if obs.enabled():
            _OBS_OPENED.add()
        return session

    def get(self, sid: object) -> Session:
        session = self._sessions.get(sid)  # type: ignore[arg-type]
        if session is None:
            raise WireProtocolError(
                f"unknown session {sid!r}", code="unknown-session"
            )
        return session

    def close(self, sid: str) -> bool:
        """Drop a session; True if it existed."""
        existed = self._sessions.pop(sid, None) is not None
        if existed and obs.enabled():
            _OBS_CLOSED.add()
        return existed

    def close_many(self, sids: List[str]) -> None:
        for sid in sids:
            self.close(sid)

    def evict_idle(self) -> List[str]:
        """Drop sessions idle longer than the TTL; returns evicted ids."""
        now = time.monotonic()
        stale = [
            sid
            for sid, s in self._sessions.items()
            if now - s.last_used > self.ttl_s
        ]
        for sid in stale:
            del self._sessions[sid]
            if obs.enabled():
                _OBS_EVICTED.add()
        return stale

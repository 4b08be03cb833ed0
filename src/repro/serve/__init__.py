"""Timing-as-a-service: a session server over the flat timing engine.

The optimizer-facing engines answer "what is the ARD of this tree?" one
process at a time; this package puts that behind a socket so external
tools (placers, routers, notebooks) can hold *sessions* — a net opened
once, then edited incrementally with per-edit re-evaluation — without
linking the Python optimizer into their process.

* :mod:`repro.serve.session` — session state and the edit-frame
  dispatcher over the :class:`~repro.rctree.engine.EditableEngine`
  protocol;
* :mod:`repro.serve.server` — the asyncio NDJSON daemon
  (``repro-msri serve``), with one-shot batch evaluation,
  per-request timeouts, TTL eviction and graceful drain;
* :mod:`repro.serve.loadgen` — a blocking client plus a concurrent load
  generator that replays every session serially and asserts the streamed
  responses were byte-identical.

The wire format is NDJSON (one JSON object per line), versioned as
``SERVE_SCHEMA`` in :mod:`repro.io.serialize`; docs/SERVING.md is the
normative frame reference.
"""

from .loadgen import LoadReport, ServeClient, run_load
from .server import ServeConfig, TimingServer, run_server, start_in_thread
from .session import Session, SessionManager, apply_edit

__all__ = [
    "LoadReport",
    "ServeClient",
    "run_load",
    "ServeConfig",
    "TimingServer",
    "run_server",
    "start_in_thread",
    "Session",
    "SessionManager",
    "apply_edit",
]

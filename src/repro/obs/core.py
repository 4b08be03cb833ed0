"""Zero-dependency observability core: spans, counters, histograms, points.

The paper's central claims are *algorithmic-shape* claims — the Fig. 2 ARD
pass is linear, MSRI pruning keeps the candidate front small, the
editable flat engine re-propagates only dirty root paths.  This module gives
the repository the primitives to show those shapes at runtime:

* :func:`trace` — a nestable span context manager with monotonic timing.
  Spans record their full name path (``campaign.run/executor.job/msri.run``)
  so a flame summary can be reconstructed without parent ids.  Nesting is
  tracked per thread; buffers are per process and merged explicitly (the
  campaign executor ships worker snapshots back over its result pipe).
* :class:`Counter` / :class:`Histogram` — named aggregates with a
  global-off fast path: every recording call returns immediately while
  observability is disabled, so instrumented hot loops cost nothing.
* :func:`point` — structured one-shot events (e.g. the per-node MSRI
  ``generated`` / ``kept`` / ``pruned`` record).
* :func:`snapshot` / :func:`merge` — picklable state capture for crossing
  process boundaries, plus :func:`mark` / :func:`summary_since` for cheap
  in-process per-job deltas.

Enable with ``REPRO_OBS=1`` in the environment, :func:`set_enabled`, or the
:func:`observing` context manager (tests).  The ``repro-msri trace``
subcommand sets the environment variable before dispatching so worker
processes inherit it.

The span/counter names used by the instrumented core are a **stable
contract** documented in ``docs/OBSERVABILITY.md``; renaming one is a
breaking change to downstream trace consumers.

This module must stay import-light and dependency-free: the ARD/MSRI core
imports it at module load.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "SPAN_CAP",
    "NULL_SPAN",
    "Counter",
    "Histogram",
    "enabled",
    "set_enabled",
    "observing",
    "trace",
    "point",
    "mark",
    "summary_since",
    "snapshot",
    "summarize",
    "merge",
    "reset",
]

_ENV_VAR = "REPRO_OBS"

#: Hard cap on buffered spans (and, separately, points) per process.  A
#: runaway loop under tracing degrades to dropped records (counted in the
#: snapshot's ``dropped`` field) instead of unbounded memory growth.
SPAN_CAP = 100_000


def _env_enabled() -> bool:
    return os.environ.get(_ENV_VAR, "").strip().lower() not in ("", "0", "false", "off")


_enabled = _env_enabled()


def enabled() -> bool:
    """True when observability recording is active in this process."""
    return _enabled


def set_enabled(flag: Optional[bool]) -> None:
    """Force observability on/off; ``None`` re-reads the REPRO_OBS env var."""
    global _enabled
    _enabled = _env_enabled() if flag is None else bool(flag)


@contextmanager
def observing(flag: bool = True) -> Iterator[None]:
    """Temporarily enable (or disable) observability — for tests."""
    global _enabled
    prev = _enabled
    _enabled = bool(flag)
    try:
        yield
    finally:
        _enabled = prev


# -- per-process buffers -------------------------------------------------------

_lock = threading.Lock()
_local = threading.local()  # per-thread span-name stack (nesting)

_spans: List[Dict[str, Any]] = []
_points: List[Dict[str, Any]] = []
_counters: Dict[str, float] = {}
_hists: Dict[str, List[float]] = {}  # name -> [count, sum, min, max]
_dropped = 0


def _stack() -> List[str]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


# -- spans ---------------------------------------------------------------------


class _NullSpan:
    """The shared disabled-path span: enter/exit/set are no-ops."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


#: The shared no-op span.  Exposed so hot loops can write
#: ``with trace(...) if observing else NULL_SPAN:`` and skip even the
#: keyword-argument packing of a disabled :func:`trace` call.
NULL_SPAN = _NullSpan()


class _Span:
    """One live span.  Exceptions are recorded (``error`` attribute holding
    the exception type name) and always re-raised — tracing never swallows."""

    __slots__ = ("name", "attrs", "path", "_t0")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.path = name

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes while the span is open."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        stack = _stack()
        stack.append(self.name)
        self.path = "/".join(stack)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter() - self._t0
        stack = _stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        entry = {
            "name": self.name,
            "path": self.path,
            "dur_s": dur,
            "attrs": self.attrs,
        }
        global _dropped
        with _lock:
            if len(_spans) < SPAN_CAP:
                _spans.append(entry)
            else:
                _dropped += 1
        return False  # never suppress the exception


def trace(name: str, **attrs: Any):
    """A span context manager: ``with trace("msri.prune", node=v): ...``.

    Returns a shared no-op object while observability is disabled, so the
    call is a single predicate check on hot paths.
    """
    if not _enabled:
        return NULL_SPAN
    return _Span(name, attrs)


# -- points --------------------------------------------------------------------


def point(name: str, **attrs: Any) -> None:
    """Record one structured event (no duration)."""
    if not _enabled:
        return
    global _dropped
    with _lock:
        if len(_points) < SPAN_CAP:
            _points.append({"name": name, "attrs": attrs})
        else:
            _dropped += 1


# -- counters and histograms ---------------------------------------------------


class Counter:
    """A named monotonic counter.  ``add`` is free while disabled."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def add(self, n: float = 1) -> None:
        if not _enabled:
            return
        with _lock:
            _counters[self.name] = _counters.get(self.name, 0) + n

    @property
    def value(self) -> float:
        """Current total (0 when never incremented)."""
        return _counters.get(self.name, 0)


class Histogram:
    """A named summary histogram: count / sum / min / max.

    Deliberately not bucketed — the instrumented quantities (front widths,
    dirty-path lengths, segment counts) are small integers where the
    count/mean/extremes already answer the shape questions, and the summary
    merges exactly across processes.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def observe(self, value: float) -> None:
        if not _enabled:
            return
        with _lock:
            h = _hists.get(self.name)
            if h is None:
                _hists[self.name] = [1, value, value, value]
            else:
                h[0] += 1
                h[1] += value
                if value < h[2]:
                    h[2] = value
                if value > h[3]:
                    h[3] = value

    @property
    def summary(self) -> Optional[Dict[str, float]]:
        """``{"count", "sum", "min", "max"}`` or None when never observed."""
        h = _hists.get(self.name)
        if h is None:
            return None
        return {"count": h[0], "sum": h[1], "min": h[2], "max": h[3]}


# -- snapshots, deltas, merging ------------------------------------------------


def snapshot(reset: bool = False) -> Dict[str, Any]:
    """The full per-process state as one picklable dict.

    Keys: ``counters`` (name → total), ``hists`` (name → [count, sum, min,
    max]), ``spans`` / ``points`` (record lists), ``dropped``, ``pid``.
    With ``reset=True`` the buffers are cleared atomically with the capture
    (the worker-side per-job delta mechanism).
    """
    global _dropped
    with _lock:
        snap = {
            "counters": dict(_counters),
            "hists": {k: list(v) for k, v in _hists.items()},
            "spans": list(_spans),
            "points": list(_points),
            "dropped": _dropped,
            "pid": os.getpid(),
        }
        if reset:
            _spans.clear()
            _points.clear()
            _counters.clear()
            _hists.clear()
            _dropped = 0
    return snap


def reset() -> None:
    """Clear every buffer (does not change the enabled flag)."""
    snapshot(reset=True)


def merge(snap: Optional[Dict[str, Any]]) -> None:
    """Fold another process's :func:`snapshot` into this one's buffers.

    Counters and histogram summaries add exactly; spans and points are
    appended (still subject to :data:`SPAN_CAP`), tagged with the source
    pid so mixed-process traces stay attributable.  ``None`` is a no-op —
    the executor passes whatever the worker shipped, which is ``None``
    when the worker ran with observability off.
    """
    if not snap:
        return
    global _dropped
    pid = snap.get("pid")
    with _lock:
        for name, value in snap.get("counters", {}).items():
            _counters[name] = _counters.get(name, 0) + value
        for name, (count, total, lo, hi) in snap.get("hists", {}).items():
            h = _hists.get(name)
            if h is None:
                _hists[name] = [count, total, lo, hi]
            else:
                h[0] += count
                h[1] += total
                if lo < h[2]:
                    h[2] = lo
                if hi > h[3]:
                    h[3] = hi
        for key in ("spans", "points"):
            buf = _spans if key == "spans" else _points
            for entry in snap.get(key, ()):
                if len(buf) >= SPAN_CAP:
                    _dropped += 1
                    continue
                if pid is not None and "pid" not in entry:
                    entry = dict(entry)
                    entry["pid"] = pid
                buf.append(entry)
        _dropped += snap.get("dropped", 0)


def summarize(snap: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Compact per-job summary of a snapshot: counter totals plus per-path
    span aggregates ``{path: [count, total_s]}``.  None when empty — the
    shape stored in ``JobMetrics.obs`` and campaign schema v3."""
    spans: Dict[str, List[float]] = {}
    for entry in snap.get("spans", ()):
        agg = spans.setdefault(entry["path"], [0, 0.0])
        agg[0] += 1
        agg[1] += entry["dur_s"]
    counters = {k: v for k, v in snap.get("counters", {}).items() if v}
    if not counters and not spans:
        return None
    return {"counters": counters, "spans": spans}


def mark() -> Dict[str, Any]:
    """A cheap position marker for :func:`summary_since` (inline jobs)."""
    with _lock:
        return {"spans": len(_spans), "counters": dict(_counters)}


def summary_since(m: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The compact :func:`summarize`-shaped delta since ``m`` — used by the
    inline executor path, where resetting the shared buffers per job would
    destroy enclosing campaign-level spans."""
    with _lock:
        spans = list(_spans[m["spans"]:])
        counters = dict(_counters)
    before = m["counters"]
    delta = {
        k: v - before.get(k, 0) for k, v in counters.items() if v != before.get(k, 0)
    }
    return summarize({"spans": spans, "counters": delta})

"""R008 — parallel-safety of callables submitted to the executor pool.

``repro.analysis.executor.run_jobs`` (and ``run_campaign``'s ``job_fn``
hook) ship the callable and its arguments to worker *processes*.  Two bug
classes survive local testing and explode only under ``workers >= 1``:

* **unpicklable callables** — lambdas, nested functions and other
  non-module-level objects cannot cross the pipe.  Flagged whenever the
  submitting call requests process isolation (a ``workers`` argument that
  is not the literal ``0``; the inline serial path tolerates closures).
* **worker-side shared-state writes** — a function reachable from a
  submitted callable that rebinds a module global (``global`` statement),
  mutates a module-level container, writes ``os.environ``, or flips the
  process-wide obs/contract switches (``set_enabled``) produces state that
  silently diverges between workers and breaks the executor's
  bit-identical-at-any-worker-count guarantee — the precondition for the
  concurrent `FlatARDEngine` session server.

Module-level observability instruments (``obs.Counter`` / ``Histogram``
assignments) are exempt: their per-process buffers are snapshotted and
merged across the pipe by design.  Test files are exempt like R003 — the
fault-injection suite deliberately misuses the pool.
"""

from __future__ import annotations

import ast
from typing import Iterable, Set

from ..engine import FileContext, Finding, Rule
from .asserts import _is_test_file

__all__ = ["ParallelSafetyRule"]

#: Method names that mutate a container in place.
_MUTATORS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear",
})

#: Module-level constructor names whose instances are deliberately
#: process-local (merged explicitly by the executor); mutation is fine.
_OBS_CONSTRUCTORS = frozenset({"Counter", "Histogram", "Gauge"})

#: Process-wide switch flippers (repro.obs.core / repro.check.contracts).
_STATE_FLIPPERS = frozenset({"set_enabled"})

#: The executor implements the pool itself; its own bookkeeping is exempt.
_EXEMPT_SUFFIXES = ("analysis/executor.py", "obs/core.py", "obs/export.py")


def _dotted(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    return ""


def _needs_pickling(call: ast.Call) -> bool:
    """True when the submitting call requests worker processes."""
    for kw in call.keywords:
        if kw.arg == "workers":
            v = kw.value
            if isinstance(v, ast.Constant) and v.value == 0:
                return False
            return True
    return False  # workers omitted: the default is the inline serial path


class ParallelSafetyRule(Rule):
    rule_id = "R008"
    severity = "error"
    description = (
        "callable submitted to the process pool is not module-level/"
        "picklable, or worker-reachable code writes shared state"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        project = ctx.project
        if project is None or _is_test_file(ctx.path):
            return
        posix = ctx.path.replace("\\", "/")
        exempt = posix.endswith(_EXEMPT_SUFFIXES)

        submissions = project.submitted_callables()
        roots = []
        for site, arg, resolved in submissions:
            if resolved is not None and not resolved.nested:
                roots.append(resolved.qualname)
            if site.path != ctx.path or exempt:
                continue
            if not _needs_pickling(site.node):
                continue
            if isinstance(arg, ast.Lambda):
                yield self.finding(
                    ctx,
                    arg,
                    "lambda submitted to the worker pool is not picklable; "
                    "define a module-level function",
                )
            elif resolved is not None and resolved.nested:
                yield self.finding(
                    ctx,
                    site.node,
                    f"nested function '{resolved.name}' submitted to the "
                    f"worker pool is not picklable; move it to module level",
                )

        if exempt:
            return
        reachable = project.reachable_from(roots)
        for fn in project.functions_in(ctx.path):
            if fn.qualname not in reachable:
                continue
            yield from self._check_worker_body(ctx, fn)

    def _check_worker_body(self, ctx: FileContext, fn) -> Iterable[Finding]:
        project = ctx.project
        global_names: Set[str] = set()
        module_globals = project.module_globals(fn.path)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Global):
                global_names.update(node.names)
        for node in ast.walk(fn.node):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in global_names:
                    yield self.finding(
                        ctx,
                        node,
                        f"worker-reachable function '{fn.name}' rebinds "
                        f"module global '{target.id}'; worker processes "
                        f"each mutate their own copy and results diverge "
                        f"from the serial path",
                    )
                if (
                    isinstance(target, ast.Subscript)
                    and _dotted(target.value) in ("os.environ",)
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"worker-reachable function '{fn.name}' writes "
                        f"os.environ; per-worker environment mutation is "
                        f"invisible to the parent and other workers",
                    )
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in module_globals
                    and not self._is_obs_instrument(
                        project, fn.path, target.value.id
                    )
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"worker-reachable function '{fn.name}' writes into "
                        f"module-level container '{target.value.id}'; "
                        f"worker-local mutations are lost when the process "
                        f"exits and never reach the other workers",
                    )
            if isinstance(node, ast.Call):
                callee = node.func
                if (
                    isinstance(callee, ast.Attribute)
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id in module_globals
                    and callee.attr in _MUTATORS
                    and not self._is_obs_instrument(
                        project, fn.path, callee.value.id
                    )
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"worker-reachable function '{fn.name}' mutates "
                        f"module-level container '{callee.value.id}' via "
                        f".{callee.attr}(); shared-state writes do not "
                        f"propagate across worker processes",
                    )
                name = callee.attr if isinstance(callee, ast.Attribute) else (
                    callee.id if isinstance(callee, ast.Name) else None
                )
                if name in _STATE_FLIPPERS:
                    yield self.finding(
                        ctx,
                        node,
                        f"worker-reachable function '{fn.name}' flips the "
                        f"process-wide '{name}' switch; enable obs/contracts "
                        f"in the parent (the env var is inherited) instead",
                    )

    @staticmethod
    def _is_obs_instrument(project, path: str, name: str) -> bool:
        ctor = project.module_global_constructors(path).get(name)
        return ctor in _OBS_CONSTRUCTORS

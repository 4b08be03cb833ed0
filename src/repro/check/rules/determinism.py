"""R009 — nondeterminism sources inside engine-reachable compute.

The differential guarantees of the test suite (serial ≡ parallel
campaigns, dirty-path ≡ full-pass ARD, reference ≡ batched kernels) are
*bit-identical* claims.  They die the moment engine-reachable compute
consults anything that varies between runs:

* the **module-level RNG** (``random.random()``, ``np.random.rand()``,
  ``np.random.default_rng()`` with no seed) — salt- and call-order-
  dependent; use an explicitly seeded ``random.Random(seed)`` /
  ``default_rng(seed)`` instance threaded through the call chain;
* **``id()``-based ordering** — CPython addresses change run to run, so a
  sort key or comparison involving ``id()`` makes frontiers and pruning
  order irreproducible (flagged anywhere in library code, not just in
  engine-reachable functions);
* **environment/clock reads** (``os.environ``, ``os.getenv``,
  ``time.time``/``perf_counter``, ``datetime.now``) inside functions
  reachable from the timing-engine entry points — results must be a pure
  function of the tree, the technology and the evaluation context.

"Engine-reachable" is the call-graph closure from every
``TimingEngine``-shaped class method (classes defining ``path_delay``)
plus the optimizer entry points (``insert_repeaters``, ``ard``,
``compute_ard``, ``ard_bruteforce``).  The observability and check layers
are exempt — measuring wall-clock is their job — as is the executor.

Test and benchmark files get a narrower audit instead of a blanket
exemption: the differential corpora (``tests/test_flat_differential.py``
and friends) promise to be re-runnable from a single base seed, so any
*global-state* RNG use there — ``random.random()``, legacy
``np.random.*``, a seedless ``default_rng()`` — breaks the promise and is
flagged.  Clock reads, ``os.environ`` and ``id()`` ordering stay allowed
in tests (timing assertions and monkeypatching are their business).
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Set

from ..engine import FileContext, Finding, Rule
from .asserts import _is_test_file

__all__ = ["DeterminismRule"]

#: Optimizer entry points whose closure counts as engine-reachable.
_ENTRY_FUNCTIONS = frozenset({
    "insert_repeaters", "ard", "compute_ard", "ard_bruteforce",
})

#: ``random.<fn>`` calls on the shared module-level RNG.
_PY_RANDOM = frozenset({
    "random", "randint", "uniform", "choice", "choices", "shuffle",
    "sample", "randrange", "getrandbits", "gauss", "betavariate",
    "expovariate", "normalvariate", "seed",
})

#: ``np.random.<fn>`` legacy global-state API.
_NP_RANDOM = frozenset({
    "random", "rand", "randn", "randint", "choice", "shuffle",
    "permutation", "normal", "uniform", "seed",
})

#: Clock/environment reads that vary between runs.
_IMPURE_READS = frozenset({
    "time.time", "time.perf_counter", "time.monotonic",
    "time.process_time", "time.time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "os.getenv",
})

_EXEMPT_SUFFIXES = (
    "analysis/executor.py", "obs/core.py", "obs/export.py",
    "check/contracts.py",
)


def _dotted(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    return None


def _contains_id_call(node: ast.AST) -> Optional[ast.Call]:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "id"
        ):
            return sub
    return None


class DeterminismRule(Rule):
    rule_id = "R009"
    severity = "warning"
    description = (
        "nondeterminism source (unseeded RNG, id() ordering, env/clock "
        "read) in engine-reachable compute"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if _is_test_file(ctx.path):
            yield from self._check_test_rng(ctx)
            return
        posix = ctx.path.replace("\\", "/")
        if posix.endswith(_EXEMPT_SUFFIXES):
            return
        yield from self._check_id_ordering(ctx)
        project = ctx.project
        if project is None:
            return
        reachable = self._engine_reachable(project)
        for fn in project.functions_in(ctx.path):
            if fn.qualname not in reachable:
                continue
            yield from self._check_impure(ctx, fn)

    # -- test/benchmark corpora: global-state RNG only ------------------------

    def _check_test_rng(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if len(parts) == 2 and parts[0] == "random" and parts[1] in _PY_RANDOM:
                yield self.finding(
                    ctx,
                    node,
                    f"test corpus uses the module-level RNG "
                    f"random.{parts[1]}(); derive every draw from a seeded "
                    f"random.Random(seed) so the corpus replays from one "
                    f"base seed",
                )
            elif (
                len(parts) >= 3
                and parts[-2] == "random"
                and parts[-1] in _NP_RANDOM
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"test corpus uses the legacy numpy global RNG "
                    f".random.{parts[-1]}(); use np.random.default_rng(seed)",
                )
            elif parts[-1] == "default_rng" and not (node.args or node.keywords):
                yield self.finding(
                    ctx,
                    node,
                    "test corpus creates an OS-entropy default_rng(); pass "
                    "an explicit seed so the corpus is reproducible",
                )

    # -- id()-based ordering: flagged anywhere in library code ----------------

    def _check_id_ordering(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in ("sorted", "min", "max"):
                    for kw in node.keywords:
                        if kw.arg == "key" and _contains_id_call(kw.value):
                            yield self.finding(
                                ctx,
                                node,
                                "id() used as an ordering key; CPython "
                                "object addresses differ between runs — "
                                "sort on a stable attribute instead",
                            )
            if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                for op in node.ops
            ):
                # membership (``id(t) in seen``) is identity tracking and
                # deterministic; only *ordering* on addresses is flagged
                operands = [node.left, *node.comparators]
                if any(
                    isinstance(op, ast.Call)
                    and isinstance(op.func, ast.Name)
                    and op.func.id == "id"
                    for op in operands
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "comparison on id(); object addresses are not "
                        "stable across interpreter runs",
                    )

    # -- engine-reachable closure ----------------------------------------------

    @staticmethod
    def _engine_reachable(project) -> Set[str]:
        roots = []
        for cls in project.classes.values():
            if cls.is_protocol or "path_delay" not in cls.methods:
                continue
            roots.extend(m.qualname for m in cls.methods.values())
        for name in _ENTRY_FUNCTIONS:
            roots.extend(f.qualname for f in project.by_simple_name(name))
        return project.reachable_from(roots)

    def _check_impure(self, ctx: FileContext, fn) -> Iterable[Finding]:
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted is None:
                    continue
                parts = dotted.split(".")
                if (
                    len(parts) == 2
                    and parts[0] == "random"
                    and parts[1] in _PY_RANDOM
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"engine-reachable function '{fn.name}' calls the "
                        f"module-level RNG random.{parts[1]}(); thread a "
                        f"seeded random.Random(seed) instance instead",
                    )
                elif (
                    len(parts) >= 3
                    and parts[-2] == "random"
                    and parts[-1] in _NP_RANDOM
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"engine-reachable function '{fn.name}' uses the "
                        f"legacy numpy global RNG .random.{parts[-1]}(); "
                        f"use np.random.default_rng(seed)",
                    )
                elif parts[-1] == "default_rng" and not (
                    node.args or node.keywords
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"engine-reachable function '{fn.name}' creates an "
                        f"OS-entropy default_rng(); pass an explicit seed",
                    )
                elif dotted in _IMPURE_READS:
                    yield self.finding(
                        ctx,
                        node,
                        f"engine-reachable function '{fn.name}' reads the "
                        f"clock/environment ({dotted}); engine results must "
                        f"be a pure function of tree, technology and "
                        f"context",
                    )
            elif isinstance(node, ast.Attribute):
                if _dotted(node) == "os.environ":
                    yield self.finding(
                        ctx,
                        node,
                        f"engine-reachable function '{fn.name}' reads "
                        f"os.environ; pass configuration through "
                        f"EvalContext/options instead",
                    )

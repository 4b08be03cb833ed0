"""The ledger's four workloads.

Each workload builds its inputs in ``setup()``, runs timed operations in
``measure(seconds)`` and checks every answer in ``verify()``, after the
clock has stopped.

Each visits a fixed corpus in whole passes, in an order drawn from the
seed.  Per-net cost varies by more than 10x, so a
corpus drawn from the seed would move the medians by more than any bound
a regression check could use; a fixed corpus makes runs with different
seeds measure the same work.

``measure`` returns ``(item, seconds, yardstick_seconds)`` samples: the
corpus item, the operation's time, and the time the ``yardstick`` loop
took just before it.  ``run.py`` scales each time by the yardstick and
takes each item's median before taking quantiles (see its docstring).

Answers are checked against the reference Fig. 2 ARD pass, which shares
no code with the DP: every root solution's ARD is re-evaluated on the net
with its repeater assignment and the 1X terminal stages the DP prices.
``Serve`` also checks each edit reply against another ARD engine.
"""

from __future__ import annotations

import json
import random
import statistics
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.campaign import CampaignConfig, run_campaign
from repro.core.ard import ard
from repro.core.msri import insert_repeaters
from repro.core.msri_cache import MSRICache
from repro.io.serialize import (
    ard_result_to_dict,
    terminal_to_dict,
    tree_from_dict,
    tree_to_dict,
)
from repro.netgen import (
    fixed_1x_option,
    paper_instance,
    paper_net_spec,
    paper_technology,
    random_points,
    repeater_insertion_options,
)
from repro.rctree.engine import EvalContext
from repro.rctree.registry import make_editable_engine
from repro.serve.loadgen import ServeClient, edit_stream
from repro.serve.server import start_in_thread
from repro.serve.session import apply_edit
from repro.steiner import synthesize_topology
from repro.tech import Terminal
from repro.tech.buffers import Repeater

TECH = paper_technology()


def _loop_seconds() -> float:
    t0 = time.perf_counter()
    counts: Dict[int, int] = {}
    total = 0
    for i in range(4000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        total += i * i % 7
    return time.perf_counter() - t0


def yardstick() -> float:
    """Seconds a fixed pure-Python loop takes now (median of three runs):
    the host's speed.

    Shared hosts change speed by up to 1.6x for seconds to minutes at a
    time; the program's operations slow with this loop, so their ratio
    to it stays put while either alone drifts.
    """
    return statistics.median(_loop_seconds() for _ in range(3))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def _dressed(tree):
    """The net with every terminal wearing the 1X stage the DP prices."""
    stage = fixed_1x_option()
    data = tree_to_dict(tree)
    for entry, node in zip(data["nodes"], tree.nodes):
        if node.terminal is not None:
            entry["terminal"] = terminal_to_dict(stage.applied_to(node.terminal))
    return tree_from_dict(data)


def _root_front_ok(result, tree) -> bool:
    """The suite is a (cost, ARD) front and each ARD is the reference ARD."""
    sols = result.solutions
    if not sols or sols[0].repeater_count() != 0:
        return False
    for a, b in zip(sols, sols[1:]):
        if not (a.cost < b.cost and a.ard > b.ard):
            return False
    net = _dressed(tree)
    for s in sols:
        reps = {
            k: v for k, v in s.assignment().items() if isinstance(v, Repeater)
        }
        reference = ard(net, TECH, context=EvalContext(assignment=reps)).value
        if not _close(s.ard, reference):
            return False
    return True


class Sequential:
    """Whole passes over a fixed corpus, one timed operation per item."""

    def __init__(self, seed: int):
        self.seed = seed
        self.items: List[Any] = []
        self.order: List[int] = []
        self.answers: List[Tuple[int, Any]] = []
        self.errors = 0

    def build(self) -> Tuple[List[Any], Any]:
        """The corpus and a small item that warms first-call paths."""
        raise NotImplementedError

    def run(self, item: Any) -> Any:
        raise NotImplementedError

    def check(self, item: Any, answer: Any, first: Optional[Any]) -> bool:
        """Check one answer; ``first`` is this item's first answer, already
        checked in full, or None for the first answer itself."""
        raise NotImplementedError

    def prime(self) -> None:
        """Untimed work between the last set-up and ``measure``."""

    def close(self) -> None:
        """Stop whatever ``setup`` started."""

    def setup(self) -> None:
        self.close()
        self.items, warmup = self.build()
        self.order = list(range(len(self.items)))
        random.Random(self.seed).shuffle(self.order)
        self.run(warmup)

    def measure(self, seconds: float) -> List[Tuple[int, float, float]]:
        samples: List[Tuple[int, float, float]] = []
        self.answers = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for k in self.order:
                yard = yardstick()
                t0 = time.perf_counter()
                try:
                    answer = self.run(self.items[k])
                except Exception:  # noqa: BLE001 - counted as a failed op
                    traceback.print_exc()
                    self.errors += 1
                else:
                    self.answers.append((k, answer))
                samples.append((k, time.perf_counter() - t0, yard))
        return samples

    def verify(self) -> int:
        failed = self.errors
        first: Dict[int, Any] = {}
        for k, answer in self.answers:
            ok = self.check(self.items[k], answer, first.get(k))
            if k not in first:
                first[k] = answer if ok else None
            failed += not ok
        return failed


class Optimize(Sequential):
    """``insert_repeaters`` plus a Problem 2.1 query on Table II-IV nets.

    The paper's protocol (1 cm grid, Steiner topology, insertion points at
    <= 800 um, 1X repeater pair) at 5 pins: the exact 10-pin DP takes
    seconds per net in pure Python.
    """

    PINS = 5
    NETS = 10
    OPTIONS = repeater_insertion_options()

    @staticmethod
    def _item(tree):
        # a spec the min-cost net misses, so the query has work to do
        return tree_to_dict(tree), 0.85 * ard(_dressed(tree), TECH).value

    def build(self):
        items = [self._item(paper_instance(i, self.PINS)) for i in range(self.NETS)]
        return items, self._item(paper_instance(0, 3))

    def run(self, item):
        net, spec = item
        result = insert_repeaters(tree_from_dict(net), TECH, self.OPTIONS)
        return result, result.min_cost_meeting(spec)

    def check(self, item, answer, first):
        net, spec = item
        result, chosen = answer
        if first is not None:
            pick = lambda s: None if s is None else (s.cost, s.ard)  # noqa: E731
            return (first[0].tradeoff(), pick(first[1])) == (
                result.tradeoff(), pick(chosen),
            )
        cheaper = result.solutions
        if chosen is not None:
            if chosen.ard > spec:
                return False
            cheaper = [s for s in cheaper if s.cost < chosen.cost]
        if any(s.ard <= spec for s in cheaper):
            return False
        return _root_front_ok(result, tree_from_dict(net))


class Campaign(Sequential):
    """``run_campaign``: one net swept over two insertion spacings, both
    optimization modes per job, inline (no worker processes)."""

    PINS = 4
    NETS = 8
    SPACINGS = (800.0, 1600.0)

    def build(self):
        items = [
            CampaignConfig(
                seeds=(i,), sizes=(self.PINS,), spacings=self.SPACINGS,
                label=f"ledger-{i}",
            )
            for i in range(self.NETS)
        ]
        return items, CampaignConfig(seeds=(0,), sizes=(3,), spacing=1600.0)

    @staticmethod
    def _values(campaign):
        return [
            (r.seed, r.spacing, r.base_ard, r.sizing_min_ard,
             r.sizing_min_ard_cost, r.rep_min_ard, r.rep_min_ard_cost,
             r.rep_cost_at_sizing_ard)
            for r in campaign.results
        ]

    def run(self, item):
        return run_campaign(item, workers=0)

    def check(self, item, answer, first):
        if answer.failures or len(answer.results) != len(self.SPACINGS):
            return False
        if first is not None:
            return self._values(first) == self._values(answer)
        for r in answer.results:
            tree = paper_instance(r.seed, self.PINS, r.spacing)
            if not (
                r.base_cost == 2 * self.PINS
                and r.rep_min_ard <= r.base_ard
                and r.sizing_min_ard <= r.base_ard
                and _close(r.base_ard, ard(_dressed(tree), TECH).value)
            ):
                return False
        return True


class Synthesis(Sequential):
    """``synthesize_topology(objective="msri")``: each candidate topology is
    scored by its optimized ARD through a fresh subtree-front cache."""

    PINS = 8
    SETS = 10
    MOVES = 3
    OPTIONS = repeater_insertion_options(quantize_bound=True)

    @staticmethod
    def _terminals(seed: int, pins: int) -> List[Terminal]:
        spec = paper_net_spec()
        return [
            Terminal(
                f"p{i}", x, y,
                capacitance=spec.capacitance,
                resistance=spec.resistance,
                intrinsic_delay=spec.intrinsic_delay,
            )
            for i, (x, y) in enumerate(random_points(seed, pins))
        ]

    def build(self):
        items = [self._terminals(s, self.PINS) for s in range(self.SETS)]
        return items, self._terminals(0, 4)

    def run(self, item):
        return synthesize_topology(
            item,
            TECH,
            objective="msri",
            msri_options=self.OPTIONS,
            msri_cache=MSRICache(),
            max_iterations=self.MOVES,
        )

    def check(self, item, answer, first):
        if first is not None:
            return (first.terminal_edges, first.ard) == (
                answer.terminal_edges, answer.ard,
            )
        history = answer.history
        if any(b > a for a, b in zip(history, history[1:])):
            return False
        cold = insert_repeaters(answer.tree, TECH, self.OPTIONS)
        # the cached search promises the cold DP's value bit for bit
        same = cold.min_ard().ard == answer.ard  # repro: noqa[R001] bit identity
        return same and _root_front_ok(cold, answer.tree)


class Serve(Sequential):
    """One client's turns against the serve daemon over TCP.

    The daemon runs in a thread of this process (``start_in_thread``, the
    program's own harness) with one session per Table II-IV net.  A turn
    on a session sends its next ``EDITS`` frames from the program's seeded
    edit generator, ``edit_stream``, then one ``optimize`` frame.  Edits
    leave the session's opened net alone, so after a session's first turn
    every ``optimize`` is answered from the manager-wide subtree-front
    cache: the serve path measured here is codec, dispatch, the
    incremental ARD engine, and cache lookup and unpacking.

    Each edit reply is checked against a replay of the sent frames on a
    ``flat`` engine (the daemon runs ``incremental``); each ``optimize``
    reply against a cold ``insert_repeaters`` on the net.
    """

    PINS = 5
    NETS = 6
    EDITS = 4
    #: edits drawn from ``edit_stream`` at a time
    CHUNK = 1000

    def __init__(self, seed: int):
        super().__init__(seed)
        self.stop = None
        self.client: Optional[ServeClient] = None
        self.sessions: Dict[int, Dict[str, Any]] = {}
        self.replays: Dict[int, Any] = {}
        self.primed: List[Tuple[int, Any]] = []

    def _top_up(self, k: int) -> None:
        """Append the session's next chunk of seeded edits.

        ``edit_stream`` starts from the opened root, so a chunk that
        reroots the net ends with a reroot back to it.
        """
        session = self.sessions[k]
        tree = session["tree"]
        seed = (self.seed * 1000 + k) * 1000 + len(session["edits"]) // self.CHUNK
        chunk = edit_stream(seed, tree, self.CHUNK)
        roots = [e["node"] for e in chunk if e["edit"] == "reroot"]
        if roots and roots[-1] != tree.root:
            chunk.append({"edit": "reroot", "node": tree.root})
        session["edits"].extend(chunk)

    def _open(self, k: int, tree) -> int:
        sid = self.client.check("open", net=tree_to_dict(tree))["session"]
        self.sessions[k] = {"sid": sid, "tree": tree, "sent": 0, "edits": []}
        return k

    def build(self):
        server, self.stop = start_in_thread()
        self.client = ServeClient("127.0.0.1", server.port)
        self.sessions = {}
        self.replays = {}
        items = [
            self._open(k, paper_instance(k, self.PINS)) for k in range(self.NETS)
        ]
        return items, self._open(self.NETS, paper_instance(0, 3))

    def run(self, k):
        session = self.sessions[k]
        start = session["sent"]
        while len(session["edits"]) < start + self.EDITS:
            self._top_up(k)
        edits = session["edits"][start:start + self.EDITS]
        session["sent"] = start + self.EDITS
        replies = [
            self.client.request("edit", session=session["sid"], **edit)
            for edit in edits
        ]
        optimized = self.client.request("optimize", session=session["sid"])
        return edits, replies, optimized

    def prime(self) -> None:
        # one turn per session fills the cache, so every timed turn is warm
        self.primed = [(k, self.run(k)) for k in self.order]

    def measure(self, seconds: float) -> List[Tuple[int, float, float]]:
        samples = super().measure(seconds)
        self.answers = self.primed + self.answers
        return samples

    def check(self, k, answer, first):
        edits, replies, optimized = answer
        tree = self.sessions[k]["tree"]
        local = self.replays.get(k)
        if local is None:
            local = self.replays[k] = make_editable_engine("flat", tree, TECH)
        ok = optimized.get("ok", False)
        for edit, reply in zip(edits, replies):
            try:
                apply_edit(local, edit)
            except (ValueError, TypeError):  # the stream holds no bad edit
                return False
            expected = ard_result_to_dict(local.evaluate())
            ok = ok and reply.get("ok", False) and (
                json.dumps(reply["ard"], sort_keys=True)
                == json.dumps(expected, sort_keys=True)
            )
        if not ok:
            return False
        if first is not None:
            return first[2]["tradeoff"] == optimized["tradeoff"]
        cold = insert_repeaters(tree, TECH, repeater_insertion_options())
        tradeoff = [{"cost": c, "ard": a} for c, a in cold.tradeoff()]
        return optimized["tradeoff"] == tradeoff and _root_front_ok(cold, tree)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.stop is not None:
            self.stop()
            self.stop = None


WORKLOADS = {
    "optimize": Optimize,
    "campaign": Campaign,
    "synthesis": Synthesis,
    "serve": Serve,
}

"""FlatARDEngine behaviour: protocol, mutation ops, engine choice, batch.

The differential suite (``test_flat_differential.py``) locks down numeric
identity; this module covers the engine *surface*: the TimingEngine
protocol, dirty-path mutation parity against a freshly built engine on the
edited net, choosing an engine by object (and the one ``"flat"`` name),
and the batch front-end.  Deterministic net builders only, so the whole
module also runs on the without-numpy CI leg.
"""

from __future__ import annotations

import dataclasses
import importlib.util

import pytest

from repro.check import contracts
from repro.core.ard import ard
from repro.netgen.random_nets import chain_net, star_net
from repro.netgen.workloads import (
    paper_net_spec,
    paper_repeater_library,
    paper_technology,
)
from repro.rctree.elmore import ElmoreAnalyzer
from repro.rctree.engine import EditableEngine, EvalContext
from repro.rctree.flat import FlatARDEngine, evaluate_batch
from repro.rctree.registry import make_editable_engine

TECH = paper_technology()


def _net(kind: str = "chain", n: int = 6):
    if kind == "chain":
        return chain_net(n, paper_net_spec())
    return star_net(n, paper_net_spec())


def _rep(k: int = 0):
    return paper_repeater_library().oriented_options()[k]


class TestEngineProtocol:
    def test_engine_surface(self):
        tree = _net()
        engine = FlatARDEngine(tree, TECH)
        assert engine.tree is tree
        assert engine.technology is TECH
        assert engine.assignment == {}
        result = engine.evaluate()
        assert engine.evaluate() is result  # cached until edited

    def test_evaluate_rejects_foreign_tree(self):
        engine = FlatARDEngine(_net(), TECH)
        with pytest.raises(ValueError):
            engine.evaluate(_net("star", 4))

    def test_context_roundtrip(self):
        tree = _net()
        idx = tree.insertion_indices()[0]
        ctx = EvalContext(assignment={idx: _rep()}, wire_widths={1: 2.0})
        engine = FlatARDEngine(tree, TECH, context=ctx)
        got = engine.context
        assert got.assignment == {idx: _rep()}
        assert got.wire_widths == {1: 2.0}
        assert got.include_companion_cap is False


def _rebuilt(engine, tree):
    """A freshly compiled engine posing the edited engine's problem."""
    return FlatARDEngine(tree, TECH, context=engine.context)


class TestMutationParity:
    """Every mutation op, evaluated on the dirty path, stays bit-identical
    to an engine compiled from scratch on the edited net."""

    def test_assignment_edit_sequence(self):
        tree = _net("chain", 10)
        flat = FlatARDEngine(tree, TECH)
        points = tree.insertion_indices()
        script = [
            (points[0], _rep(0)),
            (points[3], _rep(1 % len(paper_repeater_library().oriented_options()))),
            (points[0], None),
            (points[5], _rep(0)),
        ]
        with contracts.checking():
            for idx, rep in script:
                flat.set_assignment(idx, rep)
                fresh = _rebuilt(flat, tree).evaluate()
                assert flat.evaluate().value == fresh.value, (idx, rep)

    def test_terminal_and_width_edits(self):
        tree = _net("star", 5)
        flat = FlatARDEngine(tree, TECH)
        t_idx = tree.terminal_indices()[1]
        new_term = dataclasses.replace(
            tree.node(t_idx).terminal, arrival_time=42.0, capacitance=0.11
        )
        with contracts.checking():
            flat.set_terminal(t_idx, new_term)
            assert flat.evaluate().value == flat.fresh_result().value
            edge = [i for i in range(len(tree)) if i != tree.root][1]
            flat.set_wire_width(edge, 2.5)
            assert flat.evaluate().value == flat.fresh_result().value
            flat.set_wire_width(edge, None)
            assert flat.evaluate().value == flat.fresh_result().value

    def test_wire_scale_edits(self):
        tree = _net("chain", 8)
        flat = FlatARDEngine(tree, TECH)
        flat.evaluate()
        with contracts.checking():
            flat.set_wire_scale(resistance_factor=1.2, capacitance_factor=0.9)
            assert flat.evaluate().value == flat.fresh_result().value

    def test_fresh_result_matches_cached(self):
        tree = _net("chain", 10)
        engine = FlatARDEngine(tree, TECH, include_timing=True)
        engine.set_assignment(tree.insertion_indices()[2], _rep())
        cached = engine.evaluate()
        fresh = engine.fresh_result()
        assert fresh.value == cached.value
        assert (fresh.source, fresh.sink) == (cached.source, cached.sink)


class TestRegistry:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_editable_engine("nope", _net(), TECH)

    def test_all_engines_agree_on_value(self):
        tree = _net("chain", 8)
        ref = ard(tree, TECH).value
        for engine in (ElmoreAnalyzer(tree, TECH), FlatARDEngine(tree, TECH)):
            assert engine.evaluate(tree).value == ref, type(engine).__name__

    def test_factory_builds_per_tree_engines(self):
        from repro.steiner.topology_search import synthesize_topology
        from repro.tech.terminals import Terminal

        spec = paper_net_spec()
        terminals = [
            Terminal(
                f"p{i}", x, y,
                capacitance=spec.capacitance,
                resistance=spec.resistance,
                intrinsic_delay=spec.intrinsic_delay,
            )
            for i, (x, y) in enumerate(
                [(0.0, 0.0), (900.0, 300.0), (400.0, 1200.0), (1500.0, 800.0)]
            )
        ]
        built = []

        def factory(tree):
            built.append(tree)
            return FlatARDEngine(tree, TECH)

        result = synthesize_topology(terminals, TECH, engine_factory=factory)
        # one engine per scored candidate tree, each bound to its own tree
        assert len(built) == result.evaluations
        assert len({id(t) for t in built}) == len(built)

    def test_editable_engine_protocol(self):
        tree = _net("chain", 4)
        assert isinstance(FlatARDEngine(tree, TECH), EditableEngine)
        assert isinstance(make_editable_engine("flat", tree, TECH), EditableEngine)
        assert not isinstance(ElmoreAnalyzer(tree, TECH), EditableEngine)

    def test_make_editable_engine_rejects_non_editable(self):
        tree = _net("chain", 4)
        engine = make_editable_engine("flat", tree, TECH)
        assert engine.evaluate().value == ard(tree, TECH).value
        for name in ("reference", "elmore"):
            with pytest.raises(ValueError, match="unknown engine"):
                make_editable_engine(name, tree, TECH)

    def test_flat_reroot_matches_incremental(self):
        """Reroot replays widths, scales and overrides, and the dirty path
        keeps agreeing with a fresh reference pass after it."""
        tree = _net("chain", 7)
        terms = list(tree.terminal_indices())
        fl = FlatARDEngine(tree, TECH)
        edges = [i for i in range(len(tree)) if tree.parent(i) is not None]
        fl.set_wire_width(edges[1], 2.0)
        fl.set_wire_scale(resistance_factor=1.2, capacitance_factor=0.8)
        fl.evaluate()
        fl.reroot(terms[-1])
        assert fl.tree.root == terms[-1]
        assert fl.evaluate().value == fl.fresh_result().value
        # edits keep agreeing after the structural change
        edges2 = [i for i in range(len(fl.tree))
                  if fl.tree.parent(i) is not None]
        fl.set_wire_width(edges2[0], 3.0)
        assert fl.evaluate().value == fl.fresh_result().value
        fl.reroot(terms[0])
        assert fl.evaluate().value == fl.fresh_result().value


class TestBatch:
    def _corpus(self):
        return [chain_net(n, paper_net_spec()) for n in (2, 5, 9)] + [
            star_net(n, paper_net_spec()) for n in (2, 6)
        ]

    def test_batch_contexts_validation(self):
        nets = self._corpus()
        with pytest.raises(ValueError, match="contexts length"):
            evaluate_batch(nets, TECH, contexts=[None] * (len(nets) - 1))

    def test_single_context_broadcasts(self):
        nets = self._corpus()
        idx_ok = [t.insertion_indices() for t in nets]
        ctx = EvalContext(include_companion_cap=True)
        assert idx_ok  # corpus sanity
        batch = evaluate_batch(nets, TECH, contexts=ctx)
        for tree, res in zip(nets, batch):
            assert res.value == ard(tree, TECH, context=ctx).value


@pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None,
    reason="monte_carlo_ard requires numpy",
)
class TestVariationIntegration:
    def test_monte_carlo_flat_matches_incremental(self):
        """The sweep's per-sample edits, evaluated on the dirty path, equal
        the same sweep with every evaluation cross-checked bit-for-bit
        against a fresh reference pass."""
        from repro.analysis.variation import monte_carlo_ard

        tree = _net("chain", 8)
        rep = {tree.insertion_indices()[1]: _rep()}
        with contracts.checking(False):
            a = monte_carlo_ard(tree, TECH, rep, samples=8, seed=3)
        with contracts.checking():
            b = monte_carlo_ard(tree, TECH, rep, samples=8, seed=3)
        assert a.samples == b.samples
        assert a.nominal == b.nominal

"""FlatARDEngine behaviour: protocol, mutation ops, cache, registry, batch.

The differential suite (``test_flat_differential.py``) locks down numeric
identity; this module covers the engine *surface*: the TimingEngine
protocol, dirty-path mutation parity against a freshly built engine on the
edited net, the compile cache and canonical keys, the engine registry, and
the parallel batch front-end.  Deterministic net builders only, so the whole
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
from repro.rctree.engine import EvalContext
from repro.rctree.flat import (
    FlatARDEngine,
    FlatNetCache,
    canonical_net_key,
    evaluate_batch,
)
from repro.rctree.registry import engine_names, make_engine, resolve_engine_factory

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


class TestCanonicalKey:
    def test_same_topology_same_key(self):
        assert canonical_net_key(_net(), TECH) == canonical_net_key(_net(), TECH)

    def test_names_do_not_matter(self):
        tree = _net("star", 4)
        renamed_nodes = []
        for node in tree.nodes:
            if node.terminal is None:
                renamed_nodes.append(node)
            else:
                term = dataclasses.replace(
                    node.terminal, name=f"x{node.index}"
                )
                renamed_nodes.append(dataclasses.replace(node, terminal=term))
        from repro.rctree.topology import RoutingTree

        renamed = RoutingTree(
            renamed_nodes,
            [tree.parent(i) for i in range(len(tree))],
            [tree.edge_length(i) for i in range(len(tree))],
        )
        assert canonical_net_key(renamed, TECH) == canonical_net_key(tree, TECH)

    def test_key_sensitive_to_knobs(self):
        tree = _net("chain", 6)
        base = canonical_net_key(tree, TECH)
        idx = tree.insertion_indices()[0]
        with_rep = canonical_net_key(
            tree, TECH, EvalContext(assignment={idx: _rep()})
        )
        with_width = canonical_net_key(
            tree, TECH, EvalContext(wire_widths={1: 2.0})
        )
        assert len({base, with_rep, with_width}) == 3

    def test_key_sensitive_to_geometry(self):
        a = chain_net(4, paper_net_spec(), segment_length=200.0)
        b = chain_net(4, paper_net_spec(), segment_length=201.0)
        assert canonical_net_key(a, TECH) != canonical_net_key(b, TECH)


class TestCompileCache:
    def test_hit_miss_accounting(self):
        cache = FlatNetCache(maxsize=8)
        tree = _net("chain", 5)
        first = cache.get_or_compile(tree, TECH)
        again = cache.get_or_compile(tree, TECH)
        assert again is first
        assert (cache.hits, cache.misses) == (1, 1)
        equivalent = _net("chain", 5)  # same key, different object
        assert cache.get_or_compile(equivalent, TECH) is first
        assert (cache.hits, cache.misses) == (2, 1)

    def test_lru_eviction(self):
        cache = FlatNetCache(maxsize=2)
        trees = [chain_net(n, paper_net_spec()) for n in (3, 4, 5)]
        for t in trees:
            cache.get_or_compile(t, TECH)
        # tree 0 was evicted by tree 2; recompiling it is a miss
        cache.get_or_compile(trees[0], TECH)
        assert cache.misses == 4
        # tree 2 is still resident
        cache.get_or_compile(trees[2], TECH)
        assert cache.hits == 1


class TestRegistry:
    def test_engine_names_is_sorted_and_complete(self):
        names = engine_names()
        assert names == tuple(sorted(names))
        assert names == ("elmore", "flat", "reference")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_engine("nope", _net(), TECH)
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine_factory("nope", TECH)

    def test_all_engines_agree_on_value(self):
        tree = _net("chain", 8)
        ref = ard(tree, TECH).value
        for name in engine_names():
            engine = make_engine(name, tree, TECH)
            assert engine.evaluate(tree).value == ref, name

    def test_factory_builds_per_tree_engines(self):
        factory = resolve_engine_factory("flat", TECH)
        for tree in (_net("chain", 4), _net("star", 3)):
            assert factory(tree).evaluate(tree).value == ard(tree, TECH).value

    def test_editable_engine_protocol(self):
        from repro.rctree.engine import EditableEngine
        from repro.rctree.registry import editable_engine_names

        tree = _net("chain", 4)
        names = editable_engine_names()
        assert names == ("flat",)
        for name in names:
            engine = make_engine(name, tree, TECH)
            assert isinstance(engine, EditableEngine), name
        assert not isinstance(make_engine("reference", tree, TECH),
                              EditableEngine)

    def test_make_editable_engine_rejects_non_editable(self):
        from repro.rctree.registry import make_editable_engine

        tree = _net("chain", 4)
        engine = make_editable_engine("flat", tree, TECH)
        assert engine.evaluate().value == ard(tree, TECH).value
        with pytest.raises(ValueError, match="not editable"):
            make_editable_engine("reference", tree, TECH)
        with pytest.raises(ValueError, match="unknown engine"):
            make_editable_engine("nope", tree, TECH)

    def test_flat_reroot_matches_incremental(self):
        """Reroot replays widths, scales and overrides, and the dirty path
        keeps agreeing with a fresh reference pass after it."""
        tree = _net("chain", 7)
        terms = list(tree.terminal_indices())
        fl = make_engine("flat", tree, TECH)
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

    def test_greedy_accepts_engine_name(self):
        from repro.baselines.greedy import greedy_insertion

        tree = _net("chain", 6)
        lib = paper_repeater_library()
        by_name = greedy_insertion(tree, TECH, lib, engine="flat")
        by_default = greedy_insertion(tree, TECH, lib)
        assert [(s.cost, s.ard) for s in by_name] == [
            (s.cost, s.ard) for s in by_default
        ]


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

    def test_batch_uses_supplied_cache(self):
        nets = self._corpus()
        cache = FlatNetCache()
        evaluate_batch(nets, TECH, cache=cache)
        evaluate_batch(nets, TECH, cache=cache)
        assert cache.misses == len(nets)
        assert cache.hits == len(nets)


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
            b = monte_carlo_ard(tree, TECH, rep, samples=8, seed=3, engine="flat")
        assert a.samples == b.samples
        assert a.nominal == b.nominal

"""Edge-case corpus for the flat kernel: degenerate nets, depth stress,
role-less terminals and exact error parity with the reference engines.

Everything here is numpy-free by construction (deterministic net builders
only), so this module runs verbatim on the without-numpy CI leg.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.check import contracts
from repro.core.ard import ard
from repro.netgen.random_nets import NetSpec, chain_net, star_net
from repro.netgen.workloads import (
    paper_net_spec,
    paper_repeater_library,
    paper_technology,
)
from repro.rctree.builder import TreeBuilder
from repro.rctree.elmore import ElmoreAnalyzer
from repro.rctree.engine import EvalContext
from repro.rctree.flat import FlatARDEngine
from repro.rctree.incremental import EvalState
from repro.rctree.topology import Node, RoutingTree
from repro.tech.terminals import NEVER, Terminal

TECH = paper_technology()


def _term(name, x, y, **kw):
    spec = paper_net_spec()
    kw.setdefault("capacitance", spec.capacitance)
    kw.setdefault("resistance", spec.resistance)
    kw.setdefault("intrinsic_delay", spec.intrinsic_delay)
    return Terminal(name, x, y, **kw)


def _two_node_net(*, src_alpha=0.0, snk_alpha=0.0, snk_beta=0.0):
    builder = TreeBuilder()
    a = builder.add_terminal(_term("a", 0.0, 0.0, arrival_time=src_alpha))
    b = builder.add_terminal(
        _term("b", 1000.0, 0.0, arrival_time=snk_alpha, downstream_delay=snk_beta)
    )
    builder.connect(a, b)
    return builder.build(root=a)


def _flat(tree, context=None, **kw):
    return FlatARDEngine(tree, TECH, context=context, **kw)


def _with_terminals(tree, overrides):
    """The tree with terminal payloads replaced — an edit made static."""
    nodes = [
        Node(n.index, n.x, n.y, n.kind, overrides[n.index])
        if n.index in overrides
        else n
        for n in tree.nodes
    ]
    return RoutingTree(
        nodes,
        [tree.parent(i) for i in range(len(tree))],
        [tree.edge_length(i) for i in range(len(tree))],
    )


def _same_error(make_reference, make_flat):
    """Both constructors must fail with the same type and message."""
    with pytest.raises(Exception) as ref_info:
        make_reference()
    with pytest.raises(Exception) as flat_info:
        make_flat()
    assert type(flat_info.value) is type(ref_info.value), (
        flat_info.value,
        ref_info.value,
    )
    assert str(flat_info.value) == str(ref_info.value)


class TestDegenerateNets:
    def test_two_node_net_matches_reference(self):
        tree = _two_node_net()
        with contracts.checking():
            ref = ard(tree, TECH)
            res = _flat(tree, include_timing=True).evaluate()
        assert res.value == ref.value
        assert (res.source, res.sink) == (ref.source, ref.sink)
        assert res.timing == ref.timing

    def test_single_segment_chain(self):
        tree = chain_net(1, paper_net_spec())
        with contracts.checking():
            assert _flat(tree).evaluate().value == ard(tree, TECH).value

    @pytest.mark.parametrize("n_leaves", [2, 3, 17])
    def test_star_fanout(self, n_leaves):
        tree = star_net(n_leaves, paper_net_spec())
        with contracts.checking():
            ref = ard(tree, TECH)
            res = _flat(tree, include_timing=True).evaluate()
        assert res.value == ref.value
        assert res.timing == ref.timing

    def test_chain_with_repeaters(self):
        tree = chain_net(8, paper_net_spec())
        rep = paper_repeater_library().oriented_options()[0]
        assignment = {idx: rep for idx in tree.insertion_indices()[::2]}
        context = EvalContext(assignment=assignment)
        with contracts.checking():
            ref = ard(tree, TECH, context=context)
            res = _flat(tree, context).evaluate()
        assert res.value == ref.value


class TestDepthStress:
    def test_10k_node_path_graph_no_recursion_limit(self):
        """A 10k-segment chain is ~20x the default recursion limit; every
        traversal in the flat pipeline (compile, kernel, Eq. 2, timing
        table, path walk) must be iterative."""
        tree = chain_net(10_000, paper_net_spec())
        assert len(tree) > 10_000
        engine = _flat(tree, include_timing=True)
        ref = ard(tree, TECH)
        res = engine.evaluate()
        assert res.value == ref.value
        assert (res.source, res.sink) == (ref.source, ref.sink)
        head, tail = res.source, res.sink
        assert engine.path_delay(head, tail) == ElmoreAnalyzer(
            tree, TECH
        ).path_delay(head, tail)


class TestRolelessTerminals:
    def test_all_sinks_net_has_undefined_ard(self):
        tree = _two_node_net(src_alpha=NEVER, snk_alpha=NEVER)
        with contracts.checking():
            ref = ard(tree, TECH)
            res = _flat(tree).evaluate()
        assert res.value == ref.value == NEVER
        assert not res.is_finite
        assert (res.source, res.sink) == (ref.source, ref.sink) == (None, None)

    def test_all_sources_net_has_undefined_ard(self):
        spec = dataclasses.replace(paper_net_spec(), downstream_delay=NEVER)
        tree = star_net(3, spec)
        with contracts.checking():
            ref = ard(tree, TECH)
            res = _flat(tree).evaluate()
        assert res.value == ref.value == NEVER
        assert (res.source, res.sink) == (None, None)

    def test_mixed_roles_match_reference(self):
        spec = NetSpec()
        tree = star_net(4, spec)
        overrides = {}
        for k, idx in enumerate(tree.terminal_indices()):
            term = tree.node(idx).terminal
            if k % 2:
                overrides[idx] = term.as_sink_only()
            else:
                overrides[idx] = term.as_source_only()
        flat = _flat(tree, include_timing=True)
        flat.evaluate()  # role changes then run on the dirty path
        for idx, term in overrides.items():
            flat.set_terminal(idx, term)
        with contracts.checking():
            res = flat.evaluate()
            ref = ard(_with_terminals(tree, overrides), TECH)
        assert res.value == ref.value
        assert (res.source, res.sink) == (ref.source, ref.sink)
        assert res.timing == ref.timing


class TestErrorParity:
    """The flat compiler re-raises the EvalState validation errors verbatim,
    and path queries raise the reference analyzer's errors."""

    def _tree(self):
        return chain_net(4, paper_net_spec())

    def test_unknown_assignment_node(self):
        tree = self._tree()
        rep = paper_repeater_library().oriented_options()[0]
        ctx = EvalContext(assignment={999: rep})
        _same_error(
            lambda: EvalState(tree, TECH, ctx),
            lambda: _flat(tree, ctx),
        )

    def test_repeater_on_non_insertion_node(self):
        tree = self._tree()
        rep = paper_repeater_library().oriented_options()[0]
        ctx = EvalContext(assignment={tree.root: rep})
        _same_error(
            lambda: EvalState(tree, TECH, ctx),
            lambda: _flat(tree, ctx),
        )

    def test_assignment_value_not_a_repeater(self):
        tree = self._tree()
        idx = tree.insertion_indices()[0]
        ctx = EvalContext(assignment={idx: "not-a-repeater"})
        _same_error(
            lambda: EvalState(tree, TECH, ctx),
            lambda: _flat(tree, ctx),
        )

    def test_nonpositive_wire_width(self):
        tree = self._tree()
        ctx = EvalContext(wire_widths={1: 0.0})
        _same_error(
            lambda: EvalState(tree, TECH, ctx),
            lambda: _flat(tree, ctx),
        )

    def test_wire_width_on_root_is_not_an_edge(self):
        tree = self._tree()
        ctx = EvalContext(wire_widths={tree.root: 1.5})
        _same_error(
            lambda: EvalState(tree, TECH, ctx),
            lambda: _flat(tree, ctx),
        )

    def test_path_delay_error_parity(self):
        tree = self._tree()
        flat = _flat(tree)
        ref = ElmoreAnalyzer(tree, TECH)
        steiner_or_ip = tree.insertion_indices()[0]
        a, b = tree.terminal_indices()[:2]
        _same_error(
            lambda: ref.path_delay(steiner_or_ip, b),
            lambda: flat.path_delay(steiner_or_ip, b),
        )
        _same_error(
            lambda: ref.path_delay(a, a),
            lambda: flat.path_delay(a, a),
        )

    def test_path_delay_from_pure_sink(self):
        tree = _two_node_net(src_alpha=0.0)
        sink = [
            i
            for i in tree.terminal_indices()
            if i != tree.root
        ][0]
        term = tree.node(sink).terminal.as_sink_only()
        flat = _flat(tree)
        ref = ElmoreAnalyzer(_with_terminals(tree, {sink: term}), TECH)
        flat.set_terminal(sink, term)
        _same_error(
            lambda: ref.path_delay(sink, tree.root),
            lambda: flat.path_delay(sink, tree.root),
        )

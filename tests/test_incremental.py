"""Differential tests for dirty-root-path ARD and the TimingEngine API.

The load-bearing property: :class:`FlatARDEngine` re-runs its kernel over
the dirty root paths of each edit, and its kernel ports the Fig. 2 combine
step of the full :func:`compute_ard` pass, so after *any* edit sequence its
value and critical pair must equal a fresh full pass **bit for bit** — no
tolerances.  Independence from the shared algebra comes from the O(n²)
:func:`bruteforce_ard` / :meth:`ard_bruteforce` oracles, checked to float
tolerance.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.baselines.greedy import greedy_insertion
from repro.check import contracts
from repro.core.ard import ard, compute_ard
from repro.core.msri import MSRIOptions, insert_repeaters
from repro.netgen import paper_repeater_library, paper_technology, random_net
from repro.netgen.workloads import paper_net_spec
from repro.obs import core as obs
from repro.rctree import (
    ElmoreAnalyzer,
    EvalContext,
    FlatARDEngine,
    SlewAnalyzer,
    TimingEngine,
)
from repro.rctree.incremental import EvalState
from repro.rctree.topology import Node, NodeKind, RoutingTree
from repro.sim import SimulationEngine
from repro.tech import Repeater, Technology

from .conftest import make_terminal, random_topology, two_pin_net, y_net

TECH = Technology(unit_resistance=0.1, unit_capacitance=0.01, name="test")
PAPER_TECH = paper_technology()
OPTIONS = paper_repeater_library().oriented_options()


def shadow_with_overrides(tree, overrides):
    """The tree with terminal payloads replaced — the edit expressed statically."""
    nodes = []
    for n in tree.nodes:
        if n.kind is NodeKind.TERMINAL and n.index in overrides:
            nodes.append(Node(n.index, n.x, n.y, n.kind, overrides[n.index]))
        else:
            nodes.append(n)
    return RoutingTree(
        nodes,
        [tree.parent(i) for i in range(len(tree))],
        [tree.edge_length(i) for i in range(len(tree))],
    )


def full_pass(tree, context):
    return compute_ard(ElmoreAnalyzer(tree, PAPER_TECH, context=context))


class TestFreshBuild:
    def test_matches_compute_ard_bitwise(self):
        for seed in range(8):
            tree = random_net(seed, 8 + seed, paper_net_spec(), spacing=800.0)
            inc = FlatARDEngine(tree, PAPER_TECH).evaluate()
            full = full_pass(tree, EvalContext())
            assert inc.value == full.value
            assert (inc.source, inc.sink) == (full.source, full.sink)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            t = random_topology(rng, n_terminals=int(rng.integers(2, 8)))
            engine = FlatARDEngine(t, TECH)
            brute = ElmoreAnalyzer(t, TECH).ard_bruteforce()
            assert engine.evaluate().value == pytest.approx(brute, rel=1e-9)

    def test_empty_timing_table(self):
        res = FlatARDEngine(y_net(), TECH).evaluate()
        assert res.timing == {}
        assert res.is_finite


class TestRandomizedEditSequence:
    """A 250-mixed-edit differential: after *every* edit the dirty-path
    value and critical pair equal a fresh full pass exactly, and (sampled)
    the independent O(n²) brute force to tolerance.  Contracts stay off,
    so what is tested is the dirty path itself, not its runtime cross-check."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_edit_sequence_differential(self, seed):
        tree = random_net(seed, 12, paper_net_spec(), spacing=800.0)
        engine = FlatARDEngine(tree, PAPER_TECH)
        rng = random.Random(1000 + seed)
        insertion_points = list(tree.insertion_indices())
        terminals = list(tree.terminal_indices())
        edges = [i for i in range(len(tree)) if tree.parent(i) is not None]

        assignment, widths, overrides = {}, {}, {}
        for step in range(250):
            kind = rng.random()
            if kind < 0.4:
                idx = rng.choice(insertion_points)
                if idx in assignment and rng.random() < 0.4:
                    engine.set_assignment(idx, None)
                    assignment.pop(idx)
                else:
                    rep = rng.choice(OPTIONS)
                    engine.set_assignment(idx, rep)
                    assignment[idx] = rep
            elif kind < 0.7:
                edge = rng.choice(edges)
                w = rng.choice([0.5, 1.0, 2.0, 4.0])
                engine.set_wire_width(edge, w)
                widths[edge] = w
            else:
                t = rng.choice(terminals)
                base = tree.node(t).terminal
                override = dataclasses.replace(
                    base,
                    capacitance=base.capacitance * rng.choice([0.5, 1.0, 1.5]),
                    resistance=base.resistance * rng.choice([0.8, 1.0, 1.25]),
                )
                engine.set_terminal(t, override)
                overrides[t] = override

            with contracts.checking(False):
                inc = engine.evaluate()
                fresh = engine.fresh_result()
            assert (inc.value, inc.source, inc.sink) == (
                fresh.value, fresh.source, fresh.sink
            ), f"step {step}"
            shadow = shadow_with_overrides(tree, overrides)
            full = compute_ard(
                ElmoreAnalyzer(
                    shadow,
                    PAPER_TECH,
                    context=EvalContext(assignment=assignment, wire_widths=widths),
                )
            )
            assert inc.value == full.value, f"step {step}"
            assert (inc.source, inc.sink) == (full.source, full.sink), f"step {step}"
            if step % 25 == 0:
                brute = ElmoreAnalyzer(
                    shadow,
                    PAPER_TECH,
                    context=EvalContext(assignment=assignment, wire_widths=widths),
                ).ard_bruteforce()
                assert inc.value == pytest.approx(brute, rel=1e-9)

    def test_wire_width_accepts_wireclass(self):
        from repro.tech import WireClass

        t = two_pin_net()
        engine = FlatARDEngine(t, TECH)
        edge = next(i for i in range(len(t)) if t.parent(i) is not None)
        engine.set_wire_width(edge, WireClass("w2", width=2.0, cost_per_um=0.0))
        ref = ard(t, TECH, context=EvalContext(wire_widths={edge: 2.0}))
        assert engine.evaluate().value == ref.value
        engine.set_wire_width(edge, None)
        assert engine.evaluate().value == ard(t, TECH).value


class TestMutationOps:
    def test_reroot_matches_fresh_engine(self):
        for seed in range(3):
            tree = random_net(seed, 9, paper_net_spec(), spacing=800.0)
            engine = FlatARDEngine(tree, PAPER_TECH)
            baseline = engine.evaluate().value
            for new_root in tree.terminal_indices()[1:3]:
                engine2 = FlatARDEngine(tree, PAPER_TECH)
                engine2.reroot(new_root)
                fresh = FlatARDEngine(tree.rerooted(new_root), PAPER_TECH)
                a, b = engine2.evaluate(), fresh.evaluate()
                assert a.value == b.value
                assert (a.source, a.sink) == (b.source, b.sink)
                # the ARD is a property of the net, not of the rooting
                assert a.value == pytest.approx(baseline, rel=1e-9)

    def test_reroot_remaps_wire_widths(self):
        tree = y_net()
        other_root = next(
            i for i in tree.terminal_indices() if i != tree.root
        )
        widths = {
            i: 2.0 for i in range(len(tree)) if tree.parent(i) is not None
        }
        engine = FlatARDEngine(
            tree, TECH, context=EvalContext(wire_widths=widths)
        )
        engine.reroot(other_root)
        rerooted = tree.rerooted(other_root)
        ref_widths = {
            i: 2.0 for i in range(len(rerooted)) if rerooted.parent(i) is not None
        }
        ref = ard(rerooted, TECH, context=EvalContext(wire_widths=ref_widths))
        assert engine.evaluate().value == ref.value

    def test_set_wire_scale_matches_scaled_technology(self):
        tree = random_net(3, 10, paper_net_spec(), spacing=800.0)
        engine = FlatARDEngine(tree, PAPER_TECH)
        engine.set_wire_scale(resistance_factor=1.3, capacitance_factor=0.85)
        scaled = Technology(
            PAPER_TECH.unit_resistance * 1.3,
            PAPER_TECH.unit_capacitance * 0.85,
            name="scaled",
            extras=dict(PAPER_TECH.extras),
        )
        ref = compute_ard(ElmoreAnalyzer(tree, scaled))
        assert engine.evaluate().value == pytest.approx(ref.value, rel=1e-12)
        # scales are absolute: returning to 1.0 restores the nominal bitwise
        engine.set_wire_scale()
        assert engine.evaluate().value == ard(tree, PAPER_TECH).value

    def test_validation(self):
        tree = two_pin_net()
        engine = FlatARDEngine(tree, TECH)
        with pytest.raises(ValueError):
            engine.set_assignment(tree.root, OPTIONS[0])  # not an insertion node
        with pytest.raises(ValueError):
            engine.set_wire_width(tree.root, 2.0)  # root names no edge
        with pytest.raises(ValueError):
            engine.set_wire_width(3, 0.0)
        with pytest.raises(ValueError):
            engine.set_wire_scale(resistance_factor=-1.0)
        with pytest.raises(ValueError):
            engine.set_terminal(next(iter(tree.insertion_indices())),
                                make_terminal("x", 0, 0))


    def test_clear_assignment_rejects_unknown_node(self):
        tree = random_net(0, 5, paper_net_spec(), spacing=800.0)
        engine = FlatARDEngine(tree, PAPER_TECH)
        m = list(tree.insertion_indices())[-1]
        engine.set_assignment(m, OPTIONS[0])
        before = engine.evaluate()
        for bad in (len(tree), 999, -1):
            with pytest.raises(ValueError, match="unknown node"):
                engine.set_assignment(bad, None)
            with pytest.raises(ValueError, match="unknown node"):
                engine.set_assignment(bad, OPTIONS[0])
        # the rejected clears left the assignment and the answer alone
        assert engine.assignment == {m: OPTIONS[0]}
        after = engine.evaluate()
        fresh = engine.fresh_result()
        assert (after.value, after.source, after.sink) == (
            before.value, before.source, before.sink
        )
        assert (fresh.value, fresh.source, fresh.sink) == (
            before.value, before.source, before.sink
        )

    def test_path_delay_rejects_unknown_node(self):
        tree = y_net()
        engine = FlatARDEngine(tree, TECH)
        for bad in (len(tree), -1):
            with pytest.raises(ValueError, match="must be terminals"):
                engine.path_delay(bad, tree.root)
            with pytest.raises(ValueError, match="must be terminals"):
                engine.path_delay(tree.root, bad)


def _kernel_counts(engine, edit):
    """The ``flat.*`` counters and sweep lengths of one edit plus evaluate."""
    with obs.observing():
        obs.reset()
        edit(engine)
        engine.evaluate()
        snap = obs.snapshot(reset=True)
    counts = {
        k: int(v) for k, v in snap["counters"].items() if k.startswith("flat.")
    }
    path = snap["hists"].get("flat.refresh.path_length")
    if path is not None:  # [count, sum, min, max]
        counts["flat.refresh.path_length"] = int(path[1])
    return counts


class TestDirtyPath:
    """An edit re-sweeps its dirty root paths, not the tree."""

    def test_leaf_edit_sweeps_only_its_root_path(self):
        tree = random_net(3, 12, paper_net_spec(), spacing=800.0)
        engine = FlatARDEngine(tree, PAPER_TECH)
        full = _kernel_counts(engine, lambda e: None)
        assert full == {"flat.kernel.nodes": len(tree) - 1}

        leaf = next(t for t in tree.terminal_indices() if t != tree.root)
        depth = 0
        v = leaf
        while tree.parent(v) != tree.root:
            v = tree.parent(v)
            depth += 1
        base = tree.node(leaf).terminal
        heavier = dataclasses.replace(base, capacitance=base.capacitance * 3)
        counts = _kernel_counts(engine, lambda e: e.set_terminal(leaf, heavier))
        # a load change at a leaf moves every record up to the root, and
        # nothing else is swept: no full pass ran
        assert counts["flat.refresh.dirty_seeds"] == 1
        assert counts["flat.refresh.records_unchanged"] == 0
        assert counts["flat.refresh.path_length"] == depth + 1
        assert "flat.kernel.nodes" not in counts
        assert depth + 1 < len(tree) - 1

    def test_unchanged_record_stops_the_walk(self):
        tree = random_net(3, 12, paper_net_spec(), spacing=800.0)
        engine = FlatARDEngine(tree, PAPER_TECH)
        engine.evaluate()
        m = next(iter(tree.insertion_indices()))
        counts = _kernel_counts(engine, lambda e: e.set_assignment(m, None))
        assert counts["flat.refresh.records_unchanged"] == 1
        assert counts["flat.refresh.path_length"] == 1

    def test_batched_edits_sweep_each_node_once(self):
        tree = random_net(4, 12, paper_net_spec(), spacing=800.0)
        engine = FlatARDEngine(tree, PAPER_TECH)
        engine.evaluate()
        points = list(tree.insertion_indices())

        def edit(e):
            for idx in points:
                e.set_assignment(idx, OPTIONS[0])

        counts = _kernel_counts(engine, edit)
        # the root paths of all edits, shared prefixes counted once
        union = set()
        for v in points:
            while v != tree.root:
                union.add(v)
                v = tree.parent(v)
        assert counts["flat.refresh.dirty_seeds"] == len(points)
        assert counts["flat.refresh.path_length"] == len(union)
        fresh = engine.fresh_result()
        assert engine.evaluate().value == fresh.value


class TestTimingEngineProtocol:
    def test_all_engines_conform(self):
        t = y_net()
        engines = [
            ElmoreAnalyzer(t, TECH),
            SlewAnalyzer(t, TECH),
            FlatARDEngine(t, TECH),
            SimulationEngine(t, TECH),
        ]
        for engine in engines:
            assert isinstance(engine, TimingEngine)
            result = engine.evaluate(t)
            assert result.is_finite
            assert result.source is not None and result.sink is not None

    def test_engines_agree_on_unbuffered_net(self):
        t = y_net()
        reference = ard(t, TECH).value
        for engine in (FlatARDEngine(t, TECH), SimulationEngine(t, TECH)):
            assert engine.evaluate().value == pytest.approx(reference, rel=1e-9)
        # the slew engine collapses to plain Elmore at slew_to_delay = 0
        from repro.rctree.slew import SlewModel

        slew = SlewAnalyzer(t, TECH, model=SlewModel(slew_to_delay=0.0))
        assert slew.evaluate().value == pytest.approx(reference, rel=1e-9)

    def test_evaluate_rejects_foreign_tree(self):
        t, other = y_net(), two_pin_net()
        for engine in (
            ElmoreAnalyzer(t, TECH),
            SlewAnalyzer(t, TECH),
            FlatARDEngine(t, TECH),
            SimulationEngine(t, TECH),
        ):
            with pytest.raises(ValueError):
                engine.evaluate(other)

    def test_path_delay_matches_elmore(self):
        tree = random_net(5, 10, paper_net_spec(), spacing=800.0)
        rng = random.Random(5)
        assignment = {
            idx: rng.choice(OPTIONS)
            for idx in list(tree.insertion_indices())[::3]
        }
        context = EvalContext(assignment=assignment)
        engine = FlatARDEngine(tree, PAPER_TECH, context=context)
        analyzer = ElmoreAnalyzer(tree, PAPER_TECH, context=context)
        sim = SimulationEngine(tree, PAPER_TECH, context=context)
        terminals = tree.terminal_indices()
        for u in terminals:
            if not tree.node(u).terminal.is_source:
                continue
            for v in terminals:
                if v == u:
                    continue
                ref = analyzer.path_delay(u, v)
                assert engine.path_delay(u, v) == pytest.approx(ref, rel=1e-12)
                assert sim.path_delay(u, v) == pytest.approx(ref, rel=1e-9)


class TestEvalContextV2:
    """v2.0: the pre-context per-knob shims are gone — TypeError, not warning."""

    def test_legacy_positional_assignment_raises(self):
        t = y_net()
        with pytest.raises(TypeError):
            ard(t, TECH, {})
        with pytest.raises(TypeError):
            ElmoreAnalyzer(t, TECH, {})

    def test_legacy_keywords_raise(self):
        t = two_pin_net()
        edge = next(i for i in range(len(t)) if t.parent(i) is not None)
        with pytest.raises(TypeError):
            ard(t, TECH, wire_widths={edge: 2.0})
        with pytest.raises(TypeError):
            ElmoreAnalyzer(t, TECH, assignment={})
        with pytest.raises(TypeError):
            ard(t, TECH, include_companion_cap=True)

    def test_context_form_does_not_warn(self):
        import warnings

        t = y_net()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ard(t, TECH, context=EvalContext())
            ElmoreAnalyzer(t, TECH, context=EvalContext())
            ard(t, TECH)
            ElmoreAnalyzer(t, TECH)

    def test_analyzer_context_roundtrip(self):
        t = two_pin_net()
        edge = next(i for i in range(len(t)) if t.parent(i) is not None)
        ctx = EvalContext(wire_widths={edge: 2.0}, include_companion_cap=True)
        an = ElmoreAnalyzer(t, TECH, context=ctx)
        assert an.wire_widths == {edge: 2.0}
        assert an.include_companion_cap
        assert an.context == ctx


class TestInsertRepeatersContext:
    def test_wire_widths_honored(self):
        tree = two_pin_net(length=8000.0)
        edges = [i for i in range(len(tree)) if tree.parent(i) is not None]
        widths = {e: 2.0 for e in edges}
        options = MSRIOptions(library=paper_repeater_library())
        result = insert_repeaters(
            tree, PAPER_TECH, options, context=EvalContext(wire_widths=widths)
        )
        for sol in result.solutions:
            replay = ard(
                tree,
                PAPER_TECH,
                context=EvalContext(
                    assignment={
                        k: v
                        for k, v in sol.assignment().items()
                        if isinstance(v, Repeater)
                    },
                    wire_widths=widths,
                ),
            )
            assert replay.value == pytest.approx(sol.ard, rel=1e-9)

    def test_rejects_assignment_and_companion(self):
        tree = two_pin_net()
        m = next(iter(tree.insertion_indices()))
        options = MSRIOptions(library=paper_repeater_library())
        with pytest.raises(ValueError):
            insert_repeaters(
                tree,
                PAPER_TECH,
                options,
                context=EvalContext(assignment={m: OPTIONS[0]}),
            )
        with pytest.raises(ValueError):
            insert_repeaters(
                tree,
                PAPER_TECH,
                options,
                context=EvalContext(include_companion_cap=True),
            )


class FullRecomputeEngine:
    """The dirty-path-free oracle: a fresh full reference pass per probe."""

    def __init__(self, tree, tech):
        self._tree = tree
        self._tech = tech
        self._assignment = {}

    def set_assignment(self, node, repeater):
        if repeater is None:
            self._assignment.pop(node, None)
        else:
            self._assignment[node] = repeater

    def evaluate(self, tree=None):
        return ard(
            self._tree,
            self._tech,
            context=EvalContext(assignment=dict(self._assignment)),
        )


class TestConsumers:
    def test_greedy_trajectories_identical(self):
        tree = random_net(2, 14, paper_net_spec(), spacing=800.0)
        lib = paper_repeater_library()
        fast = greedy_insertion(tree, PAPER_TECH, lib, max_steps=3)
        slow = greedy_insertion(
            tree,
            PAPER_TECH,
            lib,
            max_steps=3,
            engine=FullRecomputeEngine(tree, PAPER_TECH),
        )
        assert len(fast) == len(slow)
        for a, b in zip(fast, slow):
            assert a.ard == b.ard  # bit-identical: shared combine step
            assert a.cost == b.cost
            assert a.assignment.keys() == b.assignment.keys()

    def test_variation_uses_incremental_engine(self):
        """The rewired Monte-Carlo equals the original rebuild-per-sample
        implementation (same rng stream, same model) to float tolerance."""
        from repro.analysis.variation import (
            VariationModel,
            _factor,
            _scaled_repeaters,
            monte_carlo_ard,
        )

        tree = random_net(4, 8, paper_net_spec(), spacing=800.0)
        m = next(iter(tree.insertion_indices()))
        assignment = {m: OPTIONS[0]}
        model = VariationModel()
        samples = 5
        res = monte_carlo_ard(
            tree, PAPER_TECH, assignment, model=model, samples=samples, seed=42
        )

        rng = np.random.default_rng(42)
        for k in range(samples):
            f_wr = _factor(rng, model.wire_resistance_spread)
            f_wc = _factor(rng, model.wire_capacitance_spread)
            f_dr = _factor(rng, model.device_resistance_spread)
            f_dc = _factor(rng, model.device_capacitance_spread)
            var_tech = Technology(
                PAPER_TECH.unit_resistance * f_wr,
                PAPER_TECH.unit_capacitance * f_wc,
                name="var",
                extras=dict(PAPER_TECH.extras),
            )
            overrides = {
                idx: dataclasses.replace(
                    tree.node(idx).terminal,
                    resistance=tree.node(idx).terminal.resistance * f_dr,
                    capacitance=tree.node(idx).terminal.capacitance * f_dc,
                )
                for idx in tree.terminal_indices()
            }
            var_tree = shadow_with_overrides(tree, overrides)
            var_assignment = _scaled_repeaters(assignment, f_dr, f_dc)
            ref = ard(
                var_tree,
                var_tech,
                context=EvalContext(assignment=var_assignment),
            ).value
            assert res.samples[k] == pytest.approx(ref, rel=1e-9)

    def test_topology_search_engine_factory(self):
        from repro.steiner import synthesize_topology

        terminals = [
            make_terminal("a", 0, 0),
            make_terminal("b", 1500, 0),
            make_terminal("c", 700, 900),
            make_terminal("d", 200, 1400),
        ]
        default = synthesize_topology(terminals, TECH)
        explicit = synthesize_topology(
            terminals,
            TECH,
            engine_factory=lambda tree: ElmoreAnalyzer(tree, TECH),
        )
        assert default.ard == explicit.ard  # same oracle arithmetic
        assert default.terminal_edges == explicit.terminal_edges


class TestContracts:
    def test_evaluate_cross_checks_under_repro_check(self):
        tree = random_net(6, 8, paper_net_spec(), spacing=800.0)
        with contracts.checking():
            engine = FlatARDEngine(tree, PAPER_TECH)
            m = next(iter(tree.insertion_indices()))
            engine.set_assignment(m, OPTIONS[0])
            assert engine.evaluate().is_finite

    def test_verifier_raises_on_divergence(self):
        tree = y_net()
        good = FlatARDEngine(tree, TECH).evaluate()
        state = EvalState(tree, TECH)
        contracts.verify_flat_consistency(good, state)  # passes
        bad_value = dataclasses.replace(good, value=good.value + 1.0)
        with pytest.raises(contracts.ContractViolation):
            contracts.verify_flat_consistency(bad_value, state)
        bad_pair = dataclasses.replace(good, sink=good.source)
        with pytest.raises(contracts.ContractViolation):
            contracts.verify_flat_consistency(bad_pair, state)

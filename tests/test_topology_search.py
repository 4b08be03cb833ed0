"""Tests for ARD-driven topology synthesis."""

import pytest

from repro.core.ard import ard
from repro.netgen import paper_net_spec, paper_technology, random_points
from repro.rctree import ElmoreAnalyzer
from repro.steiner import (
    rectilinear_mst,
    synthesize_topology,
    tree_from_terminal_edges,
)
from repro.tech import Terminal

TECH = paper_technology()


def make_terms(seed, n):
    spec = paper_net_spec()
    return [
        Terminal(
            f"p{i}",
            x,
            y,
            capacitance=spec.capacitance,
            resistance=spec.resistance,
            intrinsic_delay=spec.intrinsic_delay,
        )
        for i, (x, y) in enumerate(random_points(seed, n))
    ]


class TestTreeFromTerminalEdges:
    def test_valid_tree(self):
        terms = make_terms(0, 6)
        edges = rectilinear_mst([(t.x, t.y) for t in terms])
        tree = tree_from_terminal_edges(terms, edges)
        assert sorted(t.name for t in tree.terminals()) == sorted(
            t.name for t in terms
        )
        assert tree.node(tree.root).terminal.name == "p0"

    def test_root_selection(self):
        terms = make_terms(0, 5)
        edges = rectilinear_mst([(t.x, t.y) for t in terms])
        tree = tree_from_terminal_edges(terms, edges, root=2)
        assert tree.node(tree.root).terminal.name == "p2"


class TestSynthesis:
    @pytest.mark.parametrize("seed", range(5))
    def test_never_worse_than_mst(self, seed):
        terms = make_terms(seed, 7)
        edges = rectilinear_mst([(t.x, t.y) for t in terms])
        mst_ard = ard(tree_from_terminal_edges(terms, edges), TECH).value
        res = synthesize_topology(terms, TECH)
        assert res.ard <= mst_ard + 1e-9

    def test_improves_on_average(self):
        gains = []
        for seed in range(8):
            terms = make_terms(seed, 8)
            edges = rectilinear_mst([(t.x, t.y) for t in terms])
            mst_ard = ard(tree_from_terminal_edges(terms, edges), TECH).value
            res = synthesize_topology(terms, TECH)
            gains.append(1.0 - res.ard / mst_ard)
        assert sum(gains) / len(gains) > 0.02  # >2% average diameter gain

    def test_result_consistency(self):
        terms = make_terms(1, 6)
        res = synthesize_topology(terms, TECH)
        # the reported ARD/WL match an independent rebuild from the edges
        rebuilt = tree_from_terminal_edges(terms, res.terminal_edges)
        assert ard(rebuilt, TECH).value == pytest.approx(res.ard)
        assert rebuilt.total_wire_length() == pytest.approx(res.wirelength)
        assert res.history[0] >= res.history[-1]
        assert res.score == pytest.approx(res.history[-1])

    def test_wirelength_weight_pulls_toward_mst(self):
        terms = make_terms(2, 7)
        edges = rectilinear_mst([(t.x, t.y) for t in terms])
        mst_wl = tree_from_terminal_edges(terms, edges).total_wire_length()
        free = synthesize_topology(terms, TECH, wirelength_weight=0.0)
        tight = synthesize_topology(terms, TECH, wirelength_weight=1000.0)
        # an enormous WL weight forbids any WL increase over the MST
        assert tight.wirelength <= mst_wl + 1e-6
        assert free.ard <= tight.ard + 1e-9

    def test_deterministic(self):
        terms = make_terms(3, 6)
        a = synthesize_topology(terms, TECH)
        b = synthesize_topology(terms, TECH)
        assert a.terminal_edges == b.terminal_edges
        assert a.ard == b.ard

    def test_validation(self):
        with pytest.raises(ValueError):
            synthesize_topology(make_terms(0, 5)[:1], TECH)
        with pytest.raises(ValueError):
            synthesize_topology(make_terms(0, 5), TECH, wirelength_weight=-1.0)

    def test_iteration_cap(self):
        terms = make_terms(4, 7)
        res = synthesize_topology(terms, TECH, max_iterations=1)
        assert res.iterations <= 1


class TestScoreMemo:
    def test_counters_populated(self):
        terms = make_terms(0, 7)
        res = synthesize_topology(terms, TECH)
        assert res.evaluations >= 1
        # the same reconnection candidates recur across edge-scan rounds,
        # and the chosen move is never re-scored: hits are guaranteed
        # whenever the search iterates
        if res.iterations > 1:
            assert res.memo_hits >= 1

    def test_memo_does_not_change_outcome(self):
        # determinism across repeated runs covers the memo: a stale or
        # mis-keyed entry would make the second run diverge
        terms = make_terms(5, 8)
        a = synthesize_topology(terms, TECH)
        b = synthesize_topology(terms, TECH)
        assert a.terminal_edges == b.terminal_edges
        assert a.ard == b.ard and a.evaluations == b.evaluations

    def test_reported_edges_are_canonical(self):
        terms = make_terms(1, 6)
        res = synthesize_topology(terms, TECH)
        assert list(res.terminal_edges) == sorted(
            (min(a, b), max(a, b)) for a, b in res.terminal_edges
        )


class TestMSRIObjective:
    def make_options(self, **kw):
        from repro.netgen import repeater_insertion_options

        return repeater_insertion_options(**kw)

    def test_requires_options(self):
        with pytest.raises(ValueError, match="msri_options"):
            synthesize_topology(make_terms(0, 4), TECH, objective="msri")

    def test_rejects_engine_combination(self):
        opts = self.make_options()
        with pytest.raises(TypeError):
            synthesize_topology(
                make_terms(0, 4), TECH, objective="msri",
                msri_options=opts,
                engine_factory=lambda tree: ElmoreAnalyzer(tree, TECH),
            )
        with pytest.raises(TypeError):
            synthesize_topology(
                make_terms(0, 4), TECH, msri_options=opts
            )
        with pytest.raises(ValueError, match="objective"):
            synthesize_topology(make_terms(0, 4), TECH, objective="bogus")

    def test_scores_optimized_net(self):
        from repro.core import MSRICache, insert_repeaters

        terms = make_terms(2, 5)
        opts = self.make_options(quantize_bound=True)
        cache = MSRICache()
        res = synthesize_topology(
            terms, TECH, objective="msri", msri_options=opts,
            msri_cache=cache, max_iterations=2,
        )
        # the reported score is the post-insertion min ARD of the tree
        rebuilt = tree_from_terminal_edges(terms, res.terminal_edges)
        cold = insert_repeaters(rebuilt, TECH, opts)
        assert res.ard == pytest.approx(cold.min_ard().ard)
        # sibling candidates share subtrees: the cache must have hit
        assert cache.hits >= 1

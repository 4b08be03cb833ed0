"""Tests for the Elmore engine: capacitance passes, path delays, repeaters.

The hand-computed expectations use the round-number test technology
(r = 0.1 ohm/um, c = 0.01 pF/um) so every value below is exact.
"""

import numpy as np
import pytest

from repro.netgen import paper_instance, paper_technology
from repro.rctree import ElmoreAnalyzer, EvalContext, TreeBuilder
from repro.tech import Buffer, Repeater

from .conftest import make_terminal, random_topology, two_pin_net, y_net


@pytest.fixture
def rep():
    return Repeater.from_buffer_pair(
        Buffer("b", intrinsic_delay=20.0, output_resistance=50.0,
               input_capacitance=0.25),
        name="rep",
    )


class TestCapacitancePasses:
    def test_y_net_downstream(self, tech):
        t = y_net()
        an = ElmoreAnalyzer(t, tech)
        s = t.steiner_indices()[0]
        # each child branch: 1 pF wire + 0.5 pF pin
        assert an.downstream_cap(t.terminal_by_name("b")) == 0.5
        assert an.downstream_cap(s) == pytest.approx(3.0)

    def test_y_net_upstream(self, tech):
        t = y_net()
        an = ElmoreAnalyzer(t, tech)
        s = t.steiner_indices()[0]
        b = t.terminal_by_name("b")
        # above s: root terminal pin only (wire excluded by definition)
        assert an.upstream_cap(s) == 0.5
        # above b: root path (1 wire + 0.5 pin) + sibling branch (1 + 0.5)
        assert an.upstream_cap(b) == pytest.approx(3.0)

    def test_upstream_of_root_raises(self, tech):
        t = y_net()
        an = ElmoreAnalyzer(t, tech)
        with pytest.raises(ValueError):
            an.upstream_cap(t.root)

    def test_total_capacitance(self, tech):
        t = y_net()
        an = ElmoreAnalyzer(t, tech)
        assert an.total_capacitance() == pytest.approx(3.0 + 1.5)

    def test_driver_load_is_total(self, tech):
        # with no repeaters every driver sees the whole net
        t = y_net()
        an = ElmoreAnalyzer(t, tech)
        for idx in t.terminal_indices():
            assert an.driver_load(idx) == pytest.approx(an.total_capacitance())

    def test_edge_view_partition_invariant(self, tech):
        """For every edge, both directed views plus the wire = total cap."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            t = random_topology(rng, n_terminals=6)
            an = ElmoreAnalyzer(t, tech)
            total = an.total_capacitance()
            for v in range(len(t)):
                p = t.parent(v)
                if p is None:
                    continue
                wire = tech.wire_capacitance(t.edge_length(v))
                both = an.node_view(v, p) + an.node_view(p, v) + wire
                assert both == pytest.approx(total, rel=1e-9)

    def test_repeater_decouples_views(self, tech, rep):
        t = two_pin_net()
        m = t.insertion_indices()[0]
        an = ElmoreAnalyzer(t, tech, context=EvalContext(assignment={m: rep}))
        a, z = t.terminal_by_name("a"), t.terminal_by_name("z")
        assert an.node_view(m, a) == rep.c_a  # looking down into the repeater
        assert an.node_view(m, z) == rep.c_b  # looking up into the repeater
        # the driver at a now sees only its half of the net
        assert an.driver_load(a) == pytest.approx(0.5 + 5.0 + 0.25)
        assert an.driver_load(z) == pytest.approx(0.5 + 5.0 + 0.25)

    def test_assignment_on_non_insertion_rejected(self, tech, rep):
        t = y_net()
        s = t.steiner_indices()[0]
        with pytest.raises(ValueError, match="insertion"):
            ElmoreAnalyzer(t, tech, context=EvalContext(assignment={s: rep}))

    def test_assignment_wrong_type_rejected(self, tech):
        t = two_pin_net()
        m = t.insertion_indices()[0]
        with pytest.raises(TypeError):
            ElmoreAnalyzer(t, tech, context=EvalContext(assignment={m: "not a repeater"}))


class TestPathDelay:
    def test_y_net_hand_computation(self, tech):
        t = y_net()
        an = ElmoreAnalyzer(t, tech)
        a = t.terminal_by_name("a")
        b = t.terminal_by_name("b")
        # driver 100 * 4.5 + wire a->s 10*(0.5+3.0) + wire s->b 10*(0.5+0.5)
        assert an.path_delay(a, b) == pytest.approx(450.0 + 35.0 + 10.0)

    def test_y_net_sibling_path(self, tech):
        t = y_net()
        an = ElmoreAnalyzer(t, tech)
        b = t.terminal_by_name("b")
        c = t.terminal_by_name("c")
        assert an.path_delay(b, c) == pytest.approx(495.0)

    def test_two_pin_unbuffered(self, tech):
        t = two_pin_net()
        an = ElmoreAnalyzer(t, tech)
        a, z = t.terminal_by_name("a"), t.terminal_by_name("z")
        assert an.path_delay(a, z) == pytest.approx(1100.0 + 400.0 + 150.0)
        assert an.path_delay(z, a) == pytest.approx(1650.0)

    def test_two_pin_with_repeater(self, tech, rep):
        t = two_pin_net()
        m = t.insertion_indices()[0]
        an = ElmoreAnalyzer(t, tech, context=EvalContext(assignment={m: rep}))
        a, z = t.terminal_by_name("a"), t.terminal_by_name("z")
        # 575 driver + 137.5 first wire + 295 repeater + 150 second wire
        assert an.path_delay(a, z) == pytest.approx(1157.5)
        assert an.path_delay(z, a) == pytest.approx(1157.5)

    def test_repeater_helps_long_wire(self, tech, rep):
        t = two_pin_net(length=4000.0)
        m = t.insertion_indices()[0]
        a, z = t.terminal_by_name("a"), t.terminal_by_name("z")
        unbuf = ElmoreAnalyzer(t, tech).path_delay(a, z)
        buf = ElmoreAnalyzer(t, tech, context=EvalContext(assignment={m: rep})).path_delay(a, z)
        assert buf < unbuf

    def test_companion_cap_increases_delay(self, tech, rep):
        t = two_pin_net()
        m = t.insertion_indices()[0]
        a, z = t.terminal_by_name("a"), t.terminal_by_name("z")
        base = ElmoreAnalyzer(t, tech, context=EvalContext(assignment={m: rep})).path_delay(a, z)
        comp = ElmoreAnalyzer(t, tech, context=EvalContext(assignment={m: rep}, include_companion_cap=True)).path_delay(a, z)
        assert comp == pytest.approx(base + rep.r_ab * rep.c_b)

    def test_self_path_rejected(self, tech):
        t = y_net()
        an = ElmoreAnalyzer(t, tech)
        a = t.terminal_by_name("a")
        with pytest.raises(ValueError):
            an.path_delay(a, a)

    def test_non_terminal_endpoint_rejected(self, tech):
        t = y_net()
        an = ElmoreAnalyzer(t, tech)
        with pytest.raises(ValueError):
            an.path_delay(t.steiner_indices()[0], t.terminal_by_name("b"))

    @pytest.mark.parametrize("src, dst", [(999, 0), (0, 999), (1, -34), (-1, 0)])
    def test_out_of_range_endpoint_rejected(self, src, dst):
        # a negative index must not wrap around to a real node, and an
        # index past the end must not surface as an IndexError
        t = paper_instance(0, 5)
        assert len(t) == 34
        an = ElmoreAnalyzer(t, paper_technology())
        with pytest.raises(ValueError, match="endpoints must be terminals"):
            an.path_delay(src, dst)

    def test_non_source_cannot_drive(self, tech):
        b = TreeBuilder()
        src = b.add_terminal(make_terminal("src", 0, 0))
        snk = b.add_terminal(make_terminal("snk", 100, 0).as_sink_only())
        b.connect(src, snk)
        t = b.build(root=src)
        an = ElmoreAnalyzer(t, tech)
        with pytest.raises(ValueError, match="cannot drive"):
            an.path_delay(t.terminal_by_name("snk"), t.terminal_by_name("src"))


class TestAugmentedDelayAndARD:
    def test_augmented_adds_alpha_beta(self, tech):
        b = TreeBuilder()
        src = b.add_terminal(make_terminal("s", 0, 0, alpha=100.0))
        snk = b.add_terminal(make_terminal("k", 100, 0, beta=70.0))
        b.connect(src, snk)
        t = b.build(root=src)
        an = ElmoreAnalyzer(t, tech)
        u, v = t.terminal_by_name("s"), t.terminal_by_name("k")
        assert an.augmented_delay(u, v) == pytest.approx(
            100.0 + an.path_delay(u, v) + 70.0
        )

    def test_bruteforce_ard_y_net(self, tech):
        t = y_net()
        an = ElmoreAnalyzer(t, tech)
        assert an.ard_bruteforce() == pytest.approx(495.0)

    def test_critical_pair_consistent(self, tech):
        rng = np.random.default_rng(3)
        t = random_topology(rng, n_terminals=6)
        an = ElmoreAnalyzer(t, tech)
        u, v, d = an.critical_pair()
        assert d == pytest.approx(an.ard_bruteforce())
        assert d == pytest.approx(an.augmented_delay(u, v))

    def test_respects_roles(self, tech):
        # a pure source can never appear as the sink of the critical pair
        b = TreeBuilder()
        s = b.add_terminal(make_terminal("s", 0, 0).as_source_only())
        k = b.add_terminal(make_terminal("k", 500, 0).as_sink_only())
        b.connect(s, k)
        t = b.build(root=s)
        an = ElmoreAnalyzer(t, tech)
        u, v, _ = an.critical_pair()
        assert t.node(u).terminal.name == "s"
        assert t.node(v).terminal.name == "k"

    def test_ard_invariant_under_reroot(self, tech):
        rng = np.random.default_rng(11)
        for _ in range(5):
            t = random_topology(rng, n_terminals=6, p_insertion=0.0)
            ard = ElmoreAnalyzer(t, tech).ard_bruteforce()
            other_root = t.terminal_indices()[-1]
            t2 = t.rerooted(other_root)
            assert ElmoreAnalyzer(t2, tech).ard_bruteforce() == pytest.approx(ard)

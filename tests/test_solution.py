"""Unit tests for the DP solution characterization and its combinators."""

import dataclasses
import math

import pytest

from repro.core.intervals import IntervalSet
from repro.core.pwl import PWL
from repro.core.solution import (
    Placement,
    Solution,
    Trace,
    _solution,
    apply_repeater,
    augment_wire,
    evaluate_at_root,
    join,
    leaf_solution,
)
from repro.tech import NEVER, Buffer, Repeater, Terminal

C_MAX = 100.0


def term(name="t", alpha=0.0, beta=0.0, cap=0.5, res=100.0, intrinsic=0.0):
    return Terminal(
        name=name,
        x=0,
        y=0,
        arrival_time=alpha,
        downstream_delay=beta,
        capacitance=cap,
        resistance=res,
        intrinsic_delay=intrinsic,
    )


REP = Repeater.from_buffer_pair(
    Buffer("b", intrinsic_delay=20.0, output_resistance=50.0, input_capacitance=0.25),
    name="rep",
)


class TestTrace:
    def test_empty(self):
        assert Trace().collect() == []

    def test_extended(self):
        t = Trace().extended(Placement(3, "x")).extended(Placement(5, "y"))
        got = {p.node: p.what for p in t.collect()}
        assert got == {3: "x", 5: "y"}

    def test_merged_shares(self):
        a = Trace().extended(Placement(1, "a"))
        b = Trace().extended(Placement(2, "b"))
        m = Trace.merged(a, b)
        assert {p.node for p in m.collect()} == {1, 2}

    def test_diamond_dedup(self):
        shared = Trace().extended(Placement(1, "a"))
        m = Trace.merged(shared, shared)
        assert len(m.collect()) == 1


class TestLeafSolution:
    def test_bidirectional(self):
        s = leaf_solution(term(alpha=10.0, beta=7.0), C_MAX)
        assert s.cap == 0.5
        assert s.q == 7.0
        assert s.has_source and s.has_sink
        # arr(cE) = alpha + r*(c + cE) = 10 + 100*0.5 + 100*cE
        assert s.arr.evaluate(0.0) == pytest.approx(60.0)
        assert s.arr.evaluate(1.0) == pytest.approx(160.0)
        assert s.diam is None
        assert s.domain == IntervalSet.single(0.0, C_MAX)

    def test_intrinsic_delay_enters_arrival(self):
        s = leaf_solution(term(intrinsic=9.0), C_MAX)
        assert s.arr.evaluate(0.0) == pytest.approx(9.0 + 50.0)

    def test_sink_only(self):
        s = leaf_solution(term(beta=5.0).as_sink_only(), C_MAX)
        assert s.arr is None
        assert s.q == 5.0

    def test_source_only(self):
        s = leaf_solution(term().as_source_only(), C_MAX)
        assert s.q == NEVER
        assert s.arr is not None

    def test_cost_passthrough(self):
        s = leaf_solution(term(), C_MAX, cost=3.0)
        assert s.cost == 3.0

    def test_invariants(self):
        leaf_solution(term(), C_MAX).check_invariants()


class TestAugmentWire:
    def test_scalars(self):
        s = leaf_solution(term(beta=10.0), C_MAX)
        a = augment_wire(s, resistance=10.0, capacitance=2.0, c_max=C_MAX)
        assert a.cap == pytest.approx(2.5)
        # q + R*(C/2 + cap) = 10 + 10*(1 + 0.5)
        assert a.q == pytest.approx(25.0)
        assert a.cost == s.cost

    def test_arrival_shift_and_slope(self):
        s = leaf_solution(term(), C_MAX)
        a = augment_wire(s, 10.0, 2.0, C_MAX)
        # arr'(x) = arr(x + 2) + 10*(1 + x) = [50 + 100*(x+2)] + 10 + 10x
        assert a.arr.evaluate(0.0) == pytest.approx(50.0 + 200.0 + 10.0)
        assert a.arr.evaluate(1.0) == pytest.approx(50.0 + 300.0 + 20.0)

    def test_zero_length_wire_is_identity_on_functions(self):
        s = leaf_solution(term(), C_MAX)
        a = augment_wire(s, 0.0, 0.0, C_MAX)
        assert a.arr.approx_equal(s.arr)
        assert a.q == s.q and a.cap == s.cap

    def test_domain_shrinks(self):
        s = leaf_solution(term(), C_MAX)
        a = augment_wire(s, 1.0, 30.0, C_MAX)
        assert a.domain == IntervalSet.single(0.0, C_MAX - 30.0)

    def test_rejects_negative(self):
        s = leaf_solution(term(), C_MAX)
        with pytest.raises(ValueError):
            augment_wire(s, -1.0, 0.0, C_MAX)

    def test_none_when_domain_vanishes(self):
        s = leaf_solution(term(), C_MAX)
        assert augment_wire(s, 1.0, C_MAX + 1.0, C_MAX) is None

    def test_never_q_stays_never(self):
        s = leaf_solution(term().as_source_only(), C_MAX)
        a = augment_wire(s, 10.0, 2.0, C_MAX)
        assert a.q == NEVER


class TestJoin:
    def test_scalar_combination(self):
        s1 = leaf_solution(term("a", beta=10.0), C_MAX)
        s2 = leaf_solution(term("b", beta=30.0, cap=0.2), C_MAX)
        j = join(s1, s2, C_MAX)
        assert j.cap == pytest.approx(0.7)
        assert j.q == 30.0
        assert j.cost == 0.0

    def test_arrival_sees_sibling_cap(self):
        s1 = leaf_solution(term("a"), C_MAX)
        s2 = leaf_solution(term("b", cap=0.2, res=1000.0), C_MAX)
        j = join(s1, s2, C_MAX)
        # at cE=0 the a-side source sees sibling cap 0.2:
        # max( arr1(0.2), arr2(0.5) ) = max(50+100*0.2, 0.2*1000+1000*0.5)
        assert j.arr.evaluate(0.0) == pytest.approx(max(70.0, 700.0))

    def test_cross_pairs_create_diameter(self):
        s1 = leaf_solution(term("a", beta=11.0), C_MAX)
        s2 = leaf_solution(term("b", beta=3.0, cap=0.2), C_MAX)
        j = join(s1, s2, C_MAX)
        assert j.diam is not None
        # at cE: candidates arr1(cE+0.2)+q2 and arr2(cE+0.5)+q1
        a1 = s1.arr.evaluate(0.2) + 3.0
        a2 = s2.arr.evaluate(0.5) + 11.0
        assert j.diam.evaluate(0.0) == pytest.approx(max(a1, a2))

    def test_join_sink_only_sides_has_no_diam(self):
        s1 = leaf_solution(term("a").as_sink_only(), C_MAX)
        s2 = leaf_solution(term("b").as_sink_only(), C_MAX)
        j = join(s1, s2, C_MAX)
        assert j.diam is None and j.arr is None
        assert j.q == 0.0

    def test_join_source_and_sink(self):
        s1 = leaf_solution(term("a", beta=5.0).as_sink_only(), C_MAX)
        s2 = leaf_solution(term("b").as_source_only(), C_MAX)
        j = join(s1, s2, C_MAX)
        assert j.diam is not None  # b -> a pairs exist
        assert j.arr is not None

    def test_domain_intersection(self):
        s1 = leaf_solution(term("a"), C_MAX)
        s2 = leaf_solution(term("b", cap=0.2), C_MAX)
        j = join(s1, s2, C_MAX)
        # shifted by each other's caps: [0, C_MAX - 0.2] n [0, C_MAX - 0.5]
        assert j.domain == IntervalSet.single(0.0, C_MAX - 0.5)

    def test_trace_merged(self):
        s1 = leaf_solution(term("a"), C_MAX).trace.extended(Placement(1, "x"))
        sol1 = Solution(0, 0.1, 0, None, None, IntervalSet.single(0, C_MAX), s1)
        sol2 = leaf_solution(term("b"), C_MAX)
        j = join(sol1, sol2, C_MAX)
        assert {p.node for p in j.trace.collect()} == {1}


class TestApplyRepeater:
    def test_decoupling(self):
        s = leaf_solution(term(beta=10.0), C_MAX)
        b = apply_repeater(s, REP, node=7, c_max=C_MAX)
        assert b.cap == REP.c_a
        assert b.cost == REP.cost
        # q' = d_ab + r_ab*cap + q = 20 + 50*0.5 + 10
        assert b.q == pytest.approx(55.0)
        # arr' = arr(c_b) + d_ba + r_ba*cE
        expected0 = s.arr.evaluate(0.25) + 20.0
        assert b.arr.evaluate(0.0) == pytest.approx(expected0)
        assert b.arr.evaluate(1.0) == pytest.approx(expected0 + 50.0)
        assert b.domain == IntervalSet.single(0.0, C_MAX)

    def test_diam_freezes(self):
        s1 = leaf_solution(term("a", beta=11.0), C_MAX)
        s2 = leaf_solution(term("b", beta=3.0, cap=0.2), C_MAX)
        j = join(s1, s2, C_MAX)
        b = apply_repeater(j, REP, node=9, c_max=C_MAX)
        frozen = j.diam.evaluate(REP.c_b)
        assert b.diam.num_segments == 1
        assert b.diam.evaluate(0.0) == frozen
        assert b.diam.evaluate(50.0) == frozen

    def test_skips_solution_pruned_at_cb(self):
        s = leaf_solution(term(), C_MAX)
        holey = s.restricted(IntervalSet.single(1.0, C_MAX))  # hole at c_b=0.25
        assert apply_repeater(holey, REP, node=1, c_max=C_MAX) is None

    def test_trace_records_placement(self):
        s = leaf_solution(term(), C_MAX)
        b = apply_repeater(s, REP, node=4, c_max=C_MAX)
        assert {p.node: p.what for p in b.trace.collect()} == {4: REP}


class TestEvaluateAtRoot:
    def test_root_as_source(self):
        s = leaf_solution(term("k", beta=10.0).as_sink_only(), C_MAX)
        a = augment_wire(s, 10.0, 2.0, C_MAX)
        root = term("r", alpha=5.0).as_source_only()
        rs = evaluate_at_root(a, 0, root)
        # alpha + r*(c_root + cap) + q = 5 + 100*(0.5+2.5) + 25
        assert rs.ard == pytest.approx(5.0 + 300.0 + 25.0)

    def test_root_as_sink(self):
        s = leaf_solution(term("s", alpha=0.0).as_source_only(), C_MAX)
        root = term("r", beta=8.0).as_sink_only()
        rs = evaluate_at_root(s, 0, root)
        # arr(c_root) + beta = [50 + 100*0.5] + 8
        assert rs.ard == pytest.approx(s.arr.evaluate(0.5) + 8.0)

    def test_no_pairs_returns_none(self):
        s = leaf_solution(term("s").as_source_only(), C_MAX)
        root = term("r").as_source_only()  # two sources, no sink
        assert evaluate_at_root(s, 0, root) is None

    def test_pruned_at_root_cap_returns_none(self):
        s = leaf_solution(term("s"), C_MAX).restricted(
            IntervalSet.single(10.0, C_MAX)
        )
        assert evaluate_at_root(s, 0, term("r")) is None

    def test_extra_cost_and_trace(self):
        s = leaf_solution(term("s"), C_MAX)
        rs = evaluate_at_root(
            s, 0, term("r"), extra_cost=4.0, trace_placement=Placement(0, "opt")
        )
        assert rs.cost == 4.0
        assert rs.assignment() == {0: "opt"}


class TestRestriction:
    def test_restricted_none_outside(self):
        s = leaf_solution(term(), C_MAX)
        assert s.restricted(IntervalSet.empty()) is None

    def test_restricted_same_returns_self(self):
        s = leaf_solution(term(), C_MAX)
        assert s.restricted(IntervalSet.single(0.0, C_MAX)) is s

    def test_restricted_keeps_uid(self):
        s = leaf_solution(term(), C_MAX)
        r = s.restricted(IntervalSet.single(1.0, 2.0))
        assert r.uid == s.uid
        r.check_invariants()


class TestSolutionFactory:
    """``_solution`` builds the same frozen value as ``Solution(...)``."""

    ARGS = (
        2.0,
        0.5,
        30.0,
        PWL.linear(1.0, 2.0, 0.0, C_MAX),
        PWL.constant(-0.0, 0.0, C_MAX),
        IntervalSet.single(0.0, C_MAX),
        Trace().extended(Placement(3, "rep")),
        1,
    )

    def test_same_fields_as_constructor(self):
        made = _solution(*self.ARGS)
        built = Solution(*self.ARGS)
        names = [f.name for f in dataclasses.fields(Solution) if f.name != "uid"]
        assert type(made) is Solution
        assert [getattr(made, n) for n in names] == [getattr(built, n) for n in names]

    def test_equal_and_hashed_as_constructor(self):
        built = Solution(*self.ARGS)
        made = _solution(*self.ARGS, built.uid)
        assert made == built
        assert hash(made) == hash(built)
        assert made != _solution(*self.ARGS)  # a fresh uid

    def test_uids_increase_in_build_order(self):
        uids = [
            _solution(*self.ARGS).uid,
            Solution(*self.ARGS).uid,
            _solution(*self.ARGS).uid,
        ]
        assert uids == sorted(uids) and len(set(uids)) == 3
        assert _solution(*self.ARGS, 7).uid == 7

    def test_frozen(self):
        made = _solution(*self.ARGS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            made.cost = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            made.uid = 1

    def test_replace(self):
        made = _solution(*self.ARGS)
        moved = dataclasses.replace(made, cost=5.0)
        assert type(moved) is Solution
        assert moved.cost == 5.0 and moved.uid == made.uid
        assert dataclasses.replace(moved, cost=made.cost) == made

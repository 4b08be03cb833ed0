"""Differential lockdown of the flat array kernel against the reference pass.

The flat kernel (:mod:`repro.rctree.flat`) re-derives the Eq. 1 / Eq. 2 /
Fig. 2 recursions as index loops over contiguous arrays.  Its contract is
*bit identity* — not closeness — with the reference record pass
(:func:`repro.core.ard.ard`), because every float expression was ported
with an identical evaluation tree.  This suite holds that contract over
~500 randomized nets (varying fan-out, depth, degenerate chains and stars,
random repeater assignments and wire widths) plus the bare paper-protocol
nets a default campaign sweeps, for a fresh sweep and for the engine's
dirty-path sweep after clearing and re-applying the knobs, with
the runtime contracts armed (``REPRO_CHECK=1`` semantics via
:func:`repro.check.contracts.checking`).

Every assertion is ``==`` on floats by design: a single ULP of divergence
is a porting bug, and rounding-tolerant comparisons would mask it.
"""

from __future__ import annotations

import random

from repro.check import contracts
from repro.core.ard import ard
from repro.netgen.random_nets import NetSpec, chain_net, random_net, star_net
from repro.netgen.workloads import (
    paper_instance,
    paper_net_spec,
    paper_repeater_library,
    paper_technology,
)
from repro.rctree.engine import EvalContext
from repro.rctree.flat import FlatARDEngine, evaluate_batch

N_NETS = 500
BASE_SEED = 0xF1A7
SPACING_CHOICES = (400.0, 800.0, 1600.0, None)
#: ``repro-msri campaign``'s default sizes, over the paper's two spacings;
#: the random corpus above stops at 9 pins
CAMPAIGN_SIZES = (10, 20)
CAMPAIGN_SPACINGS = (800.0, 1600.0)
CAMPAIGN_SEEDS = 3


def _random_case(seed: int):
    """One net + knobs: random topology, assignment and wire widths.

    Seeds 7 and 8 mod 10 swap in the degenerate constructors (path graphs
    and stars) so maximal depth and maximal fan-out stay in the corpus.
    """
    rng = random.Random((BASE_SEED << 20) | seed)
    shape = seed % 10
    if shape == 7:
        tree = chain_net(rng.randint(1, 40), paper_net_spec())
    elif shape == 8:
        tree = star_net(rng.randint(2, 16), paper_net_spec())
    else:
        n_pins = rng.randint(3, 9)
        spacing = SPACING_CHOICES[rng.randrange(len(SPACING_CHOICES))]
        tree = random_net(seed, n_pins, paper_net_spec(), spacing=spacing)

    options = paper_repeater_library().oriented_options()
    assignment = {
        idx: rng.choice(options)
        for idx in tree.insertion_indices()
        if rng.random() < 0.3
    }
    widths = {
        idx: rng.uniform(0.5, 3.0)
        for idx in range(len(tree))
        if idx != tree.root and rng.random() < 0.2
    }
    context = EvalContext(
        assignment=assignment or None,
        wire_widths=widths or None,
        include_companion_cap=(seed % 7 == 3),
    )
    return tree, context


def _cases():
    """``(label, tree, context)`` for the random corpus, then the bare
    campaign nets."""
    for seed in range(N_NETS):
        tree, context = _random_case(seed)
        yield f"seed {seed}", tree, context
    for pins in CAMPAIGN_SIZES:
        for spacing in CAMPAIGN_SPACINGS:
            for seed in range(CAMPAIGN_SEEDS):
                tree = paper_instance(seed, pins, spacing)
                yield f"campaign {seed}/{pins}/{spacing}", tree, EvalContext()


def _assert_timing_identical(flat_timing, ref_timing, context: str) -> None:
    """Full per-node A_v / D_v / Z_v vectors, bit-for-bit."""
    assert set(flat_timing) == set(ref_timing), f"{context}: node sets differ"
    for v in ref_timing:
        f, r = flat_timing[v], ref_timing[v]
        assert f == r, f"{context}: node {v}: flat {f!r} != reference {r!r}"


class TestFlatDifferential:
    def test_bit_identical_to_reference_on_500_nets(self):
        tech = paper_technology()
        checked = 0
        with contracts.checking():
            for label, tree, context in _cases():
                ref = ard(tree, tech, context=context)
                engine = FlatARDEngine(
                    tree, tech, context=context, include_timing=True
                )
                res = engine.evaluate()
                ctx = label
                assert res.value == ref.value, (
                    f"{ctx}: {res.value!r} != {ref.value!r}"
                )
                assert (res.source, res.sink) == (ref.source, ref.sink), ctx
                _assert_timing_identical(res.timing, ref.timing, ctx)

                # clear every knob, evaluate, then re-apply them: the last
                # sweep runs on the dirty root paths of the re-applied edits
                for idx, rep in (context.assignment or {}).items():
                    engine.set_assignment(idx, None)
                for idx in context.wire_widths or {}:
                    engine.set_wire_width(idx, None)
                engine.evaluate()
                for idx, rep in (context.assignment or {}).items():
                    engine.set_assignment(idx, rep)
                for idx, w in (context.wire_widths or {}).items():
                    engine.set_wire_width(idx, w)
                res = engine.evaluate()
                ctx = f"{label} dirty path"
                assert res.value == ref.value, ctx
                assert (res.source, res.sink) == (ref.source, ref.sink), ctx
                _assert_timing_identical(res.timing, ref.timing, ctx)
                checked += 1
        campaign_nets = (
            len(CAMPAIGN_SIZES) * len(CAMPAIGN_SPACINGS) * CAMPAIGN_SEEDS
        )
        assert checked == N_NETS + campaign_nets

    def test_path_delays_identical_across_engines(self):
        """Every source→sink path delay agrees with the reference analyzer."""
        from repro.rctree.elmore import ElmoreAnalyzer

        tech = paper_technology()
        with contracts.checking():
            for seed in range(0, N_NETS, 25):
                tree, context = _random_case(seed)
                elmore = ElmoreAnalyzer(tree, tech, context=context)
                flat = FlatARDEngine(tree, tech, context=context)
                terminals = tree.terminal_indices()
                sources = [
                    t
                    for t in terminals
                    if tree.node(t).terminal.is_source
                ]
                for src in sources:
                    for dst in terminals:
                        if dst == src:
                            continue
                        want = elmore.path_delay(src, dst)
                        assert flat.path_delay(src, dst) == want, (seed, src, dst)

    def test_batch_evaluation_matches_per_net(self):
        tech = paper_technology()
        cases = [_random_case(seed) for seed in range(0, N_NETS, 10)]
        nets = [tree for tree, _ in cases]
        contexts = [context for _, context in cases]
        with contracts.checking():
            batch = evaluate_batch(
                nets, tech, contexts=contexts, include_timing=True
            )
            assert len(batch) == len(nets)
            for (tree, context), res in zip(cases, batch):
                ref = ard(tree, tech, context=context)
                assert res.value == ref.value
                assert (res.source, res.sink) == (ref.source, ref.sink)
                _assert_timing_identical(res.timing, ref.timing, "batch")

    def test_randomized_boundary_penalties(self):
        """Nonzero alpha/beta terms flow through identically (Sec. III)."""
        tech = paper_technology()
        with contracts.checking():
            for seed in range(40):
                rng = random.Random(BASE_SEED + seed)
                spec = NetSpec(
                    arrival_time=rng.uniform(0.0, 200.0),
                    downstream_delay=rng.uniform(0.0, 200.0),
                )
                tree = random_net(seed, rng.randint(3, 7), spec)
                ref = ard(tree, tech)
                res = FlatARDEngine(tree, tech, include_timing=True).evaluate()
                assert res.value == ref.value, seed
                _assert_timing_identical(res.timing, ref.timing, str(seed))

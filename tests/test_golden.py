"""Golden regression tests: exact values of the seeded paper workloads.

These pin the measured numbers of specific seeded instances (the same ones
EXPERIMENTS.md reports).  They exist to catch *accidental model drift*: any
change to the delay model, topology generation, insertion-point rule, or
technology constants that silently shifts results will fail here first,
loudly, rather than surfacing as a mysterious benchmark delta.

If a change is *intentional* (a documented model fix), update these
constants together with EXPERIMENTS.md in the same commit.
"""

import hashlib

import pytest

from repro.core.ard import ard
from repro.core.driver_sizing import apply_option_to_tree
from repro.core.msri import insert_repeaters
from repro.netgen import (
    find_fig11_seed,
    fixed_1x_option,
    paper_instance,
    paper_technology,
    repeater_insertion_options,
)

TECH = paper_technology()


class TestGoldenInstances:
    def test_seed0_10pin_geometry(self):
        tree = paper_instance(0, 10)
        assert len(tree) == 60
        assert len(tree.insertion_indices()) == 42
        assert tree.total_wire_length() == pytest.approx(28458.0, abs=1.0)

    def test_seed0_10pin_unbuffered_ard(self):
        tree = paper_instance(0, 10)
        dressed = apply_option_to_tree(tree, fixed_1x_option())
        assert ard(dressed, TECH).value == pytest.approx(4817.7, abs=0.5)

    def test_seed0_10pin_frontier_endpoints(self):
        tree = paper_instance(0, 10)
        res = insert_repeaters(tree, TECH, repeater_insertion_options())
        assert res.min_cost().cost == pytest.approx(20.0)
        assert res.min_cost().ard == pytest.approx(4817.7, abs=0.5)
        assert res.min_ard().ard == pytest.approx(2164.9, abs=0.5)

    def test_fig11_seed_and_wirelength(self):
        seed = find_fig11_seed()
        assert seed == 1
        tree = paper_instance(seed, 8)
        assert tree.total_wire_length() == pytest.approx(19600.0, abs=800.0)

    def test_fig11_progression(self):
        tree = paper_instance(find_fig11_seed(), 8)
        res = insert_repeaters(tree, TECH, repeater_insertion_options())
        dressed_base = res.min_cost().ard
        assert dressed_base == pytest.approx(2717.0, abs=1.0)
        two = res.with_repeater_count(2)
        five = res.with_repeater_count(5)
        assert two is not None and two.ard == pytest.approx(1966.0, abs=1.0)
        assert five is not None and five.ard == pytest.approx(1639.0, abs=1.0)

    def test_technology_constants_pinned(self):
        assert TECH.unit_resistance == 0.076
        assert TECH.unit_capacitance == 0.000118
        opt = fixed_1x_option()
        assert opt.arrival_penalty == pytest.approx(20.0)
        assert opt.sink_delay_extra == pytest.approx(130.0)


#: SHA-256 over every root solution of the sweep in
#: :func:`test_msri_bit_fingerprint`, recorded before the PWL kernel's fast
#: paths existed.  Any change to a float the DP produces moves it.
MSRI_FINGERPRINT = (
    "1b5875e9321a947776943669a08c7af2f8786d95735379def22c20d1db32b9d5"
)


def test_msri_bit_fingerprint():
    """Float-level identity of the exact DP's root suites.

    The golden values above compare with ``approx``; this hashes the exact
    bits of ``(cost, ard, assignment)`` for every root solution over seeds
    0-9, 3-5 pins and spacings 800/1600 um (270 solutions), so a kernel
    rewrite must reproduce every float, not just every rounded value.
    """
    options = repeater_insertion_options()
    digest = hashlib.sha256()
    count = 0
    for pins in (3, 4, 5):
        for spacing in (800.0, 1600.0):
            for seed in range(10):
                res = insert_repeaters(paper_instance(seed, pins, spacing), TECH, options)
                for s in res.solutions:
                    assign = sorted((k, repr(v)) for k, v in s.assignment().items())
                    digest.update(repr((s.cost, s.ard.hex(), assign)).encode())
                    count += 1
    assert count == 270
    assert digest.hexdigest() == MSRI_FINGERPRINT

"""Acceptance suite: one test per acceptance criterion.

Each test prints exactly one "criterion N: PASS" line on success (visible
with ``pytest -s`` or in captured output of failing runs).
"""

import random
from fractions import Fraction

from fibercover import catalog, nielsen
from fibercover.cover import Cover, multipliers
from fibercover.fiberprod import (
    _quotient_covers,
    character_entanglement,
    pair_covers_over_common_points,
    screen_g1,
)
from fibercover.nielsen import braid_apply, canonical_form, coalesce, h3_structure
from fibercover.permcore import identity, parse_cycles
from fibercover.permgroup import GeneratedGroup

from test_properties import (
    _random_paired_cover,
    _random_valid_tuple,
)


def p7(text):
    return parse_cycles(text, 7)


def _components_by_size(pair):
    return sorted(pair.components, key=lambda c: len(c.orbit))


def test_criterion_1_base_cover_genus():
    cover = catalog.get("deg7-cover-1")
    indices = [p.index() for p in cover.cycles]
    assert indices == [2, 4, 6]
    assert cover.genus() == 0
    assert cover.validate().valid
    print(
        "criterion 1: PASS — degree-7 base cover is valid with branch "
        "indices 2+4+6 = 12 and genus 0"
    )


def test_criterion_2_fiber_product_components():
    pair = catalog.get("deg7-pair-1")
    small, big = _components_by_size(pair)
    assert (small.deg_over_z, big.deg_over_z) == (21, 28)
    assert small.x_orbit_over_y1 == (1, 2, 4)
    assert big.x_orbit_over_y1 == (3, 5, 6, 7)
    witness_small, index_small = small.subgroup_witness
    witness_big, index_big = big.subgroup_witness
    assert (index_small, index_big) == (21, 28)
    assert (witness_small.order(), witness_big.order()) == (8, 6)
    print(
        "criterion 2: PASS — fiber product splits into components of "
        "degree 21 and 28 with x-orbits (1,2,4) and (3,5,6,7) and "
        "subgroup indices 21, 28"
    )


def test_criterion_3_genus_method_1():
    pair = catalog.get("deg7-pair-1")
    small, big = _components_by_size(pair)
    assert [p.index() for p in small.restricted_cycles] == [8, 14, 18]
    assert small.genus_method1 == 0
    assert big.genus_method1 == 1
    r4_small = _components_by_size(catalog.get("deg7-pair-2^3.7"))[0]
    assert sum(p.index() for p in r4_small.restricted_cycles) == 42
    assert r4_small.genus_method1 == 1
    r6_small = _components_by_size(catalog.get("deg7-pair-2^6"))[0]
    assert sum(p.index() for p in r6_small.restricted_cycles) == 48
    assert r6_small.genus_method1 == 4
    print(
        "criterion 3: PASS — orbit-restriction genus gives 0 (indices "
        "8,14,18), satellite values 1 (index sum 42) and 4 (index sum 48)"
    )


def test_criterion_4_genus_method_2_agrees():
    values = []
    for key in (
        "deg7-pair-1",
        "deg7-pair-2",
        "deg7-pair-2^3.7",
        "deg7-pair-2^6",
    ):
        for component in _components_by_size(catalog.get(key)):
            assert component.genus_method1 == component.genus_method2
            values.append(component.genus_method2)
    pair1 = _components_by_size(catalog.get("deg7-pair-1"))
    pair2 = _components_by_size(catalog.get("deg7-pair-2"))
    assert [c.genus_method2 for c in pair1] == [0, 1]
    assert [c.genus_method2 for c in pair2] == [0, 0]
    print(
        "criterion 4: PASS — projection-to-y genus agrees with "
        f"orbit-restriction genus on all components ({values})"
    )


def test_criterion_5_projection_branch_cycles():
    pair1 = _components_by_size(catalog.get("deg7-pair-1"))
    pair2 = _components_by_size(catalog.get("deg7-pair-2"))

    pry_2_small = pair2[0].pry_branch_cycles()
    assert pry_2_small.degree == 3
    assert pry_2_small.group().order() == 6  # dihedral of order 6
    assert pry_2_small.galois_closure_genus() == 0
    assert pry_2_small.orbifold_char() == Fraction(1, 3)

    pry_2_big = pair2[1].pry_branch_cycles()
    assert pry_2_big.degree == 4
    assert pry_2_big.group().order() == 24  # full symmetric group
    assert pry_2_big.galois_closure_genus() == 3
    assert pry_2_big.orbifold_char() == Fraction(-1, 6)

    pry_1_small = pair1[0].pry_branch_cycles()
    assert pry_1_small.degree == 3
    assert [ct for ct in (p.cycle_type() for p in pry_1_small.cycles)] == [
        (2, 1)
    ] * 4
    assert pry_1_small.group().order() == 6
    assert pry_1_small.galois_closure_genus() == 1
    assert pry_1_small.orbifold_char() == 0

    # Decisions ledger entry 1: the frozen truth for the remaining
    # projection is degree 4 with full symmetric monodromy and genus 1.
    pry_1_big = pair1[1].pry_branch_cycles()
    assert pry_1_big.degree == 4
    assert pry_1_big.group().order() == 24
    assert pry_1_big.genus() == 1
    assert pry_1_big.galois_closure_genus() == 10
    assert pry_1_big.orbifold_char() == Fraction(-3, 4)
    print(
        "criterion 5: PASS — all four projection covers match their "
        "frozen degrees, monodromy orders, closure genuses and orbifold "
        "characteristics"
    )


def test_criterion_6_nielsen_counts_and_orbits(
    ni_247_elements,
    ni_327_elements,
    ni_2227_elements,
    ni_247_braid_orbits,
    ni_2227_braid_orbits,
):
    assert len(ni_247_elements) == 6
    assert len(ni_327_elements) == 6
    assert len(ni_2227_elements) == 7
    report = h3_structure(catalog.get("deg7-class-2.4.7"))
    assert report["full_symmetric_on_orderings"]
    assert report["ordering_orbit_size"] == 6
    assert [len(o) for o in ni_247_braid_orbits] == [6]
    assert [len(o) for o in ni_2227_braid_orbits] == [7]
    print(
        "criterion 6: PASS — Nielsen counts 6/6/7, full symmetric "
        "ordering action (orbit 6), single braid orbits of sizes 6 and 7"
    )


def test_criterion_7_coalescing():
    group = GeneratedGroup(
        7, [p7("(1 3)(4 5)"), p7("(1 4 6 7)(2 3)"), p7("(1 7 6 5 4 3 2)")]
    )
    tuples = catalog.get("deg7-coalesce-tuples")
    merged1, rep1 = coalesce(tuples["tuple-1"], group, at=2)
    assert merged1 == catalog.get("deg7-pair-1").sigma
    assert rep1["restricted"]
    # <tuple-2> is A7, and its merge generates PSL(2,7): not restricted.
    tuple_2 = tuples["tuple-2"]
    merged2, rep2 = coalesce(tuple_2, GeneratedGroup(7, list(tuple_2)), at=1)
    assert merged2 == catalog.get("deg7-pair-2").sigma
    assert not rep2["restricted"]

    # Satellite chain: six involutions -> four classes -> three classes,
    # with small-component genus 4 -> 1 -> 0.
    r6 = catalog.get("deg7-pair-2^6")
    step1, _ = coalesce(r6.sigma, group, at=4)
    step2, _ = coalesce(step1, group, at=4)
    assert step2 == catalog.get("deg7-pair-2^3.7").sigma
    step3, _ = coalesce(step2, group, at=1)
    assert step3 == catalog.get("deg7-pair-2").sigma
    genuses = [
        _components_by_size(catalog.get(k))[0].genus_method1
        for k in ("deg7-pair-2^6", "deg7-pair-2^3.7", "deg7-pair-2")
    ]
    assert genuses == [4, 1, 0]
    print(
        "criterion 7: PASS — coalescing reproduces both reference merges "
        "verbatim and the satellite genus chain 4 -> 1 -> 0"
    )


def test_criterion_8_symmetric_pair_series():
    pair5 = catalog.get("sm-pair-5")
    comps5 = _components_by_size(pair5)
    assert [c.deg_over_z for c in comps5] == [20, 30]
    assert [c.genus_method1 for c in comps5] == [0, 0]

    large_genus = {}
    for m in (5, 7, 9):
        pair = catalog.build_sm_pair(m)
        comps = _components_by_size(pair)
        assert comps[0].deg_over_x == m - 1
        assert comps[0].genus_method1 == 0
        assert comps[0].genus_method1 == comps[0].genus_method2
        assert comps[-1].genus_method1 == comps[-1].genus_method2
        large_genus[m] = comps[-1].genus_method1
    # Quadratic growth trend (decisions ledger entry 12: the exact values
    # are 0, 2, 6 = (m-3)(m-5)/4; the literature's displayed closed form
    # is internally inconsistent and is not asserted).
    assert large_genus[5] < large_genus[7] < large_genus[9]
    first_diffs = (large_genus[7] - large_genus[5], large_genus[9] - large_genus[7])
    assert first_diffs[1] > first_diffs[0]  # convex, i.e. super-linear
    assert large_genus[9] == (9 - 3) * (9 - 5) // 4
    print(
        "criterion 8: PASS — m=5 components (20, 30) both genus 0; the "
        "degree-(m-1) component stays genus 0 for m=5,7,9 while the "
        f"large component grows quadratically: {large_genus[5]} < "
        f"{large_genus[7]} < {large_genus[9]} = (m-3)(m-5)/4"
    )


def test_criterion_9_dihedral_and_chebyshev():
    four_invol = catalog.build_dihedral(7, "2^4")
    assert four_invol.galois_closure_genus() == 1
    assert four_invol.orbifold_char() == 0
    cheb = catalog.build_chebyshev_cover(7)
    assert cheb.galois_closure_genus() == 0
    d4 = catalog.get("d4-paired")
    assert len(d4.components) == 2
    print(
        "criterion 9: PASS — four-involution dihedral cover has closure "
        "genus 1 (orbifold characteristic 0), Chebyshev closure genus 0, "
        "and the order-8 dihedral pair splits into 2 components"
    )


def test_criterion_10_entanglement():
    t1 = [p7("(1 3)(4 5)"), p7("(1 4 6 7)(2 3)")]
    t2 = [p7("(1 2)(3 5)"), p7("(1 3 6 7)(4 5)")]
    deg7 = character_entanglement(t1, t2)
    assert deg7["galois_entangled"] and deg7["davenport_entangled"]
    s5_std = [parse_cycles("(1 2)", 5), parse_cycles("(1 2 3 4 5)", 5)]
    s5_pairs = [catalog.pairs_permutation(x, 5) for x in s5_std]
    s5 = character_entanglement(s5_std, s5_pairs)
    assert not s5["galois_entangled"] and not s5["davenport_entangled"]
    print(
        "criterion 10: PASS — the two degree-7 actions are trace- and "
        "zero-pattern-entangled; the two symmetric-group actions are "
        "neither"
    )


def test_criterion_11_multipliers():
    group = catalog.get("deg7-cover-1").group()
    s = p7("(1 7 6 5 4 3 2)")
    for rep in (s, s**3):
        cls = group.conjugacy_class(rep)
        assert len(cls) == 24
        assert multipliers(group, cls) == {1, 2, 4}
    print(
        "criterion 11: PASS — both 7-cycle classes (size 24) have "
        "multiplier set {1, 2, 4}"
    )


def test_criterion_12_randomized_invariants(ni_247_elements):
    rng = random.Random(12012)
    # Genus formula parity and non-negativity on random valid tuples.
    for _ in range(100):
        n, entries = _random_valid_tuple(rng)
        labels = tuple(f"z{i}" for i in range(len(entries)))
        cover = Cover(n, labels, tuple(entries))
        index_sum = sum(p.index() for p in entries)
        assert index_sum % 2 == 0
        assert cover.genus() >= 0
    # The two genus methods agree on random strong pairs, and local
    # ramification multiplicities tile each fiber.
    for i in range(25):
        pair = _random_paired_cover(rng)
        for component in pair.components:
            assert component.genus_method1 == component.genus_method2
        if i < 5:
            profile = pair.ramification_profile()
            for bi, b in enumerate(pair.tau):
                for yc in b.cycles(include_fixed=True):
                    total = sum(
                        rp.count * rp.ram_index_over_y
                        for rp in profile
                        if rp.branch_index == bi and rp.y_cycle == yc
                    )
                    assert total == pair.degree_x
    # Braid moves preserve membership in the enumerated class.
    spec = catalog.get("deg7-class-2.4.7")
    conjugators = spec.equivalence_conjugators()
    reps = set(ni_247_elements)
    for e in ni_247_elements:
        for word in ("q1", "q2 sh", "sh' q1'"):
            assert canonical_form(braid_apply(e, word), conjugators) in reps
    # Quotient covers never increase genus.
    for _ in range(20):
        n, entries = _random_valid_tuple(rng)
        labels = tuple(f"z{i}" for i in range(len(entries)))
        cover = Cover(n, labels, tuple(entries))
        g_top = cover.genus()
        for _, quotient in _quotient_covers(cover):
            assert quotient.genus() <= g_top
    print(
        "criterion 12: PASS — parity/non-negativity, genus-method "
        "agreement, fiber tiling, braid membership and quotient "
        "monotonicity hold on randomized inputs"
    )


def test_criterion_13_growth_trend():
    pair2 = _components_by_size(catalog.get("deg7-pair-2"))
    pry_small = pair2[0].pry_branch_cycles()
    by_order = sorted(
        zip(pry_small.branch_points, pry_small.cycles),
        key=lambda bc: (bc[1].order(), bc[0]),
    )
    labels = tuple(b for b, _ in by_order)
    flagged_genuses = []
    for d in range(2, 9):
        g1 = catalog.build_chebyshev_cover(d, labels)
        joint = pair_covers_over_common_points(pry_small, g1)
        flagged_genuses.append(min(c.genus_method1 for c in joint.components))
        assert screen_g1(pry_small, g1, joint=joint).any_flag
    assert flagged_genuses == [0] * 7

    pry_big = pair2[1].pry_branch_cycles()
    unflagged_genuses = []
    for d in range(2, 7):
        g1 = catalog.build_cyclic_cover(d, ("t1", "t2"))
        joint = pair_covers_over_common_points(pry_big, g1)
        unflagged_genuses.append(min(c.genus_method1 for c in joint.components))
        assert not screen_g1(pry_big, g1, joint=joint).any_flag
    assert all(a < b for a, b in zip(unflagged_genuses, unflagged_genuses[1:]))
    print(
        "criterion 13: PASS — the screened (flagged) family keeps genus "
        f"0 through degree 8 while the unflagged family grows strictly: "
        f"{unflagged_genuses}"
    )

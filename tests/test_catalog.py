"""Unit tests for the built-in constructions."""

import math
import runpy
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fibercover import catalog
from fibercover.cover import Cover
from fibercover.fiberprod import PairedCover
from fibercover.nielsen import coalesce
from fibercover.permcore import identity, parse_cycles
from fibercover.permgroup import GeneratedGroup


class TestKeys:
    def test_list_keys_sorted_and_described(self):
        keys = catalog.list_keys()
        assert keys == sorted(keys)
        for k in keys:
            assert catalog.describe(k)

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            catalog.get("nope")
        with pytest.raises(KeyError):
            catalog.describe("nope")


class TestDeg7Pairs:
    def test_pair1_entries_as_printed(self):
        pair = catalog.get("deg7-pair-1")
        assert [str(x) for x in pair.sigma] == [
            "(1 3)(4 5)",
            "(1 4 6 7)(2 3)",
            "(1 7 6 5 4 3 2)",
        ]
        assert [str(x) for x in pair.tau] == [
            "(1 2)(3 5)",
            "(1 3 6 7)(4 5)",
            "(1 7 6 5 4 3 2)",
        ]

    def test_pair2_entries_as_printed(self):
        pair = catalog.get("deg7-pair-2")
        assert [str(x) for x in pair.sigma] == [
            "(1 2 3)(4 5 7)",
            "(1 4)(6 7)",
            "(1 7 6 5 4 3 2)",
        ]
        assert [str(x) for x in pair.tau] == [
            "(1 2 7)(3 5 6)",
            "(3 7)(4 5)",
            "(1 7 6 5 4 3 2)",
        ]

    def test_covers_match_pairs(self):
        c1 = catalog.get("deg7-cover-1")
        p1 = catalog.get("deg7-pair-1")
        assert c1.cycles == p1.sigma
        assert c1.genus() == 0

    def test_group_order_168_and_primitive(self):
        g = catalog.get("deg7-cover-1").group()
        assert g.order() == 168
        assert g.block_systems() == []


class TestSatelliteChain:
    def test_r4_pair_classes(self):
        pair = catalog.get("deg7-pair-2^3.7")
        assert [x.order() for x in pair.sigma] == [2, 2, 2, 7]
        assert [x.order() for x in pair.tau] == [2, 2, 2, 7]

    def test_r6_pair_classes(self):
        pair = catalog.get("deg7-pair-2^6")
        assert [x.order() for x in pair.sigma] == [2] * 6

    def test_chain_coalesces_back_to_pair2(self):
        r6 = catalog.get("deg7-pair-2^6")
        r4 = catalog.get("deg7-pair-2^3.7")
        p2 = catalog.get("deg7-pair-2")
        group = GeneratedGroup(7, list(p2.sigma))
        # Two coalescings at position 4 take the 6-tuple to the 4-tuple.
        step1, rep1 = coalesce(r6.sigma, group, at=4)
        step2, rep2 = coalesce(step1, group, at=4)
        assert rep1["restricted"] and rep2["restricted"]
        assert step2 == r4.sigma
        # One more at position 1 recovers the printed 3-tuple.
        step3, rep3 = coalesce(r4.sigma, group, at=1)
        assert rep3["restricted"]
        assert step3 == p2.sigma

    def test_component_genus_chain(self):
        genuses = []
        for key in ("deg7-pair-2^6", "deg7-pair-2^3.7", "deg7-pair-2"):
            pair = catalog.get(key)
            small = min(pair.components, key=lambda c: len(c.orbit))
            genuses.append(small.genus_method1)
        assert genuses == [4, 1, 0]


class TestDihedral:
    def test_four_involutions_galois_genus_1(self):
        c = catalog.build_dihedral(7, "2^4")
        assert c.validate().valid
        assert c.galois_closure_genus() == 1
        assert c.orbifold_char() == 0

    def test_chebyshev_galois_genus_0(self):
        for d in (3, 5, 7, 8):
            c = catalog.build_chebyshev_cover(d)
            assert c.validate().valid
            assert c.genus() == 0
            assert c.galois_closure_genus() == 0

    def test_chebyshev_degree_2_special_case(self):
        c = catalog.build_chebyshev_cover(2)
        assert c.degree == 2
        assert len(c.cycles) == 2
        assert c.genus() == 0

    def test_cyclic_cover(self):
        c = catalog.build_cyclic_cover(6)
        assert c.genus() == 0
        assert c.group().order() == 6

    def test_bad_class_spec(self):
        with pytest.raises(ValueError):
            catalog.build_dihedral(7, "bogus")

    def test_d4_paired_two_components(self):
        pair = catalog.get("d4-paired")
        assert isinstance(pair, PairedCover)
        assert pair.joint_group.order() == 8
        sizes = sorted(len(c.orbit) for c in pair.components)
        assert sizes == [8, 8]

    def test_d4_ochar_zero(self):
        pair = catalog.get("d4-paired")
        assert pair.sigma_cover().orbifold_char() == 0


class TestSmSeries:
    def test_m5_components_and_genuses(self):
        pair = catalog.get("sm-pair-5")
        comps = sorted(pair.components, key=lambda c: len(c.orbit))
        assert [c.deg_over_z for c in comps] == [20, 30]
        assert [c.genus_method1 for c in comps] == [0, 0]

    def test_pair_degree_formula(self):
        for m in (5, 6, 7):
            pair = catalog.build_sm_pair(m)
            assert pair.degree_y == m * (m - 1) // 2
            assert pair.joint_group.order() == pair.sigma_cover().group().order()

    def test_small_component_genus_0_for_m579(self):
        for m in (5, 7, 9):
            pair = catalog.build_sm_pair(m)
            comps = sorted(pair.components, key=lambda c: len(c.orbit))
            # The small component has degree m-1 over the degree-m cover.
            assert comps[0].deg_over_x == m - 1
            assert comps[0].genus_method1 == 0

    @pytest.mark.parametrize(
        "m, expected",
        [
            (11, [(110, 0), (495, 12)]),
            (12, [(132, 0), (660, 16)]),
            (15, [(210, 0), (1365, 30)]),
        ],
    )
    def test_pairs_above_order_10_7(self, m, expected):
        """S_m with m >= 11 has order above 10^7; the pair, its components
        and both genus methods need no listing of group elements."""
        pair = catalog.build_sm_pair(m)
        comps = sorted(pair.components, key=lambda c: len(c.orbit))
        assert [(c.deg_over_z, c.genus_method1) for c in comps] == expected
        assert [c.genus_method2 for c in comps] == [g for _, g in expected]

    @pytest.mark.parametrize("m", range(5, 21))
    def test_closed_form_genus(self, m):
        """The large component has genus floor((m-4)^2 / 4), the small
        one genus 0; both genus methods agree.

        The tensor letters (x, {a, b}) split into the small orbit
        x in {a, b}, of N_s = m(m-1) letters (ordered pairs (x, b)), and
        the large orbit x not in {a, b}, of N = m(m-1)(m-2)/2 letters.  By
        Riemann-Hurwitz, 2g - 2 = -2N + sum of (N - cycles) over the three
        entries: the transposition t = (1 2), the (m-1)-cycle c fixing 2,
        and the m-cycle z.

        Large orbit.  t fixes (x, {a, b}) when x >= 3 and {a, b} = {1, 2}
        or {a, b} lies in {3..m} - {x}: F = (m-2)(1 + (m-3)(m-4)/2)
        letters, so t has index (N - F)/2, with N - F = (m-2)(3m-7).  z
        rotates Z/m freely and fixes no letter of a triple: N/m =
        (m-1)(m-2)/2 cycles.  c rotates its m-1 letters freely: the
        letters with 2 not in {x, a, b} give (m-2)(m-3)/2 cycles, those
        with 2 in {a, b} give m-2 (ordered pairs of moved letters), and
        those with x = 2 are the 2-sets of Z/(m-1) under rotation, which
        form floor((m-1)/2) cycles.  Summing,
        2g - 2 = (m-2)(3m-7)/2 - (m-1)(m-2) - floor((m-1)/2)
               = (m-2)(m-5)/2 - floor((m-1)/2),
        which gives g = (k-2)^2 for m = 2k and g = (k-1)(k-2) for
        m = 2k+1: floor((m-4)^2 / 4) in both cases.

        Small orbit.  t: N_s - (m-2)(m-3) = 4m - 6 letters move, in
        2m - 3 swaps; c: m cycles (m-2 on pairs of moved letters, plus
        (2, y) and (y, 2)); z: m-1 cycles.  So 2g - 2 = -2N_s + (2m-3)
        + (N_s - m) + (N_s - m + 1) = -2 and g = 0."""
        comps = sorted(catalog.build_sm_pair(m).components, key=lambda c: len(c.orbit))
        small, large = comps
        assert small.deg_over_z == m * (m - 1)
        assert large.deg_over_z == m * (m - 1) * (m - 2) // 2
        assert small.genus_method1 == small.genus_method2 == 0
        expected = (m - 4) ** 2 // 4
        assert large.genus_method1 == large.genus_method2 == expected

    def test_m_below_4_rejected(self):
        with pytest.raises(ValueError):
            catalog.build_sm_pair(3)

    def test_pairs_permutation_is_a_homomorphism(self):
        from fibercover.permcore import parse_cycles

        a = parse_cycles("(1 2)", 5)
        b = parse_cycles("(1 2 3 4 5)", 5)
        pa = catalog.pairs_permutation(a, 5)
        pb = catalog.pairs_permutation(b, 5)
        assert catalog.pairs_permutation(a * b, 5) == pa * pb


class TestHilbertSiegel:
    def test_spec_shape(self):
        spec = catalog.get("hilbert-siegel-m5")
        assert spec.degree_x == 5
        assert spec.joint_spec.group.degree == 15
        assert spec.joint_spec.group.order() == 120
        assert len(spec.joint_spec.class_reps) == 4


class TestMetadata:
    def test_davenport_degrees(self):
        data = catalog.get("degrees-davenport")
        assert data["degrees"] == [7, 11, 13, 15, 21, 31]
        assert data["difference_set_13"] == [1, 2, 4, 10]

    @pytest.mark.parametrize("m", [9, 10, 11])
    def test_second_representation_of_sm_pair(self, m):
        """Both sides of the S_m pair, on m and m(m-1)/2 letters, are
        actions of S_m, for m past the old fixed range 4..9."""
        pair = catalog.build_sm_pair(m)
        y_cover = Cover.from_aligned(pair.degree_y, pair.branch_points, pair.tau)
        assert y_cover.degree == m * (m - 1) // 2
        assert pair.sigma_cover().group().order() == math.factorial(m)
        assert y_cover.group().order() == math.factorial(m)

    def test_a5_on_pairs_has_no_second_representation(self):
        """Degree 10 = 5*4/2, but A_5 has order 60, not 5!, so this is not
        the pairs action of S_5."""
        a, b = parse_cycles("(1 2 3)", 5), parse_cycles("(3 4 5)", 5)
        cycles = tuple(
            catalog.pairs_permutation(p, 5) for p in (a, b, (a * b).inverse())
        )
        cover = Cover(10, ("t1", "t2", "t3"), cycles)
        assert cover.validate().valid
        assert cover.group().order() == 60 != math.factorial(5)


class TestCoalesceTuples:
    def test_source_tuples_are_product_one(self):
        tuples = catalog.get("deg7-coalesce-tuples")
        for e in tuples.values():
            prod = identity(7)
            for x in e:
                prod = prod * x
            assert prod.is_identity


class TestGrowthFamilies:
    def test_chebyshev_needs_three_point_target(self):
        target = catalog.build_dihedral(5, "2^4")
        assert catalog.growth_family_cover("chebyshev", 3, target) is None

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown growth family"):
            catalog.growth_family_cover("quadratic", 3, catalog.get("deg7-cover-1"))

    def test_growth_script_stdout_matches_golden(self, monkeypatch, capsys):
        """``scripts/growth_table.py`` builds its families with the same
        catalog function as ``fibercover growth``; its stdout is compared
        byte for byte with a capture made while it had its own copy."""
        root = Path(__file__).parent.parent
        monkeypatch.setattr(sys, "argv", ["growth_table.py"])
        runpy.run_path(str(root / "scripts" / "growth_table.py"), run_name="__main__")
        expected = (root / "tests" / "golden" / "growth_table.txt").read_text(
            encoding="utf-8"
        )
        assert capsys.readouterr().out == expected

"""Unit tests for covers: genus computations, derived covers, class
helpers, entanglement, serialization."""

from fractions import Fraction

import pytest

from fibercover.catalog import build_sm_pair, pairs_permutation
from fibercover.cover import (
    Cover,
    InvalidCoverError,
    ValidityReport,
    character_entanglement,
    equivalent_tuples,
    genus_from_tuple,
    multipliers,
)
from fibercover.permcore import identity, parse_cycles
from fibercover.permgroup import GeneratedGroup


def p7(text):
    return parse_cycles(text, 7)


DEG7_1 = Cover.from_cycle_strings(
    7,
    ["z1", "z2", "infinity"],
    ["(1 3)(4 5)", "(1 4 6 7)(2 3)", "(1 7 6 5 4 3 2)"],
)
DEG7_2 = Cover.from_cycle_strings(
    7,
    ["z1", "z2", "infinity"],
    ["(1 2 3)(4 5 7)", "(1 4)(6 7)", "(1 7 6 5 4 3 2)"],
)


class TestGenus:
    def test_genus_from_tuple_base_cases(self):
        assert genus_from_tuple(1, 0) == 0
        assert genus_from_tuple(2, 2) == 0  # two simple branch points

    def test_genus_from_tuple_rejects_parity(self):
        with pytest.raises(InvalidCoverError):
            genus_from_tuple(3, 5)

    def test_genus_from_tuple_rejects_negative(self):
        with pytest.raises(InvalidCoverError):
            genus_from_tuple(5, 2)

    def test_deg7_covers_have_genus_zero(self):
        # Index sums 2+4+6 and 4+2+6.
        assert sum(c.index() for c in DEG7_1.cycles) == 12
        assert DEG7_1.genus() == 0
        assert DEG7_2.genus() == 0

    def test_galois_closure_genus_deg7(self):
        # 2(168 + g - 1) = 84 + 126 + 144.
        assert DEG7_1.galois_closure_genus() == 10

    def test_orbifold_char_deg7(self):
        assert DEG7_1.orbifold_char() == Fraction(-3, 28)
        # o-char = 2(1 - galois genus) / |G|.
        assert DEG7_1.orbifold_char() == Fraction(
            2 * (1 - 10), 168
        )

    def test_cyclic_cover_genus(self):
        c = Cover.from_cycle_strings(
            5, ["a", "b"], ["(1 2 3 4 5)", "(1 5 4 3 2)"]
        )
        assert c.genus() == 0
        assert c.galois_closure_genus() == 0
        assert c.orbifold_char() == Fraction(2, 5)


class TestValidity:
    def test_identity_entries_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Cover(3, ("a",), (identity(3),))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Cover.from_cycle_strings(3, ["a", "a"], ["(1 2)", "(1 2)"])

    def test_product_one_failure_reported(self):
        c = Cover.from_cycle_strings(3, ["a", "b"], ["(1 2)", "(1 3)"])
        rep = c.validate()
        assert not rep.product_one
        assert not rep.valid
        with pytest.raises(InvalidCoverError):
            c.genus()

    def test_require_valid_raises_on_every_call(self):
        c = Cover.from_cycle_strings(3, ["a", "b"], ["(1 2)", "(1 3)"])
        for _ in range(3):
            with pytest.raises(InvalidCoverError):
                c.require_valid()
            with pytest.raises(InvalidCoverError):
                c.orbifold_char()

    def test_report_computed_once(self):
        c = Cover(DEG7_1.degree, DEG7_1.branch_points, DEG7_1.cycles)
        rep = c.validate()
        assert c.validate() is rep
        assert rep == ValidityReport(
            product_one=True,
            transitive=True,
            no_identity_entries=True,
            cycle_types=((2, 2, 1, 1, 1), (4, 2, 1), (7,)),
        )
        bad = Cover.from_cycle_strings(4, ["a", "b"], ["(1 2)", "(1 2)"])
        assert bad.validate() is bad.validate()
        assert bad.validate() == ValidityReport(True, False, True, ((2, 1, 1),) * 2)

    def test_intransitive_tuple_reported(self):
        c = Cover.from_cycle_strings(4, ["a", "b"], ["(1 2)", "(1 2)"])
        rep = c.validate()
        assert rep.product_one and not rep.transitive


class TestDerived:
    def test_induced_cover_on_point_stabilizer_is_equivalent(self):
        g = DEG7_1.group()
        h = g.point_stabilizer(1)
        induced = DEG7_1.induced_cover(h)
        assert induced.degree == 7
        assert induced.genus() == DEG7_1.genus()

    def test_self_fiber_subdegrees(self):
        assert DEG7_1.self_fiber_subdegrees() == [1, 6]
        assert DEG7_1.is_doubly_transitive()

    def test_imprimitive_cover_not_doubly_transitive(self):
        a = parse_cycles("(1 2 3 4)", 4)
        b = parse_cycles("(1 3)", 4)
        c = Cover(4, ("a", "b", "c"), (a, b, (a * b).inverse()))
        assert c.validate().valid
        assert not c.is_doubly_transitive()


class TestMultipliers:
    def test_minus_one_not_a_multiplier_of_deg7_seven_cycles(self):
        g = DEG7_1.group()
        s = p7("(1 2 3 4 5 6 7)")
        for rep in (s, s**3):  # the two 7-cycle classes
            m = multipliers(g, g.conjugacy_class(rep))
            assert 6 not in m  # -1 mod 7
            assert m == {1, 2, 4}

    def test_symmetric_group_n_cycle_multipliers_are_all_units(self):
        for n in (5, 6, 7):
            sn = GeneratedGroup(
                n,
                [
                    parse_cycles("(1 2)", n),
                    parse_cycles(
                        "(" + " ".join(map(str, range(1, n + 1))) + ")", n
                    ),
                ],
            )
            s = parse_cycles("(" + " ".join(map(str, range(1, n + 1))) + ")", n)
            from math import gcd

            units = {u for u in range(1, n) if gcd(u, n) == 1}
            assert multipliers(sn, sn.conjugacy_class(s)) == units

    def test_non_full_cycle_rejected(self):
        g = DEG7_1.group()
        with pytest.raises(ValueError):
            multipliers(g, g.conjugacy_class(p7("(1 3)(4 5)")))


class TestEntanglement:
    def test_deg7_points_and_lines_fully_entangled(self):
        t1 = [p7("(1 3)(4 5)"), p7("(1 4 6 7)(2 3)")]
        t2 = [p7("(1 2)(3 5)"), p7("(1 3 6 7)(4 5)")]
        result = character_entanglement(t1, t2)
        assert result["galois_entangled"]
        assert result["davenport_entangled"]

    def test_s5_standard_vs_pairs_not_davenport(self):
        t1 = [parse_cycles("(1 2)", 5), parse_cycles("(1 2 3 4 5)", 5)]
        t2 = [pairs_permutation(x, 5) for x in t1]
        result = character_entanglement(t1, t2)
        assert not result["davenport_entangled"]
        assert not result["galois_entangled"]

    def test_identical_representations_trivially_entangled(self):
        t1 = [p7("(1 3)(4 5)"), p7("(1 4 6 7)(2 3)")]
        result = character_entanglement(t1, t1)
        assert result["galois_entangled"]
        assert result["davenport_entangled"]

    def test_mismatched_group_orders_rejected(self):
        with pytest.raises(ValueError):
            character_entanglement(
                [parse_cycles("(1 2)", 3)], [parse_cycles("(1 2 3)", 3)]
            )


class TestEquivalentTuples:
    def test_conjugate_tuples_found(self):
        h = p7("(1 2 3 4 5 6 7)")
        ta = tuple(DEG7_1.cycles)
        tb = tuple(x.conjugate(h) for x in ta)
        conj = equivalent_tuples(ta, tb, 7)
        assert conj is not None
        assert all(x.conjugate(conj) == y for x, y in zip(ta, tb))

    def test_inequivalent_tuples_rejected(self):
        # Different cycle types cannot be simultaneously conjugate.
        assert (
            equivalent_tuples(tuple(DEG7_1.cycles), tuple(DEG7_2.cycles), 7)
            is None
        )

    def test_deg7_sigma_and_tau_tuples_are_not_conjugate(self):
        # Points and lines are inequivalent representations: no single
        # relabeling conjugates sigma to tau entrywise, which is exactly
        # what makes the pair interesting.
        tau = (
            p7("(1 2)(3 5)"),
            p7("(1 3 6 7)(4 5)"),
            p7("(1 7 6 5 4 3 2)"),
        )
        assert equivalent_tuples(tuple(DEG7_1.cycles), tau, 7) is None


class TestSerialization:
    def test_json_roundtrip(self):
        again = Cover.from_json(DEG7_1.to_json())
        assert again == DEG7_1

    def test_json_fields(self):
        d = DEG7_1.to_json_dict()
        assert d["degree"] == 7
        assert d["branch_points"] == ["z1", "z2", "infinity"]
        assert d["cycles"][0] == "(1 3)(4 5)"

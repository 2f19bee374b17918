"""Unit tests for covers: genus computations, derived covers, class
helpers, entanglement, serialization."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from fibercover import catalog
from fibercover.catalog import build_sm_pair, pairs_permutation
from fibercover.cover import (
    Cover,
    InvalidCoverError,
    ValidityReport,
    genus_from_tuple,
    multipliers,
)
from fibercover.fiberprod import CoverPair, character_entanglement
from fibercover.permcore import Permutation, identity, parse_cycles, product
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


def _seeded_cover(rng: random.Random, n: int) -> Cover:
    """A valid cover of degree ``n`` with two to five branch points, its
    entries drawn from S_n or from the cyclic group of the n-cycle, the
    last one closing the product."""
    cycle = Permutation(tuple(range(2, n + 1)) + (1,))
    while True:
        r = rng.randint(2, 5)
        if rng.random() < 0.5:
            entries = [cycle ** rng.randrange(n) for _ in range(r - 1)]
        else:
            entries = [
                Permutation(tuple(rng.sample(range(1, n + 1), n)))
                for _ in range(r - 1)
            ]
        entries.append(product(entries, n).inverse())
        labels = tuple(f"z{i}" for i in range(r))
        if any(p.is_identity for p in entries):
            continue
        cover = Cover(n, labels, tuple(entries))
        if cover.validate().valid:
            return cover


def _check_orbifold_char(cover: Cover) -> None:
    ochar = cover.orbifold_char()
    assert type(ochar) is Fraction
    assert ochar == 2 + sum(Fraction(1, c.order()) - 1 for c in cover.cycles)
    order = cover.group().order()
    assert ochar == Fraction(2 * (1 - cover.galois_closure_genus()), order)
    # The genera read off the validity report's cycle types, against the
    # entries' own indices and orders.
    n = cover.degree
    assert cover.genus() == genus_from_tuple(n, sum(c.index() for c in cover.cycles))
    assert cover.galois_closure_genus() == genus_from_tuple(
        order, sum(order // c.order() * (c.order() - 1) for c in cover.cycles)
    )


class TestOrbifoldChar:
    """``orbifold_char`` is one ``Fraction`` over the lcm of the entry
    orders; it must equal the sum of fractions it replaced and the
    Riemann-Hurwitz value 2(1 - galois_closure_genus)/|G|.  The genus and
    the Galois-closure genus must equal Riemann-Hurwitz on the entries'
    own indices and orders."""

    def test_catalog_covers(self):
        values = [catalog.get(key) for key in catalog.list_keys()]
        covers = [v for v in values if isinstance(v, Cover)]
        assert covers
        for cover in covers:
            _check_orbifold_char(cover)

    def test_catalog_projections(self):
        values = [catalog.get(key) for key in catalog.list_keys()]
        pairs = [v for v in values if isinstance(v, CoverPair)]
        assert pairs
        for pair in pairs:
            for component in pair.components:
                _check_orbifold_char(component.pry_branch_cycles())

    @pytest.mark.parametrize("n", range(2, 13))
    def test_seeded_covers(self, n):
        rng = random.Random(65537 + n)
        for _ in range(8):
            _check_orbifold_char(_seeded_cover(rng, n))

    def test_trivial_cover(self):
        cover = Cover(1, (), ())
        assert cover.orbifold_char() == Fraction(2)
        _check_orbifold_char(cover)


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
    def test_self_fiber_subdegrees(self):
        """The orbits of Stab(1) are {1} and the other six letters, so the
        degree-7 group is doubly transitive."""
        stab = DEG7_1.group().point_stabilizer(1)
        assert sorted(len(o) for o in stab.orbits()) == [1, 6]

    def test_imprimitive_cover_not_doubly_transitive(self):
        a = parse_cycles("(1 2 3 4)", 4)
        b = parse_cycles("(1 3)", 4)
        c = Cover(4, ("a", "b", "c"), (a, b, (a * b).inverse()))
        assert c.validate().valid
        stab = c.group().point_stabilizer(1)
        assert sorted(len(o) for o in stab.orbits()) != [1, 3]


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
        with pytest.raises(InvalidCoverError, match="project isomorphically"):
            character_entanglement(
                [parse_cycles("(1 2)", 3)], [parse_cycles("(1 2 3)", 3)]
            )

    def test_common_group_check_builds_two_chains(self, monkeypatch):
        """The joint chain gives the first action's order, and one chain
        of the same group with the second action's letters first gives
        the second's."""
        builds = []
        original = GeneratedGroup._build

        def counting(self, degree, *args):
            builds.append(degree)
            return original(self, degree, *args)

        monkeypatch.setattr(GeneratedGroup, "_build", counting)
        t1 = [p7("(1 3)(4 5)"), p7("(1 4 6 7)(2 3)")]
        t2 = [p7("(1 2)(3 5)"), p7("(1 3 6 7)(4 5)")]
        character_entanglement(t1, t2)
        assert builds == [14, 14]


def _graph(h: Permutation) -> tuple[int, ...]:
    """The tensor letters (x, x^h) of the graph of h, x-major."""
    n = h.degree
    return tuple(sorted((x - 1) * n + h.apply(x) for x in range(1, n + 1)))


def _graph_orbits(tuple_a, tuple_b, n) -> list[tuple[int, ...]]:
    """The components of degree n over z of the pair (tuple_a, tuple_b)."""
    labels = tuple(f"z{i}" for i in range(len(tuple_a)))
    pair = CoverPair(labels, tuple_a, tuple_b, n, n)
    return sorted(c.orbit for c in pair.components if c.deg_over_z == n)


class TestEquivalentTuples:
    """Two transitive degree-n tuples are simultaneously conjugate exactly
    when their pair has a component of degree n over z: the graph
    {(x, x^h)} of a conjugator h."""

    def test_conjugate_tuples_found(self):
        rng = random.Random(7)
        for key in ("deg7-pair-1", "deg7-pair-2"):
            pair = catalog.get(key)
            for entries in (pair.sigma, pair.tau):
                for _ in range(5):
                    letters = list(range(1, 8))
                    rng.shuffle(letters)
                    h = Permutation(tuple(letters))
                    conjugates = tuple(x.conjugate(h) for x in entries)
                    assert _graph_orbits(entries, conjugates, 7) == [_graph(h)]

    def test_inequivalent_tuples_rejected(self):
        # Different cycle types cannot be simultaneously conjugate.
        assert _graph_orbits(DEG7_1.cycles, DEG7_2.cycles, 7) == []

    def test_deg7_sigma_and_tau_tuples_are_not_conjugate(self):
        # Points and lines are inequivalent representations: no single
        # relabeling conjugates sigma to tau entrywise, which is exactly
        # what makes the pair interesting.
        for key in ("deg7-pair-1", "deg7-pair-2"):
            pair = catalog.get(key)
            weak = CoverPair(pair.branch_points, pair.sigma, pair.tau, 7, 7)
            assert sorted(c.deg_over_z for c in weak.components) == [21, 28]

    def test_matches_brute_force_over_symmetric_group(self):
        """Against every h in S_n: the components of degree n are exactly
        the graphs of the simultaneous conjugators.  Tuples are random
        product-one transitive tuples, and the partner tuple is a
        conjugate of the whole tuple, or of each entry by its own h and
        closed to product one, or random."""
        rng = random.Random(8117)
        found = missing = 0
        for _ in range(150):
            n = rng.randint(2, 5)
            letters = list(range(1, n + 1))

            def random_perm():
                images = letters[:]
                rng.shuffle(images)
                return Permutation(tuple(images))

            def closed(entries):
                """``entries`` and the inverse of their product, if the
                result is transitive, else None."""
                out = (*entries, product(entries, n).inverse())
                return out if len(GeneratedGroup(n, list(out)).orbits()) == 1 else None

            ta = None
            while ta is None:
                ta = closed(tuple(random_perm() for _ in range(rng.randint(1, 2))))
            kind = rng.randrange(3)
            tb = None
            while tb is None:
                if kind == 0:
                    h = random_perm()
                    tb = tuple(x.conjugate(h) for x in ta)
                elif kind == 1:
                    tb = closed(tuple(x.conjugate(random_perm()) for x in ta[:-1]))
                else:
                    tb = closed(tuple(random_perm() for _ in ta[:-1]))
            conjugators = [
                h
                for h in map(Permutation, itertools.permutations(letters))
                if all(x.conjugate(h) == y for x, y in zip(ta, tb))
            ]
            assert _graph_orbits(ta, tb, n) == sorted(map(_graph, conjugators))
            found += bool(conjugators)
            missing += not conjugators
        assert found > 50
        assert missing > 30

    def test_length_mismatch(self):
        # Tuples of different lengths are never paired.
        ta = tuple(DEG7_1.cycles)
        with pytest.raises(ValueError):
            CoverPair(DEG7_1.branch_points, ta, ta[:2], 7, 7)


class TestSerialization:
    def test_json_roundtrip(self):
        again = Cover.from_json_dict(json.loads(DEG7_1.to_json()))
        assert again == DEG7_1

    def test_json_round_trip_of_catalog_and_random_covers(self):
        """Every cover and pair the catalog gives, the S_m pairs for
        m = 5..8 and seeded random covers read back equal from their
        JSON."""
        values = [catalog.get(key) for key in catalog.list_keys()]
        values += [build_sm_pair(m) for m in range(5, 9)]
        rng = random.Random(7019)
        values += [_seeded_cover(rng, rng.randint(2, 8)) for _ in range(40)]
        checked = 0
        for v in values:
            if isinstance(v, (Cover, CoverPair)):
                assert type(v).from_json_dict(json.loads(v.to_json())) == v
                checked += 1
        assert checked > 50

    def test_json_fields(self):
        d = DEG7_1.to_json_dict()
        assert d["degree"] == 7
        assert d["branch_points"] == ["z1", "z2", "infinity"]
        assert d["cycles"][0] == "(1 3)(4 5)"

"""Unit tests for generated groups, cross-checked against sympy."""

import pytest
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics.perm_groups import PermutationGroup

from fibercover.permcore import Permutation, identity, parse_cycles
from fibercover.permgroup import (
    BlockSystem,
    CapExceededError,
    GeneratedGroup,
    orbits,
)


def p7(text: str) -> Permutation:
    return parse_cycles(text, 7)


DEG7_GENS = [p7("(1 3)(4 5)"), p7("(1 4 6 7)(2 3)"), p7("(1 7 6 5 4 3 2)")]


def to_sympy_group(g: GeneratedGroup) -> PermutationGroup:
    return PermutationGroup(
        [SymPerm([i - 1 for i in gen.images]) for gen in g.generators]
    )


@pytest.fixture(scope="module")
def deg7():
    return GeneratedGroup(7, DEG7_GENS)


class TestOrderAndMembership:
    def test_deg7_group_order(self, deg7):
        assert deg7.order() == 168

    def test_order_matches_sympy_oracle(self, deg7):
        assert to_sympy_group(deg7).order() == deg7.order()

    def test_symmetric_and_alternating(self):
        s5 = GeneratedGroup(5, [parse_cycles("(1 2)", 5), parse_cycles("(1 2 3 4 5)", 5)])
        a5 = GeneratedGroup(5, [parse_cycles("(1 2 3)", 5), parse_cycles("(1 2 3 4 5)", 5)])
        assert s5.order() == 120
        assert a5.order() == 60

    def test_membership(self, deg7):
        assert deg7.contains(p7("(1 2 3 4 5 6 7)"))
        assert not deg7.contains(p7("(1 2)"))  # odd permutation

    def test_membership_matches_sympy(self, deg7):
        sym = to_sympy_group(deg7)
        for x in [p7("(1 2)"), p7("(1 2 3)"), p7("(2 4)(5 6)"), p7("(1 2)(3 4)")]:
            assert deg7.contains(x) == sym.contains(
                SymPerm([i - 1 for i in x.images])
            )

    def test_order_on_random_generating_sets_matches_sympy(self):
        import random

        rng = random.Random(20260824)
        for _ in range(40):
            n = rng.randint(3, 10)
            gens = []
            for _ in range(rng.randint(1, 3)):
                img = list(range(1, n + 1))
                rng.shuffle(img)
                gens.append(Permutation(tuple(img)))
            ours = GeneratedGroup(n, gens, order_cap=10**8)
            assert ours.order() == to_sympy_group(ours).order()

    def test_joint_degree15_regression(self):
        # A generating set that once produced a wrong chain order.
        texts = [
            "(2 3)(4 5)(6 7)(8 9)(11 14)(12 13)",
            "(3 4)(7 8)(10 11)(14 15)",
            "(1 3)(6 10)(8 13)(9 14)",
            "(1 5 4 2 3)(6 14 8 12 13)(7 9 15 11 10)",
        ]
        gens = [parse_cycles(t, 15) for t in texts]
        g = GeneratedGroup(15, gens)
        assert g.order() == 120
        assert g.order() == to_sympy_group(g).order()

    def test_order_cap_enforced(self):
        with pytest.raises(CapExceededError):
            GeneratedGroup(
                12,
                [parse_cycles("(1 2)", 12), parse_cycles("(1 2 3 4 5 6 7 8 9 10 11 12)", 12)],
                order_cap=1000,
            )

    def test_elements_closure(self, deg7):
        els = deg7.elements()
        assert len(els) == 168
        assert identity(7) in els


class TestOrbitsAndStabilizers:
    def test_transitive(self, deg7):
        assert deg7.is_transitive()
        assert deg7.orbit(1) == list(range(1, 8))

    def test_trivial_group_has_singleton_orbits(self):
        g = GeneratedGroup(5, [])
        assert g.orbits() == [[1], [2], [3], [4], [5]]

    def test_orbits_with_seed_set(self, deg7):
        assert deg7.orbits(seed_set=[3]) == [list(range(1, 8))]

    def test_orbits_match_sympy_on_random_generator_sets(self):
        import random

        rng = random.Random(6007)
        for _ in range(300):
            n = rng.randint(1, 12)
            gens = []
            for _ in range(rng.randint(1, 3)):
                # A random permutation of a random subset of the letters,
                # so that many generator sets are intransitive.
                support = rng.sample(range(1, n + 1), rng.randint(1, n))
                moved = support[:]
                rng.shuffle(moved)
                img = list(range(1, n + 1))
                for a, b in zip(support, moved):
                    img[a - 1] = b
                gens.append(Permutation(tuple(img)))
            ours = orbits(gens, n)
            sym = PermutationGroup([SymPerm([i - 1 for i in g.images]) for g in gens])
            assert ours == sorted(sorted(i + 1 for i in o) for o in sym.orbits())
            assert GeneratedGroup(n, gens, order_cap=10**9).orbits() == ours

    def test_point_stabilizer_order(self, deg7):
        stab = deg7.point_stabilizer(1)
        assert stab.order() == 24  # 168 / 7
        assert all(g.apply(1) == 1 for g in stab.generators)

    def test_orbit_stabilizer_relation(self, deg7):
        for i in range(1, 8):
            assert len(deg7.orbit(i)) * deg7.point_stabilizer(i).order() == 168

    def test_stabilizer_orbits_give_subdegrees(self, deg7):
        stab = deg7.point_stabilizer(1)
        assert sorted(len(o) for o in stab.orbits()) == [1, 6]


class TestBlocks:
    def test_deg7_group_primitive(self, deg7):
        assert deg7.is_primitive()
        assert to_sympy_group(deg7).is_primitive()

    def test_dihedral_blocks(self):
        # The rotation-reflection group on 6 letters is imprimitive.
        g = GeneratedGroup(
            6,
            [parse_cycles("(1 2 3 4 5 6)", 6), parse_cycles("(2 6)(3 5)", 6)],
        )
        systems = g.block_systems()
        sizes = sorted(bs.block_size for bs in systems)
        assert sizes == [2, 3]
        assert not g.is_primitive()
        assert not to_sympy_group(g).is_primitive()

    def test_cyclic_group_of_composite_order_blocks(self):
        g = GeneratedGroup(4, [parse_cycles("(1 2 3 4)", 4)])
        systems = g.block_systems()
        assert [bs.block_size for bs in systems] == [2]
        assert systems[0].blocks == ((1, 3), (2, 4))

    def test_block_system_from_partition_normalizes(self):
        a = BlockSystem.from_partition([[4, 2], [3, 1]])
        b = BlockSystem.from_partition([[1, 3], [2, 4]])
        assert a == b


class TestCosetAction:
    def test_coset_action_of_point_stabilizer_recovers_degree(self, deg7):
        h = deg7.point_stabilizer(1)
        perms, index = deg7.coset_action(h)
        assert index == 7
        image = GeneratedGroup(7, perms)
        assert image.order() == 168
        assert image.is_transitive()

    def test_index_multiplicativity(self):
        s4 = GeneratedGroup(4, [parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)])
        k = s4.point_stabilizer(4)  # S3, order 6
        h = k.point_stabilizer(3)  # S2, order 2
        _, idx_gh = s4.coset_action(h)
        _, idx_gk = s4.coset_action(k)
        _, idx_kh = k.coset_action(h)
        assert idx_gh == idx_gk * idx_kh

    def test_non_subgroup_rejected(self, deg7):
        other = GeneratedGroup(7, [p7("(1 2)")])
        with pytest.raises(ValueError):
            deg7.coset_action(other)


class TestConjugacy:
    def test_involution_class_size(self, deg7):
        cls = deg7.conjugacy_class(p7("(1 3)(4 5)"))
        assert len(cls) == 21

    def test_two_seven_cycle_classes(self, deg7):
        s = p7("(1 2 3 4 5 6 7)")
        cls = deg7.conjugacy_class(s)
        assert len(cls) == 24
        assert not deg7.are_conjugate(s, s**3)
        assert deg7.are_conjugate(s, s**2)

    def test_class_sizes_sum_to_order(self, deg7):
        seen = set()
        total = 0
        for x in deg7.elements():
            if x in seen:
                continue
            cls = deg7.conjugacy_class(x)
            seen.update(cls)
            total += len(cls)
        assert total == 168

    def test_class_representative_deterministic(self, deg7):
        x = p7("(1 3)(4 5)")
        rep = deg7.class_representative(x)
        assert rep == min(deg7.conjugacy_class(x))


class TestNormalizer:
    def test_deg7_normalizer_is_the_group_itself(self, deg7):
        n = deg7.normalizer_in_symmetric()
        assert n.order() == 168

    def test_cyclic_3_normalizer_in_s3(self):
        g = GeneratedGroup(3, [parse_cycles("(1 2 3)", 3)])
        n = g.normalizer_in_symmetric()
        assert n.order() == 6

    def test_degree_cap(self):
        g = GeneratedGroup(10, [parse_cycles("(1 2 3 4 5 6 7 8 9 10)", 10)])
        with pytest.raises(CapExceededError):
            g.normalizer_in_symmetric()

    def test_class_stabilizer_preserves_classes(self, deg7):
        classes = [
            deg7.conjugacy_class(p7("(1 3)(4 5)")),
            deg7.conjugacy_class(p7("(1 2 3 4 5 6 7)")),
        ]
        stab = deg7.class_stabilizer(classes)
        assert stab.order() == 168  # normalizer = G and G fixes its classes

    def test_class_stabilizer_in_the_group_itself(self, monkeypatch):
        """With ambient = G, G fixes its own classes and is the answer: no
        element of the ambient group is listed."""
        s8 = GeneratedGroup(
            8, [parse_cycles("(1 2)", 8), parse_cycles("(1 2 3 4 5 6 7 8)", 8)]
        )
        classes = [s8.conjugacy_class(g) for g in s8.generators]

        def refuse(group):
            raise AssertionError("ambient elements listed")

        monkeypatch.setattr(GeneratedGroup, "elements", refuse)
        assert s8.class_stabilizer(classes, ambient=s8).order() == 40320

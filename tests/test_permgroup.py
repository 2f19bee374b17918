"""Unit tests for generated groups, cross-checked against sympy."""

import itertools
import random
from collections import Counter, deque
from math import factorial

import pytest
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics.perm_groups import PermutationGroup

from fibercover import catalog, permgroup
from fibercover.permcore import Permutation, identity, parse_cycles
from fibercover.permgroup import (
    BlockSystem,
    CapExceededError,
    GeneratedGroup,
    _generates,
    orbits,
)


# PSL(3,3) on the 13 points of PG(2,3), of order 5,616.
PSL33_GENERATORS = [
    "(2 8 11)(3 9 13)(4 10 12)",
    "(1 5 2)(3 6 8)(4 7 11)(10 13 12)",
    "(1 3 4)(6 9 12)(7 13 10)",
]


def p7(text: str) -> Permutation:
    return parse_cycles(text, 7)


DEG7_GENS = [p7("(1 3)(4 5)"), p7("(1 4 6 7)(2 3)"), p7("(1 7 6 5 4 3 2)")]


def to_sympy_group(g: GeneratedGroup) -> PermutationGroup:
    # The identity fixes sympy's degree when every generator is trivial.
    return PermutationGroup(
        [SymPerm(list(range(g.degree)))]
        + [SymPerm([i - 1 for i in gen.images]) for gen in g.generators]
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
            ours = GeneratedGroup(n, gens)
            assert ours.order() == to_sympy_group(ours).order()

    def test_order_on_sparse_generating_sets_matches_sympy(self):
        """Small and intransitive groups, such as the cyclic group of one
        element of cycle type (2, 3, 5): every residue must send the
        Schreier check back to the level that received it."""
        rng = random.Random(3001)
        for _ in range(300):
            n = rng.randint(2, 12)
            gens = [_random_sparse_perm(rng, n) for _ in range(rng.randint(1, 4))]
            ours = GeneratedGroup(n, gens)
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
        """Any order builds; the listing cap refuses the elements."""
        s12 = GeneratedGroup(
            12,
            [parse_cycles("(1 2)", 12), parse_cycles("(1 2 3 4 5 6 7 8 9 10 11 12)", 12)],
        )
        assert s12.order() == 479001600
        with pytest.raises(CapExceededError):
            s12.elements()

    def test_elements_closure(self, deg7):
        els = deg7.elements()
        assert len(els) == 168
        assert identity(7) in els

    def test_elements_listed_once(self, deg7):
        assert deg7.elements() is deg7.elements()


class TestOrbitsAndStabilizers:
    def test_transitive(self, deg7):
        assert deg7.is_transitive()
        assert deg7.orbit(1) == list(range(1, 8))

    def test_trivial_group_has_singleton_orbits(self):
        g = GeneratedGroup(5, [])
        assert g.orbits() == [[1], [2], [3], [4], [5]]

    def test_orbits_match_sympy_on_random_generator_sets(self):
        import random

        rng = random.Random(6007)
        for _ in range(300):
            n = rng.randint(1, 12)
            gens = [_random_sparse_perm(rng, n) for _ in range(rng.randint(1, 3))]
            ours = orbits(gens, n)
            sym = PermutationGroup([SymPerm([i - 1 for i in g.images]) for g in gens])
            assert ours == sorted(sorted(i + 1 for i in o) for o in sym.orbits())
            assert GeneratedGroup(n, gens).orbits() == ours

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

    @pytest.mark.parametrize("letter", [0, 8, -1])
    def test_orbit_of_a_letter_out_of_range_refused(self, deg7, letter):
        with pytest.raises(ValueError, match=f"letter {letter} out of range"):
            deg7.orbit(letter)


def _random_sparse_perm(rng: random.Random, n: int) -> Permutation:
    """A random permutation of a random subset of the letters, so that
    many generated groups are intransitive or small."""
    support = rng.sample(range(1, n + 1), rng.randint(1, n))
    moved = support[:]
    rng.shuffle(moved)
    images = list(range(1, n + 1))
    for a, b in zip(support, moved):
        images[a - 1] = b
    return Permutation(tuple(images))


def _random_group(rng: random.Random, max_degree: int) -> GeneratedGroup:
    n = rng.randint(1, max_degree)
    draw = rng.choice([_random_perm, _random_sparse_perm])
    return GeneratedGroup(n, [draw(rng, n) for _ in range(rng.randint(1, 3))])


class TestOrderBound:
    """A chain may stop once the product of its orbit lengths reaches a
    proved upper bound on the group order; the answers must be those of
    a full build."""

    def test_point_stabilizer_order_matches_sympy(self):
        rng = random.Random(7919)
        for _ in range(40):
            g = _random_group(rng, 8)
            sym = to_sympy_group(g)
            for letter in range(1, g.degree + 1):
                expected = sym.stabilizer(letter - 1).order()
                assert g.point_stabilizer(letter).order() == expected

    def test_point_stabilizer_membership_over_group_elements(self):
        rng = random.Random(104729)
        checked = 0
        while checked < 25:
            g = _random_group(rng, 8)
            if g.order() > 5040:
                continue
            letter = rng.randint(1, g.degree)
            stab = g.point_stabilizer(letter)
            for x in g.elements():
                assert stab.contains(x) == (x.apply(letter) == letter)
            checked += 1

    def test_bounded_build_matches_full_build(self):
        rng = random.Random(1299709)
        for _ in range(60):
            g = _random_group(rng, 8)
            n = g.degree
            for bound in (g.order(), factorial(n)):
                bounded = GeneratedGroup._streamed(n, g.generators, bound)
                assert bounded.order() == g.order()
                for _ in range(20):
                    x = _random_perm(rng, n)
                    assert bounded.contains(x) == g.contains(x)

    def test_bound_reached_while_sifting_generators_skips_verify(self, monkeypatch):
        def refuse(group, bound):
            raise AssertionError("Schreier generators checked after the bound")

        monkeypatch.setattr(permgroup.GeneratedGroup, "_verify", refuse)
        s3 = [parse_cycles("(1 2 3)", 3), parse_cycles("(1 2)", 3)]
        assert GeneratedGroup._streamed(3, s3, 6).order() == 6

    def test_streamed_generators_are_the_objects_passed_in(self):
        """The chain wraps no copy: the kept generators are the very
        permutations streamed in, identities and repeats dropped."""
        cycle, again = parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 2 3 4)", 4)
        swap = parse_cycles("(1 2)", 4)
        passed = [identity(4), cycle, again, swap]
        group = GeneratedGroup._streamed(4, iter(passed), 24)
        assert [id(g) for g in group.generators] == [id(cycle), id(swap)]
        assert group.order() == 24

    def test_bound_below_the_order_is_refused(self):
        s4 = [parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 2)", 4)]
        with pytest.raises(RuntimeError, match="exceeds its bound"):
            GeneratedGroup._streamed(4, s4, 5)


def _first_moved(x: Permutation) -> int:
    return next(i for i, image in enumerate(x.images, start=1) if image != i)


class TestCompactChain:
    """The chain has levels only down to the deepest base point that a
    strong generator moves; past it only the identity is left, which a
    sift checks with one compare."""

    @staticmethod
    def _groups(seed):
        rng = random.Random(seed)
        yield GeneratedGroup(5, [])
        yield GeneratedGroup(1, [])
        s4_fixing_5_to_9 = [parse_cycles("(1 2 3 4)", 9), parse_cycles("(1 2)", 9)]
        yield GeneratedGroup(9, s4_fixing_5_to_9)
        yield GeneratedGroup(9, [parse_cycles("(1 2 3)(4 5)", 9)])
        for _ in range(60):
            g = _random_group(rng, 7)
            yield g
            yield g.point_stabilizer(1)

    def test_levels_stop_at_the_deepest_moved_base_point(self):
        depths = Counter()
        for g in self._groups(8647):
            moved = [_first_moved(x) for x in g.elements() if not x.is_identity]
            assert len(g._levels) == max(moved, default=0)
            if g._levels:
                assert len(g._levels[-1].inverses) > 1
            depths[len(g._levels) < g.degree] += 1
        assert depths[True] > 20

    def test_membership_past_the_last_level(self):
        rng = random.Random(9161)
        for g in self._groups(8647):
            depth, n = len(g._levels), g.degree
            elements = set(g.elements())
            for _ in range(10):
                tail = list(range(depth + 1, n + 1))
                rng.shuffle(tail)
                x = Permutation(list(range(1, depth + 1)) + tail)
                assert g.contains(x) == (x in elements)
            for x in rng.sample(sorted(elements), min(5, len(elements))):
                assert g.contains(x)


def _bfs_transversal(point, generators, degree):
    """Breadth-first (FIFO) transversal of the orbit of ``point``, letters
    in discovery order: the oracle for ``_Level.add_generators``."""
    transversal = {point: identity(degree)}
    queue = deque([point])
    while queue:
        p = queue.popleft()
        for g in generators:
            q = g.apply(p)
            if q not in transversal:
                transversal[q] = transversal[p] * g
                queue.append(q)
    return transversal


def _padded(p: Permutation) -> tuple[int, ...]:
    return (0, *p.images)


class TestLevelTransversal:
    """``_Level.add_generators`` is the chain's incremental transversal
    walk, on padded image tuples ``(0, p(1), ..., p(n))``; a fresh level
    given all generators is the breadth-first transversal, the one
    ``_orbit_stabilizer`` walks for ``point_stabilizer`` and the
    projection's carrier."""

    @staticmethod
    def _generator_sets(seed):
        rng = random.Random(seed)
        for _ in range(120):
            n = rng.randint(1, 8)
            draw = rng.choice([_random_perm, _random_sparse_perm])
            yield n, rng.randint(1, n), [draw(rng, n) for _ in range(rng.randint(1, 4))]

    def test_fresh_level_is_the_breadth_first_transversal(self):
        intransitive = 0
        for n, point, gens in self._generator_sets(2741):
            level = permgroup._Level(point, (0, *range(1, n + 1)))
            level.add_generators([_padded(g) for g in gens])
            expected = _bfs_transversal(point, gens, n)
            assert list(level.transversal) == list(expected)
            assert level.transversal == {q: _padded(t) for q, t in expected.items()}
            walked, _ = permgroup._orbit_stabilizer(
                GeneratedGroup(n, gens), point, permgroup._letter_image, "letters"
            )
            assert list(walked) == list(expected)
            assert walked == expected
            intransitive += len(expected) < n
        assert intransitive > 20

    def test_entries_carry_the_point_and_inverses_undo_them(self):
        for n, point, gens in self._generator_sets(3323):
            one = (0, *range(1, n + 1))
            level = permgroup._Level(point, one)
            level.add_generators([_padded(g) for g in gens])
            assert level.inverses.keys() == level.transversal.keys()
            for q, u in level.transversal.items():
                assert u[point] == q
                assert tuple(u[x] for x in level.inverses[q]) == one

    def test_one_generator_at_a_time_reaches_the_same_orbit(self):
        for n, point, gens in self._generator_sets(4391):
            one = (0, *range(1, n + 1))
            level = permgroup._Level(point, one)
            for g in gens:
                level.add_generators([_padded(g)])
            assert sorted(level.transversal) == sorted(_bfs_transversal(point, gens, n))
            for q, u in level.transversal.items():
                assert u[point] == q
                assert tuple(u[x] for x in level.inverses[q]) == one


def _all_schreier_generators(g: GeneratedGroup, letter: int) -> list[Permutation]:
    """Every Schreier generator u * s * v^-1 of the stabilizer of
    ``letter``, over the breadth-first transversal."""
    transversal = _bfs_transversal(letter, g.generators, g.degree)
    return [
        u * s * transversal[s.apply(p)].inverse()
        for p, u in transversal.items()
        for s in g.generators
    ]


class TestStabilizerGenerators:
    """``point_stabilizer`` generates Stab(1) by the strong generators
    fixing 1, the chain's tail, and any other letter's stabilizer by the
    Schreier generators whose residue extended its chain; either way they
    must generate the stabilizer that all the Schreier generators
    generate.  Stab(1) builds no chain, any other stabilizer one."""

    def test_kept_generators_generate_the_schreier_group(self):
        rng = random.Random(6007)
        intransitive = fewer = 0
        for _ in range(80):
            g = _random_group(rng, 8)
            letter = rng.randint(1, g.degree)
            stab = g.point_stabilizer(letter)
            assert all(s.apply(letter) == letter for s in stab.generators)
            schreier = _all_schreier_generators(g, letter)
            full = GeneratedGroup(g.degree, schreier)
            assert all(full.contains(s) for s in stab.generators)
            assert all(stab.contains(s) for s in schreier)
            expected = to_sympy_group(g).stabilizer(letter - 1).order()
            assert stab.order() == full.order() == expected
            intransitive += not g.is_transitive()
            fewer += len(stab.generators) < len(full.generators)
        assert intransitive > 10
        assert fewer > 15

    def test_first_letter_stabilizer_is_the_chain_tail(self):
        """Stab(1) shares the group's levels below the first; it answers
        membership, coset minima, listing and its own stabilizers as a
        chain built from its generators does."""
        rng = random.Random(5039)
        for _ in range(60):
            g = _random_group(rng, 8)
            n = g.degree
            tail = g.point_stabilizer(1)
            fresh = GeneratedGroup(n, tail.generators)
            assert tail.order() == fresh.order() == g.order() // len(g.orbit(1))
            assert tail.point_stabilizer(1).order() == tail.order()
            for letter in range(2, n + 1):
                assert (
                    tail.point_stabilizer(letter).order()
                    == fresh.point_stabilizer(letter).order()
                )
            for _ in range(10):
                x = _random_perm(rng, n)
                assert tail.contains(x) == fresh.contains(x)
                assert tail.coset_minimum(x) == fresh.coset_minimum(x)
            if tail.order() <= 720:
                assert tail.elements() == fresh.elements()

    def test_point_stabilizer_builds_one_chain(self, monkeypatch):
        built = []
        original = GeneratedGroup._build

        def recording(group, degree, generators, bound):
            built.append((group, degree))
            return original(group, degree, generators, bound)

        rng = random.Random(7207)
        first = 0
        for _ in range(80):
            g = _random_group(rng, 8)
            letter = rng.choice([1, rng.randint(1, g.degree)])
            monkeypatch.setattr(GeneratedGroup, "_build", recording)
            stab = g.point_stabilizer(letter)
            monkeypatch.undo()
            assert built == ([] if letter == 1 else [(stab, g.degree)])
            assert stab.order() * len(g.orbit(letter)) == g.order()
            built.clear()
            first += letter == 1
        assert first > 30


class TestGenerationTest:
    """``_generates`` compares the candidates' orbits with the group's
    before it builds a chain; its answer is the order comparison's."""

    def test_intransitive_candidates_build_no_chain(self, deg7, monkeypatch):
        def refuse(*args):
            raise AssertionError("a stabilizer chain was built")

        monkeypatch.setattr(GeneratedGroup, "_build", refuse)
        # Both move only the letters 1..5 of the transitive deg7 group.
        assert not _generates(deg7, [p7("(1 3)(4 5)"), p7("(1 5 4)(2 3)")])

    def test_matches_the_order_comparison(self):
        rng = random.Random(8123)
        agreed = Counter()
        for _ in range(150):
            g = _random_group(rng, 7)
            elements = g.elements()
            candidates = [rng.choice(elements) for _ in range(rng.randint(1, 3))]
            expected = GeneratedGroup(g.degree, candidates).order() == g.order()
            assert _generates(g, candidates) == expected
            same_orbits = orbits(candidates, g.degree) == g.orbits()
            agreed[expected, same_orbits] += 1
        assert agreed[True, True] > 10
        assert agreed[False, True] > 10
        assert agreed[False, False] > 10

    def test_intransitive_joint_group(self):
        """The paired S5 on 5 + 10 letters has two orbits; its own
        generators generate it, one of them alone does not."""
        group = catalog.get("hilbert-siegel-m5").joint_spec.group
        assert len(group.orbits()) == 2
        assert _generates(group, group.generators)
        assert not _generates(group, group.generators[:1])


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

    def test_matches_brute_force_on_random_transitive_groups(self, monkeypatch):
        """Every block B through 1 whose images under G partition the
        letters, found by trying the subsets through 1, on seeded random
        transitive groups of degree <= 8: wreath-like ones, whose
        generators keep a tower of runs of consecutive letters, and ones
        from arbitrary generators (an empty tower).  ``is_primitive``
        tries at most one minimal system per orbit of Stab(1) other than
        {1}, and joins none."""
        calls = []
        original = GeneratedGroup._minimal_block

        def counting(self, seeds):
            calls.append(seeds)
            return original(self, seeds)

        rng = random.Random(3163)
        checked = imprimitive = several = 0
        while checked < 200:
            n = rng.choice([4, 6, 8, rng.randint(2, 8)])
            sizes = _run_tower(rng, n)
            gens = [_tower_preserving(rng, n, sizes) for _ in range(rng.randint(1, 3))]
            g = GeneratedGroup(n, gens)
            if not g.is_transitive():
                continue
            expected = _brute_block_systems(g)
            assert g.block_systems() == expected
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(GeneratedGroup, "_minimal_block", counting)
                assert g.is_primitive() == (not expected)
            assert len(calls) <= len(g.point_stabilizer(1).orbits()) - 1
            checked += 1
            imprimitive += len(expected) > 0
            several += len(expected) > 1
        assert imprimitive > 80 and several > 20

    def test_builds_no_chain(self, monkeypatch):
        """Stab(1) is the chain's tail, and minimal blocks and joins are
        union-find walks over the generators, so no group is built."""
        groups = [
            GeneratedGroup(12, [parse_cycles("(1 2 3 4 5 6 7 8 9 10 11 12)", 12)]),
            GeneratedGroup(
                8, [parse_cycles("(1 2)", 8), parse_cycles("(1 3 5 7)(2 4 6 8)", 8)]
            ),
        ]
        builds = []
        original = GeneratedGroup._build

        def counting(self, *args):
            builds.append(args)
            return original(self, *args)

        monkeypatch.setattr(GeneratedGroup, "_build", counting)
        assert [len(g.block_systems()) for g in groups] == [4, 2]
        assert builds == []


def _run_tower(rng, n):
    """Random run sizes 1 < s1 < s2 < ... < n, each dividing the next
    and n."""
    sizes = []
    while rng.random() < 0.7:
        low = sizes[-1] if sizes else 1
        choices = [m for m in range(low + 1, n) if n % m == 0 and m % low == 0]
        if not choices:
            break
        sizes.append(rng.choice(choices))
    return sizes


def _tower_preserving(rng, n, sizes):
    """A random permutation of 1..n that permutes the runs of s
    consecutive letters for every s in ``sizes``."""

    def offsets(n, sizes):
        if not sizes:
            return rng.sample(range(n), n)
        s = sizes[-1]
        runs = rng.sample(range(n // s), n // s)
        return [r * s + i for r in runs for i in offsets(s, sizes[:-1])]

    return Permutation(tuple(i + 1 for i in offsets(n, sizes)))


def _brute_block_systems(g):
    """The systems of every subset B through 1, 1 < |B| < n, whose images
    (walked over the generators) pairwise coincide or are disjoint: the
    images cover the letters, so they are disjoint when their sizes sum
    to n."""
    n = g.degree
    found = set()
    for size in range(2, n):
        if n % size:
            continue
        for rest in itertools.combinations(range(2, n + 1), size - 1):
            images = [frozenset((1, *rest))]
            for b in images:
                for x in g.generators:
                    image = frozenset(x.apply(i) for i in b)
                    if image not in images:
                        images.append(image)
            if len(images) * size == n:
                found.add(BlockSystem.from_partition([list(b) for b in images]))
    return sorted(found, key=lambda b: (b.block_size, b.blocks))


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

    def test_matches_sift_scan_on_random_pairs(self):
        # H is cyclic, for a spread of indices.  The scan costs about
        # index**2 sifts, so pairs of index above 120 are drawn again; the
        # trivial H of the degree-7 case below has index 168.
        rng = random.Random(4111)
        checked = 0
        while checked < 120:
            n = rng.randint(1, 6)
            g = GeneratedGroup(n, [_random_perm(rng, n) for _ in range(rng.randint(1, 3))])
            h = GeneratedGroup(n, [rng.choice(g.elements())])
            if g.order() // h.order() > 120:
                continue
            assert g.coset_action(h) == _sift_scan_coset_action(g, h)
            checked += 1

    @pytest.mark.parametrize("which", ["point stabilizer", "trivial group"])
    def test_matches_sift_scan_on_deg7_catalog_group(self, which):
        g = catalog.get("deg7-cover-1").group()
        h = g.point_stabilizer(1) if which == "point stabilizer" else GeneratedGroup(7, [])
        assert g.coset_action(h) == _sift_scan_coset_action(g, h)

    def test_coset_minimum_is_least_coset_element(self):
        rng = random.Random(5003)
        for _ in range(60):
            n = rng.randint(1, 6)
            h = GeneratedGroup(n, [_random_perm(rng, n) for _ in range(rng.randint(0, 2))])
            x = _random_perm(rng, n)
            assert h.coset_minimum(x) == min(y * x for y in h.elements())


def _random_perm(rng: random.Random, n: int) -> Permutation:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


def _sift_scan_coset_action(g: GeneratedGroup, h: GeneratedGroup):
    """The coset action by the scan that least-coset labels replaced: a
    coset's label is found by one membership sift per known coset."""
    reps = [identity(g.degree)]

    def label_of(x):
        for i, r in enumerate(reps, start=1):
            if h.contains(x * r.inverse()):
                return i
        return None

    frontier = deque([identity(g.degree)])
    while frontier:
        rep = frontier.popleft()
        for gen in g.generators:
            x = rep * gen
            if label_of(x) is None:
                reps.append(x)
                frontier.append(x)
    images = [[label_of(rep * gen) for rep in reps] for gen in g.generators]
    return [Permutation(tuple(img)) for img in images], len(reps)


class TestListingCap:
    """One cap bounds every listing of elements, class members and cosets;
    lowered to 1000 here so that S8 crosses it."""

    @pytest.fixture
    def s8(self, monkeypatch):
        monkeypatch.setattr(permgroup, "LISTING_CAP", 1000)
        return GeneratedGroup(
            8, [parse_cycles("(1 2)", 8), parse_cycles("(1 2 3 4 5 6 7 8)", 8)]
        )

    def test_large_class_refused(self, s8):
        with pytest.raises(CapExceededError, match="class members"):
            s8.conjugacy_class(parse_cycles("(1 2 3 4 5 6 7 8)", 8))

    def test_small_class_listed(self, s8):
        assert len(s8.conjugacy_class(parse_cycles("(1 2)", 8))) == 28

    def test_elements_refused(self, s8):
        with pytest.raises(CapExceededError, match="40320 group elements"):
            s8.elements()

    def test_coset_index_refused_before_listing(self, s8, monkeypatch):
        def refuse(group, x):
            raise AssertionError("a coset was listed before the cap check")

        monkeypatch.setattr(permgroup.GeneratedGroup, "coset_minimum", refuse)
        cyclic = GeneratedGroup(8, [parse_cycles("(1 2 3 4 5 6 7 8)", 8)])
        with pytest.raises(CapExceededError, match="5040 cosets"):
            s8.coset_action(cyclic)


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


class TestNormalizer:
    def test_deg7_normalizer_is_the_group_itself(self, deg7):
        n = deg7.normalizer_in_symmetric()
        assert n.order() == 168

    def test_cyclic_3_normalizer_in_s3(self):
        g = GeneratedGroup(3, [parse_cycles("(1 2 3)", 3)])
        n = g.normalizer_in_symmetric()
        assert n.order() == 6

    def test_degree_cap(self):
        """No degree refuses the search: C10 has normalizer C10 : C4, and
        a subgroup of index at most 2 is normal in S_n and needs none."""
        g = GeneratedGroup(10, [parse_cycles("(1 2 3 4 5 6 7 8 9 10)", 10)])
        assert g.normalizer_in_symmetric().order() == 40
        s10 = GeneratedGroup(
            10, [parse_cycles("(1 2)", 10), parse_cycles("(1 2 3 4 5 6 7 8 9 10)", 10)]
        )
        a10 = GeneratedGroup(
            10, [parse_cycles("(1 2 3)", 10), parse_cycles("(2 3 4 5 6 7 8 9 10)", 10)]
        )
        assert a10.order() == factorial(10) // 2
        for g in (s10, a10):
            assert g.normalizer_in_symmetric().order() == factorial(10)

    @pytest.mark.parametrize(
        "n, order", [(10, 40), (11, 110), (12, 48), (13, 156), (16, 128)]
    )
    def test_cyclic_above_degree_9(self, n, order):
        """N_{S_n}(C_n) is the holomorph C_n : Aut(C_n), of order n * phi(n)."""
        cycle = "(" + " ".join(map(str, range(1, n + 1))) + ")"
        g = GeneratedGroup(n, [parse_cycles(cycle, n)])
        assert g.normalizer_in_symmetric().order() == order

    def test_psl_2_11_on_12_points(self):
        """PSL(2,11) on the projective line over F_11 is normalized by
        PGL(2,11), of order 1320."""
        g = GeneratedGroup(
            12,
            [
                parse_cycles("(1 2 3 4 5 6 7 8 9 10 11)", 12),
                parse_cycles("(1 12)(2 11)(3 6)(4 8)(5 9)(7 10)", 12),
            ],
        )
        assert g.order() == 660
        assert g.normalizer_in_symmetric().order() == 1320

    def test_psl_3_3_on_13_points(self):
        """PSL(3,3) on the points of PG(2,3) is its own normalizer in S13:
        the graph automorphism swaps points and lines."""
        g = GeneratedGroup(13, [parse_cycles(c, 13) for c in PSL33_GENERATORS])
        assert g.order() == 5616
        assert g.normalizer_in_symmetric().order() == 5616

    def test_candidates_counted_before_any_is_formed(self, monkeypatch):
        """<(1 2)> in S12: one target times |C_{S12}((1 2))| = 2 * 10!
        candidates, refused before the first is formed."""

        def refuse(p, t):
            raise AssertionError("a candidate was formed")

        monkeypatch.setattr(permgroup, "_conjugators_onto", refuse)
        g = GeneratedGroup(12, [parse_cycles("(1 2)", 12)])
        with pytest.raises(CapExceededError, match="7257600 normalizer candidates"):
            g.normalizer_in_symmetric()

    @pytest.mark.parametrize(
        "degree, generators, order, formed",
        [
            (16, ["(" + " ".join(map(str, range(1, 17))) + ")"], 128, 34),
            (
                12,
                ["(1 2 3 4 5 6 7 8 9 10 11)", "(1 12)(2 11)(3 6)(4 8)(5 9)(7 10)"],
                1320,
                2,
            ),
            (11, ["(1 2)(3 4)"], 40320, 20162),
            (13, PSL33_GENERATORS, 5616, 1944),
            (7, [str(g) for g in DEG7_GENS], 168, 14),
        ],
        ids=["C16", "PSL(2,11)", "(1 2)(3 4) in S11", "PSL(3,3)", "PSL(2,7)"],
    )
    def test_search_stops_at_its_bound(
        self, degree, generators, order, formed, monkeypatch
    ):
        """N carries g1 into the elements of G of its cycle type, so |N| is
        at most their number times |C_{S_n}(g1)|; the search returns once
        the group reaches that bound, and scans every candidate only when
        N lies below it (PSL(3,3), PSL(2,7))."""
        count = 0
        conjugators_onto = permgroup._conjugators_onto

        def counted(p, t):
            nonlocal count
            for h in conjugators_onto(p, t):
                count += 1
                yield h

        monkeypatch.setattr(permgroup, "_conjugators_onto", counted)
        g = GeneratedGroup(degree, [parse_cycles(c, degree) for c in generators])
        assert g.normalizer_in_symmetric().order() == order
        assert count == formed

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

    def test_class_stabilizer_lists_no_ambient_element(self, monkeypatch):
        """The 3-cycles of A7 in S7: the stabilizer of the class multiset,
        S7 itself, comes from one orbit walk, not a sweep of S7."""
        a7 = GeneratedGroup(
            7, [parse_cycles("(1 2 3)", 7), parse_cycles("(3 4 5 6 7)", 7)]
        )
        s7 = GeneratedGroup(
            7, [parse_cycles("(1 2)", 7), parse_cycles("(1 2 3 4 5 6 7)", 7)]
        )
        classes = [a7.conjugacy_class(parse_cycles("(1 2 3)", 7))]
        assert a7.order() == 2520 and len(classes[0]) == 70

        def refuse(group):
            raise AssertionError("ambient elements listed")

        monkeypatch.setattr(GeneratedGroup, "elements", refuse)
        assert a7.class_stabilizer(classes, ambient=s7).order() == 5040

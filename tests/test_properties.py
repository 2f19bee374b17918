"""Randomized and property-based checks of the structural invariants:

* the degree/index genus formula always yields a non-negative integer on
  valid branch-cycle tuples (the index sum has even parity);
* the two independent component-genus computations agree on random
  reducible pairs;
* local ramification multiplicities of a fiber product sum to the
  degree;
* components and subgroup witnesses, found without a chain on the
  tensor letters, match the group generated by the tensor cycles;
* braid moves preserve Nielsen-class membership;
* Nielsen counts: a class-algebra count of product-one tuples equals a
  plain loop, raw enumeration lists exactly the generating tuples the
  loop finds, and raw = inner representatives times |G : Z(G)|;
* in every mode, with and without reorderings and with outer elements
  that fuse classes, the representatives are the canonical forms over
  all conjugators of the generating tuples the plain loop finds;
* the normalizer and class stabilizer equal a sweep over all of S_n;
* each listed class is a plain conjugation closure, every kept
  conjugator carries its walk's start to its member, |class| * |C| =
  |G|, and class stabilizers equal a sweep over the ambient group;
* group elements listed from the stabilizer chain equal a closure walk;
* the lazy product-one adjustment returns what the backward-table
  search returns, and yields every product-one choice in its order;
* each class is listed in order of least conjugator, read from the
  centralizer's chain, exactly as conjugating by every sorted element
  lists it, also for members that reuse another member's class walk,
  and the centralizer has sympy's order;
* the x-side order of a paired cover, read off the joint chain, is the
  order of the x-side's own group;
* quotient covers never have larger genus than the cover they come
  from.
"""

import random
from collections import Counter
from itertools import combinations, permutations
from itertools import product as cartesian

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics.perm_groups import PermutationGroup

from fibercover import catalog, nielsen, permgroup
from fibercover.cover import Cover, InvalidCoverError
from fibercover.fiberprod import (
    CoverPair,
    PairedCover,
    _class_by_least_conjugator,
    _product_one_adjust,
    _quotient_covers,
    pair_covers_over_common_points,
)
from fibercover.nielsen import (
    EquivalenceMode,
    NielsenClassSpec,
    braid_apply,
    canonical_form,
    enumerate_class,
)
from fibercover.permcore import (
    Permutation,
    _realizations,
    direct_sum,
    identity,
    parse_cycles,
    product,
    split,
)
from fibercover.permgroup import BlockSystem, GeneratedGroup, orbits

# -- random element generators ------------------------------------------------


def _random_symmetric(rng: random.Random, n: int) -> Permutation:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


def _random_alternating(rng: random.Random, n: int) -> Permutation:
    p = _random_symmetric(rng, n)
    if _sign(p) == -1:
        images = list(p.images)
        images[0], images[1] = images[1], images[0]
        p = Permutation(tuple(images))
    return p


def _sign(p: Permutation) -> int:
    return -1 if p.index() % 2 else 1


def _random_dihedral(rng: random.Random, n: int) -> Permutation:
    k = rng.randrange(n)
    if rng.random() < 0.5:
        images = tuple((i - 1 + k) % n + 1 for i in range(1, n + 1))
    else:
        images = tuple((k - i) % n + 1 for i in range(1, n + 1))
    return Permutation(images)


_SAMPLERS = (_random_symmetric, _random_alternating, _random_dihedral)


def _is_transitive(n: int, entries: list[Permutation]) -> bool:
    seen = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for p in entries:
            y = p.apply(x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == n


def _random_valid_tuple(rng: random.Random) -> tuple[int, list[Permutation]]:
    """A transitive product-one tuple without identity entries, with
    degree at most 8 and at most 5 entries."""
    while True:
        n = rng.randint(3, 8)
        r = rng.randint(2, 5)
        sampler = rng.choice(_SAMPLERS)
        entries = [sampler(rng, n) for _ in range(r - 1)]
        prod = identity(n)
        for p in entries:
            prod = prod * p
        entries.append(prod.inverse())
        if any(p.is_identity for p in entries):
            continue
        if not _is_transitive(n, entries):
            continue
        return n, entries


class TestGenusFormulaParity:
    def test_1000_random_tuples(self):
        rng = random.Random(20260824)
        for _ in range(1000):
            n, entries = _random_valid_tuple(rng)
            labels = [f"z{i}" for i in range(len(entries))]
            cover = Cover(n, tuple(labels), tuple(entries))
            assert cover.validate().valid
            index_sum = sum(p.index() for p in entries)
            # Parity: the index sum of a product-one tuple is even.
            assert index_sum % 2 == 0
            g = cover.genus()
            assert isinstance(g, int)
            assert g >= 0
            assert 2 * (n + g - 1) == index_sum


# -- two genus methods agree on random pairs ----------------------------------


def _random_paired_cover(rng: random.Random) -> PairedCover:
    """A random strong pair: product-one tuples over S_m acting on points
    and on unordered pairs simultaneously (a common abstract element at
    every branch point)."""
    while True:
        m = rng.choice((4, 5))
        n = m * (m - 1) // 2
        r = rng.randint(3, 4)
        words = [_random_symmetric(rng, m) for _ in range(r - 1)]
        prod = identity(m)
        for w in words:
            prod = prod * w
        words.append(prod.inverse())
        sigma = tuple(words)
        tau = tuple(catalog.pairs_permutation(w, m) for w in words)
        if any(p.is_identity for p in sigma):
            continue
        if not _is_transitive(m, list(sigma)):
            continue
        if not _is_transitive(n, list(tau)):
            continue
        labels = tuple(f"z{i}" for i in range(r))
        return PairedCover(labels, sigma, tau, m, n)


class TestGenusMethodsAgree:
    def test_200_random_pairs(self):
        rng = random.Random(9157)
        for _ in range(200):
            pair = _random_paired_cover(rng)
            for component in pair.components:
                assert component.genus_method1 == component.genus_method2


class TestPairedCoverOrders:
    """``PairedCover`` reads the x-side order off the joint chain: the
    product of its first m orbit lengths."""

    def test_leading_orbit_lengths_give_the_x_side_order(self):
        rng = random.Random(3079)
        for _ in range(150):
            pair = _random_weak_pair(rng)
            m = pair.degree_x
            expected = GeneratedGroup(m, list(pair.sigma)).order()
            assert pair.joint_group._leading_order(m) == expected

    def test_block_quotient_on_the_x_side_refused_with_its_orders(self):
        """Reflections of a 2k-gon, k odd, paired with their action on the
        k antipodal pairs: each entry keeps its order 2, and the joint
        group is the y-side's.  The pair is refused exactly when the
        quotient is not faithful, that is when the reflections generate
        all of D_2k, and the message names the three orders."""
        rng = random.Random(4177)
        refused = accepted = 0
        for _ in range(120):
            k = rng.choice([3, 5, 7])
            n = 2 * k
            tau = [
                Permutation(tuple((a - i) % n + 1 for i in range(n)))
                for a in rng.choices(range(n), k=rng.choice([3, 5]))
            ]
            tau.append(product(tau, n).inverse())
            if len(orbits(tau, n)) != 1:
                continue
            pairs = [[i, i + k] for i in range(1, k + 1)]
            antipodal = BlockSystem.from_partition(pairs)
            sigma = tuple(antipodal.quotient(p) for p in tau)
            g1 = GeneratedGroup(k, list(sigma)).order()
            g2 = GeneratedGroup(n, tau).order()
            labels = tuple(f"z{i}" for i in range(len(tau)))
            if g1 == g2:
                PairedCover(labels, sigma, tuple(tau), k, n)
                accepted += 1
                continue
            with pytest.raises(InvalidCoverError) as info:
                PairedCover(labels, sigma, tuple(tau), k, n)
            assert str(info.value) == (
                "joint group does not project isomorphically to both sides "
                f"(orders {g1}, {g2}, joint {g2})"
            )
            refused += 1
        assert refused > 20
        assert accepted > 5


class TestJointCycles:
    """``CoverPair.joint_cycles``: one direct sum per branch point, the
    x-letters 1..m first, aligned with the branch points."""

    @pytest.mark.parametrize("key", ["deg7-pair-1", "deg7-pair-2"])
    def test_weak_pairs_keep_identity_entries(self, key):
        """Projections of a degree-7 pair against cyclic covers over fresh
        points: every label is unbranched on one side."""
        identities = 0
        for component in catalog.get(key).components:
            pry = component.pry_branch_cycles()
            for d in (2, 3, 5):
                g1 = catalog.growth_family_cover("cyclic", d, pry)
                pair = pair_covers_over_common_points(pry, g1)
                joint = pair.joint_cycles
                assert len(joint) == len(pair.branch_points)
                for i, (a, b) in enumerate(zip(pair.sigma, pair.tau)):
                    assert joint[i] == direct_sum(a, b)
                    identities += a.is_identity + b.is_identity
        assert identities > 0

    def test_seeded_paired_covers_split_back(self):
        rng = random.Random(2333)
        for _ in range(40):
            pair = _random_paired_cover(rng)
            again = PairedCover.from_joint_tuple(
                pair.branch_points, pair.joint_cycles, pair.degree_x
            )
            assert (again.sigma, again.tau) == (pair.sigma, pair.tau)


class TestRamificationSumsToDegree:
    def test_local_multiplicities_partition_each_fiber(self):
        rng = random.Random(4049)
        for _ in range(40):
            pair = _random_paired_cover(rng)
            profile = pair.ramification_profile()
            for i, b in enumerate(pair.tau):
                for yc in b.cycles(include_fixed=True):
                    points = [
                        rp
                        for rp in profile
                        if rp.branch_index == i and rp.y_cycle == yc
                    ]
                    total = sum(
                        rp.count * rp.ram_index_over_y for rp in points
                    )
                    assert total == pair.degree_x


# -- the tensor group as an independent oracle for components -----------------


def _small_valid_tuple(rng: random.Random) -> tuple[int, list[Permutation]]:
    """A ``_random_valid_tuple`` of degree at most 6, so that a joint group
    of two of them has order at most 720**2."""
    while True:
        n, entries = _random_valid_tuple(rng)
        if n <= 6:
            return n, entries


def _random_weak_pair(rng: random.Random):
    """Two random valid covers over partly shared labels, weakly paired.
    Every other pair is a cover against a relabelled copy of itself over
    the same labels, which is reducible (it has a diagonal component)."""
    m, sigma = _small_valid_tuple(rng)
    if rng.random() < 0.5:
        h = _random_symmetric(rng, m)
        n, tau = m, [p.conjugate(h) for p in sigma]
        shared = len(sigma)
    else:
        n, tau = _small_valid_tuple(rng)
        shared = rng.randint(0, min(len(sigma), len(tau)))
    x_labels = [f"z{i}" for i in range(len(sigma))]
    y_labels = [f"z{i}" if i < shared else f"w{i}" for i in range(len(tau))]
    return pair_covers_over_common_points(
        Cover(m, tuple(x_labels), tuple(sigma)),
        Cover(n, tuple(y_labels), tuple(tau)),
    )


def _disjoint_pair(rng: random.Random):
    """Two random valid covers over disjoint labels, weakly paired: the
    joint group is G_x × G_y, so the fiber product is irreducible."""
    (m, sigma), (n, tau) = _small_valid_tuple(rng), _small_valid_tuple(rng)
    return pair_covers_over_common_points(
        Cover(m, tuple(f"x{i}" for i in range(len(sigma))), tuple(sigma)),
        Cover(n, tuple(f"y{i}" for i in range(len(tau))), tuple(tau)),
    )


def _check_against_tensor_group(pair) -> None:
    m, n = pair.degree_x, pair.degree_y
    tensor = GeneratedGroup(m * n, list(pair.tensor_cycles))
    assert [list(c.orbit) for c in pair.components] == tensor.orbits()
    for c in pair.components:
        witness, index = c.subgroup_witness
        assert witness.order() == tensor.point_stabilizer(c.orbit[0]).order()
        assert index == c.subgroup_index == c.deg_over_z


class TestTensorGroupOracle:
    def test_random_paired_covers(self):
        rng = random.Random(3119)
        for _ in range(25):
            _check_against_tensor_group(_random_paired_cover(rng))

    def test_random_weak_pairs(self):
        rng = random.Random(5273)
        for _ in range(25):
            _check_against_tensor_group(_random_weak_pair(rng))
        # Over disjoint labels the one orbit 1..m·n is returned without a
        # walk; the tensor group must agree.
        rng = random.Random(6143)
        for _ in range(100):
            pair = _disjoint_pair(rng)
            _check_against_tensor_group(pair)
            assert len(pair.component_orbits) == 1


def _tensor_cycles_by_double_loop(pair) -> tuple[Permutation, ...]:
    """The tensor branch cycles letter by letter: (x, y) goes to
    (a(x), b(y)), both encoded x-major as (x - 1)·n + y."""
    m, n = pair.degree_x, pair.degree_y
    out = []
    for a, b in zip(pair.sigma, pair.tau):
        images = [0] * (m * n)
        for x in range(1, m + 1):
            for y in range(1, n + 1):
                images[(x - 1) * n + y - 1] = (a.apply(x) - 1) * n + b.apply(y)
        out.append(Permutation(tuple(images)))
    return tuple(out)


def _check_orbit_index_sums(pair) -> None:
    sums = pair._orbit_index_sums
    assert list(sums) == [orbit[0] for orbit in pair.component_orbits]
    for c in pair.components:
        assert sums[c.orbit[0]] == sum(p.index() for p in c.restricted_cycles)


class TestTensorCycles:
    def test_random_weak_pairs_match_double_loop(self):
        rng = random.Random(7703)
        for _ in range(100):
            pair = _random_weak_pair(rng)
            assert pair.tensor_cycles == _tensor_cycles_by_double_loop(pair)

    def test_orbit_index_sums_on_catalog_pairs(self):
        pairs = [catalog.get(key) for key in catalog.list_keys()]
        pairs = [v for v in pairs if isinstance(v, CoverPair)]
        assert len(pairs) == 8
        for pair in pairs + [catalog.build_sm_pair(m) for m in range(5, 9)]:
            _check_orbit_index_sums(pair)

    def test_orbit_index_sums_on_random_weak_pairs(self):
        """The pairs meet each way the sums count a branch point's cycles:
        the y-side unbranched, the x-side unbranched, and both branched."""
        rng = random.Random(8291)
        cases = Counter()
        for _ in range(200):
            pair = _random_weak_pair(rng)
            _check_orbit_index_sums(pair)
            cases.update(
                (a.is_identity, b.is_identity) for a, b in zip(pair.sigma, pair.tau)
            )
        assert cases[False, True] and cases[True, False] and cases[False, False]
        rng = random.Random(6143)
        for _ in range(100):
            _check_orbit_index_sums(_disjoint_pair(rng))


# -- braid moves preserve Nielsen membership -----------------------------------


@st.composite
def braid_words(draw):
    tokens = draw(
        st.lists(
            st.sampled_from(["q1", "q2", "sh", "q1'", "q2'", "sh'"]),
            min_size=1,
            max_size=6,
        )
    )
    return " ".join(tokens)


class TestBraidsPreserveMembership:
    @settings(max_examples=60, deadline=None)
    @given(word=braid_words(), data=st.data())
    def test_random_words_on_deg7_class(self, word, data, ni_247_elements):
        spec = catalog.get("deg7-class-2.4.7")
        conjugators = spec.equivalence_conjugators()
        reps = set(ni_247_elements)
        e = data.draw(st.sampled_from(ni_247_elements))
        moved = braid_apply(e, word)
        prod = identity(7)
        for p in moved:
            prod = prod * p
        assert prod.is_identity
        assert canonical_form(moved, conjugators) in reps

    @settings(max_examples=30, deadline=None)
    @given(word=braid_words())
    def test_random_words_on_s3_class(self, word):
        g = GeneratedGroup(
            3, [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)]
        )
        t2 = parse_cycles("(1 2)", 3)
        t3 = parse_cycles("(1 2 3)", 3)
        spec = NielsenClassSpec(g, (t2, t2, t3), EquivalenceMode.INNER)
        elements = enumerate_class(spec)
        conjugators = spec.equivalence_conjugators()
        reps = set(elements)
        for e in elements:
            assert canonical_form(braid_apply(e, word), conjugators) in reps



# -- Nielsen counts against an independent count -------------------------------
#
# Everything below works on image tuples with its own arithmetic, so that
# it shares no code with the package beyond the inputs.


def _mul(a, b):
    """Apply ``a``, then ``b``."""
    return tuple(b[i - 1] for i in a)


def _inv(a):
    out = [0] * len(a)
    for i, j in enumerate(a, start=1):
        out[j - 1] = i
    return tuple(out)


def _closure(gens, n, stop=None):
    """Elements of the group generated by ``gens``; with ``stop``, gives up
    as soon as more than ``stop`` elements are found."""
    one = tuple(range(1, n + 1))
    found = {one}
    todo = [one]
    while todo:
        x = todo.pop()
        for g in gens:
            y = _mul(x, g)
            if y not in found:
                found.add(y)
                todo.append(y)
                if stop is not None and len(found) > stop:
                    return found
    return found


def _conjugacy_classes(elements, gens):
    """The classes of the group, as frozensets, by conjugation walks."""
    left = set(elements)
    classes = []
    while left:
        start = left.pop()
        cls = {start}
        todo = [start]
        while todo:
            x = todo.pop()
            for g in gens:
                y = _mul(_mul(_inv(g), x), g)
                if y not in cls:
                    cls.add(y)
                    todo.append(y)
        left -= cls
        classes.append(frozenset(cls))
    return classes


def _class_algebra_count(classes, slots, n):
    """Product-one tuples with entry i in ``slots[i]``, by a DP over
    conjugacy classes: ``per[K]`` is the number of prefixes whose product
    is one given element of class K, the same for every element of K."""
    index = {x: k for k, cls in enumerate(classes) for x in cls}
    one = tuple(range(1, n + 1))
    per = [1 if one in cls else 0 for cls in classes]
    for slot in slots:
        reps = [next(iter(cls)) for cls in classes]
        per = [sum(per[index[_mul(z, _inv(x))]] for x in slot) for z in reps]
    return per[index[one]]


def _plain_count(slots, n, order):
    """(product-one tuples, the generating ones among them), by a loop over
    the first r-1 entries."""
    one = tuple(range(1, n + 1))
    last_slot = slots[-1]
    total = 0
    generating = set()
    for prefix in cartesian(*slots[:-1]):
        prod = one
        for x in prefix:
            prod = _mul(prod, x)
        last = _inv(prod)
        if last in last_slot:
            total += 1
            element = prefix + (last,)
            # A proper subgroup has at most half the order.
            if len(_closure(element, n, stop=order // 2)) > order // 2:
                generating.add(element)
    return total, generating


def _check_nielsen_counts(group, class_reps) -> int:
    """Check the counts of one class in its given order of classes;
    returns the number of generating tuples."""
    n = group.degree
    gens = [g.images for g in group.generators]
    elements = _closure(gens, n)
    classes = _conjugacy_classes(elements, gens)
    slots = [next(c for c in classes if rep.images in c) for rep in class_reps]
    total, generating = _plain_count(slots, n, len(elements))
    assert _class_algebra_count(classes, slots, n) == total

    def spec(mode):
        return NielsenClassSpec(group, class_reps, mode, include_reorderings=False)

    raw = enumerate_class(spec(EquivalenceMode.RAW))
    assert {tuple(p.images for p in e) for e in raw} == generating
    center = [z for z in elements if all(_mul(z, g) == _mul(g, z) for g in gens)]
    inner = enumerate_class(spec(EquivalenceMode.INNER))
    assert len(raw) == len(inner) * (len(elements) // len(center))
    return len(raw)


class TestNielsenCounts:
    @pytest.mark.parametrize(
        "key", ["deg7-class-2.4.7", "deg7-class-3.2.7", "deg7-class-2^3.7"]
    )
    def test_catalog_classes(self, key):
        spec = catalog.get(key)
        _check_nielsen_counts(spec.group, spec.class_reps)

    def test_hilbert_siegel_class(self):
        spec = catalog.get("hilbert-siegel-m5").joint_spec
        _check_nielsen_counts(spec.group, spec.class_reps)

    def test_random_small_groups(self):
        rng = random.Random(6047)
        nonempty = 0
        for _ in range(40):
            n = rng.randint(3, 5)
            group = GeneratedGroup(
                n, [_random_symmetric(rng, n) for _ in range(rng.randint(1, 2))]
            )
            elements = group.elements()
            reps = tuple(rng.choice(elements) for _ in range(rng.randint(2, 4)))
            nonempty += _check_nielsen_counts(group, reps) > 0
        # Some of the random classes must be nonempty for the check to bite.
        assert nonempty >= 5

    def test_short_classes(self):
        """r = 1, where the search has one position and no prefix, and
        r = 2, where the first entry forces the second: only the identity
        class of the trivial group has a one-entry tuple, and two entries
        generate only a cyclic group."""
        trivial = GeneratedGroup(3, [])
        assert _check_nielsen_counts(trivial, (identity(3),)) == 1
        s3 = GeneratedGroup(3, [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)])
        for rep in ("()", "(1 2)", "(1 2 3)"):
            assert _check_nielsen_counts(s3, (parse_cycles(rep, 3),)) == 0
        for first, second in [("(1 2)", "(2 3)"), ("(1 2 3)", "(1 3 2)")]:
            reps = (parse_cycles(first, 3), parse_cycles(second, 3))
            assert _check_nielsen_counts(s3, reps) == 0
        g = parse_cycles("(1 2 3 4 5 6)", 6)
        c6 = GeneratedGroup(6, [g])
        assert _check_nielsen_counts(c6, (g, g**5)) == 1
        assert _check_nielsen_counts(c6, (g**5, g)) == 1
        assert _check_nielsen_counts(c6, (g**2, g**4)) == 0
        assert _check_nielsen_counts(c6, (g, g)) == 0


def _random_generating_tuple(rng, group, r):
    """A product-one tuple of r elements that generates ``group``, or None
    after 50 draws; its entries name classes that are not empty."""
    n, order = group.degree, group.order()
    elements = group.elements()
    for _ in range(50):
        prefix = [rng.choice(elements).images for _ in range(r - 1)]
        last = tuple(range(1, n + 1))
        for x in prefix:
            last = _mul(last, x)
        element = prefix + [_inv(last)]
        if len(_closure(element, n, stop=order // 2)) > order // 2:
            return tuple(Permutation(x) for x in element)
    return None


def _check_canonical_enumeration(spec) -> int:
    """``enumerate_class`` is the sorted set of ``canonical_form`` over
    every generating product-one tuple of every class ordering, the tuples
    found by a plain loop; returns the number of representatives."""
    n = spec.group.degree
    gens = [g.images for g in spec.group.generators]
    elements = _closure(gens, n)
    classes = _conjugacy_classes(elements, gens)
    slots = [next(c for c in classes if rep.images in c) for rep in spec.class_reps]
    if spec.include_reorderings:
        orderings = {tuple(slots[i] for i in p) for p in permutations(range(spec.r))}
    else:
        orderings = {tuple(slots)}
    conjugators = spec.equivalence_conjugators()
    expected = set()
    for ordering in orderings:
        _, generating = _plain_count(list(ordering), n, len(elements))
        for element in generating:
            element = tuple(Permutation(x) for x in element)
            expected.add(canonical_form(element, conjugators))
    found = enumerate_class(spec)
    assert found == sorted(expected)
    return len(found)


class TestCanonicalEnumeration:
    """Outside raw mode the walk fixes the first entry and reduces over its
    centralizer; the representatives must be the canonical forms over all
    conjugators of every generating tuple."""

    def _check_all_modes(self, group, reps, outer=()) -> int:
        counts = 0
        for mode in EquivalenceMode:
            for reorder in (True, False):
                spec = NielsenClassSpec(group, reps, mode, outer, reorder)
                counts += _check_canonical_enumeration(spec) > 0
        return counts

    def test_random_small_groups(self):
        rng = random.Random(9157)
        nonempty = 0
        for _ in range(30):
            n = rng.randint(3, 4)
            group = GeneratedGroup(n, [_random_symmetric(rng, n) for _ in range(2)])
            reps = _random_generating_tuple(rng, group, rng.randint(2, 4))
            if reps is not None:
                nonempty += self._check_all_modes(group, reps)
        assert nonempty >= 120

    def test_outer_element_fusing_two_classes(self):
        """(1 2) fuses the two classes of 3-cycles of A4, so the least
        member of the first entry's orbit can lie outside its class."""
        three, pair = parse_cycles("(1 2 3)", 4), parse_cycles("(1 2)(3 4)", 4)
        a4 = GeneratedGroup(4, [three, pair])
        outer = (parse_cycles("(1 2)", 4),)
        fused = sorted(a4.conjugacy_class(three) + a4.conjugacy_class(three.inverse()))
        rng = random.Random(2203)
        starts_outside = 0
        for _ in range(8):
            reps = _random_generating_tuple(rng, a4, rng.randint(3, 4))
            assert reps is not None
            assert self._check_all_modes(a4, reps, outer) == 6
            starts_outside += a4.conjugacy_class(reps[0])[0] != fused[0]
        assert starts_outside > 0


# -- normalizer and class stabilizer against a sweep over S_n --------------------


def _conj(x, h):
    return _mul(_mul(_inv(h), x), h)


def _brute_normalizer(group):
    """Images of every h in S_n that conjugates each generator into G."""
    gens = [g.images for g in group.generators]
    elements = _closure(gens, group.degree)
    return {
        h
        for h in permutations(range(1, group.degree + 1))
        if all(_conj(g, h) in elements for g in gens)
    }


def _brute_class_stabilizer(classes, ambient):
    """Images of every h in ``ambient`` whose conjugation maps the class
    multiset onto itself; classes are lists of ``Permutation``."""
    class_sets = [frozenset(x.images for x in c) for c in classes]
    multiset = Counter(class_sets)
    return {
        h
        for h in ambient
        if Counter(frozenset(_conj(x, h) for x in c) for c in class_sets) == multiset
    }


def _images(group):
    return {p.images for p in group.elements()}


def _random_generators(rng, n):
    """Zero to three generators; each moves a random subset of the letters,
    so the group is often intransitive."""
    gens = []
    for _ in range(rng.randint(0, 3)):
        images = list(range(1, n + 1))
        moved = rng.sample(range(n), rng.randint(0, n))
        values = [images[i] for i in moved]
        rng.shuffle(values)
        for i, v in zip(moved, values):
            images[i] = v
        gens.append(Permutation(tuple(images)))
    return gens


class TestNormalizerOracle:
    def test_random_generator_sets(self):
        rng = random.Random(8221)
        for _ in range(100):
            n = rng.randint(1, 6)
            group = GeneratedGroup(n, _random_generators(rng, n))
            normalizer = group.normalizer_in_symmetric()
            brute = _brute_normalizer(group)
            assert _images(normalizer) == brute
            elements = group.elements()
            classes = [
                group.conjugacy_class(rng.choice(elements))
                for _ in range(rng.randint(1, 3))
            ]
            stab = group.class_stabilizer(classes)
            assert _images(stab) == _brute_class_stabilizer(classes, brute)
            # An ambient group that need not contain G.
            ambient = GeneratedGroup(n, _random_generators(rng, n))
            stab = group.class_stabilizer(classes, ambient=ambient)
            assert _images(stab) == _brute_class_stabilizer(classes, _images(ambient))

    def test_psl27_on_the_projective_line(self):
        # PSL(2,7) on P^1(F_7): letters 1..7 are 0..6, letter 8 is infinity.
        # Its normalizer in S_8 is PGL(2,7), of order 336.
        def moebius(f):
            return Permutation(
                tuple(8 if f(x) is None else f(x) + 1 for x in [*range(7), None])
            )

        shift = moebius(lambda x: None if x is None else (x + 1) % 7)
        flip = moebius(
            lambda x: 0 if x is None else None if x == 0 else -pow(x, 5, 7) % 7
        )
        group = GeneratedGroup(8, [shift, flip])
        assert group.order() == 168
        normalizer = group.normalizer_in_symmetric()
        assert normalizer.order() == 336
        assert group.is_subgroup(normalizer)


# -- conjugation orbits against plain closures ---------------------------------


def _plain_class(x, gens):
    """The class of the image tuple ``x``: its closure under g^-1 x g."""
    found, todo = {x}, [x]
    while todo:
        y = todo.pop()
        for g in gens:
            z = _conj(y, g)
            if z not in found:
                found.add(z)
                todo.append(z)
    return found


class TestConjugationOrbits:
    def test_classes_and_walks_on_random_groups(self):
        """Each listed class is the plain closure, sorted; every kept
        conjugator carries the walk's start to its member; and
        |class| * |C(start)| = |G|."""
        rng = random.Random(4409)
        nontrivial = 0
        for _ in range(150):
            n = rng.randint(1, 7)
            group = GeneratedGroup(n, _random_generators(rng, n))
            gens = [g.images for g in group.generators]
            elements = group.elements()
            for x in rng.sample(elements, min(3, len(elements))):
                listed = group.conjugacy_class(x)
                assert [c.images for c in listed] == sorted(_plain_class(x.images, gens))
                walk = group._class_walk(x)
                centralizer = group._centralizer(walk)
                (start,) = [c for c, t in walk.items() if t == group._one]
                assert start == next(iter(walk))
                s = start[1:]
                assert all(_conj(s, t[1:]) == c[1:] for c, t in walk.items())
                assert len(walk) * centralizer.order() == group.order()
                assert all(_conj(s, h.images) == s for h in centralizer.generators)
                nontrivial += len(walk) > 1
        assert nontrivial > 50

    def test_class_stabilizer_against_ambient_elements(self):
        """On degrees up to 8, against a sweep over the ambient group's
        listed elements, for ambient groups of order at most 720."""
        rng = random.Random(5087)
        checked = 0
        for _ in range(300):
            n = rng.randint(2, 8)
            group = GeneratedGroup(n, _random_generators(rng, n))
            ambient = GeneratedGroup(n, group.generators + _random_generators(rng, n))
            if ambient.order() > 720:
                continue
            elements = group.elements()
            classes = [
                group.conjugacy_class(rng.choice(elements))
                for _ in range(rng.randint(1, 3))
            ]
            stab = group.class_stabilizer(classes, ambient=ambient)
            swept = {h.images for h in ambient.elements()}
            assert _images(stab) == _brute_class_stabilizer(classes, swept)
            checked += stab.order() < ambient.order()
        assert checked > 20


# -- element listing against a closure walk ------------------------------------


class TestElementListing:
    def test_random_generator_sets(self):
        rng = random.Random(3571)
        for _ in range(300):
            n = rng.randint(1, 7)
            gens = _random_generators(rng, n)
            group = GeneratedGroup(n, gens)
            listed = group.elements()
            assert [p.images for p in listed] == sorted(
                _closure([g.images for g in gens], n)
            )
            assert len(listed) == group.order()


# -- class order from the centralizer against conjugation by every element ----


def _sympy_perm(p):
    return SymPerm([i - 1 for i in p.images])


class TestClassByLeastConjugator:
    def test_random_generator_sets(self):
        rng = random.Random(5527)
        trivial = intransitive = both_nontrivial = 0
        for _ in range(150):
            n = rng.randint(1, 7)
            group = GeneratedGroup(n, _random_generators(rng, n))
            sym = PermutationGroup(
                [SymPerm(list(range(n)))] + [_sympy_perm(g) for g in group.generators]
            )
            elements = group.elements()
            for p in rng.sample(elements, min(3, len(elements))):
                # The order the adjustment used to list: each member c
                # once, at the first sorted h with p^h = c.
                expected = list(dict.fromkeys(p.conjugate(h) for h in elements))
                assert _class_by_least_conjugator(group, p) == expected
                members = group._class_walk(p)
                centralizer = group._centralizer(members)
                assert centralizer.order() * len(members) == group.order()
                assert centralizer.order() == sym.centralizer(_sympy_perm(p)).order()
                both_nontrivial += len(members) > 1 and centralizer.order() > 1
            trivial += group.order() == 1
            intransitive += len(group.orbits()) > 1
        assert trivial > 5
        assert intransitive > 50
        assert both_nontrivial > 50

    def test_shared_walk_orders_every_member(self, monkeypatch):
        """Every member of a class, in a shuffled order and mixed with a
        second class, is ordered as the brute force over the sorted
        elements orders it, though each class is walked only once: the
        group keeps the walk that listing the class made, from a sampled
        member that need not come first in the list.  Classes with
        |class|·|G| above 60,000 are skipped to keep the brute force
        short."""
        walks = []
        original = permgroup._orbit

        def recording(group, start, actions, what):
            walks.append(start)
            return original(group, start, actions, what)

        monkeypatch.setattr(permgroup, "_orbit", recording)
        rng = random.Random(6113)
        reused = 0
        for _ in range(120):
            n = rng.randint(1, 7)
            group = GeneratedGroup(n, _random_generators(rng, n))
            elements = group.elements()
            walks.clear()
            sampled = [
                group.conjugacy_class(p)
                for p in rng.sample(elements, min(2, len(elements)))
            ]
            classes = []
            for members in sampled:
                if len(members) * len(elements) <= 60_000 and members not in classes:
                    classes.append(members)
            perms = [q for members in classes for q in members]
            rng.shuffle(perms)
            asked = perms + perms[:3]
            ordered = [_class_by_least_conjugator(group, q) for q in asked]
            assert len(walks) == len({members[0] for members in sampled})
            for q, listed in zip(asked, ordered):
                brute = list(dict.fromkeys(q.conjugate(h) for h in elements))
                assert listed == brute
            # Members past the first, with a nontrivial centralizer.
            reused += sum(
                len(members) - 1 for members in classes if len(members) < len(elements)
            )
        assert reused > 200


# -- product-one adjustment against the backward-table search -----------------


def _backward_table(options, n):
    """``feasible[j]``: the partial products that one choice from each of
    ``options[j:]`` (lists of image tuples) completes to one."""
    feasible = [set() for _ in range(len(options) + 1)]
    feasible[-1].add(tuple(range(1, n + 1)))
    for j in range(len(options) - 1, -1, -1):
        for q in options[j]:
            # ``t * q^-1`` as a lookup: ``back[i]`` is the preimage of i.
            back = (0,) + _inv(q)
            feasible[j].update(tuple(map(back.__getitem__, t)) for t in feasible[j + 1])
    return feasible


def _table_walk(options, feasible, j, prefix):
    """Depth-first, in list order, every choice from ``options[j:]`` that
    keeps the partial product inside the feasible sets."""
    if j == len(options):
        yield []
        return
    for q in options[j]:
        nxt = _mul(prefix, q)
        if nxt in feasible[j + 1]:
            for rest in _table_walk(options, feasible, j + 1, nxt):
                yield [q] + rest


def _backward_table_adjust(perms, image_group):
    """The product-one adjustment as a backward feasibility table over the
    whole image group, on image tuples: the conjugates of each entry in
    order of the first conjugator among the sorted elements, the table,
    then the walk inside it.  Returns the first realization that
    generates the image group; raises the library's errors when there is
    none."""
    n = image_group.degree
    one = tuple(range(1, n + 1))
    elements = sorted(_closure([g.images for g in image_group.generators], n))
    options = [list(dict.fromkeys(_conj(p.images, h) for h in elements)) for p in perms]
    feasible = _backward_table(options, n)
    if one not in feasible[0]:
        raise RuntimeError("no product-one realization exists in these classes")
    for chosen in _table_walk(options, feasible, 0, one):
        if len(_closure(chosen, n)) == len(elements):
            return chosen
    raise RuntimeError("no generating product-one realization found in these classes")


def _check_adjustment(component) -> int:
    """Compare the library's adjustment of one component's projection with
    the backward-table search; returns the number of entries adjusted."""
    perms = [p for _, p in component._pry_entry_data if not p.is_identity]
    if component.deg_over_y == 1 or not perms:
        return 0
    image_group = component._pry_image_group
    try:
        expected = _backward_table_adjust(perms, image_group)
    except RuntimeError as exc:
        # Over a y-curve of positive genus the local data alone need not
        # multiply to one; both searches must then fail alike.
        with pytest.raises(RuntimeError, match=str(exc)):
            _product_one_adjust(perms, image_group, 10**7)
        return 0
    adjusted = _product_one_adjust(perms, image_group, 10**7)
    assert [p.images for p in adjusted] == expected
    return len(perms)


def _conjugated_pair(pair, rng):
    """``pair`` with its x-letters and y-letters renamed by the two parts
    of a random element of its joint group."""
    m, n = pair.degree_x, pair.degree_y
    joint = pair.joint_cycles
    word = product([rng.choice(joint) for _ in range(4 * (m + n))], m + n)
    g, h = split(word, m)
    return PairedCover(
        pair.branch_points,
        tuple(p.conjugate(g) for p in pair.sigma),
        tuple(p.conjugate(h) for p in pair.tau),
        m,
        n,
    )


def _catalog_pairs_and_conjugates():
    """Every catalog pair, ``build_sm_pair(5..9)``, and two seeded
    conjugates each of ``deg7-pair-1/2`` and ``sm-pair-7/8``."""
    for key in catalog.list_keys():
        pair = catalog.get(key)
        if isinstance(pair, CoverPair):
            yield pair
    for m in range(5, 10):
        yield catalog.build_sm_pair(m)
    rng = random.Random(8387)
    for key in ("deg7-pair-1", "deg7-pair-2", "sm-pair-7"):
        for _ in range(2):
            yield _conjugated_pair(catalog.get(key), rng)
    for _ in range(2):
        yield _conjugated_pair(catalog.build_sm_pair(8), rng)


class TestSubgroupIndex:
    """``subgroup_index`` is m times an orbit length of Stab(1), read off
    the joint chain's tail with no chain built; it must be the index of
    the witness that ``subgroup_witness`` builds, and the degree over z."""

    def test_index_is_the_witness_index_and_the_degree(self):
        sizes = set()
        for pair in _catalog_pairs_and_conjugates():
            for c in pair.components:
                assert c.subgroup_index == c.subgroup_witness[1] == c.deg_over_z
                sizes.add(c.deg_over_z)
        assert len(sizes) > 10


class TestSwappedChain:
    """A pair's one chain of the joint group with the y-letters first
    gives the y-side order (its first n orbit lengths) and Stab(m+1)
    (its tail, swapped back), which every projection to the y-line
    reads.  Both must match what is built directly: the y-side's own
    group, and the joint group's point stabilizer of m+1."""

    @staticmethod
    def _check(pair) -> None:
        m, n = pair.degree_x, pair.degree_y
        joint = pair.joint_group
        y_order = GeneratedGroup(n, list(pair.tau)).order()
        assert pair._swapped_group._leading_order(n) == y_order
        _, generators = pair.y1_orbit_stabilizer
        tail = GeneratedGroup(m + n, generators)
        stabilizer = joint.point_stabilizer(m + 1)
        assert tail.order() == stabilizer.order()
        assert all(stabilizer.contains(g) for g in generators)
        assert all(tail.contains(g) for g in stabilizer.generators)

    def test_catalog_pairs_and_conjugates(self):
        for pair in _catalog_pairs_and_conjugates():
            self._check(pair)

    def test_weak_pairs_with_unbranched_labels(self):
        a = parse_cycles("(1 2)", 3)
        b = parse_cycles("(1 2 3)", 3)
        c = (a * b).inverse()
        one = identity(3)
        # A label unbranched on both sides.
        self._check(
            CoverPair(("z0", "z1", "z2", "z3"), (one, a, b, c), (one, a, b, c), 3, 3)
        )
        # Labels unbranched on one side only.
        rng = random.Random(6151)
        unbranched = 0
        for _ in range(40):
            pair = _random_weak_pair(rng)
            unbranched += any(p.is_identity for p in pair.sigma + pair.tau)
            self._check(pair)
        assert unbranched > 10


class TestProductOneAdjustmentOracle:
    @pytest.mark.parametrize(
        "key",
        [
            "d4-paired",
            "deg7-pair-1",
            "deg7-pair-2",
            "sm-pair-5",
            "sm-pair-7",
            "sm-pair-9",
        ],
    )
    def test_catalog_pairs(self, key):
        pair = catalog.get(key)
        assert sum(_check_adjustment(c) for c in pair.components) > 0

    @pytest.mark.parametrize("m", [7, 8])
    def test_seeded_conjugates_of_sm_pairs(self, m):
        rng = random.Random(7919 + m)
        source = catalog.build_sm_pair(m)
        for _ in range(2):
            pair = _conjugated_pair(source, rng)
            assert sum(_check_adjustment(c) for c in pair.components) > 0

    def test_random_weak_pairs(self):
        rng = random.Random(6689)
        adjusted = sum(
            _check_adjustment(c)
            for _ in range(20)
            for c in _random_weak_pair(rng).components
        )
        assert adjusted > 0

    def test_every_realization_in_order(self):
        """The lazy search yields every product-one choice, in the order of
        the table walk: a state that completed is entered again under
        another prefix; only exhausted states are skipped."""
        rng = random.Random(4421)
        walked = 0
        for _ in range(60):
            n = rng.randint(3, 4)
            group = GeneratedGroup(n, [_random_symmetric(rng, n) for _ in range(2)])
            elements = group.elements()
            perms = [rng.choice(elements) for _ in range(rng.randint(1, 5))]
            options = [
                list(dict.fromkeys(p.conjugate(h) for h in elements)) for p in perms
            ]
            tuples = [[q.images for q in qs] for qs in options]
            one = tuple(range(1, n + 1))
            expected = list(_table_walk(tuples, _backward_table(tuples, n), 0, one))
            found = [[q.images for q in r] for r in _realizations(options, n)]
            assert found == expected
            walked += len(expected)
        assert walked > 1000

    def test_no_realization_raises(self):
        s3 = GeneratedGroup(3, [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)])
        # A transposition times a 3-cycle is odd: never the identity.
        odd = [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)]
        # Two transpositions multiply to one only when equal, and then
        # generate a group of order 2.
        two = [parse_cycles("(1 2)", 3), parse_cycles("(2 3)", 3)]
        for perms, message in [
            (odd, "no product-one realization exists"),
            (two, "no generating product-one realization found"),
        ]:
            with pytest.raises(RuntimeError, match=message):
                _backward_table_adjust(perms, s3)
            with pytest.raises(RuntimeError, match=message):
                _product_one_adjust(perms, s3, 10**6)


# -- quotient genus never exceeds the cover genus ------------------------------


class TestQuotientGenus:
    def test_random_imprimitive_and_generic_covers(self):
        rng = random.Random(77)
        checked_nontrivial = 0
        for _ in range(60):
            n, entries = _random_valid_tuple(rng)
            labels = [f"z{i}" for i in range(len(entries))]
            cover = Cover(n, tuple(labels), tuple(entries))
            g_top = cover.genus()
            for _, quotient in _quotient_covers(cover):
                assert quotient.genus() <= g_top
                if quotient.degree < n:
                    checked_nontrivial += 1
        # Dihedral samples guarantee imprimitive cases appear.
        assert checked_nontrivial > 0

    def test_builtin_dihedral_quotients(self):
        cover = catalog.build_dihedral(9, "2^4")
        g_top = cover.genus()
        names = [name for name, _ in _quotient_covers(cover)]
        assert "identity-quotient" in names
        for _, quotient in _quotient_covers(cover):
            assert quotient.genus() <= g_top

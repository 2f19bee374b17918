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
* quotient covers never have larger genus than the cover they come
  from.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibercover import catalog, nielsen
from fibercover.cover import Cover
from fibercover.fiberprod import (
    PairedCover,
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
from fibercover.permcore import Permutation, identity, parse_cycles
from fibercover.permgroup import GeneratedGroup

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
    of two of them (order at most 720**2) stays under the default order
    cap that the subgroup witness builds under."""
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


def _check_against_tensor_group(pair) -> None:
    m, n = pair.degree_x, pair.degree_y
    tensor = GeneratedGroup(m * n, list(pair.tensor_cycles))
    assert [list(c.orbit) for c in pair.components] == tensor.orbits()
    for c in pair.components:
        witness, index = c.subgroup_witness
        assert witness.order() == tensor.point_stabilizer(c.orbit[0]).order()
        assert index == c.deg_over_z


class TestTensorGroupOracle:
    def test_random_paired_covers(self):
        rng = random.Random(3119)
        for _ in range(25):
            _check_against_tensor_group(_random_paired_cover(rng))

    def test_random_weak_pairs(self):
        rng = random.Random(5273)
        for _ in range(25):
            _check_against_tensor_group(_random_weak_pair(rng))


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

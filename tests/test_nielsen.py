"""Unit tests for Nielsen classes: enumeration, equivalence, braid
action, coalescing."""

import itertools
import random
import runpy
from collections import Counter
from functools import cache
from math import comb, factorial
from pathlib import Path

import pytest

from fibercover import catalog, nielsen, permgroup
from fibercover.nielsen import (
    EquivalenceMode,
    NielsenClassSpec,
    braid_apply,
    canonical_form,
    coalesce,
    enumerate_class,
    h3_structure,
)
from fibercover.fiberprod import PairedCover
from fibercover.permcore import Permutation, identity, parse_cycles
from fibercover.permgroup import CapExceededError, GeneratedGroup


def p7(text):
    return parse_cycles(text, 7)


DEG7_GROUP = GeneratedGroup(
    7, [p7("(1 3)(4 5)"), p7("(1 4 6 7)(2 3)"), p7("(1 7 6 5 4 3 2)")]
)


class TestEnumeration:
    def test_s2_squared_class_single_element(self):
        g = GeneratedGroup(2, [parse_cycles("(1 2)", 2)])
        t = parse_cycles("(1 2)", 2)
        spec = NielsenClassSpec(g, (t, t), EquivalenceMode.ABSOLUTE)
        elements = enumerate_class(spec)
        assert elements == [(t, t)]

    def test_deg7_247_absolute_count(self, ni_247_elements):
        assert len(ni_247_elements) == 6

    def test_deg7_327_absolute_count(self, ni_327_elements):
        assert len(ni_327_elements) == 6

    def test_deg7_2227_fixed_ordering_count(self, ni_2227_elements):
        assert len(ni_2227_elements) == 7

    def test_elements_satisfy_invariants(self, ni_247_elements):
        for e in ni_247_elements:
            prod = identity(7)
            for x in e:
                prod = prod * x
            assert prod.is_identity
            assert GeneratedGroup(7, list(e)).order() == 168

    def test_bcfg_tuple_appears_in_the_class(self, ni_247_elements):
        target = (p7("(1 3)(4 5)"), p7("(1 4 6 7)(2 3)"), p7("(1 7 6 5 4 3 2)"))
        spec = catalog.get("deg7-class-2.4.7")
        conjugators = spec.equivalence_conjugators()
        assert canonical_form(target, conjugators) in ni_247_elements

    def test_enumeration_is_stable(self):
        g = GeneratedGroup(3, [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)])
        t2 = parse_cycles("(1 2)", 3)
        t3 = parse_cycles("(1 2 3)", 3)
        spec = NielsenClassSpec(g, (t2, t2, t3), EquivalenceMode.INNER)
        a = enumerate_class(spec)
        b = enumerate_class(spec)
        assert a == b
        assert len(a) == len(set(a))

    def test_reordering_flag_changes_count(self):
        g = GeneratedGroup(3, [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)])
        t2 = parse_cycles("(1 2)", 3)
        t3 = parse_cycles("(1 2 3)", 3)
        with_orderings = enumerate_class(
            NielsenClassSpec(g, (t2, t2, t3), EquivalenceMode.INNER)
        )
        fixed = enumerate_class(
            NielsenClassSpec(
                g, (t2, t2, t3), EquivalenceMode.INNER, include_reorderings=False
            )
        )
        assert len(fixed) <= len(with_orderings)
        assert set(fixed) <= set(with_orderings)

    def test_search_cap(self):
        t = p7("(1 3)(4 5)")
        s = p7("(1 7 6 5 4 3 2)")
        spec = NielsenClassSpec(
            DEG7_GROUP, (t, t, t, s), EquivalenceMode.INNER, search_cap=10
        )
        with pytest.raises(CapExceededError):
            enumerate_class(spec)

    def test_rep_outside_group_rejected(self):
        with pytest.raises(ValueError):
            NielsenClassSpec(DEG7_GROUP, (p7("(1 2)"),), EquivalenceMode.RAW)

    def test_spec_is_immutable(self):
        """The enumeration cached on a spec cannot go stale: a field cannot
        be reassigned, and a variant is a new spec with caches of its own."""
        spec = catalog.get("deg7-class-3.2.7")
        assert len(enumerate_class(spec)) == 6
        with pytest.raises(AttributeError):
            spec.mode = EquivalenceMode.RAW
        raw = NielsenClassSpec(
            spec.group,
            spec.class_reps,
            EquivalenceMode.RAW,
            spec.outer_elements,
            spec.include_reorderings,
            spec.search_cap,
        )
        assert len(enumerate_class(raw)) == 1008
        assert len(enumerate_class(spec)) == 6


def alternating(n):
    """A_n from (1 2 3) and an n-cycle (odd n) or an (n-1)-cycle on 2..n."""
    long_cycle = " ".join(map(str, range(1 if n % 2 else 2, n + 1)))
    return GeneratedGroup(
        n, [parse_cycles("(1 2 3)", n), parse_cycles(f"({long_cycle})", n)]
    )


def three_cycle_spec(n, r, mode):
    """The Nielsen class of r 3-cycles in A_n, one ordering of classes."""
    t = parse_cycles("(1 2 3)", n)
    return NielsenClassSpec(alternating(n), (t,) * r, mode, include_reorderings=False)


# -- a count oracle for r 3-cycles, from cycle types alone ---------------------
#
# A class function of S_n is a function of cycle types.  The product-one
# r-tuples of 3-cycles are counted by the convolution f_{k+1}(z) =
# sum over 3-cycles c of f_k(z·c^-1), from f_0 the indicator of the
# identity; the tuples generating a transitive group are split off by the
# exponential formula, letters and positions both labelled.  No group
# code is used.


def _cycle_type(images) -> tuple[int, ...]:
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        length, j = 0, start
        while not seen[j]:
            seen[j], j, length = True, images[j], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


@cache
def _three_cycle_steps(n) -> dict:
    """Cycle type of z -> Counter of the cycle types of z·c^-1 over the
    3-cycles c of S_n (0-based images; c^-1 runs over the 3-cycles too)."""
    cycles = []
    for a, b, c in itertools.combinations(range(n), 3):
        for x, y, z in ((a, b, c), (a, c, b)):
            images = list(range(n))
            images[x], images[y], images[z] = y, z, x
            cycles.append(images)
    steps = {}
    for shape in _partitions(n):
        z, start = [], 0
        for part in shape:
            z += [start + (i + 1) % part for i in range(part)]
            start += part
        steps[shape] = Counter(_cycle_type([c[z[i]] for i in range(n)]) for c in cycles)
    return steps


@cache
def _product_one_count(n, r) -> int:
    """T(n, r): the r-tuples of 3-cycles of S_n with product one."""
    if n < 3:
        return int(r == 0)
    steps = _three_cycle_steps(n)
    f = {shape: int(shape == (1,) * n) for shape in steps}
    for _ in range(r):
        f = {z: sum(k * f[w] for w, k in steps[z].items()) for z in steps}
    return f[(1,) * n]


@cache
def _transitive_count(n, r) -> int:
    """g(n, r): the tuples counted by T(n, r) whose group is transitive,
    from T(n, r) = sum over k, j of C(n-1, k-1)·C(r, j)·g(k, j)·T(n-k, r-j),
    the orbit of the letter 1 having k letters and j positions."""
    total = _product_one_count(n, r)
    for k in range(1, n + 1):
        for j in range(r + 1):
            if (k, j) != (n, r):
                total -= (
                    comb(n - 1, k - 1)
                    * comb(r, j)
                    * _transitive_count(k, j)
                    * _product_one_count(n - k, r - j)
                )
    return total


def _three_cycle_oracle(n, r, mode) -> int:
    """The size of the Nielsen class of r 3-cycles in A_n, n >= 4.  A
    transitive group generated by 3-cycles is A_n, on which S_n acts
    freely, so the absolute count is g(n, r)/n! and the inner count,
    modulo A_n, twice that."""
    absolute, rest = divmod(_transitive_count(n, r), factorial(n))
    assert rest == 0
    return absolute if mode == EquivalenceMode.ABSOLUTE else 2 * absolute


class TestThreeCycleClasses:
    """A_n with 3-cycles, the classes the lifting invariant separates.
    The counts were produced by the enumeration over whole orbits, and
    each must equal the count oracle's."""

    @pytest.mark.parametrize(
        "n, r, mode, count, orbit_sizes",
        [
            (5, 4, EquivalenceMode.ABSOLUTE, 9, [9]),
            (5, 4, EquivalenceMode.INNER, 18, [18]),
            (5, 5, EquivalenceMode.ABSOLUTE, 342, [126, 216]),
            (6, 5, EquivalenceMode.ABSOLUTE, 96, [96]),
            (6, 5, EquivalenceMode.INNER, 192, [192]),
            (5, 5, EquivalenceMode.INNER, 684, [252, 432]),
            pytest.param(
                5, 6, EquivalenceMode.ABSOLUTE, 8001, [3456, 4545], marks=pytest.mark.slow
            ),
            pytest.param(
                5, 6, EquivalenceMode.INNER, 16002, [6912, 9090], marks=pytest.mark.slow
            ),
        ],
    )
    def test_counts_and_braid_orbits(self, n, r, mode, count, orbit_sizes):
        assert _three_cycle_oracle(n, r, mode) == count
        spec = three_cycle_spec(n, r, mode)
        assert len(enumerate_class(spec)) == count
        assert sorted(len(o) for o in nielsen.braid_orbits(spec)) == orbit_sizes

    @pytest.mark.parametrize("mode", list(EquivalenceMode))
    def test_first_position_is_the_class_minimum(self, mode, monkeypatch):
        """Outside raw mode the walk fixes position 1 to the least member
        of the first class; raw mode walks the whole class."""
        walked = []
        original = nielsen._realizations

        def recording(choices, degree):
            walked.append(choices)
            return original(choices, degree)

        monkeypatch.setattr(nielsen, "_realizations", recording)
        base = catalog.get("deg7-class-3.2.7")
        spec = NielsenClassSpec(
            base.group,
            base.class_reps,
            mode,
            base.outer_elements,
            base.include_reorderings,
            base.search_cap,
        )
        enumerate_class(spec)
        classes = spec.classes()
        assert len(walked) == len(spec.class_orderings()) == 6
        for choices, ordering in zip(walked, spec.class_orderings()):
            first = classes[ordering[0]]
            if mode == EquivalenceMode.RAW:
                assert choices[0] == first
            else:
                assert choices[0] == [min(first)]
            assert choices[1:] == [classes[i] for i in ordering[1:]]

    @pytest.mark.slow
    def test_a6_six_three_cycles_absolute(self):
        """A6 3^6 fits the default caps once the first factor is dropped;
        two braid orbits, as for every r >= n (Fried 2010)."""
        spec = three_cycle_spec(6, 6, EquivalenceMode.ABSOLUTE)
        reps = enumerate_class(spec)
        assert len(reps) == len(set(reps)) == 8980
        assert _three_cycle_oracle(6, 6, EquivalenceMode.ABSOLUTE) == 8980
        one = tuple(range(1, 7))
        for e in reps:
            images = one
            for p in e:
                assert sorted(map(len, p.cycles())) == [3]
                images = tuple(p.images[i - 1] for i in images)
            assert images == one
            assert GeneratedGroup(6, list(e)).order() == 360
        orbits = nielsen.braid_orbits(spec)
        assert sorted(len(o) for o in orbits) == [3040, 5940]


def _orderings_by_full_walk(spec):
    """The distinct orderings of the class multiset, by the r! walk over
    the positions: the first index tuple met for each class sequence."""
    ids = [cls[0] for cls in spec.classes()]
    seen = set()
    out = []
    for perm in itertools.permutations(range(spec.r)):
        key = tuple(ids[i] for i in perm)
        if key not in seen:
            seen.add(key)
            out.append(perm)
    return out


class TestClassOrderings:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_full_walk(self, seed):
        """Seeded multisets of up to three PSL(2,7) classes, r <= 7."""
        rng = random.Random(seed)
        pool = rng.sample(DEG7_GROUP.elements(), 3)
        for r in range(1, 8):
            reps = tuple(rng.choice(pool) for _ in range(r))
            spec = NielsenClassSpec(DEG7_GROUP, reps)
            assert spec.class_orderings() == _orderings_by_full_walk(spec)

    def test_equal_classes_have_one_ordering(self, monkeypatch):
        """Listed without a walk over the 12! permutations of the
        positions."""

        def refuse(*args):
            raise AssertionError("permutations of the positions walked")

        monkeypatch.setattr(itertools, "permutations", refuse)
        t = parse_cycles("(1 2 3)", 5)
        spec = NielsenClassSpec(alternating(5), (t,) * 12)
        assert spec.class_orderings() == [tuple(range(12))]

    def test_count_checked_against_the_listing_cap(self, monkeypatch):
        """The five nontrivial classes of PSL(2,7), the first twice: 6!/2!
        = 360 orderings, refused before any is listed when the cap is
        lower."""
        seven = p7("(1 7 6 5 4 3 2)")
        three = next(x for x in DEG7_GROUP.elements() if x.order() == 3)
        reps = (p7("(1 3)(4 5)"), p7("(1 4 6 7)(2 3)"), seven, seven**3, three)
        spec = NielsenClassSpec(DEG7_GROUP, reps + reps[:1])
        assert len(spec.class_orderings()) == 360
        monkeypatch.setattr(permgroup, "LISTING_CAP", 359)
        with pytest.raises(CapExceededError, match="360 class orderings"):
            spec.class_orderings()


class TestOuterElements:
    def test_an_element_outside_the_normalizer_is_refused(self):
        """(3 4) carries <(1 2 3)> onto <(1 2 4)>, so conjugating by it
        would leave the group; (1 2) normalizes it and is kept."""
        c3 = GeneratedGroup(4, [parse_cycles("(1 2 3)", 4)])
        reps = (parse_cycles("(1 2 3)", 4),) * 3
        with pytest.raises(ValueError, match=r"outer element \(3 4\)"):
            NielsenClassSpec(c3, reps, outer_elements=(parse_cycles("(3 4)", 4),))
        spec = NielsenClassSpec(c3, reps, outer_elements=(parse_cycles("(1 2)", 4),))
        assert enumerate_class(spec) == [reps]


class TestBraidAction:
    def test_q1_definition(self):
        a, b, c = p7("(1 3)(4 5)"), p7("(1 4 6 7)(2 3)"), p7("(1 7 6 5 4 3 2)")
        moved = braid_apply((a, b, c), "q1")
        assert moved == (a * b * a.inverse(), a, c)

    def test_q1_fixed_point_on_equal_commuting_entries(self):
        a = parse_cycles("(1 2)", 2)
        assert braid_apply((a, a), "q1") == (a, a)

    def test_shift(self):
        a, b, c = p7("(1 3)(4 5)"), p7("(1 4 6 7)(2 3)"), p7("(1 7 6 5 4 3 2)")
        assert braid_apply((a, b, c), "sh") == (b, c, a)
        assert braid_apply((a, b, c), "sh sh sh") == (a, b, c)

    def test_inverses(self):
        e = (p7("(1 3)(4 5)"), p7("(1 4 6 7)(2 3)"), p7("(1 7 6 5 4 3 2)"))
        for w in ("q1", "q2", "sh"):
            assert braid_apply(braid_apply(e, w), w + "'") == e

    def test_braids_preserve_membership(self, ni_247_elements):
        spec = catalog.get("deg7-class-2.4.7")
        conjugators = spec.equivalence_conjugators()
        reps = set(ni_247_elements)
        for e in ni_247_elements:
            for w in ("q1", "q2", "sh"):
                moved = braid_apply(e, w)
                prod = identity(7)
                for x in moved:
                    prod = prod * x
                assert prod.is_identity
                assert GeneratedGroup(7, list(moved)).order() == 168
                assert canonical_form(moved, conjugators) in reps

    def test_bad_token_rejected(self):
        e = (p7("(1 2 3)"), p7("(1 3 2)"))
        with pytest.raises(ValueError):
            braid_apply(e, "zz")
        with pytest.raises(ValueError):
            braid_apply(e, "q5")

    def test_single_braid_orbit_r4(self, ni_2227_braid_orbits):
        assert [len(o) for o in ni_2227_braid_orbits] == [7]

    def test_single_braid_orbit_of_length_6(self, ni_247_braid_orbits):
        assert [len(o) for o in ni_247_braid_orbits] == [6]

    def test_conjugated_tuples_share_a_braid_orbit(self, ni_2227_braid_orbits):
        # Inner conjugation is braided on a connected class: conjugating
        # a tuple lands in the same (single) orbit.
        spec = catalog.get("deg7-class-2^3.7")
        conjugators = spec.equivalence_conjugators()
        e = ni_2227_braid_orbits[0][0]
        h = p7("(1 2 3 4 5 6 7)")
        conj = tuple(x.conjugate(h) for x in e)
        assert canonical_form(conj, conjugators) in set(ni_2227_braid_orbits[0])

    def test_classes_listed_once_per_representative(self, monkeypatch):
        """Enumeration, the class orderings, the normalizer, the class
        stabilizer and the orbit table all read the group's kept class
        walks, so ``braid_orbits`` walks the class of each distinct
        representative once."""
        walks = _recorded_class_walks(monkeypatch)
        # A fresh group and spec, so nothing is read from a walk or cache
        # kept elsewhere.
        spec = catalog.get("deg7-class-2^3.7")
        spec = NielsenClassSpec(
            _fresh(spec.group),
            spec.class_reps,
            spec.mode,
            spec.outer_elements,
            spec.include_reorderings,
            spec.search_cap,
        )
        assert [len(o) for o in nielsen.braid_orbits(spec)] == [7]
        distinct = set(spec.class_reps)
        assert len(distinct) < spec.r
        assert len(walks) == len(set(walks))
        walked = {members for group, members in walks if group is spec.group}
        for rep in distinct:
            assert frozenset(spec.group.conjugacy_class(rep)) in walked


def _fresh(group):
    return GeneratedGroup(group.degree, list(group.generators))


def _recorded_class_walks(monkeypatch):
    """A list that records each class walk as (group, members); the
    groups' walks go through ``permgroup._orbit``."""
    walks = []
    original = permgroup._orbit

    def recording(group, start, actions, what):
        result = original(group, start, actions, what)
        if what == "class members":
            members = frozenset(Permutation(c[1:]) for c in result)
            walks.append((group, members))
        return result

    monkeypatch.setattr(permgroup, "_orbit", recording)
    return walks


def _s5_pairs_spec():
    """S5 on 5 letters and on the 10 unordered pairs of them at once,
    classes (1 2), (1 2 3 4), (1 2 3 4 5) in that order, inner."""

    def joint(text):
        p = parse_cycles(text, 5)
        pairs = catalog.pairs_permutation(p, 5)
        return Permutation(p.images + tuple(5 + i for i in pairs.images))

    group = GeneratedGroup(15, [joint("(1 2)"), joint("(1 2 3 4 5)")])
    reps = tuple(joint(c) for c in ("(1 2)", "(1 2 3 4)", "(1 2 3 4 5)"))
    return NielsenClassSpec(group, reps, EquivalenceMode.INNER, include_reorderings=False)


class TestClassWalks:
    @pytest.mark.parametrize("name", ["deg7-class-3.2.7", "s5-pairs"])
    def test_inner_braid_orbits_walk_each_class_once(self, monkeypatch, name):
        """Inner enumeration and braid orbits list the spec's classes and
        reduce every tuple over G's centralizers, and both read G's one
        walk of each class: the walks made are exactly the classes of the
        representatives, each once."""
        walks = _recorded_class_walks(monkeypatch)
        if name == "s5-pairs":
            spec = _s5_pairs_spec()
        else:
            source = catalog.get(name)
            spec = NielsenClassSpec(
                _fresh(source.group), source.class_reps, EquivalenceMode.INNER
            )
        assert nielsen.braid_orbits(spec)
        classes = {frozenset(spec.group.conjugacy_class(rep)) for rep in spec.class_reps}
        assert len(classes) == spec.r
        assert set(walks) == {(spec.group, members) for members in classes}
        assert len(walks) == spec.r


class TestCentralizersOnFirstRead:
    def test_members_only_readers_build_no_centralizer(self, monkeypatch):
        """A kept class walk builds its centralizer on the first read:
        listing the classes and the normalizer search read members only,
        so on a fresh PSL(2,7) they build none, and the orbit table then
        builds one per class of the first entries it reduces."""
        built = []
        original = permgroup._stabilizer

        def recording(group, walk, actions):
            built.append((group, next(iter(walk))))
            return original(group, walk, actions)

        monkeypatch.setattr(permgroup, "_stabilizer", recording)
        source = catalog.get("deg7-class-2.4.7")
        group = _fresh(source.group)
        spec = NielsenClassSpec(group, source.class_reps, source.mode)
        assert [len(c) for c in spec.classes()] == [21, 42, 24]
        assert group.normalizer_in_symmetric().order() == 168
        assert built == []
        assert nielsen.braid_orbits(spec)
        table = spec._orbit_table
        assert table.group is group
        walks = {id(w): w for w in map(group._class_walks.get, table.onto)}
        assert len(walks) > 1
        assert sorted(start for _, start in built) == sorted(
            next(iter(w)) for w in walks.values()
        )
        assert all(g is group for g, _ in built)


class TestH3Structure:
    def test_247_full_symmetric_on_orderings(self):
        report = h3_structure(catalog.get("deg7-class-2.4.7"))
        assert report["squared_twists_trivial"]
        assert report["full_symmetric_on_orderings"]

    def test_327_full_symmetric_on_orderings(self):
        report = h3_structure(catalog.get("deg7-class-3.2.7"))
        assert report["full_symmetric_on_orderings"]

    def test_equal_classes_give_trivial_ordering_action(self):
        g = GeneratedGroup(2, [parse_cycles("(1 2)", 2)])
        t = parse_cycles("(1 2)", 2)
        # (t, t, t) is not product-one but the ordering report is about
        # classes only; use a 3-cycle variant that is a real class set.
        g3 = GeneratedGroup(3, [parse_cycles("(1 2 3)", 3)])
        c = parse_cycles("(1 2 3)", 3)
        report = h3_structure(
            NielsenClassSpec(g3, (c, c, c), EquivalenceMode.INNER)
        )
        assert report["ordering_orbit_size"] == 1

    def test_two_equal_classes_give_three_orderings(self):
        t = p7("(1 3)(4 5)")
        s = p7("(1 7 6 5 4 3 2)")
        report = h3_structure(
            NielsenClassSpec(DEG7_GROUP, (t, t, s), EquivalenceMode.INNER)
        )
        assert report["ordering_orbit_size"] == 3
        assert not report["full_symmetric_on_orderings"]

    def test_requires_r3(self):
        spec = catalog.get("deg7-class-2^3.7")
        with pytest.raises(ValueError):
            h3_structure(spec)


class TestCoalescing:
    def test_first_source_tuple_coalesces_to_first_cover(self):
        tuples = catalog.get("deg7-coalesce-tuples")
        e = tuples["tuple-1"]
        new, report = coalesce(e, DEG7_GROUP, at=2)
        assert [str(x) for x in new] == [
            "(1 3)(4 5)",
            "(1 4 6 7)(2 3)",
            "(1 7 6 5 4 3 2)",
        ]
        assert report["restricted"]
        assert not report["identity_dropped"]

    def test_second_source_tuple_coalesces_to_second_cover(self):
        """<tuple-2> is A7; its merge generates only PSL(2,7), so the
        coalescing is not restricted."""
        tuples = catalog.get("deg7-coalesce-tuples")
        e = tuples["tuple-2"]
        new, report = coalesce(e, GeneratedGroup(7, list(e)), at=1)
        assert [str(x) for x in new] == [
            "(1 2 3)(4 5 7)",
            "(1 4)(6 7)",
            "(1 7 6 5 4 3 2)",
        ]
        assert not report["restricted"]

    def test_entry_outside_the_group_refused(self):
        tuples = catalog.get("deg7-coalesce-tuples")
        with pytest.raises(ValueError, match=r"entry \(1 3\)\(4 7\) is not in"):
            coalesce(tuples["tuple-2"], DEG7_GROUP, at=1)

    def test_product_one_preserved(self):
        tuples = catalog.get("deg7-coalesce-tuples")
        for e in tuples.values():
            new, _ = coalesce(e, GeneratedGroup(7, list(e)), at=2)
            prod = identity(7)
            for x in new:
                prod = prod * x
            assert prod.is_identity

    def test_identity_entry_dropped(self):
        a = p7("(1 2 3)")
        g3 = GeneratedGroup(7, [a])
        new, report = coalesce((a, a.inverse(), a), g3, at=1)
        assert report["identity_dropped"]
        assert new == (a,)

    def test_default_position_is_last_pair(self):
        tuples = catalog.get("deg7-coalesce-tuples")
        e = tuples["tuple-1"]
        by_default, _ = coalesce(e, DEG7_GROUP)
        explicit, _ = coalesce(e, DEG7_GROUP, at=3)
        assert by_default == explicit

    def test_out_of_range_position(self):
        tuples = catalog.get("deg7-coalesce-tuples")
        with pytest.raises(ValueError):
            coalesce(tuples["tuple-1"], DEG7_GROUP, at=4)

    def test_genus_check_direction(self):
        """Coalescing models branch points colliding, so no component's
        genus rises: both sides of the six-involution pair coalesced down
        to the printed 3-tuples."""
        pair = catalog.get("deg7-pair-2^6")
        sigma_group = GeneratedGroup(7, list(pair.sigma))
        tau_group = GeneratedGroup(7, list(pair.tau))

        def genuses(pair):
            components = sorted(pair.components, key=lambda c: len(c.orbit))
            return [c.genus_method1 for c in components]

        chain = [genuses(pair)]
        for at in (4, 4, 1):
            sigma, _ = coalesce(pair.sigma, sigma_group, at=at)
            tau, _ = coalesce(pair.tau, tau_group, at=at)
            labels = pair.branch_points[:at] + pair.branch_points[at + 1 :]
            pair = PairedCover(labels, sigma, tau, 7, 7)
            chain.append(genuses(pair))
        printed = catalog.get("deg7-pair-2")
        assert (pair.sigma, pair.tau) == (printed.sigma, printed.tau)
        assert chain == [[4, 9], [3, 6], [1, 3], [0, 0]]


class TestPairedEnumerate:
    def test_hilbert_siegel_pairs_nonempty(self, hs_m5_pairs):
        assert len(hs_m5_pairs) >= 1

    def test_each_pair_reducible(self, hs_m5_pairs):
        for pair in hs_m5_pairs:
            assert len(pair.components) >= 2

    def test_sigma_covers_have_genus_zero(self, hs_m5_pairs):
        for pair in hs_m5_pairs:
            assert pair.sigma_cover().genus() == 0


def test_survey_script_stdout_matches_golden(capsys):
    """``scripts/nielsen_survey.py`` prints every canonical representative
    of the three absolute degree-7 classes in all orderings; its stdout is
    compared byte for byte with a capture from before the orbit table."""
    root = Path(__file__).parent.parent
    runpy.run_path(str(root / "scripts" / "nielsen_survey.py"), run_name="__main__")
    expected = (root / "tests" / "golden" / "nielsen_survey.txt").read_text(
        encoding="utf-8"
    )
    assert capsys.readouterr().out == expected

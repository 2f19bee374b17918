"""Unit tests for permutation primitives and the right-action convention."""

import gc
import random
import sys
import weakref
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibercover.permcore import (
    CapExceededError,
    Permutation,
    _conjugation,
    _realizations,
    direct_sum,
    dominates,
    identity,
    parse_cycles,
    product,
    split,
)


def p(text: str, degree: int = 7) -> Permutation:
    return parse_cycles(text, degree)


class TestRightAction:
    def test_product_applies_left_factor_first(self):
        a = p("(1 2)")
        b = p("(2 3)")
        assert (a * b).apply(1) == 3  # 1 -> 2 under a, 2 -> 3 under b

    @pytest.mark.parametrize("letter", [0, -1, 4])
    def test_apply_refuses_a_letter_out_of_range(self, letter):
        x = Permutation((2, 3, 1))
        assert x.apply(3) == 1
        message = f"^letter {letter} out of range for degree 3$"
        with pytest.raises(ValueError, match=message):
            x.apply(letter)

    def test_worked_product_of_involutions_is_four_cycle(self):
        # The merged entry of the first four-point source tuple.
        a = p("(1 6)(2 3)")
        b = p("(6 4)(1 7)")
        assert str(a * b) == "(1 4 6 7)(2 3)"

    def test_second_source_tuple_merge(self):
        a = p("(1 3)(4 7)")
        b = p("(2 3)(5 7)")
        assert str(a * b) == "(1 2 3)(4 5 7)"

    def test_conjugation_moves_support(self):
        x = p("(1 3)(4 5)")
        h = p("(1 2 3 4 5 6 7)")
        assert str(x.conjugate(h)) == "(2 4)(5 6)"

    def test_conjugation_definition(self):
        x = p("(1 3)(4 5)")
        h = p("(1 2 3 4 5 6 7)")
        assert x.conjugate(h) == h.inverse() * x * h


class TestBasics:
    def test_identity_prints_as_unit(self):
        assert str(identity(5)) == "()"

    def test_canonical_cycle_string_sorted_by_least_element(self):
        assert str(p("(4 5)(1 3)")) == "(1 3)(4 5)"

    def test_inverse(self):
        x = p("(1 2 3 4 5 6 7)")
        assert x * x.inverse() == identity(7)
        assert str(x.inverse()) == "(1 7 6 5 4 3 2)"

    def test_power(self):
        x = p("(1 2 3 4 5 6 7)")
        assert x**7 == identity(7)
        assert x**-1 == x.inverse()
        assert x**3 * x**4 == identity(7)

    def test_order(self):
        assert p("(1 4 6 7)(2 3)").order() == 4
        assert p("(1 2 3)(4 5 7)").order() == 3
        assert identity(7).order() == 1

    def test_cycle_type_counts_fixed_points(self):
        assert p("(1 3)(4 5)").cycle_type() == (2, 2, 1, 1, 1)

    def test_index_is_degree_minus_cycle_count(self):
        assert p("(1 3)(4 5)").index() == 2
        assert p("(1 4 6 7)(2 3)").index() == 4
        assert p("(1 2 3 4 5 6 7)").index() == 6
        assert identity(7).index() == 0

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Permutation((1, 2)) * Permutation((1, 2, 3))

    def test_images_must_be_a_permutation(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    @pytest.mark.parametrize(
        "images", [(2.0, 1.0, 3.0), (2, 1.0, 3), (True, 2), ("2", "1")]
    )
    def test_images_must_be_integers(self, images):
        with pytest.raises(ValueError, match="not all integers"):
            Permutation(images)

    def test_identity_rejects_degree_0(self):
        with pytest.raises(ValueError):
            identity(0)

    def test_product_of_nothing_is_identity(self):
        assert product((), 4) == identity(4)
        assert product((p("(1 2)"), p("(2 3)")), 7) == p("(1 2)") * p("(2 3)")

    def test_list_images_are_kept_as_a_tuple(self):
        x = Permutation([2, 1, 3])
        assert x.images == (2, 1, 3) and type(x.images) is tuple
        assert {x} == {Permutation((2, 1, 3))}
        assert hash(x) == hash(Permutation((2, 1, 3)))

    def test_never_equals_its_image_tuple(self):
        x = p("(1 2)")
        assert x != x.images and x.images != x
        assert not x == x.images

    def test_sorted_orders_by_image_tuples(self):
        rng = random.Random(6133)
        perms = []
        for _ in range(50):
            images = list(range(1, 6))
            rng.shuffle(images)
            perms.append(Permutation(images))
        assert [x.images for x in sorted(perms)] == sorted(x.images for x in perms)
        for a, b in zip(perms, perms[1:]):
            assert (a < b, a <= b, a > b, a >= b) == (
                a.images < b.images,
                a.images <= b.images,
                a.images > b.images,
                a.images >= b.images,
            )
        with pytest.raises(TypeError):
            perms[0] < perms[0].images


def _perms(degree: int):
    return st.permutations(range(1, degree + 1)).map(
        lambda images: Permutation(tuple(images))
    )


def _revalidated(x: Permutation) -> Permutation:
    assert type(x.images) is tuple
    return Permutation(x.images)


class TestTrustedKernel:
    """Operations skip the bijection check; their results must still be
    exactly what the checked constructor builds."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 9), m=st.integers(1, 6), k=st.integers(-9, 9))
    def test_results_equal_checked_construction(self, data, n, m, k):
        a, b, h = (data.draw(_perms(n)) for _ in range(3))
        c = data.draw(_perms(m))
        for result in (a * b, a.inverse(), a**k, a.conjugate(h), direct_sum(a, c)):
            checked = _revalidated(result)
            assert result == checked and hash(result) == hash(checked)
        assert a.conjugate(h) == h.inverse() * a * h
        parts = split(direct_sum(a, c), n)
        assert parts == (a, c)
        assert all(part == _revalidated(part) for part in parts)

    def test_split_rejects_a_mixing_permutation(self):
        with pytest.raises(ValueError):
            split(parse_cycles("(1 3)", 3), 2)

    def test_conjugate_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            p("(1 2)").conjugate(parse_cycles("(1 2)", 3))


def _ref_mul(a, b):
    return tuple(b[i - 1] for i in a)


def _ref_inverse(a):
    return tuple(sorted(range(1, len(a) + 1), key=lambda i: a[i - 1]))


def _ref_cycles(a):
    cycles, seen = [], set()
    for start in range(1, len(a) + 1):
        cycle = [start]
        while a[cycle[-1] - 1] != start:
            cycle.append(a[cycle[-1] - 1])
        if start not in seen and len(cycle) > 1:
            cycles.append(tuple(cycle))
        seen.update(cycle)
    return cycles


class TestAgainstReference:
    """Every operation on the padded tuple agrees with a plain reference on
    unpadded image tuples.  Degree 1 pads to two letters, so ``itemgetter``
    is never called with a single index, which would return a scalar."""

    @pytest.mark.parametrize("n", [1, 2, 7, 36])
    def test_operations(self, n):
        rng = random.Random(7300 + n)
        for _ in range(40):
            a, b = (tuple(rng.sample(range(1, n + 1), n)) for _ in range(2))
            x, y = Permutation(a), Permutation(b)
            assert x.padded == (0, *a) and x.images == a
            assert (x * y).images == _ref_mul(a, b)
            assert x.inverse().images == _ref_inverse(a)
            assert x.conjugate(y).images == _ref_mul(
                _ref_mul(_ref_inverse(b), a), b
            )
            k = rng.randint(-5, 5)
            power = a if k >= 0 else _ref_inverse(a)
            expected = tuple(range(1, n + 1))
            for _ in range(abs(k)):
                expected = _ref_mul(expected, power)
            assert (x**k).images == expected
            assert x.cycles() == _ref_cycles(a)
            order, power = 1, a
            while power != tuple(range(1, n + 1)):
                order, power = order + 1, _ref_mul(power, a)
            assert x.order() == order


def _ref_conjugate(padded_x, padded_h):
    """h^-1 * x * h by a plain scatter: the image of (j)h is ((j)x)h."""
    out = [0] * len(padded_h)
    for j in range(len(padded_h)):
        out[padded_h[j]] = padded_h[padded_x[j]]
    return tuple(out)


class TestConjugation:
    """``_conjugation(h)`` is the one conjugation on padded tuples, which
    ``Permutation.conjugate``, the class walks and the Nielsen orbit table
    all apply."""

    def test_against_the_scatter_reference(self):
        rng = random.Random(9013)
        for n in range(1, 41):
            for _ in range(8):
                x, h = (Permutation(rng.sample(range(1, n + 1), n)) for _ in range(2))
                conjugation = _conjugation(h.padded)
                expected = _ref_conjugate(x.padded, h.padded)
                assert conjugation(x.padded) == x.conjugate(h).padded == expected
                assert _conjugation(h.padded, h.inverse().padded)(x.padded) == expected
                # One map serves every member, as in a class walk.
                y = Permutation(rng.sample(range(1, n + 1), n))
                assert conjugation(y.padded) == _ref_conjugate(y.padded, h.padded)


class TestCycleStructure:
    """``cycle_type``, ``order`` and ``index`` read the cycle lengths
    without listing the cycles; they must match the listed cycles."""

    def test_against_listed_cycles(self):
        rng = random.Random(6121)
        for n in range(1, 31):
            images = list(range(1, n + 1))
            cases = [identity(n)]
            for _ in range(12):
                rng.shuffle(images)
                cases.append(Permutation(tuple(images)))
            for x in cases:
                cycles = x.cycles(include_fixed=True)
                assert sorted(a for c in cycles for a in c) == list(range(1, n + 1))
                for c in cycles:
                    assert c[0] == min(c)
                    assert [x.apply(a) for a in c] == list(c[1:] + c[:1])
                lengths = [len(c) for c in cycles]
                assert x.cycle_type() == tuple(sorted(lengths, reverse=True))
                assert x.order() == lcm(*lengths)
                assert x.index() == n - len(lengths)
                assert x.cycles() == [c for c in cycles if len(c) > 1]


class TestParse:
    def test_parse_roundtrip(self):
        for text in ["(1 3)(4 5)", "(1 4 6 7)(2 3)", "(1 7 6 5 4 3 2)", "()"]:
            assert str(parse_cycles(text, 7)) == text

    def test_rejects_out_of_range_letters(self):
        with pytest.raises(ValueError):
            parse_cycles("(1 8)", 7)

    def test_rejects_repeated_letters(self):
        with pytest.raises(ValueError):
            parse_cycles("(1 2)(2 3)", 7)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_cycles("1 2 3", 7)


class TestRealizations:
    def test_abandoned_search_is_freed_by_reference_counting(self):
        """The search is no reference cycle: once a half-walked search is
        dropped, reference counting alone frees the choices it held."""

        class Choices(list):  # a list that takes weak references
            pass

        cls = [p("(1 2 3)", 3), p("(1 3 2)", 3)]
        gc.disable()
        try:
            choices = [Choices(cls) for _ in range(4)]
            held = weakref.ref(choices[2])
            search = _realizations(choices, 3)
            assert product(next(search), 3).is_identity
            del choices
            assert held() is not None
            del search
            assert held() is None
        finally:
            gc.enable()

    def test_one_level_per_position(self):
        """154 positions, as many as the projection of
        ``build_sm_pair(20)`` has, stay within the recursion limit."""
        t = p("(1 2)", 2)
        assert list(_realizations([[t]] * 154, 2)) == [[t] * 154]

    def test_more_positions_than_the_depth_limit_refused(self):
        """Past half of the interpreter's recursion limit the search is
        refused with the position count and the limit, not a
        ``RecursionError``."""
        t = p("(1 2)", 2)
        limit = sys.getrecursionlimit() // 2
        assert list(_realizations([[t]] * limit, 2)) == [[t] * limit]
        message = f"{limit + 1} positions exceeds the depth limit {limit}"
        with pytest.raises(CapExceededError, match=message):
            next(_realizations([[t]] * (limit + 1), 2))


class TestDominates:
    def test_cycle_lengths_must_be_multiples_of_order(self):
        s = p("(1 2 3 4 5 6 7)")
        t = p("(1 2 3 4 5 6 7)")
        assert dominates(s, t)

    def test_fixed_points_count_as_length_one(self):
        s = p("(1 2)(3 4)")  # has fixed points of length 1
        t = p("(1 2)")  # order 2 does not divide 1
        assert not dominates(s, t)

    def test_even_lengths_dominate_involution(self):
        s = parse_cycles("(1 2)(3 4)(5 6)", 6)
        t = parse_cycles("(1 2)", 6)
        assert dominates(s, t)

    def test_anything_dominates_identity(self):
        assert dominates(p("(1 2)"), identity(7))

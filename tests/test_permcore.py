"""Unit tests for permutation primitives and the right-action convention."""

import gc
import random
import weakref
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibercover.permcore import (
    Permutation,
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

    def test_identity_rejects_degree_0(self):
        with pytest.raises(ValueError):
            identity(0)

    def test_product_of_nothing_is_identity(self):
        assert product((), 4) == identity(4)
        assert product((p("(1 2)"), p("(2 3)")), 7) == p("(1 2)") * p("(2 3)")


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

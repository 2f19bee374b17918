"""Combinatorial branched covers of the line, given by branch-cycle tuples.

A cover of degree n with r branch points is stored as r labeled
permutations whose ordered product is the identity.  Genus, Galois-
closure genus and the orbifold characteristic are computed exactly;
rationals use :class:`fractions.Fraction` throughout.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from ._record import Record
from .permcore import Permutation, parse_cycles, product
from .permgroup import GeneratedGroup, orbits

__all__ = [
    "Cover",
    "ValidityReport",
    "InvalidCoverError",
    "genus_from_tuple",
    "multipliers",
]


class InvalidCoverError(ValueError):
    """The branch-cycle data does not describe a connected cover."""


class ValidityReport(Record):
    product_one: bool
    transitive: bool
    no_identity_entries: bool
    cycle_types: tuple[tuple[int, ...], ...]

    @property
    def valid(self) -> bool:
        return self.product_one and self.transitive and self.no_identity_entries


def genus_from_tuple(degree: int, index_sum: int) -> int:
    """Solve 2(n + g - 1) = sum of indices for g; reject bad tuples."""
    doubled = index_sum - 2 * (degree - 1)
    if doubled % 2 != 0:
        raise InvalidCoverError(
            f"index sum {index_sum} has wrong parity for degree {degree}"
        )
    g = doubled // 2
    if g < 0:
        raise InvalidCoverError(f"negative genus {g} from index sum {index_sum}")
    return g


class Cover(Record):
    """Branch-cycle description of a connected cover of the line.

    ``branch_points`` are opaque ordered labels; ``cycles`` are the
    corresponding permutations.  Identity entries are rejected: a point
    with trivial local behavior is not a branch point.
    """

    degree: int
    branch_points: tuple[str, ...]
    cycles: tuple[Permutation, ...]

    def _check(self) -> None:
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if len(self.branch_points) != len(self.cycles):
            raise ValueError("branch point / cycle count mismatch")
        if len(set(self.branch_points)) != len(self.branch_points):
            raise ValueError("branch point labels must be distinct")
        for c in self.cycles:
            if c.degree != self.degree:
                raise ValueError("cycle degree mismatch")
            if c.is_identity:
                raise ValueError("identity entries are not allowed in a Cover")

    # -- construction helpers -------------------------------------------

    @staticmethod
    def from_cycle_strings(
        degree: int, branch_points: list[str], cycle_strings: list[str]
    ) -> "Cover":
        return Cover(
            degree,
            tuple(branch_points),
            tuple(parse_cycles(s, degree) for s in cycle_strings),
        )

    @staticmethod
    def from_aligned(
        degree: int, branch_points: tuple[str, ...], perms
    ) -> "Cover":
        """The cover given by ``perms`` aligned over ``branch_points``;
        identity entries mark unbranched labels and are dropped with
        them."""
        kept = [(b, p) for b, p in zip(branch_points, perms) if not p.is_identity]
        return Cover(degree, tuple(b for b, _ in kept), tuple(p for _, p in kept))

    # -- validation ------------------------------------------------------

    def validate(self) -> ValidityReport:
        """The validity report; computed on the first call and kept on
        the instance, which is immutable."""
        return self._validity

    @cached_property
    def _validity(self) -> ValidityReport:
        return ValidityReport(
            product_one=product(self.cycles, self.degree).is_identity,
            transitive=len(orbits(self.cycles, self.degree)) == 1,
            no_identity_entries=all(not c.is_identity for c in self.cycles),
            cycle_types=tuple(c.cycle_type() for c in self.cycles),
        )

    def require_valid(self) -> None:
        rep = self.validate()
        if not rep.valid:
            raise InvalidCoverError(
                f"invalid cover: product_one={rep.product_one} "
                f"transitive={rep.transitive}"
            )

    def group(self) -> GeneratedGroup:
        """The monodromy group; built on the first call and kept on the
        instance, which is immutable."""
        return self._group

    @cached_property
    def _group(self) -> GeneratedGroup:
        return GeneratedGroup(self.degree, list(self.cycles))

    # -- numeric invariants ----------------------------------------------

    def _entry_types(self) -> tuple[tuple[int, ...], ...]:
        """The entries' cycle types, from the validity report, once the
        cover is known valid: an entry's order is the lcm of its type,
        and its index is n minus the number of its cycles."""
        self.require_valid()
        return self._validity.cycle_types

    def genus(self) -> int:
        n = self.degree
        return genus_from_tuple(n, sum(n - len(t) for t in self._entry_types()))

    def galois_closure_genus(self) -> int:
        """Genus of the smallest Galois cover dominating this one, from
        2(|G| + g - 1) = sum over branch points of |G|/ord * (ord - 1)."""
        orders = [lcm(*t) for t in self._entry_types()]
        g_order = self.group().order()
        index_sum = sum((g_order // o) * (o - 1) for o in orders)
        return genus_from_tuple(g_order, index_sum)

    def orbifold_char(self) -> Fraction:
        """2 + sum(1/ord - 1); equals 2(1 - galois_genus)/|G|.  One
        ``Fraction``: (2L + sum(L/ord - L)) / L, L the lcm of the orders."""
        orders = [lcm(*t) for t in self._entry_types()]
        common = lcm(*orders)
        return Fraction(2 * common + sum(common // o - common for o in orders), common)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "branch_points": list(self.branch_points),
            "cycles": [str(c) for c in self.cycles],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Cover":
        return Cover.from_cycle_strings(
            _degree(data),
            _strings(data, "branch_points"),
            _strings(data, "cycles"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _strings(data: dict, key: str, default: list[str] | None = None) -> list[str]:
    """``data[key]`` (or ``default`` where the key is absent, if given),
    which must be a JSON array of strings; anything else is refused with
    a ``TypeError`` naming the key."""
    value = data[key] if default is None else data.get(key, default)
    if not isinstance(value, list):
        raise TypeError(f"{key} must be an array, got {value!r}")
    for i, item in enumerate(value):
        if not isinstance(item, str):
            raise TypeError(f"{key}[{i}] must be a string, got {item!r}")
    return value


def _degree(data: dict) -> int:
    """``data["degree"]``, which must be a JSON integer (not a boolean) or
    a string of ASCII digits; anything else is refused with a
    ``TypeError`` naming the key."""
    value = data["degree"]
    if type(value) is int or (
        isinstance(value, str) and value.isascii() and value.isdigit()
    ):
        return int(value)
    raise TypeError(f"degree must be an integer or a digit string, got {value!r}")


# -- class-level helpers ---------------------------------------------------


def multipliers(group: GeneratedGroup, cycle_class: list[Permutation]) -> set[int]:
    """{u coprime to n : s**u lies in the same class}, for a class of
    n-cycles where n is the group's degree."""
    n = group.degree
    rep = cycle_class[0]
    if rep.cycle_type() != (n,):
        raise ValueError("class elements must be full n-cycles")
    class_set = set(cycle_class)
    return {
        u
        for u in range(1, n)
        if gcd(u, n) == 1 and rep**u in class_set
    }

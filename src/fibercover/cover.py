"""Combinatorial branched covers of the line, given by branch-cycle tuples.

A cover of degree n with r branch points is stored as r labeled
permutations whose ordered product is the identity.  Genus, Galois-
closure genus and the orbifold characteristic are computed exactly;
rationals use :class:`fractions.Fraction` throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .permcore import Permutation, direct_sum, parse_cycles, product
from .permgroup import GeneratedGroup, orbits

__all__ = [
    "Cover",
    "ValidityReport",
    "InvalidCoverError",
    "genus_from_tuple",
    "multipliers",
    "character_entanglement",
    "equivalent_tuples",
]


class InvalidCoverError(ValueError):
    """The branch-cycle data does not describe a connected cover."""


@dataclass(frozen=True)
class ValidityReport:
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


@dataclass(frozen=True)
class Cover:
    """Branch-cycle description of a connected cover of the line.

    ``branch_points`` are opaque ordered labels; ``cycles`` are the
    corresponding permutations.  Identity entries are rejected: a point
    with trivial local behavior is not a branch point.
    """

    degree: int
    branch_points: tuple[str, ...]
    cycles: tuple[Permutation, ...]

    def __post_init__(self) -> None:
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
        report = self.__dict__.get("_validity")
        if report is None:
            report = ValidityReport(
                product_one=product(self.cycles, self.degree).is_identity,
                transitive=len(orbits(self.cycles, self.degree)) == 1,
                no_identity_entries=all(not c.is_identity for c in self.cycles),
                cycle_types=tuple(c.cycle_type() for c in self.cycles),
            )
            object.__setattr__(self, "_validity", report)
        return report

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
        group = self.__dict__.get("_group")
        if group is None:
            group = GeneratedGroup(self.degree, list(self.cycles))
            object.__setattr__(self, "_group", group)
        return group

    # -- numeric invariants ----------------------------------------------

    def genus(self) -> int:
        self.require_valid()
        return genus_from_tuple(self.degree, sum(c.index() for c in self.cycles))

    def galois_closure_genus(self) -> int:
        """Genus of the smallest Galois cover dominating this one, from
        2(|G| + g - 1) = sum over branch points of |G|/ord * (ord - 1)."""
        self.require_valid()
        g_order = self.group().order()
        index_sum = 0
        for c in self.cycles:
            o = c.order()
            index_sum += (g_order // o) * (o - 1)
        return genus_from_tuple(g_order, index_sum)

    def orbifold_char(self) -> Fraction:
        """2 + sum(1/ord - 1); equals 2(1 - galois_genus)/|G|."""
        self.require_valid()
        total = Fraction(2)
        for c in self.cycles:
            total += Fraction(1, c.order()) - 1
        return total

    # -- derived covers ---------------------------------------------------

    def induced_cover(self, h: GeneratedGroup) -> "Cover":
        """The cover on the cosets of ``h``; identity images are dropped
        together with their branch-point labels."""
        perms, index = self.group().coset_action(h)
        return Cover.from_aligned(index, self.branch_points, perms)

    def self_fiber_subdegrees(self) -> list[int]:
        """Orbit lengths of the point stabilizer of letter 1, sorted."""
        self.require_valid()
        stab = self.group().point_stabilizer(1)
        return sorted(len(o) for o in stab.orbits())

    def is_doubly_transitive(self) -> bool:
        return self.self_fiber_subdegrees() == sorted([1, self.degree - 1])

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
            int(data["degree"]),
            [str(b) for b in data["branch_points"]],
            [str(c) for c in data["cycles"]],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Cover":
        return Cover.from_json_dict(json.loads(text))


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


def character_entanglement(
    t1_gens: list[Permutation], t2_gens: list[Permutation]
) -> dict[str, bool]:
    """Trace relations between two faithful transitive actions of one
    group, supplied as image lists over a common abstract generating set.

    Returns ``galois_entangled`` (traces equal on every element) and
    ``davenport_entangled`` (traces simultaneously zero / nonzero).
    """
    if len(t1_gens) != len(t2_gens):
        raise ValueError("generator lists must have equal length")
    m = t1_gens[0].degree
    n = t2_gens[0].degree
    joint_gens = [direct_sum(a, b) for a, b in zip(t1_gens, t2_gens)]
    joint = GeneratedGroup(m + n, joint_gens)
    g1 = GeneratedGroup(m, t1_gens)
    g2 = GeneratedGroup(n, t2_gens)
    if not (joint.order() == g1.order() == g2.order()):
        raise ValueError(
            "the two actions are not actions of a common group "
            f"(orders {g1.order()}, {g2.order()}, joint {joint.order()})"
        )
    galois = True
    davenport = True
    for x in joint.elements():
        tr1 = sum(1 for i in range(1, m + 1) if x.apply(i) == i)
        tr2 = sum(1 for i in range(m + 1, m + n + 1) if x.apply(i) == i)
        if tr1 != tr2:
            galois = False
        if (tr1 > 0) != (tr2 > 0):
            davenport = False
        if not galois and not davenport:
            break
    return {"galois_entangled": galois, "davenport_entangled": davenport}


def equivalent_tuples(
    tuple_a: tuple[Permutation, ...],
    tuple_b: tuple[Permutation, ...],
    degree: int,
) -> Permutation | None:
    """A permutation conjugating every entry of ``tuple_a`` to the
    matching entry of ``tuple_b`` simultaneously, or None.

    Backtracks over letter images, so it stays fast at desk degrees.
    """
    if len(tuple_a) != len(tuple_b):
        return None

    assignment: dict[int, int] = {}
    used: set[int] = set()

    def propagate(a: int, b: int) -> list[tuple[int, int]] | None:
        """Assign a -> b and close under all tuple entries; returns the
        newly made assignments, or None on conflict (rolling back)."""
        made: list[tuple[int, int]] = []
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            if x in assignment:
                if assignment[x] != y:
                    for mx, _ in made:
                        used.discard(assignment.pop(mx))
                    return None
                continue
            if y in used:
                for mx, _ in made:
                    used.discard(assignment.pop(mx))
                return None
            assignment[x] = y
            used.add(y)
            made.append((x, y))
            for pa, pb in zip(tuple_a, tuple_b):
                stack.append((pa.apply(x), pb.apply(y)))
        return made

    def search(next_letter: int) -> bool:
        while next_letter in assignment:
            next_letter += 1
            if next_letter > degree:
                return True
        if next_letter > degree:
            return True
        for candidate in range(1, degree + 1):
            if candidate in used:
                continue
            made = propagate(next_letter, candidate)
            if made is None:
                continue
            if search(next_letter + 1):
                return True
            for mx, _ in made:
                used.discard(assignment.pop(mx))
        return False

    if search(1):
        return Permutation(tuple(assignment[i] for i in range(1, degree + 1)))
    return None

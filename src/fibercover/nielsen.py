"""Nielsen classes: enumeration, equivalence, braid action, coalescing.

A Nielsen class is the set of r-tuples taken from prescribed conjugacy
classes that generate the group and multiply to the identity.  Tuples
can be reduced modulo nothing (raw), modulo simultaneous conjugation by
the group (inner), or modulo the class-preserving normalizer in the
ambient symmetric group (absolute).
"""

from __future__ import annotations

import itertools
from array import array
from enum import Enum
from functools import cached_property
from math import factorial, prod
from operator import itemgetter

from ._record import Record
from .permcore import Permutation, _conjugation, _from_padded, _invert, _realizations
from .permgroup import CapExceededError, GeneratedGroup, _check_listing, _generates

__all__ = [
    "EquivalenceMode",
    "NielsenClassSpec",
    "NielsenElement",
    "enumerate_class",
    "braid_apply",
    "braid_orbits",
    "h3_structure",
    "coalesce",
]

DEFAULT_SEARCH_CAP = 10**7


class EquivalenceMode(str, Enum):
    RAW = "raw"
    INNER = "inner"
    ABSOLUTE = "absolute"


class NielsenClassSpec(Record):
    """Group, class representatives (repetitions allowed, order fixed),
    and the declared equivalence.

    ``outer_elements`` optionally supplies extra conjugators for absolute
    equivalence; when present they are used instead of the class-preserving
    normalizer.

    A Nielsen class is cut out by a class *multiset*, so by default the
    enumeration covers every distinct ordering of the given classes.
    ``include_reorderings=False`` keeps the given ordering fixed (the
    convention used when representatives are listed with a designated
    class, say the one over infinity, in the last slot).

    A spec is immutable, so the classes, orbit table and enumeration it
    caches on itself stay valid; a variant is a new spec.
    """

    group: GeneratedGroup
    class_reps: tuple[Permutation, ...]
    mode: EquivalenceMode = EquivalenceMode.ABSOLUTE
    outer_elements: tuple[Permutation, ...] = ()
    include_reorderings: bool = True
    search_cap: int = DEFAULT_SEARCH_CAP

    def _check(self) -> None:
        for rep in self.class_reps:
            if not self.group.contains(rep):
                raise ValueError("class representative not in group")
        for h in self.outer_elements:
            if not self.group._normalized_by(h):
                raise ValueError(f"outer element {h} does not normalize the group")

    @property
    def r(self) -> int:
        return len(self.class_reps)

    def classes(self) -> list[list[Permutation]]:
        """The class of each representative, in order, read off the
        group's kept class walks; cached on the instance."""
        return self._classes

    @cached_property
    def _classes(self) -> list[list[Permutation]]:
        return [self.group.conjugacy_class(rep) for rep in self.class_reps]

    def class_orderings(self) -> list[tuple[int, ...]]:
        """Distinct orderings of the class multiset, as index tuples into
        ``class_reps``, sorted (just the identity ordering when
        reorderings are excluded).  Each ordering is given by its least
        index tuple, the one in which the indices of each class appear in
        increasing order, so the tuples are listed directly: each class
        in turn places its indices in a set of free slots.  Their number,
        r! over the product of m! for each class met m times, is checked
        against ``LISTING_CAP`` first."""
        if not self.include_reorderings:
            return [tuple(range(self.r))]
        by_class: dict[Permutation, list[int]] = {}
        for i, cls in enumerate(self.classes()):
            by_class.setdefault(cls[0], []).append(i)
        count = factorial(self.r) // prod(factorial(len(m)) for m in by_class.values())
        _check_listing(count, "class orderings")
        orderings: list[list[int | None]] = [[None] * self.r]
        for members in by_class.values():
            placed = []
            for ordering in orderings:
                free = [k for k, i in enumerate(ordering) if i is None]
                for slots in itertools.combinations(free, len(members)):
                    extended = list(ordering)
                    for k, i in zip(slots, members):
                        extended[k] = i
                    placed.append(extended)
            orderings = placed
        return sorted(map(tuple, orderings))

    def equivalence_conjugators(self) -> list[Permutation]:
        """The conjugators realizing the declared equivalence: the sorted
        elements of the group the spec's orbit table reduces by."""
        return self._orbit_table.group.elements()

    def _conjugator_group(self) -> GeneratedGroup:
        """The group N of conjugators: trivial in raw mode, else a group
        containing G."""
        if self.mode == EquivalenceMode.RAW:
            return GeneratedGroup(self.group.degree, [])
        if self.mode == EquivalenceMode.INNER:
            return self.group
        if self.outer_elements:
            return GeneratedGroup(
                self.group.degree,
                list(self.group.generators) + list(self.outer_elements),
            )
        return self.group.class_stabilizer(self.classes())

    @cached_property
    def _orbit_table(self) -> _OrbitTable:
        """The orbit table, shared by enumeration and braid walks."""
        return _OrbitTable(self._conjugator_group())

    @cached_property
    def _enumeration(self) -> list[NielsenElement]:
        base_classes = self.classes()
        if not base_classes:
            return []
        walks = []
        for ordering in self.class_orderings():
            choices = [base_classes[i] for i in ordering]
            if self.mode != EquivalenceMode.RAW:
                # N contains G, so every orbit that meets this ordering
                # meets the tuples that start with the least member of the
                # first class (class lists are sorted).
                choices[0] = choices[0][:1]
            walks.append(choices)
        cost = sum(prod(len(c) for c in choices[:-1]) for choices in walks)
        if cost > self.search_cap:
            raise CapExceededError(
                f"enumeration search space exceeds cap {self.search_cap}"
            )
        canonical = self._orbit_table
        # Generation is invariant under conjugation, so it is tested once
        # per orbit: ``tested`` holds the representative of every orbit met.
        tested: set[NielsenElement] = set()
        found: list[NielsenElement] = []
        for choices in walks:
            for chosen in _realizations(choices, self.group.degree):
                rep = canonical(tuple(chosen))
                if rep in tested:
                    continue
                tested.add(rep)
                if _generates(self.group, chosen):
                    found.append(rep)
        return sorted(found)


NielsenElement = tuple[Permutation, ...]


def canonical_form(
    element: NielsenElement, conjugators: list[Permutation]
) -> NielsenElement:
    """Lexicographically least tuple over the conjugation orbit."""
    return min(
        tuple(p.conjugate(h) for p in element) for h in conjugators
    )


def _key(element) -> bytes:
    """A compact dict key for a tuple of padded tuples: its letters as
    32-bit words."""
    return array("I", itertools.chain.from_iterable(element)).tobytes()


class _OrbitTable:
    """Canonical forms modulo a group N of conjugators.

    The least member of an N-orbit of tuples starts with c0, the least
    member of the N-orbit of its first entry, and the members that start
    with c0 form one orbit of the centralizer C_N(c0).  So a tuple is
    conjugated once onto c0 and its least form is taken over C_N(c0)
    only; those members are keyed, and a later one is a dict lookup.  The
    result equals ``canonical_form`` over the elements of N.  Tuples are
    conjugated as padded image tuples, which order as their permutations
    do, and only the least member is wrapped.  Members are keyed by
    packed images, which take a small fraction of the memory of tuples
    of ``Permutation`` objects."""

    def __init__(self, group: GeneratedGroup) -> None:
        self.group = group
        # first entry, padded -> (h, h^-1) for a conjugator h onto c0, or
        # None for c0 itself, and the elements of C_N(c0) as (h, h^-1);
        # all padded.
        self.onto: dict[tuple[int, ...], tuple] = {}
        self.canonical: dict[bytes, NielsenElement] = {}

    def __call__(self, element: NielsenElement) -> NielsenElement:
        moved = [p.padded for p in element]
        found = self.onto.get(moved[0])
        if found is None:
            found = self._walk(element[0])
        onto, centralizer = found
        if onto is not None:  # the enumeration's first entries are mostly c0
            moved = list(map(_conjugation(*onto), moved))
        rep = self.canonical.get(_key(moved))
        if rep is None:
            members = [
                tuple(map(_conjugation(h, h_inverse), moved))
                for h, h_inverse in centralizer
            ]
            rep = tuple(map(_from_padded, min(members)))
            self.canonical.update(dict.fromkeys(map(_key, members), rep))
        return rep

    def _walk(self, x: Permutation) -> tuple:
        """Record the N-orbit of ``x`` from N's one walk of it, from its
        start s: s^t_y = y, s^u = c0, so y^(t_y^-1 u) = c0, and
        C_N(c0) = u^-1 C_N(s) u."""
        walk = self.group._class_walk(x)
        c0 = min(walk)
        u = walk[c0]
        to_c0 = _conjugation(u)
        centralizer = []
        for h in self.group._centralizer(walk)._padded_elements():
            c = to_c0(h)
            centralizer.append((c, _invert(c)))
        # u^-1 * t_y, the inverse of the conjugator onto c0, is one
        # composition per member.
        back_then = itemgetter(*_invert(u))
        for y, t in walk.items():
            onto = None
            if y != c0:
                onto_inverse = back_then(t)
                onto = _invert(onto_inverse), onto_inverse
            self.onto[y] = onto, centralizer
        return self.onto[x.padded]


def enumerate_class(spec: NielsenClassSpec) -> list[NielsenElement]:
    """All canonical representatives, sorted: the product-one choices of
    each class ordering come from ``permcore._realizations``, the lazy
    search the projection adjustment uses too, with the first entry fixed
    to its class's least member outside raw mode; each is reduced modulo
    the equivalence and generation is tested once per orbit.  Results are
    cached on the spec instance."""
    return spec._enumeration


# -- braid action -------------------------------------------------------------


def braid_apply(element: NielsenElement, word: str) -> NielsenElement:
    """Apply a braid word: tokens separated by whitespace from the
    alphabet q1..q{r-1}, sh, and their inverses (suffix ').

    q1 sends (s1, s2, ...) to (s1 s2 s1^-1, s1, ...); qi acts the same
    way at positions i, i+1; sh is the left shift.
    """
    current = tuple(element)
    r = len(current)
    for token in word.split():
        inverse = token.endswith("'")
        name = token[:-1] if inverse else token
        if name == "sh":
            if inverse:
                current = current[-1:] + current[:-1]
            else:
                current = current[1:] + current[:1]
            continue
        if not name.startswith("q"):
            raise ValueError(f"unknown braid token {token!r}")
        i = int(name[1:])
        if not 1 <= i <= r - 1:
            raise ValueError(f"braid index {i} out of range for r={r}")
        a, b = current[i - 1], current[i]
        if inverse:
            replaced = (b, b.inverse() * a * b)
        else:
            replaced = (a * b * a.inverse(), a)
        current = current[: i - 1] + replaced + current[i + 1 :]
    return current


def braid_orbits(spec: NielsenClassSpec) -> list[list[NielsenElement]]:
    """Partition of the canonical representatives into braid-group
    orbits, by closure under the twists and the shift: one breadth-first
    walk per orbit, from its least representative, with one ``seen`` set
    for all of them.  The twists and the shift may reorder the classes,
    so a walk passes through tuples outside the fixed class ordering;
    the orbit is the sorted set of enumerated representatives it meets.
    The walks are iterative; the enumeration they start from recurses
    once per position of its search, r levels deep."""
    reps = enumerate_class(spec)
    members = set(reps)
    canonical = spec._orbit_table
    gens = [f"q{i}" for i in range(1, spec.r)] + ["sh"]
    seen: set[NielsenElement] = set()
    orbits: list[list[NielsenElement]] = []
    for rep in reps:
        if rep in seen:
            continue
        seen.add(rep)
        # ``walk`` doubles as the FIFO queue of tuples to act on.
        walk = [rep]
        for e in walk:
            for w in gens:
                moved = canonical(braid_apply(e, w))
                if moved not in seen:
                    seen.add(moved)
                    walk.append(moved)
        orbits.append(sorted(members.intersection(walk)))
    return orbits


def h3_structure(spec: NielsenClassSpec) -> dict:
    """For r = 3: check that the squared twists act trivially modulo
    inner equivalence and report the induced action on class orderings."""
    if spec.r != 3:
        raise ValueError("this report requires r = 3")
    inner = NielsenClassSpec(
        spec.group, spec.class_reps, EquivalenceMode.INNER, search_cap=spec.search_cap
    )
    elements = enumerate_class(inner)
    canonical = inner._orbit_table
    squares_trivial = all(
        canonical(braid_apply(e, f"q{i} q{i}")) == e
        for e in elements
        for i in (1, 2)
    )
    # q1 swaps the first two slots and sh rotates them: together they
    # generate S3 on the slots, so the orbit of the initial ordering is
    # the set of its distinct rearrangements, of size 6, 3 or 1.
    reps = [cls[0] for cls in spec.classes()]
    orderings = set(itertools.permutations(reps))
    return {
        "squared_twists_trivial": squares_trivial,
        "ordering_orbit_size": len(orderings),
        "full_symmetric_on_orderings": len(orderings) == 6,
    }


# -- coalescing ---------------------------------------------------------------


def _require_members(entries, group: GeneratedGroup) -> None:
    """Refuse the first entry that lies outside ``group``, naming it."""
    for p in entries:
        if not group.contains(p):
            raise ValueError(f"entry {p} is not in the group")


def coalesce(
    element: NielsenElement, group: GeneratedGroup, at: int | None = None
) -> tuple[NielsenElement, dict]:
    """Multiply the adjacent entries at positions at, at+1 (1-based;
    default the last two) of ``element``, whose entries must lie in
    ``group``.  Product-one survives automatically; the report says
    whether the new entries still generate ``group`` (restricted
    coalescing) and whether the merged entry vanished and was dropped."""
    r = len(element)
    if at is None:
        at = r - 1
    if not 1 <= at <= r - 1:
        raise ValueError(f"position {at} out of range 1..{r - 1}")
    _require_members(element, group)
    merged = element[at - 1] * element[at]
    dropped = merged.is_identity
    if dropped:
        new = element[: at - 1] + element[at + 1 :]
    else:
        new = element[: at - 1] + (merged,) + element[at + 1 :]
    return new, {"restricted": _generates(group, new), "identity_dropped": dropped}


# -- paired enumeration -------------------------------------------------------


def paired_enumerate(
    joint_spec: NielsenClassSpec,
    degree_x: int,
    branch_points: tuple[str, ...],
):
    """Enumerate a Nielsen class of a group given in two simultaneous
    permutation representations.

    ``joint_spec`` lives on the disjoint union of the two letter sets
    (x-letters first); each canonical tuple splits coordinatewise into a
    strongly paired cover.
    """
    from .fiberprod import PairedCover

    return [
        PairedCover.from_joint_tuple(branch_points, element, degree_x)
        for element in enumerate_class(joint_spec)
    ]

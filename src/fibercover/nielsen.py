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
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .permcore import Permutation, _realizations, identity
from .permgroup import CapExceededError, GeneratedGroup

__all__ = [
    "EquivalenceMode",
    "NielsenClassSpec",
    "NielsenElement",
    "enumerate_class",
    "braid_apply",
    "braid_orbits",
    "h3_structure",
    "coalesce",
    "coalesce_genus_check",
]

DEFAULT_SEARCH_CAP = 10**7


class EquivalenceMode(str, Enum):
    RAW = "raw"
    INNER = "inner"
    ABSOLUTE = "absolute"


@dataclass
class NielsenClassSpec:
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
    """

    group: GeneratedGroup
    class_reps: tuple[Permutation, ...]
    mode: EquivalenceMode = EquivalenceMode.ABSOLUTE
    outer_elements: tuple[Permutation, ...] = ()
    include_reorderings: bool = True
    search_cap: int = DEFAULT_SEARCH_CAP

    def __post_init__(self) -> None:
        for rep in self.class_reps:
            if not self.group.contains(rep):
                raise ValueError("class representative not in group")

    @property
    def r(self) -> int:
        return len(self.class_reps)

    def classes(self) -> list[list[Permutation]]:
        return [self.group.conjugacy_class(rep) for rep in self.class_reps]

    def class_orderings(self) -> list[tuple[int, ...]]:
        """Distinct orderings of the class multiset, as index tuples into
        ``class_reps`` (just the identity ordering when reorderings are
        excluded)."""
        if not self.include_reorderings:
            return [tuple(range(self.r))]
        ids = [min(self.group.conjugacy_class(rep)) for rep in self.class_reps]
        seen: set[tuple[Permutation, ...]] = set()
        out: list[tuple[int, ...]] = []
        for perm in itertools.permutations(range(self.r)):
            key = tuple(ids[i] for i in perm)
            if key not in seen:
                seen.add(key)
                out.append(perm)
        return out

    def equivalence_conjugators(self) -> list[Permutation]:
        """The conjugators realizing the declared equivalence, as the
        sorted elements of a group; cached on the instance."""
        cached = getattr(self, "_conjugators_cache", None)
        if cached is not None:
            return cached
        result = self._compute_conjugators()
        object.__setattr__(self, "_conjugators_cache", result)
        return result

    def _compute_conjugators(self) -> list[Permutation]:
        if self.mode == EquivalenceMode.RAW:
            return [identity(self.group.degree)]
        inner = self.group.elements()
        if self.mode == EquivalenceMode.INNER:
            return inner
        if self.outer_elements:
            extra = GeneratedGroup(
                self.group.degree,
                list(self.group.generators) + list(self.outer_elements),
            )
            return extra.elements()
        normalizer = self.group.normalizer_in_symmetric()
        stab = self.group.class_stabilizer(
            [self.group.conjugacy_class(rep) for rep in self.class_reps],
            ambient=normalizer,
        )
        return stab.elements()


NielsenElement = tuple[Permutation, ...]


def canonical_form(
    element: NielsenElement, conjugators: list[Permutation]
) -> NielsenElement:
    """Lexicographically least tuple over the conjugation orbit."""
    return min(
        tuple(p.conjugate(h) for p in element) for h in conjugators
    )


def _key(element: NielsenElement) -> bytes:
    """A compact dict key for a tuple: its images packed as 32-bit words."""
    images = itertools.chain.from_iterable(p.images for p in element)
    return array("I", images).tobytes()


class _OrbitTable:
    """Canonical forms modulo a group of conjugators, one orbit at a time.

    The first tuple met from an orbit has its whole orbit built and every
    member mapped to the orbit's least tuple; later members are a dict
    lookup.  Because the conjugators form a group, the orbit of any
    member is the same set, so the result equals ``canonical_form``.
    Members are keyed by packed images, which take a small fraction of
    the memory of tuples of ``Permutation`` objects."""

    def __init__(self, conjugators: list[Permutation]) -> None:
        self.conjugators = conjugators
        self.canonical: dict[bytes, NielsenElement] = {}

    def __call__(self, element: NielsenElement) -> NielsenElement:
        rep = self.canonical.get(_key(element))
        if rep is None:
            orbit = [tuple(p.conjugate(h) for p in element) for h in self.conjugators]
            rep = min(orbit)
            self.canonical.update(dict.fromkeys(map(_key, orbit), rep))
        return rep


def _orbit_table(spec: NielsenClassSpec) -> _OrbitTable:
    """The spec's orbit table, shared by enumeration and braid walks."""
    table = getattr(spec, "_orbit_table_cache", None)
    if table is None:
        table = _OrbitTable(spec.equivalence_conjugators())
        object.__setattr__(spec, "_orbit_table_cache", table)
    return table


def enumerate_class(spec: NielsenClassSpec) -> list[NielsenElement]:
    """All canonical representatives, sorted: the product-one choices of
    each class ordering come from ``permcore._realizations``, the lazy
    search the projection adjustment uses too; each is reduced modulo the
    equivalence and generation is tested once per orbit.  Results are
    cached on the spec instance."""
    cached = getattr(spec, "_enumeration_cache", None)
    if cached is not None:
        return cached
    result = _enumerate_class(spec)
    object.__setattr__(spec, "_enumeration_cache", result)
    return result


def _enumerate_class(spec: NielsenClassSpec) -> list[NielsenElement]:
    base_classes = spec.classes()
    if not base_classes:
        return []
    orderings = spec.class_orderings()
    cost = 0
    for ordering in orderings:
        per = 1
        for i in ordering[:-1]:
            per *= len(base_classes[i])
        cost += per
        if cost > spec.search_cap:
            raise CapExceededError(
                f"enumeration search space exceeds cap {spec.search_cap}"
            )
    target_order = spec.group.order()
    degree = spec.group.degree
    canonical = _orbit_table(spec)
    # Generation is invariant under conjugation, so it is tested once per
    # orbit: ``tested`` holds the representative of every orbit met.
    tested: set[NielsenElement] = set()
    found: list[NielsenElement] = []
    for ordering in orderings:
        for chosen in _realizations([base_classes[i] for i in ordering], degree):
            rep = canonical(tuple(chosen))
            if rep in tested:
                continue
            tested.add(rep)
            # The entries are class members of G, so |G| bounds their group.
            group = GeneratedGroup(degree, chosen, _order_bound=target_order)
            if group.order() == target_order:
                found.append(rep)
    return sorted(found)


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


def braid_generators(r: int) -> list[str]:
    return [f"q{i}" for i in range(1, r)] + ["sh"]


def braid_orbits(spec: NielsenClassSpec) -> list[list[NielsenElement]]:
    """Partition of the canonical representatives into braid-group
    orbits, by closure under the twists and the shift."""
    reps = enumerate_class(spec)
    canonical = _orbit_table(spec)
    index = {rep: i for i, rep in enumerate(reps)}
    seen_reps: set[int] = set()
    orbits: list[list[NielsenElement]] = []
    gens = braid_generators(spec.r)
    for start, rep in enumerate(reps):
        if start in seen_reps:
            continue
        # The twists and the shift may reorder the classes, so the walk
        # passes through tuples outside the fixed class ordering; the
        # orbit is the set of enumerated representatives it touches.
        orbit = {start}
        seen_reps.add(start)
        visited = {rep}
        queue = deque([rep])
        while queue:
            e = queue.popleft()
            for w in gens:
                moved = canonical(braid_apply(e, w))
                if moved in visited:
                    continue
                visited.add(moved)
                queue.append(moved)
                j = index.get(moved)
                if j is not None:
                    orbit.add(j)
                    seen_reps.add(j)
        orbits.append([reps[i] for i in sorted(orbit)])
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
    canonical = _orbit_table(inner)
    squares_trivial = all(
        canonical(braid_apply(e, f"q{i} q{i}")) == e
        for e in elements
        for i in (1, 2)
    )
    # Induced action on the ordering of the three classes: q1 swaps the
    # first two slots, sh rotates; the orbit of the initial ordering
    # has size 6, 3, 2 or 1 depending on repeats among the classes.
    reps = [min(spec.group.conjugacy_class(c)) for c in spec.class_reps]
    orderings = {tuple(reps)}
    queue = deque([tuple(reps)])
    while queue:
        order = queue.popleft()
        for moved in (
            (order[1], order[0], order[2]),  # q1
            (order[1], order[2], order[0]),  # sh
        ):
            if moved not in orderings:
                orderings.add(moved)
                queue.append(moved)
    return {
        "squared_twists_trivial": squares_trivial,
        "ordering_orbit_size": len(orderings),
        "full_symmetric_on_orderings": len(orderings) == 6,
    }


# -- coalescing ---------------------------------------------------------------


def coalesce(
    element: NielsenElement, group: GeneratedGroup, at: int | None = None
) -> tuple[NielsenElement, dict]:
    """Multiply the adjacent entries at positions at, at+1 (1-based;
    default the last two).  Product-one survives automatically; the
    report says whether generation survives (restricted coalescing) and
    whether the merged entry vanished and was dropped."""
    r = len(element)
    if at is None:
        at = r - 1
    if not 1 <= at <= r - 1:
        raise ValueError(f"position {at} out of range 1..{r - 1}")
    merged = element[at - 1] * element[at]
    dropped = merged.is_identity
    if dropped:
        new = element[: at - 1] + element[at + 1 :]
    else:
        new = element[: at - 1] + (merged,) + element[at + 1 :]
    generated = GeneratedGroup(group.degree, list(new))
    report = {
        "restricted": generated.order() == group.order(),
        "identity_dropped": dropped,
    }
    return new, report


def coalesce_genus_check(genus_before: int, genus_after: int) -> bool:
    """Coalescing models branch-point collision; the genus cannot rise."""
    return genus_after <= genus_before


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

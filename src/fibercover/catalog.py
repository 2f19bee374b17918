"""Built-in constructions anchoring the test suite.

Keys cover: the two degree-7 paired covers and their class specs, the
coalescing chains connecting them, dihedral and Chebyshev-class covers,
the order-8 dihedral paired anomaly, the symmetric-group standard/pairs
series, the degree-5 Hilbert–Siegel class, and the Davenport degree
metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .permcore import Permutation, direct_sum, parse_cycles
from .permgroup import GeneratedGroup
from .cover import Cover
from .fiberprod import PairedCover
from .nielsen import EquivalenceMode, NielsenClassSpec

__all__ = [
    "PairedClassSpec",
    "get",
    "list_keys",
    "describe",
    "build_sm_pair",
    "build_dihedral",
    "build_chebyshev_cover",
    "build_cyclic_cover",
    "build_hilbert_siegel_m5",
    "pairs_permutation",
    "has_second_representation",
]


@dataclass(frozen=True)
class PairedClassSpec:
    """A Nielsen class given in two simultaneous representations: the
    class data lives on the joint (disjoint-union) letters; splitting a
    tuple at ``degree_x`` yields strongly paired covers."""

    joint_spec: NielsenClassSpec
    degree_x: int
    branch_points: tuple[str, ...]


# -- degree-7 data -----------------------------------------------------------


def _p7(text: str) -> Permutation:
    return parse_cycles(text, 7)


_SEVEN_CYCLE = _p7("(1 2 3 4 5 6 7)")
_SIGMA_INF = _SEVEN_CYCLE.inverse()

_DEG7_LABELS = ("z1", "z2", "infinity")


@lru_cache(maxsize=None)
def _deg7_pair(which: int) -> PairedCover:
    if which == 1:
        sigma = (_p7("(1 3)(4 5)"), _p7("(1 4 6 7)(2 3)"), _SIGMA_INF)
        tau = (_p7("(1 2)(3 5)"), _p7("(1 3 6 7)(4 5)"), _SIGMA_INF)
    else:
        sigma = (_p7("(1 2 3)(4 5 7)"), _p7("(1 4)(6 7)"), _SIGMA_INF)
        tau = (_p7("(1 2 7)(3 5 6)"), _p7("(3 7)(4 5)"), _SIGMA_INF)
    return PairedCover(_DEG7_LABELS, sigma, tau, 7, 7)


@lru_cache(maxsize=None)
def _deg7_joint_involution_split() -> tuple[Permutation, Permutation]:
    """Two joint involutions whose product is the first joint branch
    cycle of the second degree-7 pair (deterministic first hit)."""
    pair = _deg7_pair(2)
    joint = pair.joint_group
    s1j = joint.generators[0]
    s2j = joint.generators[1]
    involution_class = joint.conjugacy_class(s2j)
    for a in involution_class:
        b = a * s1j  # a * (a * s1j) = s1j since a is an involution
        if b in involution_class and not b.is_identity:
            return a, b
    raise RuntimeError("no involution split found")


@lru_cache(maxsize=None)
def _deg7_pair_r4() -> PairedCover:
    """The four-branch-point paired cover (three involutions and the
    7-cycle) that coalesces onto the second degree-7 pair."""
    pair = _deg7_pair(2)
    joint = pair.joint_group
    a, b = _deg7_joint_involution_split()
    element = (a, b, joint.generators[1], joint.generators[2])
    return PairedCover.from_joint_tuple(("z1", "z2", "z3", "infinity"), element, 7)


@lru_cache(maxsize=None)
def _deg7_pair_r6() -> PairedCover:
    """Six involution branch points: (a, b, c, c, b, a) with a*b*c the
    7-cycle; coalescing twice recovers the four-point pair."""
    pair = _deg7_pair(2)
    joint = pair.joint_group
    a, b = _deg7_joint_involution_split()
    c = joint.generators[1]
    element = (a, b, c, c, b, a)
    return PairedCover.from_joint_tuple(
        ("z1", "z2", "z3", "z4", "z5", "z6"), element, 7
    )


@lru_cache(maxsize=None)
def _deg7_class_spec(
    orders: tuple[int, ...],
    mode: EquivalenceMode,
    include_reorderings: bool = True,
) -> NielsenClassSpec:
    """A class spec on the degree-7 point representation; the 7-class is
    the one containing the branch cycle at infinity."""
    pair = _deg7_pair(1)
    group = GeneratedGroup(7, list(pair.sigma))
    by_order = {
        2: _p7("(1 3)(4 5)"),
        4: _p7("(1 4 6 7)(2 3)"),
        3: _p7("(1 2 3)(4 5 7)"),
        7: _SIGMA_INF,
    }
    reps = tuple(by_order[o] for o in orders)
    return NielsenClassSpec(
        group, reps, mode, include_reorderings=include_reorderings
    )


# -- dihedral / Chebyshev-class constructions --------------------------------


def _rotation(n: int, k: int) -> Permutation:
    return Permutation(tuple((i + k) % n + 1 for i in range(n)))


def _reflection(n: int, a: int) -> Permutation:
    return Permutation(tuple((a - i) % n + 1 for i in range(n)))


def build_dihedral(n: int, class_spec: str) -> Cover:
    """Dihedral covers of degree n: ``2^4`` gives the four-involution
    tuple, ``2^2.n`` the Chebyshev-class tuple."""
    if n < 3:
        raise ValueError("degree must be at least 3")
    if class_spec == "2^4":
        r0, r1 = _reflection(n, 0), _reflection(n, 1)
        return Cover(n, ("z1", "z2", "z3", "z4"), (r0, r1, r1, r0))
    if class_spec == "2^2.n":
        return build_chebyshev_cover(n)
    raise ValueError(f"unknown dihedral class spec {class_spec!r}")


def build_chebyshev_cover(
    d: int, labels: tuple[str, str, str] = ("z1", "z2", "infinity")
) -> Cover:
    """Branch cycles of the degree-d Chebyshev-class cover: the full
    cycle over the last label, reflections over the first two (the
    first label is dropped at d = 2 where its cycle is trivial)."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    r0, r1 = _reflection(d, 0), _reflection(d, 1)
    rot_inv = _rotation(d, 1).inverse()
    if r0.is_identity:  # d = 2
        return Cover(d, (labels[1], labels[2]), (r1, rot_inv))
    return Cover(d, labels, (r0, r1, rot_inv))


def build_cyclic_cover(
    d: int, labels: tuple[str, str] = ("z1", "infinity")
) -> Cover:
    """The degree-d cyclic cover: a full cycle over each of two points."""
    rot = _rotation(d, 1)
    return Cover(d, labels, (rot, rot.inverse()))


@lru_cache(maxsize=None)
def _d4_paired() -> PairedCover:
    """The order-8 dihedral group in its two degree-4 involution-coset
    representations, paired over four branch points (two from each
    involution class); its fiber product splits in two."""
    # Vertex action and edge action of the square's symmetry group.
    rot_v = parse_cycles("(1 2 3 4)", 4)
    r0_v = parse_cycles("(2 4)", 4)
    r1_v = parse_cycles("(1 2)(3 4)", 4)
    r0_e = parse_cycles("(1 4)(2 3)", 4)
    r1_e = parse_cycles("(2 4)", 4)
    sigma = (r0_v, r1_v, r1_v, r0_v)
    tau = (r0_e, r1_e, r1_e, r0_e)
    return PairedCover(("z1", "z2", "z3", "z4"), sigma, tau, 4, 4)


# -- symmetric-group standard / unordered-pairs series ------------------------


def _pair_letters(m: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]


def pairs_permutation(p: Permutation, m: int) -> Permutation:
    """The action induced on unordered pairs of distinct letters, with
    pairs ordered lexicographically."""
    letters = _pair_letters(m)
    position = {pair: k + 1 for k, pair in enumerate(letters)}
    images = []
    for i, j in letters:
        a, b = p.apply(i), p.apply(j)
        images.append(position[(min(a, b), max(a, b))])
    return Permutation(tuple(images))


def _sm_tuple(m: int) -> tuple[Permutation, Permutation, Permutation]:
    s1 = parse_cycles("(1 2)", m)
    s2 = parse_cycles("(" + " ".join(str(i) for i in [1] + list(range(3, m + 1))) + ")", m)
    s3 = parse_cycles("(" + " ".join(str(i) for i in range(1, m + 1)) + ")", m).inverse()
    return s1, s2, s3


def build_sm_pair(m: int) -> PairedCover:
    """The standard degree-m cover (transposition, (m-1)-cycle, m-cycle)
    paired with its induced action on unordered pairs."""
    if m < 4:
        raise ValueError("m must be at least 4")
    sigma = _sm_tuple(m)
    tau = tuple(pairs_permutation(p, m) for p in sigma)
    return PairedCover(
        _DEG7_LABELS, sigma, tau, m, m * (m - 1) // 2
    )


def build_hilbert_siegel_m5() -> PairedClassSpec:
    """The degree-5 class behind the quasi-integral reducibility
    examples: double transposition, two transpositions, and a 5-cycle,
    paired with the degree-10 unordered-pairs representation."""
    m = 5
    t1_gens = [parse_cycles("(1 2)", m), parse_cycles("(1 2 3 4 5)", m)]
    t2_gens = [pairs_permutation(p, m) for p in t1_gens]
    joint_gens = [direct_sum(a, b) for a, b in zip(t1_gens, t2_gens)]
    joint = GeneratedGroup(5 + 10, joint_gens)

    def joint_of(text: str) -> Permutation:
        p = parse_cycles(text, m)
        return direct_sum(p, pairs_permutation(p, m))

    reps = (
        joint_of("(1 2)(3 4)"),
        joint_of("(1 2)"),
        joint_of("(1 2)"),
        joint_of("(1 2 3 4 5)"),
    )
    spec = NielsenClassSpec(
        joint, reps, EquivalenceMode.INNER, include_reorderings=False
    )
    return PairedClassSpec(spec, 5, ("z1", "z2", "z3", "infinity"))


# -- second representations ---------------------------------------------------


def has_second_representation(c: Cover) -> bool:
    """Whether the catalog knows a second, inequivalent transitive
    representation of this cover's monodromy group at the same degree
    scale (used by the screening report's dec-var caveat)."""
    order = c.group().order()
    if (c.degree, order) == (7, 168):
        return True
    # Symmetric groups carry the standard and unordered-pairs actions.
    import math

    for m in range(4, 10):
        if order == math.factorial(m) and c.degree in (m, m * (m - 1) // 2):
            return True
    return False


# -- the key/value surface ----------------------------------------------------


def _deg7_cover(which: int) -> Cover:
    pair = _deg7_pair(which)
    return pair.sigma_cover()


def _coalesce_source_tuples() -> dict[str, tuple[Permutation, ...]]:
    """The four-branch-point source tuples whose coalescings produce the
    three-point degree-7 covers, with the 7-cycle in last position."""
    return {
        "tuple-1": (
            _p7("(1 3)(4 5)"),
            _p7("(1 6)(2 3)"),
            _p7("(6 4)(1 7)"),
            _SIGMA_INF,
        ),
        "tuple-2": (
            _p7("(1 3)(4 7)"),
            _p7("(2 3)(5 7)"),
            _p7("(1 4)(6 7)"),
            _SIGMA_INF,
        ),
    }


_ENTRIES: dict[str, tuple[str, object]] = {}


def _register(key: str, description: str, builder) -> None:
    _ENTRIES[key] = (description, builder)


_register(
    "deg7-cover-1",
    "degree-7 cover with classes (2, 4, 7): involution, 4-element, 7-cycle",
    lambda: _deg7_cover(1),
)
_register(
    "deg7-cover-2",
    "degree-7 cover with classes (3, 2, 7)",
    lambda: _deg7_cover(2),
)
_register(
    "deg7-pair-1",
    "degree-7 paired cover, classes (2, 4, 7); reducible fiber product",
    lambda: _deg7_pair(1),
)
_register(
    "deg7-pair-2",
    "degree-7 paired cover, classes (3, 2, 7); reducible fiber product",
    lambda: _deg7_pair(2),
)
_register(
    "deg7-pair-2^3.7",
    "degree-7 paired cover with three involutions and a 7-cycle",
    _deg7_pair_r4,
)
_register(
    "deg7-pair-2^6",
    "degree-7 paired cover with six involution branch points",
    _deg7_pair_r6,
)
_register(
    "deg7-class-2.4.7",
    "Nielsen class spec (2, 4, 7) on the degree-7 point representation",
    lambda: _deg7_class_spec((2, 4, 7), EquivalenceMode.ABSOLUTE),
)
_register(
    "deg7-class-3.2.7",
    "Nielsen class spec (3, 2, 7) on the degree-7 point representation",
    lambda: _deg7_class_spec((3, 2, 7), EquivalenceMode.ABSOLUTE),
)
_register(
    "deg7-class-2^3.7",
    "Nielsen class spec (2, 2, 2, 7) on the degree-7 point representation, "
    "7-cycle fixed in the last slot",
    lambda: _deg7_class_spec(
        (2, 2, 2, 7), EquivalenceMode.ABSOLUTE, include_reorderings=False
    ),
)
_register(
    "deg7-coalesce-tuples",
    "four-branch-point tuples whose coalescings give the degree-7 covers",
    _coalesce_source_tuples,
)
_register(
    "dihedral-2^4-odd",
    "odd dihedral cover with four involution branch points (degree 7)",
    lambda: build_dihedral(7, "2^4"),
)
_register(
    "chebyshev-7",
    "degree-7 Chebyshev-class cover (classes 2, 2, 7)",
    lambda: build_chebyshev_cover(7),
)
_register(
    "d4-paired",
    "order-8 dihedral pair over four branch points; two-component fiber product",
    _d4_paired,
)
_register(
    "sm-pair-5",
    "standard/unordered-pairs paired cover for the symmetric group on 5 letters",
    lambda: build_sm_pair(5),
)
_register(
    "sm-pair-7",
    "standard/unordered-pairs paired cover for the symmetric group on 7 letters",
    lambda: build_sm_pair(7),
)
_register(
    "sm-pair-9",
    "standard/unordered-pairs paired cover for the symmetric group on 9 letters",
    lambda: build_sm_pair(9),
)
_register(
    "hilbert-siegel-m5",
    "degree-5 class with double transposition, two transpositions, 5-cycle, "
    "paired with the degree-10 pairs representation",
    build_hilbert_siegel_m5,
)
_register(
    "degrees-davenport",
    "degrees admitting Davenport pairs, with the degree-13 difference set",
    lambda: {
        "degrees": [7, 11, 13, 15, 21, 31],
        "difference_set_13": [1, 2, 4, 10],
    },
)


def list_keys() -> list[str]:
    return sorted(_ENTRIES)


def describe(key: str) -> str:
    if key not in _ENTRIES:
        raise KeyError(f"unknown catalog key {key!r}")
    return _ENTRIES[key][0]


def get(key: str):
    if key not in _ENTRIES:
        raise KeyError(f"unknown catalog key {key!r}")
    return _ENTRIES[key][1]()

"""Fiber products of two covers of the line.

The curve {f(x) = g(y)} is handled entirely combinatorially: its
components are the orbits of the joint monodromy group on the m*n
tensor letters, and each component's genus is computed by two
independent routes that must agree —

* method 1 counts the joint branch cycles' disjoint cycles on the
  orbit and applies Riemann–Hurwitz at degree |orbit|;
* method 2 derives branch cycles for the component's projection to the
  y-line (a cover of degree |orbit|/n) and applies Riemann–Hurwitz there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .permcore import (
    Permutation,
    _from_images,
    _realizations,
    direct_sum,
    dominates,
    identity,
    parse_cycles,
    product,
    split,
)
from .permgroup import CapExceededError, GeneratedGroup, orbits
from .permgroup import _generates, _letter_image, _orbit_stabilizer
from .cover import Cover, InvalidCoverError, equivalent_tuples, genus_from_tuple

__all__ = [
    "CoverPair",
    "PairedCover",
    "Component",
    "RamPoint",
    "ScreenReport",
    "pair_covers_over_common_points",
    "double_transitive_complement",
    "detect_clc",
    "screen_g1",
]


def _tensor_letter(x: int, y: int, n: int) -> int:
    """x-major encoding of the tensor letter (x, y) into 1..m*n."""
    return (x - 1) * n + y


def _tensor_pair(letter: int, n: int) -> tuple[int, int]:
    x, y = divmod(letter - 1, n)
    return x + 1, y + 1


def _restrict(perm: Permutation, letters: tuple[int, ...]) -> Permutation:
    """``perm`` on the letters it preserves, relabeled 1..len(letters)
    in the order given."""
    position = {x: i for i, x in enumerate(letters, start=1)}
    try:
        images = perm.images
        return _from_images(tuple([position[images[x - 1]] for x in letters]))
    except KeyError:
        raise RuntimeError(f"{perm} does not preserve {letters}") from None


@dataclass(frozen=True)
class RamPoint:
    """Points of the fiber product over one branch point, coming from a
    disjoint-cycle pair (x-cycle of length s, y-cycle of length t):
    gcd(s, t) points, each of index lcm(s, t)/t over y and lcm(s, t)/s
    over x."""

    branch_index: int
    x_cycle: tuple[int, ...]
    y_cycle: tuple[int, ...]

    @property
    def s(self) -> int:
        return len(self.x_cycle)

    @property
    def t(self) -> int:
        return len(self.y_cycle)

    @property
    def count(self) -> int:
        return gcd(self.s, self.t)

    @property
    def ram_index_over_y(self) -> int:
        return lcm(self.s, self.t) // self.t

    @property
    def ram_index_over_x(self) -> int:
        return lcm(self.s, self.t) // self.s


class CoverPair:
    """Two covers over a shared ordered branch-point list.

    This is the weak pairing: the two tuples are individually valid and
    are aligned point-by-point (identity entries allowed in the aligned
    tuples when one side is unbranched at a label).  The strong,
    common-monodromy pairing is :class:`PairedCover`.
    """

    def __init__(
        self,
        branch_points: tuple[str, ...],
        sigma: tuple[Permutation, ...],
        tau: tuple[Permutation, ...],
        degree_x: int,
        degree_y: int,
    ) -> None:
        if not (len(branch_points) == len(sigma) == len(tau)):
            raise ValueError("branch point / tuple length mismatch")
        if len(set(branch_points)) != len(branch_points):
            raise ValueError("branch point labels must be distinct")
        self.branch_points = branch_points
        self.sigma = sigma
        self.tau = tau
        self.degree_x = degree_x
        self.degree_y = degree_y
        for p in sigma:
            if p.degree != degree_x:
                raise ValueError("sigma degree mismatch")
        for p in tau:
            if p.degree != degree_y:
                raise ValueError("tau degree mismatch")
        self._validate_sides()

    def _validate_sides(self) -> None:
        """Check product-one and transitivity of each side."""
        for tup, deg, name in (
            (self.sigma, self.degree_x, "sigma"),
            (self.tau, self.degree_y, "tau"),
        ):
            if not product(tup, deg).is_identity:
                raise InvalidCoverError(f"{name} tuple fails product-one")
            if len(orbits(tup, deg)) != 1:
                raise InvalidCoverError(f"{name} tuple is not transitive")

    # -- covers and groups ------------------------------------------------

    def sigma_cover(self) -> Cover:
        return Cover.from_aligned(self.degree_x, self.branch_points, self.sigma)

    def tau_cover(self) -> Cover:
        return Cover.from_aligned(self.degree_y, self.branch_points, self.tau)

    @cached_property
    def y_genus(self) -> int:
        """The genus g_y of the y-cover (its tuple is validated at init)."""
        return genus_from_tuple(self.degree_y, sum(p.index() for p in self.tau))

    @cached_property
    def joint_group(self) -> GeneratedGroup:
        """The pair group acting on the disjoint union of the x-letters
        (1..m) and the y-letters (m+1..m+n)."""
        gens = [direct_sum(a, b) for a, b in zip(self.sigma, self.tau)]
        return GeneratedGroup(self.degree_x + self.degree_y, gens)

    @cached_property
    def x1_stabilizer(self) -> GeneratedGroup:
        """Stab(1) in the joint group, the tail of the joint chain, which
        builds no chain of its own.  Tensor letters are x-major and the
        x-side is transitive, so the least letter of every component is
        (1, y) and every subgroup witness lies in this group."""
        return self.joint_group.point_stabilizer(1)

    @cached_property
    def y1_orbit_stabilizer(self) -> tuple[dict[int, Permutation], GeneratedGroup]:
        """One walk of the orbit of the y-letter 1 (letter m+1) in the
        joint group, shared by every component's projection to the
        y-line: the carrier, whose entry for y carries m+1 to y, and
        Stab(m+1).  The joint group preserves the x/y split, so the orbit
        is all y-letters."""
        return _orbit_stabilizer(
            self.joint_group, self.degree_x + 1, _letter_image, "letters"
        )

    @cached_property
    def _y1_local_cycles(self) -> tuple[tuple[str, Permutation], ...]:
        """The local branch cycles at the y-points on the m + n letters,
        shared by every component's projection to the y-line: one per
        (branch point, disjoint y-cycle), labelled by the y-point.

        For the y-cycle c of the joint cycle gamma = (sigma_i, tau_i),
        with t = len(c) and base point y_b = min(c), this is
        u * gamma^t * u^-1 for the carrier entry u of y_b; gamma^t is
        computed once per cycle length.  Its tau-part fixes the y-letter
        1, so its sigma-part preserves each component's J."""
        m = self.degree_x
        carrier, _ = self.y1_orbit_stabilizer
        out: list[tuple[str, Permutation]] = []
        for label, a, b in zip(self.branch_points, self.sigma, self.tau):
            gamma = direct_sum(a, b)
            powers: dict[int, Permutation] = {}
            for cyc in b.cycles(include_fixed=True):
                t = len(cyc)
                power = powers.get(t)
                if power is None:
                    power = powers[t] = gamma**t
                # conjugate(h) is h^-1 * power * h; here h = u^-1.
                delta = power.conjugate(carrier[m + cyc[0]].inverse())
                if delta.apply(m + 1) != m + 1:
                    raise RuntimeError("conjugated cycle fails to fix y-letter 1")
                out.append((f"{label}/y{cyc[0]}", delta))
        return tuple(out)

    @cached_property
    def tensor_cycles(self) -> tuple[Permutation, ...]:
        """The branch cycles acting on the m*n tensor letters: (x, y)
        goes to (a(x), b(y)), both encoded x-major."""
        n = self.degree_y
        return tuple(
            _from_images(
                tuple([(ax - 1) * n + by for ax in a.images for by in b.images])
            )
            for a, b in zip(self.sigma, self.tau)
        )

    # -- components -------------------------------------------------------

    @cached_property
    def component_orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the joint group on tensor letters, by least letter,
        read off the tensor cycles without building their group."""
        found = orbits(self.tensor_cycles, self.degree_x * self.degree_y)
        return tuple(tuple(o) for o in found)

    @cached_property
    def _orbit_index_sums(self) -> dict[int, int]:
        """Least letter of each component orbit -> the sum over the tensor
        cycles of their indices on that orbit.  The index of a cycle on an
        orbit of size s is s minus its disjoint cycles there, so the sum is
        r·s (r tensor cycles) minus the cycles lying in the orbit, counted
        in one walk of each tensor cycle."""
        owner = [0] * (self.degree_x * self.degree_y)
        sums = {}
        for orbit in self.component_orbits:
            for letter in orbit:
                owner[letter - 1] = orbit[0]
            sums[orbit[0]] = len(self.tensor_cycles) * len(orbit)
        for p in self.tensor_cycles:
            for cyc in p.cycles(include_fixed=True):
                sums[owner[cyc[0] - 1]] -= 1
        return sums

    @property
    def components(self) -> list["Component"]:
        """A new ``Component`` per orbit.  Caching these would close a
        reference cycle with ``Component.pair``, which keeps the pair's
        groups alive until the cycle collector runs."""
        return [Component(self, o) for o in self.component_orbits]

    def component_containing(self, x: int, y: int) -> "Component":
        letter = _tensor_letter(x, y, self.degree_y)
        for orbit in self.component_orbits:
            if letter in orbit:
                return Component(self, orbit)
        raise RuntimeError("tensor letter not covered by any orbit")

    # -- ramification ------------------------------------------------------

    def ramification_profile(self) -> list[RamPoint]:
        out = []
        for i, (a, b) in enumerate(zip(self.sigma, self.tau)):
            for yc in b.cycles(include_fixed=True):
                for xc in a.cycles(include_fixed=True):
                    out.append(RamPoint(i, xc, yc))
        return out

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "branch_points": list(self.branch_points),
            "sigma": {
                "degree": self.degree_x,
                "cycles": [str(p) for p in self.sigma],
            },
            "tau": {
                "degree": self.degree_y,
                "cycles": [str(p) for p in self.tau],
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


class PairedCover(CoverPair):
    """A pair of covers carrying simultaneous branch cycles of a common
    abstract element at every branch point.

    On top of the weak pairing this checks: no identity entries,
    matching entry orders, and that the joint diagonal group projects
    isomorphically onto both factors (equal orders) — certifying that
    the two covers have equivalent Galois closures.  The x-side order is
    read off the joint chain, whose first m levels act on the x-letters;
    only the y-side builds a chain of its own.
    """

    def __init__(
        self,
        branch_points: tuple[str, ...],
        sigma: tuple[Permutation, ...],
        tau: tuple[Permutation, ...],
        degree_x: int,
        degree_y: int,
    ) -> None:
        super().__init__(branch_points, sigma, tau, degree_x, degree_y)
        for a, b in zip(sigma, tau):
            if a.is_identity or b.is_identity:
                raise InvalidCoverError("paired covers allow no identity entries")
            if a.order() != b.order():
                raise InvalidCoverError(
                    f"entry orders differ: {a.order()} vs {b.order()}"
                )
        # Each side is a quotient of the joint group.  The first m orbit
        # lengths of the joint chain multiply to |G| / |kernel on the
        # x-letters|, the order of the x-side.
        joint_order = self.joint_group.order()
        g1_order = self.joint_group._leading_order(degree_x)
        g2 = GeneratedGroup(degree_y, list(tau), _order_bound=joint_order)
        if not (joint_order == g1_order == g2.order()):
            raise InvalidCoverError(
                "joint group does not project isomorphically to both sides "
                f"(orders {g1_order}, {g2.order()}, "
                f"joint {joint_order})"
            )

    @staticmethod
    def from_joint_tuple(
        branch_points: tuple[str, ...],
        element: tuple[Permutation, ...],
        degree_x: int,
    ) -> "PairedCover":
        """The paired cover whose joint branch cycles (x-letters 1..m
        first, then the y-letters) are ``element``, with m = ``degree_x``."""
        sigma, tau = zip(*(split(p, degree_x) for p in element))
        return PairedCover(branch_points, sigma, tau, degree_x, tau[0].degree)

    @staticmethod
    def from_json_dict(data: dict) -> "PairedCover":
        labels = tuple(str(b) for b in data["branch_points"])
        m = int(data["sigma"]["degree"])
        n = int(data["tau"]["degree"])
        sigma = tuple(parse_cycles(s, m) for s in data["sigma"]["cycles"])
        tau = tuple(parse_cycles(s, n) for s in data["tau"]["cycles"])
        return PairedCover(labels, sigma, tau, m, n)

    @staticmethod
    def from_json(text: str) -> "PairedCover":
        return PairedCover.from_json_dict(json.loads(text))

    def swapped(self) -> "PairedCover":
        return PairedCover(
            self.branch_points,
            self.tau,
            self.sigma,
            self.degree_y,
            self.degree_x,
        )


class Component:
    """One component of the fiber product: an orbit on tensor letters."""

    def __init__(self, pair: CoverPair, orbit: tuple[int, ...]) -> None:
        self.pair = pair
        self.orbit = tuple(sorted(orbit))
        self.letter_set = frozenset(self.orbit)
        m, n = pair.degree_x, pair.degree_y
        size = len(self.orbit)
        if size % m != 0 or size % n != 0:
            raise RuntimeError(
                f"orbit size {size} not divisible by both degrees {m}, {n}"
            )
        self.deg_over_z = size
        self.deg_over_x = size // m  # k
        self.deg_over_y = size // n  # l

    # -- orbit correspondences ---------------------------------------------

    @cached_property
    def x_orbit_over_y1(self) -> tuple[int, ...]:
        """J: the x-letters x with (x, 1) in this orbit — an orbit of the
        stabilizer of y-letter 1 acting on x-letters; |J| = deg_over_y."""
        n = self.pair.degree_y
        out = tuple(
            x
            for x in range(1, self.pair.degree_x + 1)
            if _tensor_letter(x, 1, n) in self.letter_set
        )
        assert len(out) == self.deg_over_y
        return out

    @cached_property
    def y_orbit_over_x1(self) -> tuple[int, ...]:
        """I: the y-letters y with (1, y) in this orbit; |I| = deg_over_x."""
        n = self.pair.degree_y
        out = tuple(
            y
            for y in range(1, n + 1)
            if _tensor_letter(1, y, n) in self.letter_set
        )
        assert len(out) == self.deg_over_x
        return out

    @cached_property
    def subgroup_witness(self) -> tuple[GeneratedGroup, int]:
        """The stabilizer H of the least tensor letter (1, y) of the
        orbit, with its index; the index equals the component degree over
        z.  H is Stab(1) ∩ Stab(m + y) in the joint group on m + n
        letters, which acts faithfully on the tensor letters, so H has the
        order of the tensor letter's stabilizer."""
        pair = self.pair
        y = self.orbit[0]
        assert y <= pair.degree_y, "least tensor letter has x != 1"
        stab = pair.x1_stabilizer.point_stabilizer(pair.degree_x + y)
        index = pair.joint_group.order() // stab.order()
        if index != self.deg_over_z:
            raise RuntimeError("stabilizer index does not match orbit size")
        return stab, index

    # -- genus, method 1 ----------------------------------------------------

    @cached_property
    def restricted_cycles(self) -> tuple[Permutation, ...]:
        """The joint branch cycles restricted to the orbit, relabeled to
        1..|orbit| by sorted order."""
        return tuple(_restrict(p, self.orbit) for p in self.pair.tensor_cycles)

    @cached_property
    def genus_method1(self) -> int:
        """Riemann–Hurwitz at degree |orbit| on the joint cycles' indices
        on the orbit, counted once per pair for all its orbits."""
        index_sum = self.pair._orbit_index_sums[self.orbit[0]]
        return genus_from_tuple(self.deg_over_z, index_sum)

    # -- genus, method 2: branch cycles of the projection to the y-line ----

    @cached_property
    def _pry_entry_data(self) -> list[tuple[str, Permutation]]:
        """Raw branch-cycle representatives of the projection to the
        y-line, one per (branch point, disjoint y-cycle), before the
        product-one adjustment.  Labels identify the y-point.  Each is
        the pair's local cycle at that y-point (``_y1_local_cycles``),
        whose sigma-part preserves J, restricted to J."""
        J = self.x_orbit_over_y1
        local = self.pair._y1_local_cycles
        return [(label, _restrict(delta, J)) for label, delta in local]

    @cached_property
    def _pry_image_group(self) -> GeneratedGroup:
        """The stabilizer of the y-letter 1 in the joint group, restricted
        to J — the monodromy group of the projection to the y-line."""
        J = self.x_orbit_over_y1
        _, stabilizer = self.pair.y1_orbit_stabilizer
        return GeneratedGroup(len(J), [_restrict(g, J) for g in stabilizer.generators])

    @cached_property
    def genus_method2(self) -> int:
        """Riemann–Hurwitz on the projection-to-y branch data: the
        component covers the y-curve with degree ``deg_over_y``, so
        2g - 2 = deg_over_y * (2g_y - 2) + sum of local indices, where
        g_y is the y-cover's genus.  The indices are conjugation
        invariants, so no product-one adjustment is needed."""
        index_sum = sum(p.index() for _, p in self._pry_entry_data)
        g_y = self.pair.y_genus
        doubled = self.deg_over_y * (2 * g_y - 2) + index_sum + 2
        if doubled % 2 != 0 or doubled < 0:
            raise InvalidCoverError(
                f"inconsistent projection data: index sum {index_sum}, "
                f"base genus {g_y}"
            )
        return doubled // 2

    def pry_branch_cycles(self, search_cap: int = 10**6) -> Cover:
        """A validated branch-cycle description of the projection of this
        component to the y-line: degree deg_over_y, entries in the
        conjugacy classes produced by the local data, product one, and
        generating the projection's monodromy group.

        Identity entries are dropped, and each remaining local
        representative is conjugated within the monodromy group by
        ``_product_one_adjust``: a lazy depth-first search over one
        conjugate per entry that returns the first product-one choice, in
        a fixed order, that generates the group.  The search is refused
        with ``CapExceededError`` when the group order times the number of
        entries exceeds ``search_cap``.

        Raises ``InvalidCoverError`` before any search when the y-cover
        has genus g_y > 0: the local cycles then satisfy
        prod [a_i, b_i] * prod g_j = 1, and no product-one choice of them
        need exist.
        """
        if self.pair.y_genus > 0:
            raise InvalidCoverError(
                "projection branch cycles need a genus-0 y-cover; "
                f"this y-cover has genus g_y = {self.pair.y_genus}"
            )
        ell = self.deg_over_y
        entries = [(lab, p) for lab, p in self._pry_entry_data if not p.is_identity]
        image_group = self._pry_image_group
        if ell == 1 or not entries:
            return Cover(ell, (), ())
        labels = [lab for lab, _ in entries]
        perms = [p for _, p in entries]
        adjusted = _product_one_adjust(perms, image_group, search_cap)
        cover = Cover(ell, tuple(labels), tuple(adjusted))
        report = cover.validate()
        if not (report.product_one and report.transitive):
            raise RuntimeError("projection branch cycles failed validation")
        return cover


def _product_one_adjust(
    perms: list[Permutation],
    image_group: GeneratedGroup,
    search_cap: int,
) -> list[Permutation]:
    """Conjugate each entry within its image-group class so that the
    ordered product is the identity and the entries generate the image
    group.

    ``_classes_by_least_conjugator`` orders each entry's class from the
    entry, walking each image-group class once, so the entry itself
    comes first.
    ``_realizations`` yields the product-one choices lazily in
    lexicographic order of those lists; the first one that generates the
    image group is returned.  The search visits at most |image group|
    partial products per position, so that product with the number of
    entries is checked against ``search_cap`` before any class is
    listed.  No group element is listed.
    """
    order = image_group.order()
    estimate = order * len(perms)
    if estimate > search_cap:
        raise CapExceededError(
            f"product-one adjustment search space {estimate} (image group "
            f"order {order} x {len(perms)} entries) exceeds cap {search_cap}; "
            "raise the search_cap parameter of Component.pry_branch_cycles"
        )
    classes = _classes_by_least_conjugator(image_group, perms)
    found = False
    for chosen in _realizations([classes[p] for p in perms], image_group.degree):
        found = True
        if _generates(image_group, chosen):
            return chosen
    if not found:
        raise RuntimeError("no product-one realization exists in these classes")
    raise RuntimeError(
        "no generating product-one realization found in these classes"
    )


def _classes_by_least_conjugator(
    group: GeneratedGroup, perms: list[Permutation]
) -> dict[Permutation, list[Permutation]]:
    """Each distinct entry p of ``perms`` -> its ``group``-class, each
    member c listed in order of the least h (images compared
    lexicographically) with p^h = c, so ``p`` comes first.

    Each class is walked once, from its first entry p0: the walk finds a
    conjugator t_c with p0^t_c = c for each member, and its stabilizer
    is the centralizer C(p0).  The h with p0^h = c form the right coset
    C(p0) * t_c, whose least element ``coset_minimum`` reads off the
    chain.  A later entry q of the class reuses the walk: C(q) is
    t_q^-1 * C(p0) * t_q, built from the conjugated generators and
    stopped at the proved order |C(p0)|, and the h with q^h = c form the
    coset C(q) * t_q^-1 * t_c."""
    walks: list[tuple[dict[Permutation, Permutation], GeneratedGroup]] = []
    ordered: dict[Permutation, list[Permutation]] = {}
    for p in perms:
        if p in ordered:
            continue
        for conjugators, centralizer in walks:
            if p in conjugators:
                break
        else:
            conjugators, centralizer = _orbit_stabilizer(
                group, p, Permutation.conjugate, "class members"
            )
            walks.append((conjugators, centralizer))
        t_p = conjugators[p]
        cosets = conjugators
        if not t_p.is_identity:  # p did not start the walk
            centralizer = GeneratedGroup(
                group.degree,
                [g.conjugate(t_p) for g in centralizer.generators],
                _order_bound=centralizer.order(),
            )
            back = t_p.inverse()
            cosets = {c: back * t for c, t in conjugators.items()}
        least = {c: centralizer.coset_minimum(t) for c, t in cosets.items()}
        ordered[p] = sorted(least, key=least.__getitem__)
    return ordered


# -- whole-pair operations ---------------------------------------------------


def pair_covers_over_common_points(
    cover_x: Cover, cover_y: Cover
) -> CoverPair:
    """Weakly pair two covers by aligning their branch-point labels over
    the union of the two label lists (identity entries fill the gaps).
    Shared labels must appear in compatible order."""
    labels: list[str] = []
    for b in cover_x.branch_points:
        labels.append(b)
    for b in cover_y.branch_points:
        if b not in labels:
            labels.append(b)
    sx = {b: p for b, p in zip(cover_x.branch_points, cover_x.cycles)}
    sy = {b: p for b, p in zip(cover_y.branch_points, cover_y.cycles)}
    sigma = tuple(sx.get(b, identity(cover_x.degree)) for b in labels)
    tau = tuple(sy.get(b, identity(cover_y.degree)) for b in labels)
    return CoverPair(tuple(labels), sigma, tau, cover_x.degree, cover_y.degree)


def double_transitive_complement(c: Cover) -> int:
    """Genus of the non-diagonal component of the self fiber product of a
    doubly transitive cover, computed from the cycle-pair ramification
    arithmetic; cross-checked against the orbit-restriction genus."""
    c.require_valid()
    if not c.is_doubly_transitive():
        raise ValueError("cover is not doubly transitive")
    m = c.degree
    if m == 2:
        return 0
    # Ramification route: the index of a branch cycle on the full tensor
    # square is the sum over ordered cycle pairs (s, t) of s*t - gcd(s, t);
    # subtracting the diagonal's contribution leaves the complement.
    index_sum = 0
    for p in c.cycles:
        lengths = p._cycle_lengths()
        tensor_index = 0
        for s in lengths:
            for t in lengths:
                tensor_index += s * t - gcd(s, t)
        index_sum += tensor_index - p.index()
    genus_ram = genus_from_tuple(m * (m - 1), index_sum)
    # Orbit route via the generic component machinery.
    pair = CoverPair(
        c.branch_points, c.cycles, c.cycles, c.degree, c.degree
    )
    complement = [
        comp for comp in pair.components if comp.deg_over_z == m * (m - 1)
    ]
    if len(complement) != 1:
        raise RuntimeError("expected exactly one non-diagonal component")
    genus_orbit = complement[0].genus_method1
    if genus_ram != genus_orbit:
        raise RuntimeError(
            f"complement genus mismatch: {genus_ram} vs {genus_orbit}"
        )
    return genus_ram


def _quotient_covers(c: Cover) -> list[tuple[str, Cover]]:
    """The cover itself plus its quotient through each nontrivial block
    system (degree = number of blocks), one per system: a system has more
    than one block, and the cover's group acts transitively on them, so
    some branch cycle moves a block."""
    out: list[tuple[str, Cover]] = [("identity-quotient", c)]
    for bs in c.group().block_systems():
        quotient = Cover.from_aligned(
            bs.num_blocks, c.branch_points, [bs.quotient(p) for p in c.cycles]
        )
        out.append((f"blocks-of-size-{bs.block_size}", quotient))
    return out


def detect_clc(f: Cover, g: Cover) -> dict | None:
    """Search for a common left composite: a shared quotient cover of
    degree at least 2 through which both covers factor.  Returns a
    witness description or None."""
    quotients_g = None  # listed on first need: f of degree 1 never needs them
    for name_f, qf in _quotient_covers(f):
        if qf.degree < 2:
            continue
        if quotients_g is None:
            quotients_g = _quotient_covers(g)
        for name_g, qg in quotients_g:
            if qg.degree != qf.degree:
                continue
            if qf.branch_points != qg.branch_points:
                continue
            conj = equivalent_tuples(qf.cycles, qg.cycles, qf.degree)
            if conj is not None:
                return {
                    "f_quotient": name_f,
                    "g_quotient": name_g,
                    "degree": qf.degree,
                    "conjugator": str(conj),
                }
    return None


def genus0_witness(pair: PairedCover, component: Component) -> dict:
    """For a genus-0 component, the two branch-cycle covers W -> x-line
    and W -> y-line whose degrees factor the component's degree over z."""
    if component.genus_method1 != 0:
        raise ValueError("component genus is not 0")
    cover_over_y = component.pry_branch_cycles()
    swapped = pair.swapped()
    n = pair.degree_y
    swapped_orbit = tuple(
        _tensor_letter(y, x, pair.degree_x)
        for letter in component.orbit
        for x, y in [_tensor_pair(letter, n)]
    )
    swapped_component = Component(swapped, swapped_orbit)
    cover_over_x = swapped_component.pry_branch_cycles()
    assert cover_over_y.degree * pair.degree_y == component.deg_over_z
    assert cover_over_x.degree * pair.degree_x == component.deg_over_z
    return {"cover_over_x": cover_over_x, "cover_over_y": cover_over_y}


@dataclass(frozen=True)
class ScreenReport:
    """Flags for the genus-growth screening of a component projection.

    Each fail2* flag marks a way the component can keep composing covers
    from growing in genus; ``dec_var_not_excluded`` marks that an
    alternative simultaneous decomposition has not been ruled out.
    """

    fail2a: bool
    ochar: Fraction
    galois_closure_genus: int
    fail2b_quotients: tuple[str, ...]
    fail2c: bool | None
    fail2c_notes: str
    fail2d: bool | None
    dec_var_not_excluded: bool
    notes: tuple[str, ...]

    @property
    def any_flag(self) -> bool:
        return (
            self.fail2a
            or bool(self.fail2b_quotients)
            or bool(self.fail2c)
            or bool(self.fail2d)
        )


def screen_g1(
    pr_w: Cover,
    g1: Cover,
    joint: CoverPair | None = None,
) -> ScreenReport:
    """Screen a component projection pr_w against a candidate composing
    cover g1 over the same target line."""
    pr_w.require_valid()
    g1.require_valid()
    notes: list[str] = []

    ochar = pr_w.orbifold_char()
    ghat = pr_w.galois_closure_genus()
    fail2a = ochar >= 0
    if fail2a:
        notes.append(
            f"galois closure of the projection has genus {ghat} (<= 1)"
        )

    # One quotient per nontrivial block system, after the cover itself.
    quotients = _quotient_covers(pr_w)[1:]
    fail2b = [f"{name}:degree-{q.degree}" for name, q in quotients if q.genus() == 0]

    fail2c: bool | None = None
    fail2c_notes = ""
    if pr_w.genus() == 1:
        pr_labels = set(pr_w.branch_points)
        contained = set(g1.branch_points) <= pr_labels
        dominated = False
        if contained:
            by_label = dict(zip(pr_w.branch_points, pr_w.cycles))
            dominated = all(
                dominates(by_label[label], cyc)
                for label, cyc in zip(g1.branch_points, g1.cycles)
            )
        s = len(g1.branch_points)
        orders = [c.order() for c in g1.cycles]
        order_bound_ok = s <= 3 or (s == 4 and all(o == 2 for o in orders))
        fail2c = contained and dominated and order_bound_ok
        fail2c_notes = (
            f"branch containment={contained}, domination={dominated}, "
            f"s={s}, orders={orders}, order-bound-ok={order_bound_ok}"
        )
    else:
        fail2c_notes = f"projection genus is {pr_w.genus()}, not 1"

    fail2d: bool | None = None
    if joint is not None:
        fail2d = len(joint.components) > 1
        if fail2d:
            notes.append(
                "the fiber product of the projection with g1 is reducible"
            )

    dec_var = bool(quotients)
    if dec_var:
        notes.append("dec-var not excluded")

    return ScreenReport(
        fail2a=fail2a,
        ochar=ochar,
        galois_closure_genus=ghat,
        fail2b_quotients=tuple(fail2b),
        fail2c=fail2c,
        fail2c_notes=fail2c_notes,
        fail2d=fail2d,
        dec_var_not_excluded=dec_var,
        notes=tuple(notes),
    )

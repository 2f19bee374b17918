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
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import gcd, lcm
from operator import itemgetter

from ._record import Record
from .permcore import (
    Permutation,
    _conjugation,
    _from_padded,
    _invert,
    _realizations,
    direct_sum,
    dominates,
    identity,
    parse_cycles,
    product,
    split,
)
from .permgroup import CapExceededError, GeneratedGroup, orbits
from .permgroup import _generates, _orbit, _stabilizer
from .cover import Cover, InvalidCoverError, genus_from_tuple

__all__ = [
    "CoverPair",
    "PairedCover",
    "Component",
    "RamPoint",
    "ScreenReport",
    "character_entanglement",
    "pair_covers_over_common_points",
    "screen_g1",
]


def _tensor_letter(x: int, y: int, n: int) -> int:
    """x-major encoding of the tensor letter (x, y) into 1..m*n."""
    return (x - 1) * n + y


def _joint(x_perms, y_perms) -> tuple[Permutation, ...]:
    """The direct sums of matching entries: the x-letters 1..m, then the
    y-letters m+1..m+n, the layout of every joint permutation."""
    return tuple(direct_sum(a, b) for a, b in zip(x_perms, y_perms))


def _require_common_group(
    joint: GeneratedGroup, m: int, y_gens, n: int
) -> None:
    """Check that ``joint``, the diagonal group on m x-letters followed by
    n y-letters, projects isomorphically onto both sides.  Each side is a
    quotient of it, so equal orders suffice.  The x-side order is the
    product of the joint chain's first m orbit lengths, |G| over the
    kernel on the x-letters; the y-side, generated by ``y_gens``, is
    built with the joint order as its bound."""
    joint_order = joint.order()
    x_order = joint._leading_order(m)
    y_order = GeneratedGroup._streamed(n, y_gens, joint_order).order()
    if not (joint_order == x_order == y_order):
        raise InvalidCoverError(
            "joint group does not project isomorphically to both sides "
            f"(orders {x_order}, {y_order}, joint {joint_order})"
        )


def _restrict(perm: Permutation, letters: tuple[int, ...]) -> Permutation:
    """``perm`` on the letters it preserves, relabeled 1..len(letters)
    in the order given."""
    position = {x: i for i, x in enumerate(letters, start=1)}
    try:
        padded = perm.padded
        return _from_padded((0, *[position[padded[x]] for x in letters]))
    except KeyError:
        raise RuntimeError(f"{perm} does not preserve {letters}") from None


class RamPoint(Record):
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


class CoverPair(Record):
    """Two covers over a shared ordered branch-point list, held as an
    immutable record compared by value.

    This is the weak pairing: the two tuples are individually valid and
    are aligned point-by-point (identity entries allowed in the aligned
    tuples when one side is unbranched at a label).  The strong,
    common-monodromy pairing is :class:`PairedCover`.
    """

    branch_points: tuple[str, ...]
    sigma: tuple[Permutation, ...]
    tau: tuple[Permutation, ...]
    degree_x: int
    degree_y: int

    def _check(self) -> None:
        if not (len(self.branch_points) == len(self.sigma) == len(self.tau)):
            raise ValueError("branch point / tuple length mismatch")
        if len(set(self.branch_points)) != len(self.branch_points):
            raise ValueError("branch point labels must be distinct")
        for p in self.sigma:
            if p.degree != self.degree_x:
                raise ValueError("sigma degree mismatch")
        for p in self.tau:
            if p.degree != self.degree_y:
                raise ValueError("tau degree mismatch")
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
    def joint_cycles(self) -> tuple[Permutation, ...]:
        """The joint branch cycles on the disjoint union of the x-letters
        (1..m) and the y-letters (m+1..m+n), one per branch point and
        aligned with ``branch_points``; an identity entry stays where
        both sides are unbranched."""
        return _joint(self.sigma, self.tau)

    @cached_property
    def joint_group(self) -> GeneratedGroup:
        """The pair group, generated by the joint branch cycles."""
        return GeneratedGroup(self.degree_x + self.degree_y, list(self.joint_cycles))

    @cached_property
    def x1_stabilizer(self) -> GeneratedGroup:
        """Stab(1) in the joint group, the tail of the joint chain, which
        builds no chain of its own.  Tensor letters are x-major and the
        x-side is transitive, so the least letter of every component is
        (1, y) and every subgroup witness lies in this group."""
        return self.joint_group.point_stabilizer(1)

    @cached_property
    def y1_orbit_stabilizer(self) -> tuple[dict[int, tuple[int, ...]], GeneratedGroup]:
        """One walk of the orbit of the y-letter 1 (letter m+1) in the
        joint group, shared by every component's projection to the
        y-line: the carrier, whose padded entry for y carries m+1 to y,
        and Stab(m+1).  The joint group preserves the x/y split, so the
        orbit is all y-letters."""
        group = self.joint_group
        actions = [g.padded.__getitem__ for g in group.generators]
        carrier = _orbit(group, self.degree_x + 1, actions, "letters")
        return carrier, _stabilizer(group, carrier, actions)

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
        for label, b, gamma in zip(self.branch_points, self.tau, self.joint_cycles):
            powers: dict[int, Permutation] = {}
            for cyc in b.cycles(include_fixed=True):
                t = len(cyc)
                power = powers.get(t)
                if power is None:
                    power = powers[t] = gamma**t
                # Conjugation by h = u^-1, whose inverse is u itself.
                u = carrier[m + cyc[0]]
                delta = _from_padded(_conjugation(_invert(u), u)(power.padded))
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
            _from_padded((0, *[(ax - 1) * n + by for ax in a.images for by in ys]))
            for a, ys in zip(self.sigma, (b.images for b in self.tau))
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

    @classmethod
    def from_json_dict(cls, data: dict) -> "CoverPair":
        labels = tuple(str(b) for b in data["branch_points"])
        m = int(data["sigma"]["degree"])
        n = int(data["tau"]["degree"])
        sigma = tuple(parse_cycles(s, m) for s in data["sigma"]["cycles"])
        tau = tuple(parse_cycles(s, n) for s in data["tau"]["cycles"])
        return cls(labels, sigma, tau, m, n)

    @classmethod
    def from_json(cls, text: str) -> "CoverPair":
        return cls.from_json_dict(json.loads(text))


class PairedCover(CoverPair):
    """A pair of covers carrying simultaneous branch cycles of a common
    abstract element at every branch point: a record with the five
    fields of :class:`CoverPair`, compared by value like it.

    On top of the weak pairing this checks: no identity entries,
    matching entry orders, and that the joint diagonal group projects
    isomorphically onto both factors (equal orders) — certifying that
    the two covers have equivalent Galois closures.  The x-side order is
    read off the joint chain, whose first m levels act on the x-letters;
    only the y-side builds a chain of its own.
    """

    def _check(self) -> None:
        super()._check()
        for a, b in zip(self.sigma, self.tau):
            if a.is_identity or b.is_identity:
                raise InvalidCoverError("paired covers allow no identity entries")
            if a.order() != b.order():
                raise InvalidCoverError(
                    f"entry orders differ: {a.order()} vs {b.order()}"
                )
        _require_common_group(self.joint_group, self.degree_x, self.tau, self.degree_y)

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
        if len(out) != self.deg_over_y:
            raise RuntimeError("x-orbit over y-letter 1 has the wrong size")
        return out

    @cached_property
    def subgroup_index(self) -> int:
        """The index in the joint group of the stabilizer H of the least
        tensor letter (1, y) of the orbit, which equals the component
        degree over z.  H is Stab(1) ∩ Stab(m + y), so its index is m
        times the length of the orbit of m + y under Stab(1), read off
        the generators of the joint chain's tail; no chain is built."""
        pair = self.pair
        m, y = pair.degree_x, self.orbit[0]
        if y > pair.degree_y:
            raise RuntimeError("least tensor letter has x != 1")
        tail = pair.joint_group._tail_generators
        found = orbits(tail, m + pair.degree_y)
        index = m * len(next(o for o in found if m + y in o))
        if index != self.deg_over_z:
            raise RuntimeError("stabilizer index does not match orbit size")
        return index

    @cached_property
    def subgroup_witness(self) -> tuple[GeneratedGroup, int]:
        """H, built, with ``subgroup_index``.  The joint group acts
        faithfully on the tensor letters, so H has the order of the
        tensor letter's stabilizer."""
        pair = self.pair
        stab = pair.x1_stabilizer.point_stabilizer(pair.degree_x + self.orbit[0])
        if pair.joint_group.order() // stab.order() != self.subgroup_index:
            raise RuntimeError("stabilizer index does not match orbit size")
        return stab, self.subgroup_index

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
        component covers the y-curve with degree ell = ``deg_over_y``, so
        2g - 2 = ell * (2g_y - 2) + sum of local indices, where g_y is the
        y-cover's genus; that is ``genus_from_tuple`` at degree ell with
        index sum (sum + 2 * ell * g_y).  The indices are conjugation
        invariants, so no product-one adjustment is needed."""
        index_sum = sum(p.index() for _, p in self._pry_entry_data)
        ell = self.deg_over_y
        return genus_from_tuple(ell, index_sum + 2 * ell * self.pair.y_genus)

    def pry_branch_cycles(self, search_cap: int = 10**6) -> Cover:
        """A validated branch-cycle description of the projection of this
        component to the y-line: degree deg_over_y, entries in the
        conjugacy classes produced by the local data, product one, and
        generating the projection's monodromy group.

        A projection of degree 1 is the empty cover, returned before
        any group is built.  Otherwise identity entries are dropped, and
        each remaining local representative is conjugated within the
        monodromy group by ``_product_one_adjust``: a lazy depth-first
        search over one conjugate per entry that returns the first
        product-one choice, in a fixed order, that generates the group.
        An entry's class is ordered only when the search comes back to
        its position, and the last position reads only class membership.
        The search is refused with ``CapExceededError`` when the group
        order times the number of entries exceeds ``search_cap``.

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
        if ell == 1:
            return Cover(1, (), ())
        # Over a genus-0 line, an unbranched connected cover of degree
        # ell >= 2 would have genus 1 - ell < 0, so some entry is kept.
        entries = [(lab, p) for lab, p in self._pry_entry_data if not p.is_identity]
        labels = [lab for lab, _ in entries]
        perms = [p for _, p in entries]
        adjusted = _product_one_adjust(perms, self._pry_image_group, search_cap)
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

    Each position but the last offers its entry's class in order of
    least conjugator (``_ClassFromEntry``): the entry itself first, with
    no walk, since the identity is the least conjugator; the class is
    ordered only when the search comes back to the position for a second
    member, once per distinct entry.  The last position is forced, so it
    needs only class membership: the members of the image group's kept
    walk of its class, in no order.
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
    lazy = {p: _ClassFromEntry(image_group, p) for p in perms[:-1]}
    last = list(map(_from_padded, image_group._class_walk(perms[-1])))
    choices = [lazy[p] for p in perms[:-1]] + [last]
    found = False
    for chosen in _realizations(choices, image_group.degree):
        found = True
        if _generates(image_group, chosen):
            return chosen
    if not found:
        raise RuntimeError("no product-one realization exists in these classes")
    raise RuntimeError(
        "no generating product-one realization found in these classes"
    )


class _ClassFromEntry:
    """One position's list for ``_realizations``: the class of ``entry``
    in ``group`` by least conjugator, iterable any number of times.  The
    entry comes first without any work; the rest of the class is ordered
    by ``_class_by_least_conjugator`` on the first request for a
    second member, and kept for every later pass."""

    def __init__(self, group: GeneratedGroup, entry: Permutation) -> None:
        self.group = group
        self.entry = entry

    @cached_property
    def ordered(self) -> list[Permutation]:
        return _class_by_least_conjugator(self.group, self.entry)

    def __iter__(self):
        yield self.entry
        yield from islice(self.ordered, 1, None)


def _class_by_least_conjugator(
    group: GeneratedGroup, p: Permutation
) -> list[Permutation]:
    """The ``group``-class of p, each member c listed in order of the
    least h (images compared lexicographically) with p^h = c, so ``p``
    comes first.

    The class is read from the group's one walk of it, from its start
    p0: a conjugator t_c with p0^t_c = c for each member, and the
    centralizer C(p0).  The h with p0^h = c form the right coset
    C(p0) * t_c, whose least element ``coset_minimum`` reads off the
    chain.  A p that did not start the walk reuses it: C(p) is
    t_p^-1 * C(p0) * t_p, built from the conjugated generators and
    stopped at the proved order |C(p0)|, and the h with p^h = c form the
    coset C(p) * t_p^-1 * t_c.

    The product-one adjustment asks for one entry at a time, and only
    when its search comes back to that entry's position."""
    cosets = group._class_walk(p)
    centralizer = group._centralizer(cosets)
    t_p = cosets[p.padded]
    if p.padded != next(iter(cosets)):  # p did not start the walk
        back = _invert(t_p)
        onto = _conjugation(t_p, back)
        centralizer = GeneratedGroup._streamed(
            group.degree,
            [_from_padded(onto(g.padded)) for g in centralizer.generators],
            centralizer.order(),
        )
        # t_p^-1 * t, one composition per member.
        back_then = itemgetter(*back)
        cosets = {c: back_then(t) for c, t in cosets.items()}
    least = {c: centralizer.coset_minimum(_from_padded(t)) for c, t in cosets.items()}
    return list(map(_from_padded, sorted(least, key=least.__getitem__)))


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
    joint = GeneratedGroup(m + n, list(_joint(t1_gens, t2_gens)))
    _require_common_group(joint, m, t2_gens, n)
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


class ScreenReport(Record):
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
    cover g1 over the same target line.  ``joint``, the weak pair of
    pr_w (x-side) and g1 (y-side), decides fail2d; its sides, identity
    entries dropped, must be pr_w and g1 label by label, or
    ``InvalidCoverError`` is raised."""
    pr_w.require_valid()
    g1.require_valid()
    if joint is not None:
        for side, cover, which in (
            (joint.sigma_cover(), pr_w, "x-side is not pr_w"),
            (joint.tau_cover(), g1, "y-side is not g1"),
        ):
            if side.degree != cover.degree or dict(
                zip(side.branch_points, side.cycles)
            ) != dict(zip(cover.branch_points, cover.cycles)):
                raise InvalidCoverError(f"the joint pair's {which}, label by label")
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

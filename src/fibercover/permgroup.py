"""Groups generated by permutations.

A ``GeneratedGroup`` is its stabilizer chain with base (1, 2, 3, ...):
order, membership, element listing and coset minima read the chain's
levels.  A level holds padded image tuples (0, p(1), ..., p(n)), the
tuple a ``Permutation`` holds, so the chain reads and wraps permutations
with no conversion.  Levels go down to the last base point that a strong
generator moves, and past it a sift is one compare with the identity.
The chain is built at any group order by Schreier–Sims that repeats no
finished work: a strong generator s enters the levels once, with getters
for s and s^-1, and extends each level's orbit without changing an
existing entry; a new entry u*s gets its inverse s^-1*u^-1 composed in
one call.  The generators are sifted in first, and the Schreier
generators are checked from the deepest level up, resuming at the level
that received a residue and sifting each (letter, generator) pair once.
``_streamed`` is the one bounded build: it stops once the product of the
orbit lengths reaches an order bound the caller has proved (each orbit
of a partial chain lies in the true basic orbit, so the product is at
most the group order, with equality only for a complete chain); a full
build stops at n!.  A constructor sets the chain alone; the element
list, the class walks and their centralizers are cached on first use.

Stab(1) is the chain's own tail and builds nothing.  Outside the
chain, a walk and its stabilizer are two steps: ``_orbit`` is the one
walk from scratch, breadth-first under one action per generator, and
``_stabilizer`` streams a walk's Schreier generators into the
stabilizer's own build, bounded by |G| / |orbit|.  Point stabilizers
and class stabilizers (on a class multiset) take both steps.  Classes
and multisets are walked as padded tuples under
``permcore._conjugation``, so members hash and compare in C.  A group
keeps its class walks (``_class_walk``), so each class is walked once
for all its readers; most read only the members, so the centralizer of
a walk's start is built on its first read (``_centralizer``), from the
walk kept.
Block systems are joins of Atkinson's minimal systems, seeded from the
orbits of Stab(1), and build no group.

Caps sit at the work that grows with the group: ``LISTING_CAP`` bounds
every listing of group elements or class members, and the number of
candidates the normalizer search forms, counted before the first is
formed.  ``LISTING_CAP`` and ``CapExceededError`` live in
``permcore``, which refuses a degree above the cap, and are re-exported
here.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable
from functools import cached_property
from math import factorial, prod
from operator import itemgetter

from ._record import Record
from .permcore import LISTING_CAP, CapExceededError  # re-exported
from .permcore import _IDENTITY, Permutation, _from_padded, _invert
from .permcore import _conjugation

__all__ = [
    "GeneratedGroup",
    "BlockSystem",
    "CapExceededError",
    "orbits",
    "LISTING_CAP",
]


def _check_listing(count: int, what: str) -> None:
    """Refuse a listing once it holds more than ``LISTING_CAP`` items."""
    if count > LISTING_CAP:
        raise CapExceededError(
            f"listing {count} {what} exceeds the listing cap {LISTING_CAP}"
        )


def orbits(generators, degree: int) -> list[list[int]]:
    """The orbits of the group generated by ``generators`` on 1..degree,
    each sorted, in order of least letter.  A breadth-first walk over the
    generators' image tuples; no stabilizer chain is built."""
    padded = [g.padded for g in generators]
    seen = [False] * (degree + 1)
    out: list[list[int]] = []
    for start in range(1, degree + 1):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        # ``orbit`` doubles as the FIFO queue: the loop reaches letters
        # appended while it runs.
        for p in orbit:
            for g in padded:
                q = g[p]
                if not seen[q]:
                    seen[q] = True
                    orbit.append(q)
        orbit.sort()
        out.append(orbit)
    return out


class _Level:
    """One level of the stabilizer chain, for a base point: the strong
    generators fixing every earlier base point, each as (s, the getter
    of s, the getter of s^-1), so ``s_then(x)`` is s * x, and a
    breadth-first transversal of the base point's orbit under them, with
    each entry's inverse, all padded tuples.  Entries are only ever
    added.  The generators and the transversal are build state, dropped
    once the chain is complete; the inverses stay.  A fresh level given
    all generators at once holds the breadth-first transversal of its
    point, as ``_orbit`` walks it."""

    __slots__ = ("gens", "transversal", "inverses")

    def __init__(self, point: int, one: tuple[int, ...]) -> None:
        self.gens: list[tuple] = []
        self.transversal: dict[int, tuple[int, ...]] = {point: one}
        self.inverses: dict[int, tuple[int, ...]] = {point: one}

    def add_generators(self, added: list[tuple]) -> None:
        """Append the strong generators ``added`` and extend the orbit:
        the known letters were closed under the old generators, so they
        need only the added ones; each new letter needs every generator.
        A new entry u_p * s has the inverse s^-1 * u_p^-1, one call."""
        self.gens.extend(added)
        transversal, inverses = self.transversal, self.inverses
        # The FIFO queue of letters to act on, each with its generators.
        queue = [(p, added) for p in transversal]
        for p, acting in queue:
            to_p = itemgetter(*transversal[p])
            for s, _, s_inverse_then in acting:
                q = s[p]
                if q not in transversal:
                    transversal[q] = to_p(s)
                    inverses[q] = s_inverse_then(inverses[p])
                    queue.append((q, self.gens))


def _orbit(group: "GeneratedGroup", start, actions: list, what: str) -> dict:
    """The orbit of ``start`` under ``group``, ``actions[i](x)`` being the
    image of the member ``x`` under the generator ``group.generators[i]``:
    ``g.padded.__getitem__`` on letters, ``_conjugation(g.padded)`` on
    padded classes.  A breadth-first transversal mapping each member y,
    in discovery order, to the padded t with ``start^t == y``; ``what``
    names the members in the ``LISTING_CAP`` refusal.  Members are hashed
    and compared as the actions return them, so padded members cost no
    Python-level hash."""
    steps = list(zip([g.padded for g in group.generators], actions))
    transversal = {start: _IDENTITY[group.degree]}  # y -> t_y, a padded tuple
    # ``members`` doubles as the FIFO queue of members to act on.
    members = [start]
    for x in members:
        t_then = itemgetter(*transversal[x])
        for g, act in steps:
            y = act(x)
            if y not in transversal:
                transversal[y] = t_then(g)
                members.append(y)
                _check_listing(len(members), what)
    return transversal


def _stabilizer(group: "GeneratedGroup", transversal: dict, actions: list):
    """The stabilizer of the start of ``transversal``, an ``_orbit`` walk
    under ``actions``: the Schreier generators t_x * g * t_y^-1, y = x^g,
    formed only as its chain reads them, which stops at |G| / |orbit|;
    its generators are those that extended its chain."""
    one = _IDENTITY[group.degree]
    steps = list(zip([g.padded for g in group.generators], actions))
    inverses: dict = {}  # y -> t_y^-1

    def schreier():
        for x, t in transversal.items():
            t_then = itemgetter(*t)
            for g, act in steps:
                y = act(x)
                if y not in inverses:
                    inverses[y] = _invert(transversal[y])
                # t * g * t_y^-1, as ``_verify`` forms it.
                padded = itemgetter(*t_then(g))(inverses[y])
                if padded != one:  # else the edge that found y
                    yield _from_padded(padded)

    bound = group.order() // len(transversal)
    return GeneratedGroup._streamed(group.degree, schreier(), bound)


def _generates(group: "GeneratedGroup", candidates: list[Permutation]) -> bool:
    """Whether ``candidates``, elements of ``group``, generate it.  Their
    orbits are compared with the group's first, so a chain, bounded by
    |G|, is built only for candidates with the group's orbits."""
    degree = group.degree
    if orbits(candidates, degree) != orbits(group.generators, degree):
        return False
    order = group.order()
    return GeneratedGroup._streamed(degree, candidates, order).order() == order


class BlockSystem(Record):
    """A group-invariant partition of {1..n} into blocks of equal size.

    Blocks are stored sorted internally and by least element, so equal
    systems compare equal.
    """

    blocks: tuple[tuple[int, ...], ...]

    @property
    def block_size(self) -> int:
        return len(self.blocks[0])

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def quotient(self, g: Permutation) -> Permutation:
        """The action of ``g`` on the blocks, labeled 1..num_blocks in
        stored order; ``g`` must preserve the system, which the validating
        constructor checks."""
        label = {p: idx for idx, blk in enumerate(self.blocks, start=1) for p in blk}
        return Permutation(tuple(label[g.apply(blk[0])] for blk in self.blocks))

    @staticmethod
    def from_partition(parts: list[list[int]]) -> "BlockSystem":
        blocks = tuple(sorted(tuple(sorted(p)) for p in parts))
        return BlockSystem(blocks)


class GeneratedGroup:
    """A permutation group given by generators, held as its stabilizer
    chain with base (1, 2, ..., n); immutable after build.  A caller in
    the package that has proved the group's order at most B builds with
    ``_streamed``, which stops once the chain's order reaches B."""

    def __init__(self, degree: int, generators: list[Permutation]) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        self.generators = [g for g in generators if not g.is_identity]
        self._build(degree, self.generators, None)

    @classmethod
    def _streamed(cls, degree: int, generators: Iterable, bound: int) -> GeneratedGroup:
        """The group of ``generators``, permutations of ``degree`` read no
        further than the proved order ``bound``; its generators are the
        ones passed in whose residue extended the chain (never an identity)."""
        group = cls.__new__(cls)
        group.generators = group._build(degree, generators, bound)
        return group

    def _build(self, degree: int, generators: Iterable, bound: int | None) -> list:
        """Sift the generators in, then close under Schreier generators.
        Stop once the product of the orbit lengths reaches ``bound``, a
        proved upper bound on |<generators>|: that product never exceeds
        the group order and equals it only for a complete chain.  A full
        build (``bound`` None) stops at n!, which bounds every subgroup of
        S_n, compared only once the chain has n - 1 levels.

        Returns the generators whose residue extended the chain.  They
        generate the whole group: every other one sifted to the identity
        through their residues, or was never read because the chain
        already had the bound's order."""
        self.degree = degree
        self._one = _IDENTITY[degree]
        self._levels: list[_Level] = []
        self._order = 1  # the product of the orbit lengths
        kept: list[Permutation] = []
        for g in generators:
            if self._reached(bound):
                break
            residue = self._sift(g.padded)
            if residue is not None:
                self._add_strong_generator(residue)
                kept.append(g)
        if not self._reached(bound):
            self._verify(bound)
        # The strong generators fixing 1 generate Stab(1), the chain's
        # tail; membership, listing and coset minima read only the inverses.
        tail = self._levels[1].gens if len(self._levels) > 1 else []
        self._tail_generators = [_from_padded(s) for s, _, _ in tail]
        for lvl in self._levels:
            del lvl.gens, lvl.transversal
        if bound is not None and self._order > bound:
            raise RuntimeError(f"group order {self._order} exceeds its bound {bound}")
        return kept

    def _reached(self, bound: int | None) -> bool:
        """Whether the chain's order has reached ``bound``, or n! for a
        full build (``bound`` None).  A chain of order n! has all n - 1
        levels, so no factorial is formed for a chain with fewer."""
        if bound is None:
            if len(self._levels) < self.degree - 1:
                return False
            bound = factorial(self.degree)
        return self._order == bound

    def _sift(self, g: tuple[int, ...], start: int = 0) -> tuple[int, ...] | None:
        """Reduce the padded tuple ``g``, fixing the base points before
        ``start``, through the chain: ``None`` if it sifts to the identity
        (membership), else the residue, which moves its level's base point
        outside that level's orbit, or a letter past the last level."""
        levels = self._levels
        for idx in range(start, len(levels)):
            p = g[idx + 1]
            if p != idx + 1:
                inverse = levels[idx].inverses.get(p)
                if inverse is None:
                    return g
                g = itemgetter(*g)(inverse)
        return None if g == self._one else g

    def _add_strong_generator(self, g: tuple[int, ...]) -> int:
        """Add ``g`` to every level from the top down to the first base
        point it moves, inclusive, making the levels down to it, and
        return that level.  Keeping the level sets nested is what makes
        the Schreier-generator check sufficient."""
        levels = self._levels
        last = next(i for i in range(1, self.degree + 1) if g[i] != i) - 1
        levels.extend(_Level(i, self._one) for i in range(len(levels) + 1, last + 2))
        strong = [(g, itemgetter(*g), itemgetter(*_invert(g)))]
        for lvl in levels[: last + 1]:
            before = len(lvl.transversal)
            lvl.add_generators(strong)
            self._order = self._order // before * len(lvl.transversal)
        return last

    def _verify(self, bound: int | None) -> None:
        """Close under Schreier generators, from the deepest level up.

        Leaving level i, every Schreier generator u*s*v^-1 of level i has
        sifted to the identity or to a residue that became a strong
        generator below i, so it lies in the group of the levels below,
        which are complete; by Schreier's lemma level i is then complete
        too.  A residue changes only the levels down to the one that
        received it, so the check resumes there.  Transversal entries
        never change and generators are only appended, so a level counts,
        per letter, the generators already sifted with it, and no
        (letter, generator) pair is sifted twice."""
        sifted: dict[int, dict[int, int]] = {}
        one = self._one
        idx = len(self._levels) - 1
        while idx >= 0:
            lvl = self._levels[idx]
            done = sifted.setdefault(idx, {})
            gens, inverses = lvl.gens, lvl.inverses
            residue = None
            for p, u in list(lvl.transversal.items()):
                start = done.get(p, 0)
                if start == len(gens):
                    continue
                u_then = itemgetter(*u)
                for s, s_then, _ in gens[start:]:
                    done[p] = start = start + 1
                    # u * s * v^-1, v the entry for p's image.
                    schreier = u_then(s_then(inverses[s[p]]))
                    if schreier == one:
                        continue  # the edge that found p's image: trivial
                    residue = self._sift(schreier, idx + 1)
                    if residue is not None:
                        break
                if residue is not None:
                    break
            if residue is None:
                idx -= 1
                continue
            idx = self._add_strong_generator(residue)
            if self._reached(bound):
                return

    # -- basic queries --------------------------------------------------

    def order(self) -> int:
        return self._order

    def _leading_order(self, k: int) -> int:
        """The product of the first ``k`` orbit lengths of the chain:
        |G| over the order of the pointwise stabilizer of 1..k, so the
        order of the action on 1..k when G preserves that set."""
        return prod(len(lvl.inverses) for lvl in self._levels[:k])

    def contains(self, g: Permutation) -> bool:
        return g.degree == self.degree and self._sift(g.padded) is None

    def coset_minimum(self, x: Permutation) -> Permutation:
        """The least element of the right coset H*x, H this group, by one
        greedy transversal choice per level: s*u*x, with u in the first
        level's transversal and s fixing the first base point, sends that
        point where x sends its image under u.  The base is 1, ..., n, so
        each level fixes the next image of the least element."""
        x = x.padded
        for lvl in self._levels:
            if len(lvl.inverses) > 1:
                q = min(lvl.inverses, key=x.__getitem__)
                # u * x in one pass over v = u^-1: letter v(j) goes to x(j).
                images = [0] * len(x)
                for vj, xj in zip(lvl.inverses[q], x):
                    images[vj] = xj
                x = tuple(images)
        return _from_padded(x)

    def elements(self) -> list[Permutation]:
        """Every element, sorted; the list is built once per group."""
        return self._elements

    @cached_property
    def _elements(self) -> list[Permutation]:
        return [_from_padded(x) for x in sorted(self._padded_elements())]

    def _padded_elements(self) -> list[tuple[int, ...]]:
        """Every element as a padded tuple, unsorted and not kept, listed
        from the stabilizer chain: G is the disjoint union of the cosets
        t^-1 * G_1, t^-1 in the first level's inverse transversal, so
        each element is one product of inverse transversal elements, one
        per level from the top down.  The list costs about |G| products
        and needs no membership test."""
        _check_listing(self._order, "group elements")
        found = [self._one]
        for lvl in self._levels:
            if len(lvl.inverses) > 1:
                vs = list(lvl.inverses.values())
                found = [get(v) for get in [itemgetter(*x) for x in found] for v in vs]
        return found

    def is_subgroup(self, other: "GeneratedGroup") -> bool:
        """True iff ``self`` is contained in ``other``."""
        return all(other.contains(g) for g in self.generators)

    # -- orbits ---------------------------------------------------------

    def orbit(self, letter: int) -> list[int]:
        if not 1 <= letter <= self.degree:
            raise ValueError(f"letter {letter} out of range")
        return next(orb for orb in self.orbits() if letter in orb)

    def orbits(self) -> list[list[int]]:
        """Orbits on all letters, sorted by least element."""
        return orbits(self.generators, self.degree)

    def is_transitive(self) -> bool:
        return len(orbits(self.generators, self.degree)) == 1

    # -- stabilizers ----------------------------------------------------

    def point_stabilizer(self, letter: int) -> "GeneratedGroup":
        """Stabilizer of one letter.  Stab(1) is the chain's own tail and
        builds nothing: a trivial first level over the later levels, of
        order |G| / |1^G|, generated by the strong generators fixing 1.
        Any other letter's stabilizer is built once: its Schreier
        generators are streamed into its chain, which stops at
        |G| / |orbit|, the stabilizer's order; its generators are those
        whose residue extended that chain, in the order of the
        breadth-first orbit walk."""
        if not 1 <= letter <= self.degree:
            raise ValueError(f"letter {letter} out of range")
        if letter > 1:
            actions = [g.padded.__getitem__ for g in self.generators]
            return _stabilizer(self, _orbit(self, letter, actions, "letters"), actions)
        first = _Level(1, self._one)
        del first.gens, first.transversal
        tail = GeneratedGroup.__new__(GeneratedGroup)
        tail.degree, tail._one = self.degree, self._one
        tail.generators = tail._tail_generators = self._tail_generators
        tail._levels = [first, *self._levels[1:]] if tail.generators else []
        tail._order = self._order // self._leading_order(1)
        return tail

    # -- block systems --------------------------------------------------

    def _minimal_block(self, seeds: Iterable[int]) -> BlockSystem | None:
        """Atkinson's algorithm: the finest block system whose block
        through 1 holds every letter of ``seeds``.  Returns None for the
        trivial one-block system."""
        parent = list(range(self.degree + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        # ``pairs`` doubles as the FIFO queue: merging a pair queues its
        # images, and each class stays rooted at its least letter.
        pairs = [(1, s) for s in seeds]
        for a, b in pairs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
                pairs.extend((g.apply(a), g.apply(b)) for g in self.generators)
        classes: dict[int, list[int]] = {}
        for i in range(1, self.degree + 1):
            classes.setdefault(find(i), []).append(i)
        if len(classes) == 1:
            return None
        return BlockSystem.from_partition(list(classes.values()))

    def _minimal_systems(self) -> Iterable[BlockSystem | None]:
        """Lazily, the minimal system seeded with one letter of each orbit
        of Stab(1), the chain's tail (the orbit's letters share it), or
        None where it is trivial.  Requires transitivity."""
        if not self.is_transitive():
            raise ValueError("block systems require a transitive group")
        for orbit in self.point_stabilizer(1).orbits()[1:]:
            yield self._minimal_block(orbit[:1])

    def block_systems(self) -> list[BlockSystem]:
        """All nontrivial block systems (block size > 1, more than one
        block).  Requires transitivity.

        A system is fixed by its block through 1, the finest one holding
        that block's letters, so every system is a join of minimal ones:
        each system found, from ``_minimal_systems`` on, is joined with one
        letter of each of its other blocks until no new system appears."""
        found = dict.fromkeys(bs for bs in self._minimal_systems() if bs is not None)
        # ``systems`` doubles as the FIFO queue of systems to join.
        systems = list(found)
        for bs in systems:
            first = bs.blocks[0]
            for blk in bs.blocks[1:]:
                joined = self._minimal_block(first + blk[:1])
                if joined is not None and joined not in found:
                    found[joined] = None
                    systems.append(joined)
        return sorted(found, key=lambda b: (b.block_size, b.blocks))

    # -- conjugacy ------------------------------------------------------

    @cached_property
    def _class_walks(self) -> dict[tuple[int, ...], dict]:
        return {}  # each member of a walked class, padded -> the class's walk

    @cached_property
    def _centralizers(self) -> dict[tuple[int, ...], GeneratedGroup]:
        return {}  # the start of a kept walk -> its centralizer

    def _class_walk(self, x: Permutation) -> dict[tuple[int, ...], tuple[int, ...]]:
        """The conjugation orbit of ``x`` over the generators, an ``_orbit``
        walk on padded tuples, walked once per class and kept under every
        member: each member c -> the t with start^t = c, the start being
        the member the walk began at, its first key.  Refused past
        ``LISTING_CAP`` members."""
        walk = self._class_walks.get(x.padded)
        if walk is None:
            actions = [_conjugation(g.padded) for g in self.generators]
            walk = _orbit(self, x.padded, actions, "class members")
            self._class_walks.update(dict.fromkeys(walk, walk))
        return walk

    def _centralizer(self, walk: dict) -> GeneratedGroup:
        """C(start) of a kept class walk, built once, on the first read,
        by streaming the walk's Schreier generators."""
        start = next(iter(walk))
        found = self._centralizers.get(start)
        if found is None:
            actions = [_conjugation(g.padded) for g in self.generators]
            found = self._centralizers[start] = _stabilizer(self, walk, actions)
        return found

    def conjugacy_class(self, x: Permutation) -> list[Permutation]:
        """The G-class of ``x``, sorted, from its kept walk."""
        if not self.contains(x):
            raise ValueError("element not in group")
        return list(map(_from_padded, sorted(self._class_walk(x))))

    # -- normalizer in the symmetric group -------------------------------

    def normalizer_in_symmetric(self) -> "GeneratedGroup":
        """N_{S_n}(G).  The trivial group and a subgroup of index at most
        2 are normal in S_n at any degree.  Otherwise N is grown from G by
        the permutations that carry one generator g1 onto an element of G
        of its cycle type: one target per G-class suffices because G lies
        in N, and g1 is the generator with the smallest centralizer in
        S_n, which keeps the candidates fewest.  Each target has
        |C_{S_n}(g1)| candidates, and their number is checked against
        ``LISTING_CAP`` before the first is formed, at any degree.  N
        carries g1 into ``covered``, the elements of G of its cycle type,
        so |N| <= B = |covered| * |C_{S_n}(g1)|; the search stops at B."""
        n = self.degree
        if not self.generators or 2 * self._order >= factorial(n):
            return GeneratedGroup(n, _symmetric_generators(n))
        g1 = min(self.generators, key=_centralizer_order)
        shape = g1.cycle_type()
        targets: list[Permutation] = []
        covered: set[tuple[int, ...]] = set()
        for t in self.elements():
            if t.padded not in covered and t.cycle_type() == shape:
                targets.append(t)
                covered.update(self._class_walk(t))
        _check_listing(len(targets) * _centralizer_order(g1), "normalizer candidates")
        bound = len(covered) * _centralizer_order(g1)
        # A candidate is added only when the group so far lacks it, so the
        # chain is rebuilt at most log2 of the index times; membership, one
        # sift, is tested before the normalizing check.
        group = self
        for t in targets:
            for h in _conjugators_onto(g1, t):
                if group.order() == bound:
                    return group
                if not group.contains(h) and self._normalized_by(h):
                    group = GeneratedGroup._streamed(n, group.generators + [h], bound)
        return group

    def _normalized_by(self, h: Permutation) -> bool:
        """Whether h^-1 g h lies in the group for every generator g."""
        return all(self.contains(g.conjugate(h)) for g in self.generators)

    def class_stabilizer(
        self,
        classes: list[list[Permutation]],
        ambient: "GeneratedGroup | None" = None,
    ) -> "GeneratedGroup":
        """Subgroup of ``ambient`` (default: N_{S_n}(G)) whose conjugation
        preserves the given conjugacy-class multiset: the stabilizer of
        that multiset, the sorted tuple of the sorted classes, under
        conjugation, by one orbit walk whose Schreier generators stop at
        |ambient| / |orbit|.  G fixes each of its own classes, so it is
        the answer when it is the ambient group."""
        if ambient is None:
            ambient = self.normalizer_in_symmetric()
        if ambient.order() == self._order and self.is_subgroup(ambient):
            return self

        def on_multisets(h: Permutation):
            conjugate = _conjugation(h.padded)
            return lambda multiset: tuple(
                sorted(tuple(sorted(map(conjugate, cls))) for cls in multiset)
            )

        key = tuple(sorted(tuple(sorted(x.padded for x in cls)) for cls in classes))
        actions = [on_multisets(h) for h in ambient.generators]
        walk = _orbit(ambient, key, actions, "class multisets")
        return _stabilizer(ambient, walk, actions)


def _symmetric_generators(n: int) -> list[Permutation]:
    """A transposition and an n-cycle; none for n = 1."""
    if n == 1:
        return []
    one = _IDENTITY[n]
    cycle = _from_padded(one[:1] + one[2:] + (1,))
    swap = _from_padded((0, 2, 1) + one[3:])
    return [swap, cycle]


def _centralizer_order(p: Permutation) -> int:
    """|C_{S_n}(p)|: the product of k**m * m! over cycle lengths k that
    occur m times, fixed points included."""
    result = 1
    for k, m in Counter(p.cycle_type()).items():
        result *= k**m * factorial(m)
    return result


def _conjugators_onto(p: Permutation, t: Permutation):
    """Every h with ``p.conjugate(h) == t``, for ``t`` of the cycle type of
    ``p``: h carries each cycle (a1 a2 ...) of ``p`` onto a cycle
    (b1 b2 ...) of ``t`` of the same length, a_i to b_(i+s) for a
    rotation s.  Yields |C_{S_n}(p)| permutations."""
    by_length: dict[int, tuple[list, list]] = {}
    for c in p.cycles(include_fixed=True):
        by_length.setdefault(len(c), ([], []))[0].append(c)
    for c in t.cycles(include_fixed=True):
        by_length[len(c)][1].append(c)
    choices = []
    for k, (sources, dests) in by_length.items():
        choices.append(
            [
                (sources, matched, shifts)
                for matched in itertools.permutations(dests)
                for shifts in itertools.product(range(k), repeat=len(sources))
            ]
        )
    padded = [0] * (p.degree + 1)
    for choice in itertools.product(*choices):
        for sources, matched, shifts in choice:
            for a, b, s in zip(sources, matched, shifts):
                k = len(a)
                for i, letter in enumerate(a):
                    padded[letter] = b[(i + s) % k]
        yield _from_padded(tuple(padded))

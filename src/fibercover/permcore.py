"""Exact arithmetic on permutations of {1..n}.

Conventions used throughout the package:

* Letters are 1-based.
* Permutations act on the RIGHT of letters: ``(i)(p * q) = ((i)p)q``.
  This is fixed once here and relied on by product-one checks, braid
  moves and conjugation everywhere else.
* The identity prints as ``()``.  The canonical cycle print sorts cycles
  by least element and rotates each cycle to start at its least element.
* Input is checked once, where it enters: the ``Permutation``
  constructor and ``parse_cycles``.  Results of the operations below are
  bijections by construction, wrapped by ``_from_padded`` unchecked.  A
  permutation is one slot, its padded image tuple (0, p(1), ..., p(n)),
  which equality, hashing, ordering and ``permgroup``'s chain all read.
* Conjugation is one map on padded tuples, ``_conjugation(h)``, which
  ``Permutation.conjugate``, the class walks and the Nielsen orbit table
  all apply.
* A permutation lists its degree's images, so a degree above
  ``LISTING_CAP`` is refused with ``CapExceededError`` before anything
  of that size is made.
"""

from __future__ import annotations

import re
import sys
from functools import reduce, total_ordering
from math import lcm
from operator import itemgetter

__all__ = [
    "CapExceededError",
    "LISTING_CAP",
    "Permutation",
    "CycleType",
    "parse_cycles",
    "identity",
    "product",
    "direct_sum",
    "split",
    "dominates",
]

# A cycle type is the multiset of cycle lengths (fixed points included),
# stored as a tuple sorted in decreasing order; the lengths sum to n.
CycleType = tuple[int, ...]

LISTING_CAP = 2 * 10**6


class CapExceededError(RuntimeError):
    """A size cap was exceeded."""


@total_ordering
class Permutation:
    """An element of S_n given by its image sequence.

    ``padded`` is the tuple ``(0, p(1), ..., p(n))``, so ``padded[i]`` is
    the image of the letter ``i``; ``images`` is ``padded[1:]``.
    Instances are immutable and hashable; ordering compares the image
    tuples, the deterministic tie-break of canonical forms.
    """

    __slots__ = ("padded",)

    def __init__(self, images) -> None:
        images = tuple(images)
        n = len(images)
        if n < 1:
            raise ValueError("degree must be >= 1")
        if set(map(type, images)) != {int}:
            raise ValueError(f"images {images} are not all integers")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"images {images} are not a bijection of 1..{n}")
        _set(self, "padded", (0, *images))

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"Permutation.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Permutation, (self.images,)

    def __hash__(self) -> int:
        return hash(self.padded)

    def __eq__(self, other):
        if other.__class__ is Permutation:
            return self.padded == other.padded
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is Permutation:
            return self.padded < other.padded
        return NotImplemented

    # -- basic structure ------------------------------------------------

    @property
    def images(self) -> tuple[int, ...]:
        return self.padded[1:]

    @property
    def degree(self) -> int:
        return len(self.padded) - 1

    def apply(self, letter: int) -> int:
        """Image of ``letter`` under the right action."""
        if 0 < letter < len(self.padded):
            return self.padded[letter]
        raise ValueError(f"letter {letter} out of range for degree {self.degree}")

    @property
    def is_identity(self) -> bool:
        return self.padded == _IDENTITY[len(self.padded) - 1]

    # -- group arithmetic ----------------------------------------------

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Right-action composition: apply ``self`` first, then ``other``."""
        if len(self.padded) != len(other.padded):
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        return _from_padded(itemgetter(*self.padded)(other.padded))

    def inverse(self) -> "Permutation":
        return _from_padded(_invert(self.padded))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self, h: "Permutation") -> "Permutation":
        """``h^-1 * self * h`` — moves the support of ``self`` by ``h``:
        the image of ``(j)h`` is ``((j)self)h``."""
        if len(self.padded) != len(h.padded):
            raise ValueError(f"degree mismatch: {self.degree} vs {h.degree}")
        return _from_padded(_conjugation(h.padded)(self.padded))

    # -- cycle structure ------------------------------------------------

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, each rotated to start at its least element,
        sorted by least element.  Fixed points are omitted unless asked for.
        """
        padded = self.padded
        seen = [False] * len(padded)
        out: list[tuple[int, ...]] = []
        for start in range(1, len(padded)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = padded[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = padded[j]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def _cycle_lengths(self) -> list[int]:
        """The length of each disjoint cycle, fixed points included, in
        order of least element; one walk that builds no cycle."""
        padded = self.padded
        seen = [False] * len(padded)
        out: list[int] = []
        for start, j in enumerate(padded[1:], start=1):
            if seen[start]:
                continue
            length = 1
            while j != start:
                seen[j] = True
                length += 1
                j = padded[j]
            out.append(length)
        return out

    def cycle_type(self) -> CycleType:
        return tuple(sorted(self._cycle_lengths(), reverse=True))

    def order(self) -> int:
        return lcm(*self._cycle_lengths())

    def index(self) -> int:
        """n minus the number of disjoint cycles (fixed points counted)."""
        return self.degree - len(self._cycle_lengths())

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(i) for i in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation[{self.degree}] {self}"


_new = object.__new__
_set = object.__setattr__


class _Identity(dict):
    """degree -> the identity's padded tuple (0, 1, ..., n), made on first
    use.  Every degree-sized list starts here, so this is where a degree
    above ``LISTING_CAP`` is refused, once per degree."""

    def __missing__(self, degree: int) -> tuple[int, ...]:
        if degree > LISTING_CAP:
            raise CapExceededError(
                f"degree {degree} exceeds the listing cap {LISTING_CAP}"
            )
        padded = self[degree] = tuple(range(degree + 1))
        return padded


_IDENTITY = _Identity()


def _from_padded(padded: tuple[int, ...]) -> Permutation:
    """A ``Permutation`` wrapping a padded tuple already known to be a
    bijection of 0..n fixing 0, built without the constructor's check."""
    p = _new(Permutation)
    _set(p, "padded", padded)
    return p


def _invert(padded: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse of a padded tuple, by one scatter over its letters."""
    inverse = [0] * len(padded)
    for i, image in enumerate(padded):
        inverse[image] = i
    return tuple(inverse)


def _conjugation(h: tuple[int, ...], h_inverse: tuple[int, ...] | None = None):
    """The map x -> h^-1 * x * h on padded tuples of h's degree, the
    package's one conjugation: ``itemgetter(*x)(h)`` is x * h, and the
    getter of h^-1's images puts h^-1 before it, so letter i goes to
    h(x(h^-1(i))).  h is inverted once, here, unless its inverse is
    passed in."""
    after_inverse = itemgetter(*(_invert(h) if h_inverse is None else h_inverse))
    return lambda x: after_inverse(itemgetter(*x)(h))


def identity(degree: int) -> Permutation:
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return _from_padded(_IDENTITY[degree])


def product(perms, degree: int) -> Permutation:
    """The ordered product ``perms[0] * perms[1] * ...``; the identity
    of ``degree`` when ``perms`` is empty."""
    return reduce(Permutation.__mul__, perms, identity(degree))


def _realizations(choices: list[list[Permutation]], degree: int):
    """Every choice of one entry per position whose ordered product is
    the identity, in lexicographic order of the positions' lists.

    A lazy depth-first search on padded tuples: ``_completions`` is
    called once per (position, partial product) state it enters.  The
    last entry is forced: the inverse of the product before it, found by
    looking that product up among the inverses of the last list.  The
    choices hold the lists' own permutations.  A state whose call yields
    nothing is recorded as dead and is never entered again; a state that
    did complete may be entered again under another prefix, whose
    completions are new choices.  The recursion depth is the number of
    positions (56 for the projection of ``sm-pair-13``, 154 for
    ``build_sm_pair(20)``); more positions than half of
    ``sys.getrecursionlimit()`` are refused with ``CapExceededError``
    before the search starts, leaving the other half to the callers.
    The generators are module-level, not a recursive closure, which
    would be a reference cycle that keeps the search state alive.
    Nielsen enumeration and the projection's product-one adjustment both
    walk it."""
    depth_limit = sys.getrecursionlimit() // 2
    if len(choices) > depth_limit:
        raise CapExceededError(
            f"product-one search over {len(choices)} positions exceeds the "
            f"depth limit {depth_limit}, half of sys.getrecursionlimit()"
        )
    one = _IDENTITY[degree]
    closing_for = {_invert(c.padded): c for c in choices[-1]}
    if len(choices) == 1:
        if one in closing_for:
            yield [closing_for[one]]
        return
    dead: list[set[tuple[int, ...]]] = [set() for _ in choices]
    yield from _completions(choices, closing_for, dead, 0, one, [])


def _completions(choices, closing_for, dead, j, prefix, chosen):
    """The completions of ``chosen``, the entries at positions before
    ``j`` with padded product ``prefix``; returns whether there was one,
    and records the state in ``dead[j]`` when there was none."""
    found = False
    then = itemgetter(*prefix)  # then(q.padded) is prefix * q
    if j == len(choices) - 2:
        for q in choices[j]:
            closing = closing_for.get(then(q.padded))
            if closing is not None:
                found = True
                yield chosen + [q, closing]
    else:
        for q in choices[j]:
            nxt = then(q.padded)
            if nxt not in dead[j + 1]:
                found |= yield from _completions(
                    choices, closing_for, dead, j + 1, nxt, chosen + [q]
                )
    if not found:
        dead[j].add(prefix)
    return found


def direct_sum(a: Permutation, b: Permutation) -> Permutation:
    """``a`` on the letters 1..m and ``b`` shifted onto m+1..m+n, where
    m and n are the degrees of ``a`` and ``b``."""
    m = a.degree
    return _from_padded(a.padded + tuple([m + i for i in b.images]))


def split(p: Permutation, m: int) -> tuple[Permutation, Permutation]:
    """The two parts of a permutation that maps 1..m onto itself, as
    permutations of 1..m and of 1..(degree - m); inverse of
    ``direct_sum``."""
    if not 1 <= m < p.degree or max(p.padded[: m + 1]) > m:
        raise ValueError(f"{p!r} does not preserve the letters 1..{m}")
    return (
        _from_padded(p.padded[: m + 1]),
        _from_padded((0, *[i - m for i in p.padded[m + 1 :]])),
    )


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse whitespace-separated disjoint cycles like ``(1 3)(4 5)``.

    Unmentioned letters are fixed; the empty string and ``()`` are the
    identity (matching how the identity prints).
    """
    if not isinstance(text, str):
        raise TypeError(f"cycle notation must be a string, got {text!r}")
    stripped = text.strip()
    if stripped == "()":
        return identity(degree)
    remainder = _CYCLE_RE.sub("", stripped)
    if remainder.strip():
        raise ValueError(f"malformed cycle notation: {text!r}")
    padded = list(_IDENTITY[degree])
    seen: set[int] = set()
    for match in _CYCLE_RE.finditer(stripped):
        body = match.group(1).strip()
        if not body:
            raise ValueError(f"empty cycle in {text!r}")
        try:
            entries = [int(tok) for tok in body.split()]
        except ValueError as exc:
            raise ValueError(f"non-integer entry in {text!r}") from exc
        for e in entries:
            if not 1 <= e <= degree:
                raise ValueError(f"entry {e} out of range 1..{degree}")
            if e in seen:
                raise ValueError(f"repeated entry {e} in {text!r}")
            seen.add(e)
        for a, b in zip(entries, entries[1:] + entries[:1]):
            padded[a] = b
    return Permutation(padded[1:])


def dominates(s: Permutation, t: Permutation) -> bool:
    """True iff every cycle length of ``s`` (fixed points counted) is a
    multiple of the order of ``t``.  Degrees may differ.
    """
    ord_t = t.order()
    return all(length % ord_t == 0 for length in s._cycle_lengths())

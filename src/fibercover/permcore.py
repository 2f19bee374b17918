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
  bijections by construction and are built by ``_from_images`` without
  the check.
* A permutation lists its degree's images, so a degree above
  ``LISTING_CAP`` is refused with ``CapExceededError`` before anything
  of that size is made.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from math import lcm

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


@dataclass(frozen=True, order=True)
class Permutation:
    """An element of S_n given by its image sequence.

    ``images[i - 1]`` is the image of the letter ``i``.  Instances are
    immutable and hashable; ordering compares image sequences, which
    gives the deterministic tie-breaks used by canonical forms.
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n < 1:
            raise ValueError("degree must be >= 1")
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"images {self.images} are not a bijection of 1..{n}")

    # -- basic structure ------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, letter: int) -> int:
        """Image of ``letter`` under the right action."""
        return self.images[letter - 1]

    @property
    def is_identity(self) -> bool:
        return self.images == _IDENTITY_IMAGES[len(self.images)]

    # -- group arithmetic ----------------------------------------------

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Right-action composition: apply ``self`` first, then ``other``."""
        other_images = other.images
        if len(self.images) != len(other_images):
            raise ValueError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        return _from_images(tuple([other_images[i - 1] for i in self.images]))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return _from_images(tuple(inv))

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
        h_images = h.images
        if len(self.images) != len(h_images):
            raise ValueError(f"degree mismatch: {self.degree} vs {h.degree}")
        images = [0] * len(h_images)
        for hj, pj in zip(h_images, self.images):
            images[hj - 1] = h_images[pj - 1]
        return _from_images(tuple(images))

    # -- cycle structure ------------------------------------------------

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, each rotated to start at its least element,
        sorted by least element.  Fixed points are omitted unless asked for.
        """
        images = self.images
        seen = [False] * len(images)
        out: list[tuple[int, ...]] = []
        for start in range(1, len(images) + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            j = images[start - 1]
            while j != start:
                cyc.append(j)
                seen[j - 1] = True
                j = images[j - 1]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def _cycle_lengths(self) -> list[int]:
        """The length of each disjoint cycle, fixed points included, in
        order of least element; one walk that builds no cycle."""
        images = self.images
        seen = [False] * len(images)
        out: list[int] = []
        for start, j in enumerate(images, start=1):
            if seen[start - 1]:
                continue
            length = 1
            while j != start:
                seen[j - 1] = True
                length += 1
                j = images[j - 1]
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


class _IdentityImages(dict):
    """degree -> the identity's image tuple, made on first use.  Every
    degree-sized list starts here, so this is where a degree above
    ``LISTING_CAP`` is refused, once per degree."""

    def __missing__(self, degree: int) -> tuple[int, ...]:
        if degree > LISTING_CAP:
            raise CapExceededError(
                f"degree {degree} exceeds the listing cap {LISTING_CAP}"
            )
        images = self[degree] = tuple(range(1, degree + 1))
        return images


_IDENTITY_IMAGES = _IdentityImages()


def _from_images(images: tuple[int, ...]) -> Permutation:
    """A ``Permutation`` from an image tuple already known to be a
    bijection of 1..n, built without running ``__post_init__``."""
    p = _new(Permutation)
    _set(p, "images", images)
    return p


def identity(degree: int) -> Permutation:
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return _from_images(_IDENTITY_IMAGES[degree])


def product(perms, degree: int) -> Permutation:
    """The ordered product ``perms[0] * perms[1] * ...``; the identity
    of ``degree`` when ``perms`` is empty."""
    return reduce(Permutation.__mul__, perms, identity(degree))


def _realizations(choices: list[list[Permutation]], degree: int):
    """Every choice of one entry per position whose ordered product is
    the identity, in lexicographic order of the positions' lists.

    A lazy depth-first search: ``_completions`` is called once per
    (position, partial product) state it enters.  The last entry is
    forced: the inverse of the product before it, found by looking that
    product up among the inverses of the last list.  A state whose call
    yields nothing is recorded as dead and is never entered again; a
    state that did complete may be entered again under another prefix,
    whose completions are new choices.  The recursion depth is the
    number of positions (56 for the projection of ``sm-pair-13``, 154
    for ``build_sm_pair(20)``), far below the interpreter's limit of
    1000 frames; a search of about 990 positions or more raises
    ``RecursionError``.  The generators are module-level, not a
    recursive closure, which would be a reference cycle that keeps the
    search state alive.  Nielsen enumeration and the projection's
    product-one adjustment both walk it."""
    one = identity(degree)
    closing_for = {c.inverse(): c for c in choices[-1]}
    if len(choices) == 1:
        if one in closing_for:
            yield [one]
        return
    dead: list[set[Permutation]] = [set() for _ in choices]
    yield from _completions(choices, closing_for, dead, 0, one, [])


def _completions(choices, closing_for, dead, j, prefix, chosen):
    """The completions of ``chosen``, the entries at positions before
    ``j`` with product ``prefix``; returns whether there was one, and
    records the state in ``dead[j]`` when there was none."""
    found = False
    if j == len(choices) - 2:
        for q in choices[j]:
            closing = closing_for.get(prefix * q)
            if closing is not None:
                found = True
                yield chosen + [q, closing]
    else:
        for q in choices[j]:
            nxt = prefix * q
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
    return _from_images(a.images + tuple([m + i for i in b.images]))


def split(p: Permutation, m: int) -> tuple[Permutation, Permutation]:
    """The two parts of a permutation that maps 1..m onto itself, as
    permutations of 1..m and of 1..(degree - m); inverse of
    ``direct_sum``."""
    if not 1 <= m < p.degree or max(p.images[:m]) > m:
        raise ValueError(f"{p!r} does not preserve the letters 1..{m}")
    return (
        _from_images(p.images[:m]),
        _from_images(tuple([i - m for i in p.images[m:]])),
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
    images = list(_IDENTITY_IMAGES[degree])
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
            images[a - 1] = b
    return Permutation(tuple(images))


def dominates(s: Permutation, t: Permutation) -> bool:
    """True iff every cycle length of ``s`` (fixed points counted) is a
    multiple of the order of ``t``.  Degrees may differ.
    """
    ord_t = t.order()
    return all(length % ord_t == 0 for length in s._cycle_lengths())

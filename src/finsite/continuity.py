"""Localized topologies, pullback topologies, continuity, and initial
topologies.

The cover set at a single object is a localized topology; pulling it back
along an arrow f : B -> C gives the localized topology
``{ f*(S) : S a cover at C }`` on B, and f is continuous when every cover
at B arises this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DEFAULT_SIEVE_CAP, StructuralError
from .gtopology import GrothendieckTopology, sieve_universe
from .sieves import Sieve, is_sieve, maximal_sieve, pullback_sieve, sieve_closure, sieve_sort_key


@dataclass(frozen=True)
class LocalTopology:
    """A single object together with a set of sieves on it."""

    base: object
    sieves: frozenset

    def __contains__(self, S: Sieve) -> bool:
        return S in self.sieves

    def __len__(self) -> int:
        return len(self.sieves)


def validate_local_topology(C, L: LocalTopology) -> bool:
    """Maximal-sieve membership and sieve-hood of every member: the only
    topology axioms expressible at a single object."""
    if maximal_sieve(C, L.base) not in L.sieves:
        return False
    return all(S.base == L.base and is_sieve(C, L.base, S.members) for S in L.sieves)


def localize(J: GrothendieckTopology, x) -> LocalTopology:
    """The localized topology (x, J(x))."""
    if not J.category.has_object(x):
        raise StructuralError(f"unknown object {x!r}")
    return LocalTopology(x, frozenset(J.covers(x)))


def pullback_local(C, f, L: LocalTopology) -> LocalTopology:
    """The localized topology { f*(S) : S in L } on the domain of f."""
    if L.base != C.cod(f):
        raise StructuralError(
            f"local topology at {L.base!r} cannot be pulled back along {C.arrow_label(f)}"
        )
    return LocalTopology(C.dom(f), frozenset(pullback_sieve(C, f, S) for S in L.sieves))


@dataclass(frozen=True)
class ContinuityVerdict:
    ok: bool
    witness: Sieve | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_continuous_local(C, f, Ldom: LocalTopology, Lcod: LocalTopology) -> ContinuityVerdict:
    """Whether every sieve in Ldom is a pullback of some sieve in Lcod.

    On failure the witness is the first cover at the domain (in canonical
    order) that is not of the form f*(S).
    """
    if Ldom.base != C.dom(f) or Lcod.base != C.cod(f):
        raise StructuralError("local topologies do not match the arrow's endpoints")
    pulled = pullback_local(C, f, Lcod).sieves
    for S in sorted(Ldom.sieves, key=lambda s: sieve_sort_key(C, s)):
        if S not in pulled:
            return ContinuityVerdict(False, S)
    return ContinuityVerdict(True)


def is_continuous(C, f, J: GrothendieckTopology) -> ContinuityVerdict:
    """Continuity of an arrow under one global topology."""
    return is_continuous_local(C, f, localize(J, C.dom(f)), localize(J, C.cod(f)))


def initial_local_topology(
    C,
    x,
    family: Sequence[tuple],
    sieve_cap: int = DEFAULT_SIEVE_CAP,
) -> LocalTopology:
    """Intersection of the pullback topologies along a family of arrows
    out of x.

    ``family`` is a sequence of ``(arrow, LocalTopology at its codomain)``
    pairs.  The empty family yields the full sieve universe at x (the top
    element under pointwise containment).
    """
    if not C.has_object(x):
        raise StructuralError(f"unknown object {x!r}")
    if not family:
        return LocalTopology(x, frozenset(sieve_universe(C, x, sieve_cap)))
    current = None
    for f, L in family:
        if C.dom(f) != x:
            raise StructuralError(f"family arrow {C.arrow_label(f)} does not start at {x!r}")
        pulled = pullback_local(C, f, L).sieves
        current = pulled if current is None else current & pulled
    return LocalTopology(x, frozenset(current))


@dataclass(frozen=True)
class CoverPreservationVerdict:
    ok: bool
    obj: object | None = None
    witness: Sieve | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_cover_preserving(
    F,
    Jdom: GrothendieckTopology,
    Jcod: GrothendieckTopology,
) -> CoverPreservationVerdict:
    """Whether the image of every covering sieve generates a cover.

    Quantifies over ``Jdom.basis``: the whole cover set of an explicit
    topology, the minimal covers of one built from them.  Every cover
    contains a basis sieve and sieve generation is monotone, so when the
    cover sets of ``Jcod`` are closed upward the basis check is equivalent
    to the full one.  On failure returns the object and the first
    offending basis sieve.
    """
    C, D = F.dom, F.cod
    if Jdom.category is not C or Jcod.category is not D:
        raise StructuralError("topologies do not match the functor's categories")
    for d in sorted(C.objects, key=str):
        for S in Jdom.basis(d):
            image = sieve_closure(D, F.obj(d), tuple({F.arr(g) for g in S.members}))
            if not Jcod.contains(image):
                return CoverPreservationVerdict(False, d, S)
    return CoverPreservationVerdict(True)

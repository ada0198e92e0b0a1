"""Sieves: right ideals of arrows into a fixed object.

A sieve on X is a set of arrows with codomain X closed under
precomposition with arbitrary arrows.  On a divisor poset the sieves on n
are exactly the down-sets of the divisors of n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ResourceError, StructuralError


@dataclass(frozen=True)
class Sieve:
    base: object
    members: frozenset

    def __contains__(self, arrow) -> bool:
        return arrow in self.members

    def __len__(self) -> int:
        return len(self.members)


def empty_sieve(x) -> Sieve:
    return Sieve(x, frozenset())


def maximal_sieve(C, x) -> Sieve:
    """All arrows with codomain x."""
    return Sieve(x, frozenset(C.arrows_into(x)))


def sieve_closure(C, x, generators: Iterable) -> Sieve:
    """The smallest sieve on x containing the given arrows.

    Because the ambient category is closed under composition, one round of
    precomposition with every incoming arrow (identities included) already
    reaches the fixpoint.
    """
    gens = tuple(generators)
    for f in gens:
        if C.cod(f) != x:
            raise StructuralError(f"generator {C.arrow_label(f)} does not land in {x!r}")
    members = set()
    for f in gens:
        for g in C.arrows_into(C.dom(f)):
            members.add(C.compose(f, g))
    return Sieve(x, frozenset(members))


def is_sieve(C, x, members: Iterable) -> bool:
    """Whether a set of arrows is a sieve on x."""
    members = frozenset(members)
    for a in members:
        if C.cod(a) != x:
            return False
    for a in members:
        for g in C.arrows_into(C.dom(a)):
            if C.compose(a, g) not in members:
                return False
    return True


def pullback_sieve(C, h, S: Sieve) -> Sieve:
    """The sieve { g into dom(h) : h . g in S } on the domain of h.

    When S is a union of factoring classes on an object whose classes are
    already built, h is composed with one arrow of each class at dom(h):
    if g and g' factor through each other, so do h.g and h.g'.  Any other
    arrow set is pulled back member by member.
    """
    if S.base != C.cod(h):
        raise StructuralError(
            f"sieve based at {S.base!r} cannot be pulled back along {C.arrow_label(h)}"
        )
    d = C.dom(h)
    known = C._sieve_cache.get(S.base)
    ideal = None if known is None else known.ideal_of(S)
    if ideal is None:
        return Sieve(d, frozenset(g for g in C.arrows_into(d) if C.compose(h, g) in S.members))
    return _sieves_on(C, d).pullback(C, h, known, ideal)


def sorted_sieves(C, sieves) -> list:
    """The sieves in canonical order: by size, then by sorted member labels.

    When every sieve is a union of factoring classes on one object whose
    classes are already built, the order is read from the classes (see
    ``_ObjectSieves.add_order_keys``); otherwise each sieve's member labels are
    built and sorted.
    """
    sieves = list(sieves)
    if len(sieves) < 2:
        return sieves
    known = C._sieve_cache.get(sieves[0].base)
    if known is not None:
        key = known._order_keys.__getitem__
        try:
            return sorted(sieves, key=key)
        except KeyError:  # a sieve not ordered before
            if known.add_order_keys(C, sieves):
                return sorted(sieves, key=key)
    return sorted(sieves, key=lambda S: (len(S.members), tuple(sorted(C.arrow_label(a) for a in S.members))))


def sieve_literal(C, S: Sieve) -> str:
    """Printable form: sorted member labels in braces."""
    return "{" + ", ".join(sorted(C.arrow_label(a) for a in S.members)) + "}"


# -- the sieves on one object, by factoring class ----------------------


def _sieves_on(C, x):
    """The ``_ObjectSieves`` of x, cached on C."""
    sieves = C._sieve_cache.get(x)
    if sieves is None:
        sieves = C._sieve_cache[x] = _ObjectSieves(C, x)
    return sieves


_UNSEEN = object()


class _ObjectSieves:
    """The sieves on one object x, each built once, and what pulling back
    and ordering need to work one factoring class at a time.

    Sieves are the down-sets of the factoring preorder on arrows into x
    (a <= b iff a factors through b, that is iff ``C.factoring_key(a)`` is
    a subset of ``C.factoring_key(b)``), so they are enumerated as the
    down-sets of the poset of mutual-factoring classes.  ``below[i]`` is
    the set of classes strictly under class i, and ``class_of`` maps each
    arrow into x to its class.
    """

    def __init__(self, C, x):
        by_key: dict = {}
        for a in C.arrows_into(x):
            by_key.setdefault(C.factoring_key(a), []).append(a)
        keys = list(by_key)
        self.x = x
        self.reps = [by_key[k][0] for k in keys]  # each class's first arrow into x
        self.classes = [frozenset(by_key[k]) for k in keys]  # their unions reuse stored hashes
        self.class_of = {a: i for i, cls in enumerate(self.classes) for a in cls}
        self.below = [frozenset(j for j, kj in enumerate(keys) if kj < ki) for ki in keys]
        self.minimal = frozenset(i for i, b in enumerate(self.below) if not b)
        self.universe = None
        self._built: dict = {}  # down-set -> its sieve
        self._ideals: dict = {}  # sieve -> the classes it is the union of, or None
        self._order_keys: dict = {}  # union of classes -> its order key
        self._maps: dict = {}  # arrow h out of x -> class at cod(h) of h . c, per class c
        self._pulled: dict = {}  # (h, classes at cod(h)) -> their pullback along h
        self._weights = None  # per class, 2 ** (number of classes after it in label order)

    def sieve(self, ideal: frozenset) -> Sieve:
        """The arrow set made of the classes in ``ideal``, built once; a
        sieve when ``ideal`` is a down-set."""
        S = self._built.get(ideal)
        if S is None:
            S = self._built[ideal] = Sieve(self.x, frozenset().union(*map(self.classes.__getitem__, ideal)))
            self._ideals[S] = ideal
        return S

    def ideal(self, S: Sieve) -> frozenset:
        """The classes whose first arrow S holds: the classes that make up
        S when S is a sieve."""
        return frozenset(i for i, a in enumerate(self.reps) if a in S.members)

    def ideal_of(self, S: Sieve):
        """The classes S is the union of, or None when S is no union of
        classes on x."""
        ideal = self._ideals.get(S, _UNSEEN)
        if ideal is _UNSEEN:
            ideal = None
            if S.base == self.x:
                ideal = frozenset(map(self.class_of.get, S.members))
                if None in ideal or sum(len(self.classes[i]) for i in ideal) != len(S.members):
                    ideal = None
            self._ideals[S] = ideal
        return ideal

    def pullback(self, C, h, at_cod, ideal) -> Sieve:
        """The pullback along h (out of x, into ``at_cod.x``) of the union
        of the classes ``ideal`` there; h's class map is built once."""
        P = self._pulled.get((h, ideal))
        if P is None:
            image = self._maps.get(h)
            if image is None:
                image = self._maps[h] = tuple(at_cod.class_of[C.compose(h, a)] for a in self.reps)
            P = self._pulled[h, ideal] = self.sieve(frozenset([i for i, c in enumerate(image) if c in ideal]))
        return P

    def add_order_keys(self, C, sieves) -> bool:
        """Give each of ``sieves`` a key that orders it as ``sorted_sieves``
        does; False, with some left without one, when one of them is no
        union of classes on x or two arrows into x share a label.

        For sets of one size, the sorted label tuple of A is below that of
        B iff the least label in their symmetric difference lies in A.  The
        classes are disjoint, so that label is the least label of the
        first class, in order of least labels, that one holds and the other
        lacks; weighting class i by 2 ** (classes after it) makes the
        heavier union the earlier one.
        """
        weights = self._label_weights(C)
        for S in sieves:
            ideal = self.ideal_of(S)
            if ideal is None or not weights:
                return False
            self._order_keys[S] = (len(S.members), -sum(map(weights.__getitem__, ideal)))
        return True

    def _label_weights(self, C):
        if self._weights is None:
            labels = {a: C.arrow_label(a) for a in self.class_of}
            if len(set(labels.values())) < len(labels):
                self._weights = ()
            else:
                firsts = [min(map(labels.__getitem__, cls)) for cls in self.classes]
                self._weights = [0] * len(firsts)
                for power, i in enumerate(sorted(range(len(firsts)), key=firsts.__getitem__, reverse=True)):
                    self._weights[i] = 1 << power
        return self._weights

    def above(self, bottoms, cap):
        """Every sieve that contains one of the sieves ``bottoms``."""
        ideals: set = set()
        for B in bottoms:
            _down_sets(self.below, self.ideal(B), cap, self.x, ideals)
        return [self.sieve(ideal) for ideal in ideals]


def _down_sets(below, seed, cap, obj, out):
    """Add to ``out`` every down-set containing the down-set ``seed`` of a
    finite poset given by strict lower sets; raise once ``out`` holds more
    than ``cap``."""
    order = sorted((i for i in range(len(below)) if i not in seed), key=lambda i: (len(below[i]), i))

    def rec(pos, current):
        if pos == len(order):
            out.add(frozenset(current))
            if len(out) > cap:
                raise ResourceError(
                    f"object {obj!r} has more than {cap} sieves",
                    cap_name="sieves",
                    cap_value=cap,
                )
            return
        i = order[pos]
        rec(pos + 1, current)
        if below[i] <= current:
            current.add(i)
            rec(pos + 1, current)
            current.discard(i)

    rec(0, set(seed))

"""Sieves: right ideals of arrows into a fixed object.

A sieve on X is a set of arrows with codomain X closed under
precomposition with arbitrary arrows.  On a divisor poset the sieves on n
are exactly the down-sets of the divisors of n.

Arrows into X are preordered by factoring, and a sieve is a union of
factoring classes (arrows that factor through each other) that holds
every class below one of its own: a down-set of classes.  A ``Sieve`` is
its base and that down-set, built once per down-set by the
``_ObjectSieves`` of its base, so equal sieves are one object.  A
down-set of classes is an int mask, bit i = class i: inclusion is
``a & ~b == 0``, union and intersection are ``|`` and ``&``.  Its
arrows are listed only when asked for (``Sieve.members``, as
``sieve_literal`` does).  Sieves come from ``sieve_closure``,
``maximal_sieve``, ``pullback_sieve`` and ``sieve_universe``; a raw arrow
set is never a ``Sieve``, and ``is_sieve`` tests whether it is one.
Classes are numbered by their first arrow in ``C.arrows_into(x)``, and
``sorted_sieves`` orders by those numbers: it lists and labels no arrow.
``_sieve_of_labels`` reads a sieve straight from arrow labels, as a
topology file gives them.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

from .errors import ResourceError, StructuralError
from .fincat import FinFunction


class Sieve:
    """A sieve on ``base``: the union of the factoring classes in
    ``_ideal``, a down-set of the classes of ``_space`` (the
    ``_ObjectSieves`` of base) held as an int mask, bit i = class i.

    Only ``_ObjectSieves.sieve`` builds one, once per down-set, so
    equality is identity.  The hash reads the base and the mask, so set
    order does not vary between runs under one hash seed.  ``<=`` holds
    only between sieves on one object of one category.
    """

    __slots__ = ("base", "_space", "_ideal", "_members", "_hash")

    def __init__(self, *args, **kwargs):
        raise StructuralError("sieves are built by sieve_closure, maximal_sieve, pullback_sieve or sieve_universe")

    @classmethod
    def _of_classes(cls, space, ideal: int) -> Sieve:
        S = cls.__new__(cls)
        S.base, S._space, S._ideal, S._members = space.x, space, ideal, None
        S._hash = hash((space.x, ideal))
        return S

    @property
    def members(self) -> frozenset:
        """The arrows, listed on first use (this can hit the hom cap)."""
        if self._members is None:
            self._members = self._space.members(self._ideal)
        return self._members

    @property
    def size(self) -> int:
        """The number of arrows; unlike ``len`` it may exceed sys.maxsize."""
        return self._space.size(self._ideal)

    def __len__(self) -> int:
        return self.size

    def __contains__(self, arrow) -> bool:
        i = self._space.class_of(arrow)
        return i is not None and bool(self._ideal >> i & 1)

    def __le__(self, other: Sieve) -> bool:
        if not isinstance(other, Sieve):
            return NotImplemented
        return self._space is other._space and not self._ideal & ~other._ideal

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Sieve(base={self.base!r}, classes={tuple(_bits(self._ideal))}, size={self.size})"


def maximal_sieve(C, x) -> Sieve:
    """All arrows with codomain x."""
    sieves = _sieves_on(C, x)
    return sieves.sieve((1 << len(sieves.keys)) - 1)


def sieve_closure(C, x, generators: Iterable) -> Sieve:
    """The smallest sieve on x containing the given arrows: the arrows
    that factor through one of them, so the down-set of their classes."""
    gens = tuple(generators)
    for f in gens:
        if C.cod(f) != x:
            raise StructuralError(f"generator {C.arrow_label(f)} does not land in {x!r}")
    sieves = _sieves_on(C, x)
    down, ideal = sieves.down, 0
    for f in gens:
        i = sieves.class_of(f)
        if i is None:
            raise StructuralError(f"generator {C.arrow_label(f)} is not an arrow into {x!r}")
        ideal |= down[i]
    return sieves.sieve(ideal)


def _sieve_of_labels(C, x, labels: Iterable[str]) -> Sieve | None:
    """The sieve on x generated by the arrows named by ``labels`` (their
    ``str``), as ``sieve_closure`` gives it; None when a label names no
    arrow into x, or names more than one arrow of C.  Each label costs one
    dict lookup and one OR."""
    sieves = _sieves_on(C, x)
    down, ideal = sieves.down_by_label, 0
    for t in labels:
        mask = down.get(t)
        if mask is None:
            return None
        ideal |= mask
    return sieves.sieve(ideal)


def is_sieve(C, x, members: Iterable) -> bool:
    """Whether a set of arrows is a sieve on x: a union of factoring
    classes that holds every class below one of them.  A ``Sieve`` is one
    iff it is a sieve on x of C."""
    if isinstance(members, Sieve):
        return _not_on(C, x, members) is None
    arrows = frozenset(members)
    for a in arrows:
        if C.cod(a) != x:
            return False
    sieves = _sieves_on(C, x)
    classes = set(map(sieves.class_of, arrows))
    if None in classes:
        return False
    ideal = _mask(classes)
    below = sieves.below
    return sieves.size(ideal) == len(arrows) and not any(below[i] & ~ideal for i in classes)


def _not_on(C, x, S: Sieve):
    """Why S is not a sieve on x of C, or None when it is one."""
    if S.base != x:
        return f"sieve based at {S.base!r}"
    if S._space is not _sieves_on(C, x):
        return f"sieve on {x!r} of another category"
    return None


def pullback_sieve(C, h, S: Sieve) -> Sieve:
    """The sieve { g into dom(h) : h . g in S } on the domain of h."""
    why = _not_on(C, C.cod(h), S)
    if why:
        raise StructuralError(f"{why} cannot be pulled back along {C.arrow_label(h)}")
    return _pullback(C, h, S)


def _pullback(C, h, S: Sieve) -> Sieve:
    """``pullback_sieve`` once S is known to be a sieve on cod(h)."""
    return _sieves_on(C, C.dom(h)).pullback(h, S)


def _pullbacks(C, S: Sieve, arrows):
    """``(dom(h), mask of the pullback of S along h)`` for each h of
    ``arrows``, all into the base of S, in order; this builds no sieve, for
    passes that only test the pullbacks against sets of masks."""
    flags = _flags(S._ideal)
    for h in arrows:
        d = C.dom(h)
        yield d, sum(itertools.compress(_sieves_on(C, d).preimages(h, S._space), flags))


def sorted_sieves(C, sieves) -> list:
    """The sieves, all on one object x of C, in canonical order: by size,
    then by the sorted positions of their members in ``C.arrows_into(x)``.
    On a table category that is the order of sorted member labels, since
    ``arrows_into`` lists arrows by label.  Each key is computed once,
    from the classes (see ``_ObjectSieves.order_key``)."""
    sieves = list(sieves)
    if len(sieves) < 2:
        return sieves
    space = _sieves_on(C, sieves[0].base)
    keys = space._order_keys
    try:
        return sorted(sieves, key=keys.__getitem__)
    except KeyError:  # a sieve not ordered before
        for S in sieves:
            if S not in keys:
                why = _not_on(C, space.x, S)
                if why:
                    raise StructuralError(f"a {why} cannot be ordered among the sieves on {space.x!r}") from None
                keys[S] = space.order_key(S._ideal)
        return sorted(sieves, key=keys.__getitem__)


def sieve_literal(C, S: Sieve) -> str:
    """Printable form: sorted member labels in braces."""
    return "{" + ", ".join(sorted(C.arrow_label(a) for a in S.members)) + "}"


# -- the sieves on one object, by factoring class ----------------------


def _mask(indices) -> int:
    """The int mask with bit i set for each i in ``indices``."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _flags(mask: int) -> bytes:
    """Byte i is bit i of ``mask``, up to its highest set bit; with
    ``itertools.compress`` it picks the entries of a per-class list at C
    speed."""
    return bin(mask)[:1:-1].encode().translate(_FLAGS)


def _bits(mask: int):
    """The set bits of ``mask``, ascending."""
    return itertools.compress(itertools.count(), _flags(mask))


_SHARED = object()  # C._sieve_cache key of the labels that name two arrows of C


def _shared_labels(C) -> set:
    """The labels (``str``) that name more than one arrow of C, cached on C."""
    shared = C._sieve_cache.get(_SHARED)
    if shared is None:
        seen: set = set()
        shared = C._sieve_cache[_SHARED] = {t for t in map(str, C.all_arrows()) if t in seen or seen.add(t)}
    return shared


def _sieves_on(C, x):
    """The ``_ObjectSieves`` of x, cached on C."""
    sieves = C._sieve_cache.get(x)
    if sieves is None:
        if not C.has_object(x):
            raise StructuralError(f"unknown object {x!r}")
        backend = _ImageClasses if C.backend == "finset" else _TableClasses
        sieves = C._sieve_cache[x] = backend(C, x)
    return sieves


class _ObjectSieves:
    """The sieves on one object x, each built once, and what pulling back
    and ordering need to work one factoring class at a time.

    ``keys[i]`` is the factoring key of class i (a <= b iff a factors
    through b, that is iff ``C.factoring_key(a)`` is a subset of
    ``C.factoring_key(b)``).  Sieves are the down-sets of the poset of
    classes, each an int mask with bit i = class i; ``below[i]`` is the
    mask of the classes strictly under class i, and ``down[i]`` adds
    class i.  A backend lists the classes, numbered by their first arrow
    in ``C.arrows_into(x)``, and gives, per class, a representative arrow
    (``rep``), its size (``sizes``), ``class_of`` and the members of a
    union of classes.
    """

    def __init__(self, C, x, keys):
        self.C = C
        self.x = x
        self.keys = keys
        self.universe = None
        self._below = None
        self._down = None
        self._by_label = None
        self._built: dict = {}  # down-set mask -> its sieve
        self._order_keys: dict = {}  # sieve -> its key in sorted_sieves
        self._preimages: dict = {}  # arrow h out of x -> per class c at cod(h), the mask of classes i with h . i in c
        self._pulled: dict = {}  # (h, sieve on cod(h)) -> its pullback along h

    @property
    def below(self) -> list:
        if self._below is None:
            keys = self.keys
            self._below = [_mask(j for j, kj in enumerate(keys) if kj < ki) for ki in keys]
        return self._below

    @property
    def down(self) -> list:
        if self._down is None:
            self._down = [b | 1 << i for i, b in enumerate(self.below)]
        return self._down

    @property
    def minimal(self) -> int:
        return _mask(i for i, b in enumerate(self.below) if not b)

    @property
    def down_by_label(self) -> dict:
        """``down[i]`` of the class of each arrow into x, by its label
        (``str``), for the labels that name one arrow of C."""
        if self._by_label is None:
            C, shared, down = self.C, _shared_labels(self.C), self.down
            self._by_label = {
                t: down[self.class_of(a)] for a in C.arrows_into(self.x) if (t := str(a)) not in shared
            }
        return self._by_label

    def sieve(self, ideal: int) -> Sieve:
        """The sieve made of the classes in the down-set mask ``ideal``,
        built once."""
        S = self._built.get(ideal)
        if S is None:
            S = self._built[ideal] = Sieve._of_classes(self, ideal)
        return S

    def size(self, ideal: int) -> int:
        return sum(itertools.compress(self.sizes, _flags(ideal)))

    def preimages(self, h, at_cod) -> list:
        """Per class c at cod(h) (whose sieves are ``at_cod``), the mask of
        the classes at x that the arrow h: x -> cod(h) sends into c; built
        once per h.

        h is composed with one arrow of each class at x: if g and g'
        factor through each other, so do h.g and h.g'.  The masks are
        disjoint, so a pullback, the union of the masks of a sieve's
        classes, is their sum.
        """
        pre = self._preimages.get(h)
        if pre is None:
            compose = self.C.compose
            pre = [0] * len(at_cod.keys)
            for i in range(len(self.keys)):
                pre[at_cod.class_of(compose(h, self.rep(i)))] |= 1 << i
            self._preimages[h] = pre
        return pre

    def pullback(self, h, S: Sieve) -> Sieve:
        """The pullback along h (out of x) of the sieve S on cod(h), built
        once per (h, S)."""
        P = self._pulled.get((h, S))
        if P is None:
            pre = self.preimages(h, S._space)
            P = self._pulled[h, S] = self.sieve(sum(itertools.compress(pre, _flags(S._ideal))))
        return P

    def order_key(self, ideal: int) -> tuple:
        """The key that orders the sieve made of ``ideal`` as
        ``sorted_sieves`` does: its size, then its classes in ascending
        order.

        For sets of one size, the sorted position tuple of A is below that
        of B iff the first position in their symmetric difference lies in
        A.  That position is the first arrow of the first class that one
        holds and the other lacks, since classes are disjoint and numbered
        by their first arrow; so the sorted class tuples compare alike.
        Neither tuple is a prefix of the other, as every class is nonempty.
        """
        return (self.size(ideal), tuple(_bits(ideal)))

    def above(self, bottoms, cap):
        """Every sieve that contains one of the sieves ``bottoms``."""
        ideals: set = set()
        for B in bottoms:
            _down_sets(self.below, B._ideal, cap, self.x, ideals)
        return [self.sieve(ideal) for ideal in ideals]


class _TableClasses(_ObjectSieves):
    """The classes of a table category, read from its stored arrows in
    their order in ``C.arrows_into(x)``."""

    def __init__(self, C, x):
        by_key: dict = {}
        for a in C.arrows_into(x):
            by_key.setdefault(C.factoring_key(a), []).append(a)
        super().__init__(C, x, list(by_key))
        self.classes = [frozenset(arrows) for arrows in by_key.values()]  # their unions reuse stored hashes
        self._reps = [arrows[0] for arrows in by_key.values()]
        self._class_of = {a: i for i, cls in enumerate(self.classes) for a in cls}
        self.sizes = list(map(len, self.classes))

    @property
    def below(self) -> list:
        # a class is under class i iff it holds an arrow of key i, the
        # arrows that factor through class i's arrows
        if self._below is None:
            class_of = self._class_of
            self._below = [_mask(map(class_of.__getitem__, k)) & ~(1 << i) for i, k in enumerate(self.keys)]
        return self._below

    def rep(self, i):
        return self._reps[i]

    def class_of(self, a):
        return self._class_of.get(a)

    def members(self, ideal: int) -> frozenset:
        return frozenset().union(*itertools.compress(self.classes, _flags(ideal)))


def _surjections(m: int, k: int) -> int:
    """The number of maps from an m-set onto a k-set."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** m for j in range(k + 1))


class _ImageClasses(_ObjectSieves):
    """The classes of a finite-set category, listed without building an
    arrow.

    An arrow's factoring key is its image, so the classes at x are the
    image subsets A of x's carrier that some arrow realizes: the nonempty
    ones up to the largest carrier's size, and the empty one when some
    carrier is empty.  Class A holds surj(|dom|, |A|) arrows from each
    domain.  Classes are numbered, as on tables, by their first arrow in
    ``C.arrows_into(x)`` (hom-sets in object order, each in the order of
    its image tuples), found without listing a hom-set: the first arrow
    of A from an m-element domain sends the first m - |A| + 1 elements to
    A's first element (in carrier order) and the rest to A's other
    elements in turn.
    """

    def __init__(self, C, x):
        carrier = C.carrier(x)
        n = len(carrier)
        sizes = [len(C.carrier(d)) for d in C.objects]
        ks = range(0 if 0 in sizes else 1, min(n, max(sizes)) + 1)
        count = sum(math.comb(n, k) for k in ks)
        if count > C.hom_cap:
            raise ResourceError(
                f"object {x!r} has {count} image classes, over the hom cap {C.hom_cap}",
                cap_name="homs",
                cap_value=C.hom_cap,
            )
        firsts = []  # (first domain, the index tuple of its first arrow, the image's indices)
        for k in ks:
            d = next(d for d, m in enumerate(sizes) if (m >= k if k else m == 0))
            for image in itertools.combinations(range(n), k):
                firsts.append((d, image[:1] * (sizes[d] - k + 1) + image[1:], image))
        firsts.sort()
        super().__init__(C, x, [frozenset(carrier[i] for i in image) for _, _, image in firsts])
        self._index = {A: i for i, A in enumerate(self.keys)}
        self._firsts = [(C.objects[d], tuple(carrier[i] for i in first)) for d, first, _ in firsts]
        by_k = {k: sum(_surjections(m, k) for m in sizes) for k in ks}
        self.sizes = [by_k[len(A)] for A in self.keys]

    def rep(self, i):
        d, images = self._firsts[i]
        return FinFunction(d, self.x, images)

    @property
    def minimal(self) -> int:
        # the empty image when one is realizable, otherwise the singletons
        least = min(map(len, self.keys))
        return _mask(i for i, k in enumerate(self.keys) if len(k) == least)

    def class_of(self, a):
        if type(a) is not FinFunction or a.cod != self.x:
            return None
        carrier = self.C._carriers.get(a.dom)
        if carrier is None or len(carrier) != len(a.images):
            return None
        return self._index.get(frozenset(a.images))

    def members(self, ideal: int) -> frozenset:
        """The arrows of the classes in ``ideal``; the hom cap bounds how
        many come from one domain."""
        C, x = self.C, self.x
        images = [tuple(A) for A in itertools.compress(self.keys, _flags(ideal))]
        out = []
        for d in C.objects:
            m = len(C.carrier(d))
            n = sum(_surjections(m, len(A)) for A in images)
            if n > C.hom_cap:
                raise ResourceError(
                    f"a sieve on {x!r} has {n} arrows from {d!r}, over the hom cap {C.hom_cap}",
                    cap_name="homs",
                    cap_value=C.hom_cap,
                )
            for A in images:
                out.extend(
                    FinFunction(d, x, f) for f in itertools.product(A, repeat=m) if len(set(f)) == len(A)
                )
        return frozenset(out)


def _down_sets(below, seed: int, cap, obj, out):
    """Add to ``out`` the mask of every down-set containing the down-set
    mask ``seed`` of a finite poset given by the masks of its strict lower
    sets; raise once ``out`` holds more than ``cap``.

    Classes are taken along a linear extension (by the size of their lower
    sets), and each down-set found so far is kept with and without the next
    class whenever that class's lower set lies in it.
    """
    found = [seed]
    for i in sorted((i for i in range(len(below)) if not seed >> i & 1), key=lambda i: (below[i].bit_count(), i)):
        b, bit = below[i], 1 << i
        found += [D | bit for D in found if not b & ~D]
        if len(found) > cap:
            break
    out.update(found)
    if len(out) > cap:
        raise ResourceError(
            f"object {obj!r} has more than {cap} sieves",
            cap_name="sieves",
            cap_value=cap,
        )

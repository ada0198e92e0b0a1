"""Sieves: right ideals of arrows into a fixed object.

A sieve on X is a set of arrows with codomain X closed under
precomposition with arbitrary arrows.  On a divisor poset the sieves on n
are exactly the down-sets of the divisors of n.

Arrows into X are preordered by factoring, and a sieve is a union of
factoring classes (arrows that factor through each other) that holds
every class under one of its own: a down-set of classes.  A ``Sieve`` is
its base and that down-set, built once per down-set by the
``_ObjectSieves`` of its base, so equal sieves are one object.  A
down-set of classes is an int mask, bit i = class i: inclusion is
``a & ~b == 0``, union and intersection are ``|`` and ``&``.  A
literal is printed from the mask (``_ObjectSieves.literal``, which
``sieve_literal`` and topology files use); the arrows are listed only
when asked for (``Sieve.members``).  Sieves come from ``sieve_closure``,
``maximal_sieve``, ``pullback_sieve`` and ``sieve_universe``; a raw arrow
set is never a ``Sieve``, and ``is_sieve`` tests whether it is one.
Classes are numbered by their first arrow in ``C.arrows_into(x)``, and
``sorted_sieves`` orders by those numbers: it lists and labels no arrow.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable

from .errors import ResourceError, StructuralError
from .fincat import FinFunction, _no_composite


class Sieve:
    """A sieve on ``base``: the union of the factoring classes in
    ``_ideal``, a down-set of the classes of ``_space`` (the
    ``_ObjectSieves`` of base) held as an int mask, bit i = class i.

    Only ``_ObjectSieves.sieve`` builds one, once per down-set, so
    equality is identity.  The hash reads the base and the mask, so set
    order does not vary between runs under one hash seed.  ``<=`` holds
    only between sieves on one object of one category.
    """

    __slots__ = ("base", "_space", "_ideal", "_members", "_hash", "_flags")

    def __init__(self, *args, **kwargs):
        raise StructuralError("sieves are built by sieve_closure, maximal_sieve, pullback_sieve or sieve_universe")

    @classmethod
    def _of_classes(cls, space, ideal: int) -> Sieve:
        S = cls.__new__(cls)
        S.base, S._space, S._ideal, S._members, S._flags = space.x, space, ideal, None, None
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


def is_sieve(C, x, members: Iterable) -> bool:
    """Whether a set of arrows is a sieve on x: a union of factoring
    classes that holds every class under one of them.  A ``Sieve`` is one
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
    down = sieves.down
    return sieves.size(ideal) == len(arrows) and not any(down[i] & ~ideal for i in classes)


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
    space = _sieves_on(C, C.dom(h))
    return space.sieve(space.pulled(h, S))


def sorted_sieves(C, sieves) -> list:
    """The sieves, all on one object x of C, in canonical order: by size,
    then by the sorted positions of their members in ``C.arrows_into(x)``.
    On a table category that is the order of sorted member labels, since
    ``arrows_into`` lists arrows by label.

    The key is the size, then the classes in ascending order.  Of two
    sieves of one size, the one holding the first position in their
    symmetric difference comes first; that position is the first arrow of
    the first class that one holds and the other lacks, as classes are
    disjoint, nonempty and numbered by their first arrow.
    """
    sieves = list(sieves)
    if len(sieves) < 2:
        return sieves
    space = _sieves_on(C, sieves[0].base)
    for S in sieves:
        if S._space is not space:  # then _not_on says why
            raise StructuralError(f"a {_not_on(C, space.x, S)} cannot be ordered among the sieves on {space.x!r}")
    return sorted(sieves, key=lambda S: (S.size, tuple(_bits(S._ideal))))


def sieve_literal(C, S: Sieve) -> str:
    """Printable form: sorted member labels in braces, printed from S's
    classes on its own object (see ``_ObjectSieves.literal``)."""
    return S._space.literal(S._ideal)


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

    ``keys[i]`` is the factoring key of class i, which says which classes
    its arrows factor through: on a table the sieve an arrow generates
    (its composites a . g), on finite sets an arrow's image as an
    int mask over carrier indices.  Sieves are the down-sets of the poset
    of classes, each an int mask with bit i = class i; ``down[i]`` is the
    mask of class i and every class under it, the one lower-set table.  A
    backend lists the classes, numbered by their first arrow in
    ``C.arrows_into(x)``, and gives ``down``, and per class a
    representative arrow (``rep``), its size (``sizes``), ``class_of``, the
    members of a union of classes, its literal (``literal``: the sorted
    labels of those members in braces) and the class map of an arrow out
    of x (``class_map``).
    """

    def __init__(self, C, x, keys):
        self.C = C
        self.x = x
        self.keys = keys
        self._down = None
        self._built: dict = {}  # down-set mask -> its sieve
        self._preimages: dict = {}  # arrow h out of x -> per class c at cod(h), the mask of classes i with h . i in c

    @property
    def minimal(self) -> int:
        return _mask(i for i, d in enumerate(self.down) if d == 1 << i)

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
        the classes at x that the arrow h: x -> cod(h) sends into c, read
        from h's class map; built once per h.

        The masks are disjoint, so a pullback, the union of the masks of a
        sieve's classes, is their sum.
        """
        pre = self._preimages.get(h)
        if pre is None:
            pre = self._preimages[h] = _fibres(self.class_map(h, at_cod), len(at_cod.keys))
        return pre

    def pulled(self, h, S: Sieve) -> int:
        """The mask of the pullback along h (out of x) of the sieve S, taken
        to be on cod(h): the union of the preimage masks of S's classes,
        picked by S's ``_flags``, which are computed once per sieve."""
        if S._flags is None:
            S._flags = _flags(S._ideal)
        return sum(itertools.compress(self.preimages(h, S._space), S._flags))

    def up_sets(self, bottoms, cap) -> set:
        """The masks of every sieve that contains one of the sieves
        ``bottoms``; more than ``cap`` of them raise (see ``_down_sets``)."""
        ideals: set = set()
        for B in bottoms:
            _down_sets(self.down, B._ideal, cap, self.x, ideals)
        return ideals


_BLOCK = 1 << 12  # positions per block in _fibres


def _fibres(classes, n: int) -> list:
    """Per c < n, the mask of the positions i with ``classes[i] == c``.

    Setting a bit copies its int, so past the first block of positions
    bits are set in small per-block ints, each shifted into its mask
    once, instead of copying a growing mask per position.
    """
    masks = [0] * n
    for i, c in enumerate(classes[:_BLOCK]):
        masks[c] |= 1 << i
    for lo in range(_BLOCK, len(classes), _BLOCK):
        block: dict = {}
        for i, c in enumerate(classes[lo : lo + _BLOCK]):
            block[c] = block.get(c, 0) | 1 << i
        for c, mask in block.items():
            masks[c] |= mask << lo
    return masks


class _TableClasses(_ObjectSieves):
    """The classes of a table category, read from its stored arrows in
    their order in ``C.arrows_into(x)``."""

    def __init__(self, C, x):
        # a factors through b iff key(a) <= key(b); every pair (a, g) read
        # from the table is composable
        table, into, by_key = C._table, C.arrows_into, {}
        try:
            for a in into(x):
                by_key.setdefault(frozenset([table[a, g] for g in into(C.dom(a))]), []).append(a)
        except KeyError as e:
            raise _no_composite(*e.args[0]) from None
        super().__init__(C, x, list(by_key))
        self._reps = [arrows[0] for arrows in by_key.values()]
        self._class_of = {a: i for i, arrows in enumerate(by_key.values()) for a in arrows}
        self.sizes = list(map(len, by_key.values()))
        self._labels = self._positions = None  # built for the first literal

    @property
    def down(self) -> list:
        # a class is under class i iff it holds an arrow of key i, the
        # arrows that factor through class i's arrows
        if self._down is None:
            class_of = self._class_of
            self._down = [_mask(map(class_of.__getitem__, k)) for k in self.keys]
        return self._down

    def rep(self, i):
        return self._reps[i]

    def class_of(self, a):
        return self._class_of.get(a)

    def class_map(self, h, at_cod) -> list:
        """The class at cod(h) of h composed with each class's
        representative: if g and g' factor through each other, so do h.g
        and h.g'.  Each pair is read from the table: building the classes
        at cod(h) read every composite of h."""
        table, class_of = self.C._table, at_cod.class_of
        return [class_of(table[h, r]) for r in self._reps]

    def members(self, ideal: int) -> frozenset:
        """The arrows into x of the classes in ``ideal``, for API reads."""
        class_of = self._class_of
        return frozenset(a for a in self.C.arrows_into(self.x) if ideal >> class_of[a] & 1)

    def literal(self, ideal: int) -> str:
        """The labels of the arrows of ``ideal``'s classes, picked from
        ``C.arrows_into(x)``, which lists them by label, by the OR of the
        classes' position masks (bit p = the p-th arrow into x).  Where
        every class is one arrow, class i is the i-th arrow, as classes
        are numbered by their first arrows, so ``ideal`` is that mask."""
        if self._labels is None:
            into, class_of = self.C.arrows_into(self.x), self._class_of
            self._labels = list(map(self.C.arrow_label, into))
            if len(into) > len(self.keys):  # some class holds two arrows
                self._positions = [0] * len(self.keys)
                for p, a in enumerate(into):
                    self._positions[class_of[a]] |= 1 << p
        if self._positions is not None:
            ideal = sum(itertools.compress(self._positions, _flags(ideal)))  # the classes are disjoint
        return "{" + ", ".join(itertools.compress(self._labels, _flags(ideal))) + "}"


def _surjections(m: int, k: int) -> int:
    """The number of maps from an m-set onto a k-set."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** m for j in range(k + 1))


class _ImageClasses(_ObjectSieves):
    """The classes of a finite-set category, listed without building an
    arrow.

    An arrow's factoring key is its image, so the classes at x are the
    image subsets A of x's carrier that some arrow realizes: the nonempty
    ones up to the largest carrier's size, and the empty one when some
    carrier is empty.  ``keys[i]`` is class i's image as an int mask, bit
    j = the j-th element of x's carrier.  Class A holds surj(|dom|, |A|)
    arrows from each domain.

    Classes are numbered, as on tables, by their first arrow in
    ``C.arrows_into(x)`` (hom-sets in object order, each in the order of
    its image index tuples).  The first arrow of A comes from the first
    domain d of at least |A| elements (of none, for the empty image), and
    sends d's first m - |A| + 1 elements to A's first element (in carrier
    order) and the rest to A's other elements in turn.  So among the
    classes first reached from d, A precedes B when A's first element
    does, or, with equal first elements, when A is smaller (the longer
    run of A's first element meets B's second element), or, with equal
    sizes, when A's other elements come first lexicographically.
    """

    def __init__(self, C, x):
        n = len(C.carrier(x))
        sizes = [len(C.carrier(d)) for d in C.objects]
        ks = range(0 if 0 in sizes else 1, min(n, max(sizes)) + 1)
        count = sum(math.comb(n, k) for k in ks)
        if count > C.hom_cap:
            raise ResourceError(
                f"object {x!r} has {count} image classes, over the hom cap {C.hom_cap}",
                cap_name="homs",
                cap_value=C.hom_cap,
            )
        # the index of the first domain of each image size
        self._first_domain = {k: next(d for d, m in enumerate(sizes) if (m >= k if k else m == 0)) for k in ks}
        bit = [1 << j for j in range(n)]
        keys = []
        for d in sorted(set(self._first_domain.values())):
            if not sizes[d]:
                keys.append(0)  # the empty image
                continue
            own = [k for k in ks if self._first_domain[k] == d]
            for j in range(n):  # by first element, then size, then the other elements
                for k in own:
                    keys.extend(bit[j] + sum(rest) for rest in itertools.combinations(bit[j + 1 :], k - 1))
        super().__init__(C, x, keys)
        self._index = {A: i for i, A in enumerate(keys)}
        by_k = {k: sum(_surjections(m, k) for m in sizes) for k in ks}
        self.sizes = [by_k[A.bit_count()] for A in keys]

    def _elements(self, A: int) -> list:
        carrier = self.C.carrier(self.x)
        return [carrier[j] for j in _bits(A)]

    def rep(self, i):
        image = self._elements(self.keys[i])
        d = self.C.objects[self._first_domain[len(image)]]
        m = len(self.C.carrier(d))
        return FinFunction(d, self.x, tuple(image[:1] * (m - len(image) + 1) + image[1:]))

    @property
    def down(self) -> list:
        # the classes under A are A and those under A less one element,
        # which are found first when classes are taken by size
        if self._down is None:
            keys, index = self.keys, self._index
            down = [0] * len(keys)
            for i in sorted(range(len(keys)), key=lambda i: keys[i].bit_count()):
                A = rest = keys[i]
                mask = 1 << i
                while rest:
                    j = index.get(A ^ (rest & -rest))  # None for the empty image when no class holds it
                    if j is not None:
                        mask |= down[j]
                    rest &= rest - 1
                down[i] = mask
            self._down = down
        return self._down

    @property
    def minimal(self) -> int:
        # the empty image when one is realizable, otherwise the singletons,
        # found without building the lower sets
        least = min(A.bit_count() for A in self.keys)
        return _mask(i for i, A in enumerate(self.keys) if A.bit_count() == least)

    def class_of(self, a):
        if type(a) is not FinFunction or a.cod != self.x:
            return None
        carrier = self.C._carriers.get(a.dom)
        if carrier is None or len(carrier) != len(a.images):
            return None
        index, image = self.C._index[self.x], 0
        for v in a.images:
            j = index.get(v)
            if j is None:
                return None
            image |= 1 << j
        return self._index.get(image)

    def class_map(self, h, at_cod) -> list:
        """The class at y = cod(h) of h[A] for each class A at x, with no
        arrow built or composed.

        Each element j of x's carrier gives the bit of h(j) in y's
        carrier, and h[A] is the OR of those bits over A, read for each
        8-element chunk of x's carrier from a table of that chunk's
        subsets.  h is checked as composing it would: it must be an arrow
        of C out of x whose images lie in y's carrier.
        """
        C, y = self.C, at_cod.x
        C._check_arrow(h)
        if h.dom != self.x or h.cod != y:
            raise StructuralError(f"arrow {h!r} does not run from {self.x!r} to {y!r}")
        index = C._index[y]
        try:
            bits = [1 << index[v] for v in h.images]
        except KeyError as e:
            raise StructuralError(f"image {e.args[0]!r} of {h!r} is not in the carrier of {y!r}") from None
        images = [0] * len(self.keys)
        for lo in range(0, len(bits), 8):
            table = [0]  # table[s] = the image of the subset s of this chunk
            for b in bits[lo : lo + 8]:
                table += [t | b for t in table]
            chunk = map(table.__getitem__, [A >> lo & 255 for A in self.keys])
            images = list(map(operator.or_, images, chunk))
        return list(map(at_cod._index.__getitem__, images))

    def members(self, ideal: int) -> frozenset:
        """The arrows of the classes in ``ideal``; the hom cap bounds how
        many come from one domain."""
        C, x = self.C, self.x
        images = [self._elements(A) for A in itertools.compress(self.keys, _flags(ideal))]
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

    def literal(self, ideal: int) -> str:
        """The sorted labels of the members, which are listed to be labelled."""
        return "{" + ", ".join(sorted(map(self.C.arrow_label, self.members(ideal)))) + "}"


def _down_sets(down, seed: int, cap, obj, out):
    """Add to ``out`` the mask of every down-set containing the down-set
    mask ``seed`` of a finite poset given by the masks of its lower sets
    (``down[i]`` holds i); raise once ``out`` holds more than ``cap``.

    Classes are taken along a linear extension (by the size of their lower
    sets), and each down-set found so far is kept with and without the next
    class whenever the rest of that class's lower set lies in it.
    """
    found = [seed]
    for i in sorted((i for i in range(len(down)) if not seed >> i & 1), key=lambda i: (down[i].bit_count(), i)):
        b, bit = down[i] ^ 1 << i, 1 << i
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

"""Finite categories and their universal-property machinery.

Two backends share one informal protocol (``objects``, ``dom``, ``cod``,
``identity``, ``compose``, ``hom``, ``arrows_into``):

* ``table`` -- objects, arrows and the full composition table are stored
  explicitly; arrows are opaque hashable ids.
* ``finset`` -- objects are finite carrier sets; arrows are total maps
  (:class:`FinFunction`) computed on demand, with hom-set enumeration
  guarded by a configurable cap.

All values are immutable after construction and every operation is a pure
function, so independent candidates in the universal-property searches may
be evaluated in any order; results are deterministic sorted tuples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from .errors import (
    DEFAULT_CANDIDATE_CAP,
    DEFAULT_HOM_CAP,
    DomainError,
    ResourceError,
    StructuralError,
    UniversalPropertyError,
)

ObjId = Hashable
ArrowId = Hashable


def identity_name(x: ObjId) -> str:
    return f"id_{x}"


def _no_composite(g, f) -> StructuralError:
    """The error for a composable pair (g, f) that a table category lacks."""
    return StructuralError(f"composition table has no entry for ({g!r} . {f!r})")


class FinCategory:
    """A finite category with an explicit composition table.

    ``arrows`` maps arrow id to ``(dom, cod)``; ``table`` maps a composable
    pair ``(g, f)`` (g after f) to the composite id.  Construction checks
    referential integrity and composition typing; the categorical laws are
    the business of :func:`validate_category`.  ``all_arrows``, ``hom`` and
    ``arrows_into`` list arrows by label (``str``), sorted once.  The
    constructor keeps the three dicts it is handed, so a caller hands it
    fresh ones; :meth:`from_data` is the checked entry for library callers.
    """

    backend = "table"

    def __init__(self, name, objects, arrows, identity, table):
        self.name = str(name)
        self.objects = tuple(objects)
        self._arrows, self._identity, self._table = arrows, identity, table
        self._sieve_cache: dict = {}
        self._labels = None  # finsite.parsing.label_index, built when text is read
        self._check_structure()
        self._by_label = tuple(sorted(self._arrows, key=str))
        hom: dict = {}
        into: dict = {x: [] for x in self.objects}
        for a in self._by_label:
            d, c = self._arrows[a]
            hom.setdefault((d, c), []).append(a)
            into[c].append(a)
        self._hom = {k: tuple(v) for k, v in hom.items()}
        self._into = {x: tuple(v) for x, v in into.items()}

    def _check_structure(self):
        if len(set(self.objects)) != len(self.objects):
            raise StructuralError(f"duplicate object ids in category {self.name!r}")
        objset = set(self.objects)
        for a, (d, c) in self._arrows.items():
            if d not in objset or c not in objset:
                raise StructuralError(f"arrow {a!r} references unknown object ({d!r} -> {c!r})")
        for x in self.objects:
            if x not in self._identity:
                raise StructuralError(f"no identity arrow recorded for object {x!r}")
            if self._identity[x] not in self._arrows:
                raise StructuralError(f"identity of {x!r} is a dangling arrow id")
        arrows = self._arrows
        for (g, f), h in self._table.items():
            try:
                (fd, fc), (gd, gc), (hd, hc) = arrows[f], arrows[g], arrows[h]
            except KeyError:
                a = next(a for a in (g, f, h) if a not in arrows)
                raise StructuralError(f"composition entry references unknown arrow {a!r}") from None
            if fc != gd:
                raise StructuralError(f"composition ({g!r} . {f!r}) is not composable: cod {fc!r} != dom {gd!r}")
            if (hd, hc) != (fd, gc):
                raise StructuralError(
                    f"composite {h!r} of ({g!r} . {f!r}) is ill-typed: got {hd!r}->{hc!r}, need {fd!r}->{gc!r}"
                )

    @classmethod
    def from_data(cls, name, objects, arrows, compose=()):
        """Build a table category, auto-generating identities.

        ``arrows`` maps non-identity arrow ids to ``(dom, cod)``; user data
        never declares identities (their ids ``id_<object>`` are reserved).
        Unit compositions are filled in automatically.  The arguments are
        copied; an entry that is not a pair raises ``StructuralError``.
        """
        objects, ends, table = tuple(objects), {}, {}
        try:
            for a, (d, c) in dict(arrows).items():
                if isinstance(a, str) and a.startswith("id_"):
                    raise StructuralError(f"arrow id {a!r} uses the reserved identity prefix")
                ends[a] = (d, c)
        except (TypeError, ValueError):
            raise StructuralError(f"the arrows of {name!r} must map each id to a (dom, cod) pair") from None
        try:
            for (g, f), h in dict(compose).items():
                table[(g, f)] = h
        except (TypeError, ValueError):
            raise StructuralError(f"the composition table of {name!r} must map (g, f) pairs to arrows") from None
        for x in objects:
            ends[identity_name(x)] = (x, x)
        return cls._with_units(name, objects, ends, table)

    @classmethod
    def _with_units(cls, name, objects, ends, table):
        """The category whose arrow dict ``ends`` maps each arrow to its
        endpoints, the identity ``id_<x>`` of each object x after the other
        arrows, and whose table is ``table`` with the unit entries added;
        both dicts are kept."""
        identity = {x: identity_name(x) for x in objects}
        for a, (d, c) in ends.items():
            # dangling endpoints are left for the structural check to report
            if d in identity and c in identity:
                table[(a, identity[d])] = a
                table[(identity[c], a)] = a
        return cls(name, objects, ends, identity, table)

    # -- protocol -----------------------------------------------------

    def has_object(self, x) -> bool:
        return x in self._identity

    def has_arrow(self, a) -> bool:
        return a in self._arrows

    def dom(self, a):
        try:
            return self._arrows[a][0]
        except KeyError:
            raise StructuralError(f"unknown arrow {a!r}") from None

    def cod(self, a):
        try:
            return self._arrows[a][1]
        except KeyError:
            raise StructuralError(f"unknown arrow {a!r}") from None

    def identity(self, x):
        try:
            return self._identity[x]
        except KeyError:
            raise StructuralError(f"unknown object {x!r}") from None

    def is_identity(self, a) -> bool:
        return self._identity.get(self.dom(a)) == a

    def compose(self, g, f):
        """g after f."""
        if self.cod(f) != self.dom(g):
            raise StructuralError(f"arrows not composable: cod({f!r}) != dom({g!r})")
        try:
            return self._table[(g, f)]
        except KeyError:
            raise _no_composite(g, f) from None

    def hom(self, x, y):
        for o in (x, y):
            if not self.has_object(o):
                raise StructuralError(f"unknown object {o!r}")
        return self._hom.get((x, y), ())

    def hom_size(self, x, y) -> int:
        return len(self.hom(x, y))

    def arrows_into(self, x):
        try:
            return self._into[x]
        except KeyError:
            raise StructuralError(f"unknown object {x!r}") from None

    def all_arrows(self):
        return self._by_label

    def composable_pairs(self):
        return tuple(self._table)

    def arrow_label(self, a) -> str:
        return str(a)


@dataclass(frozen=True)
class FinFunction:
    """An arrow of a finite-set category: a total map between carriers.

    ``images[i]`` is the image of the i-th element of the domain carrier,
    in the carrier's stored order.
    """

    dom: ObjId
    cod: ObjId
    images: tuple


class FinSetCategory:
    """The category of chosen finite carriers and all maps between them.

    Arrows exist intensionally; ``hom`` materializes a hom-set only when
    its size ``|B|**|A|`` stays under ``hom_cap``.  Composition and
    equality of individual arrows never need enumeration, and neither do
    sieves: ``finsite.sieves`` lists the image classes at an object, whose
    number counts against the same cap.
    """

    backend = "finset"

    def __init__(self, name, carriers: Mapping[ObjId, Sequence], hom_cap: int = DEFAULT_HOM_CAP):
        if isinstance(hom_cap, bool) or not isinstance(hom_cap, int) or hom_cap < 0:
            raise StructuralError(f"the hom cap must be a non-negative integer, got {hom_cap!r}")
        self.name = str(name)
        self.hom_cap = hom_cap
        self._carriers = {}
        for x, elems in carriers.items():
            try:
                elems = tuple(elems)
                distinct = len(set(elems)) == len(elems)
            except TypeError:
                raise StructuralError(f"carrier of {x!r} must be a sequence of hashable elements, got {elems!r}") from None
            if not distinct:
                raise StructuralError(f"carrier of {x!r} has duplicate elements")
            self._carriers[x] = elems
        if not self._carriers:
            raise StructuralError("a finite-set category needs at least one carrier")
        self.objects = tuple(self._carriers)
        self._index = {x: {e: i for i, e in enumerate(t)} for x, t in self._carriers.items()}
        self._elements = {x: frozenset(t) for x, t in self._carriers.items()}
        self._hom_cache: dict = {}
        self._into_cache: dict = {}
        self._sieve_cache: dict = {}
        self._labels = None  # finsite.parsing.label_index, built when text is read

    def has_object(self, x) -> bool:
        return x in self._carriers

    def carrier(self, x) -> tuple:
        try:
            return self._carriers[x]
        except KeyError:
            raise StructuralError(f"unknown object {x!r}") from None

    def _indices(self, x) -> dict:
        try:
            return self._index[x]
        except KeyError:
            raise StructuralError(f"unknown object {x!r}") from None

    def element_index(self, x, e) -> int:
        try:
            return self._indices(x)[e]
        except KeyError:
            raise StructuralError(f"{e!r} is not an element of {x!r}") from None

    def _check_arrow(self, a) -> FinFunction:
        if not isinstance(a, FinFunction):
            raise StructuralError(f"not an arrow of a finite-set category: {a!r}")
        carrier = self._carriers.get(a.dom)
        if carrier is None or a.cod not in self._carriers:
            raise StructuralError(f"arrow {a!r} names an object outside {self.name!r}")
        if len(a.images) != len(carrier):
            raise StructuralError(f"arrow {a!r} does not give one image per element of {a.dom!r}")
        return a

    def dom(self, a):
        return self._check_arrow(a).dom

    def cod(self, a):
        return self._check_arrow(a).cod

    def identity(self, x) -> FinFunction:
        return FinFunction(x, x, self.carrier(x))

    def is_identity(self, a) -> bool:
        a = self._check_arrow(a)
        return a.dom == a.cod and a.images == self._carriers[a.dom]

    def function(self, x, y, mapping: Mapping) -> FinFunction:
        """Arrow x -> y given element-by-element; must be total into y."""
        cx, iy = self.carrier(x), self._indices(y)
        images = []
        for e in cx:
            if e not in mapping:
                raise StructuralError(f"map {x!r}->{y!r} is not total: no image for {e!r}")
            v = mapping[e]
            if v not in iy:
                raise StructuralError(f"image {v!r} is not in the carrier of {y!r}")
            images.append(v)
        return FinFunction(x, y, tuple(images))

    def apply(self, a: FinFunction, e):
        return a.images[self.element_index(a.dom, e)]

    def compose(self, g: FinFunction, f: FinFunction) -> FinFunction:
        g, f = self._check_arrow(g), self._check_arrow(f)
        if f.cod != g.dom:
            raise StructuralError(f"arrows not composable: cod {f.cod!r} != dom {g.dom!r}")
        cod = self._elements[g.cod]
        if not cod.issuperset(g.images):
            bad = next(v for v in g.images if v not in cod)
            raise StructuralError(f"image {bad!r} of {g!r} is not in the carrier of {g.cod!r}")
        idx = self._index[g.dom]
        try:
            return FinFunction(f.dom, g.cod, tuple(g.images[idx[y]] for y in f.images))
        except KeyError as e:
            raise StructuralError(f"image {e.args[0]!r} of {f!r} is not in the carrier of {f.cod!r}") from None

    def hom_size(self, x, y) -> int:
        return len(self.carrier(y)) ** len(self.carrier(x))

    def hom(self, x, y):
        key = (x, y)
        if key not in self._hom_cache:
            n = self.hom_size(x, y)
            if n > self.hom_cap:
                raise ResourceError(
                    f"hom({x!r}, {y!r}) has {n} arrows, over the hom cap {self.hom_cap}",
                    cap_name="homs",
                    cap_value=self.hom_cap,
                )
            cx, cy = self.carrier(x), self.carrier(y)
            self._hom_cache[key] = tuple(
                FinFunction(x, y, images) for images in itertools.product(cy, repeat=len(cx))
            )
        return self._hom_cache[key]

    def arrows_into(self, x):
        if x not in self._into_cache:
            self._into_cache[x] = tuple(
                itertools.chain.from_iterable(self.hom(a, x) for a in self.objects)
            )
        return self._into_cache[x]

    def all_arrows(self):
        return tuple(
            itertools.chain.from_iterable(self.arrows_into(x) for x in self.objects)
        )

    def arrow_label(self, a) -> str:
        a = self._check_arrow(a)
        body = ",".join(map(repr, a.images))
        return f"{a.dom}->{a.cod}[{body}]"


def build_finset_category(carriers, name="finset", hom_cap: int = DEFAULT_HOM_CAP) -> FinSetCategory:
    """Build the finite-set category on the given carriers.

    ``carriers`` is a mapping from object id to a sequence of (hashable)
    elements, or an iterable of ``(id, elements)`` pairs.
    """
    if not isinstance(carriers, Mapping):
        carriers = dict(carriers)
    return FinSetCategory(name, carriers, hom_cap=hom_cap)


# -- functors ---------------------------------------------------------


class Functor:
    """A functor between finite categories: explicit object and arrow maps.

    Equality is pointwise comparison of the maps (same categories, same
    assignments).
    """

    def __init__(self, name, dom, cod, obj_map: Mapping, arr_map: Mapping):
        self.name = str(name)
        self.dom = dom
        self.cod = cod
        self.obj_map = dict(obj_map)
        self.arr_map = dict(arr_map)

    def obj(self, x):
        try:
            return self.obj_map[x]
        except KeyError:
            raise StructuralError(f"functor {self.name!r} has no image for object {x!r}") from None

    def arr(self, a):
        try:
            return self.arr_map[a]
        except KeyError:
            raise StructuralError(f"functor {self.name!r} has no image for arrow {a!r}") from None

    def __eq__(self, other):
        if not isinstance(other, Functor):
            return NotImplemented
        return (
            self.dom is other.dom
            and self.cod is other.cod
            and self.obj_map == other.obj_map
            and self.arr_map == other.arr_map
        )

    def __repr__(self):
        return f"Functor({self.name!r}: {self.dom.name!r} -> {self.cod.name!r})"


def identity_functor(C) -> Functor:
    return Functor(f"id_{C.name}", C, C, {x: x for x in C.objects}, {a: a for a in C.all_arrows()})


# -- cones ------------------------------------------------------------


@dataclass(frozen=True)
class ProductCone:
    """A binary product witness: apex with projections onto the factors."""

    left: ObjId
    right: ObjId
    apex: ObjId
    p1: ArrowId
    p2: ArrowId


# -- validation -------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    law: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple
    checks: int = 0

    def summary(self) -> str:
        if self.ok:
            return f"pass ({self.checks} checks)"
        lines = [f"fail ({len(self.violations)} violations)"]
        lines += [f"  [{v.law}] {v.detail}" for v in self.violations]
        return "\n".join(lines)


def validate_category(C) -> ValidationReport:
    """Check the categorical laws, exhaustively.

    Table backend: the unit laws, totality of composition on composable
    pairs, and associativity on composable triples.  Finset backend: the
    laws hold by construction, as arrows are total maps composed by their
    images, so the check covers what the category stores, in linear time:
    each carrier's element index inverts its carrier tuple, one check per
    carrier.
    """
    if C.backend == "finset":
        violations = [
            Violation("element-index", f"the element index of {x!r} does not invert its carrier")
            for x, elems in C._carriers.items()
            if C._index.get(x) != {e: i for i, e in enumerate(elems)}
        ]
        return ValidationReport(not violations, tuple(violations), len(C._carriers))
    violations = []
    checks = 0
    for x in C.objects:
        i = C.identity(x)
        if C.dom(i) != x or C.cod(i) != x:
            violations.append(Violation("identity-endomorphism", f"id of {x!r} is {i!r}: {C.dom(i)!r}->{C.cod(i)!r}"))
        checks += 1
    arrows = C.all_arrows()
    out = {x: [a for a in arrows if C.dom(a) == x] for x in C.objects}  # the arrows out of each object, by label
    for f in arrows:
        for law, g, h in (
            ("right-unit", f, C.identity(C.dom(f))),
            ("left-unit", C.identity(C.cod(f)), f),
        ):
            checks += 1
            try:
                got = C.compose(g, h)
            except StructuralError:
                violations.append(Violation("totality", f"no composite for ({C.arrow_label(g)} . {C.arrow_label(h)})"))
                continue
            if got != f:
                violations.append(Violation(law, f"{C.arrow_label(g)} . {C.arrow_label(h)} = {C.arrow_label(got)}, expected {C.arrow_label(f)}"))
    composable = [(g, f) for f in arrows for g in out[C.cod(f)]]
    comp = {}
    for g, f in composable:
        checks += 1
        try:
            comp[(g, f)] = C.compose(g, f)
        except StructuralError:
            violations.append(Violation("totality", f"no composite for ({C.arrow_label(g)} . {C.arrow_label(f)})"))
    for g, f in composable:
        if (g, f) not in comp:
            continue
        for h in out[C.cod(g)]:
            if (h, g) not in comp:
                continue
            checks += 1
            left = comp.get((h, comp[(g, f)])) if (h, comp[(g, f)]) in comp else None
            right = comp.get((comp[(h, g)], f)) if (comp[(h, g)], f) in comp else None
            if left is None or right is None:
                continue
            if left != right:
                violations.append(
                    Violation(
                        "associativity",
                        f"h.(g.f) != (h.g).f for h={C.arrow_label(h)}, g={C.arrow_label(g)}, f={C.arrow_label(f)}",
                    )
                )
    return ValidationReport(not violations, tuple(violations), checks)


def validate_functor(F: Functor) -> ValidationReport:
    """Check that a functor preserves endpoints, identities and composition."""
    C, D = F.dom, F.cod
    if C.backend != "table":
        raise StructuralError("functor validation needs a table-backed domain")
    violations = []
    checks = 0
    for x in C.objects:
        if x not in F.obj_map:
            raise StructuralError(f"object map not total: missing {x!r}")
        if not D.has_object(F.obj_map[x]):
            raise StructuralError(f"object map sends {x!r} outside the codomain")
    for a in C.all_arrows():
        if a not in F.arr_map:
            raise StructuralError(f"arrow map not total: missing {a!r}")
    for a in C.all_arrows():
        fa = F.arr_map[a]
        checks += 1
        if D.dom(fa) != F.obj_map[C.dom(a)] or D.cod(fa) != F.obj_map[C.cod(a)]:
            violations.append(Violation("endpoints", f"image of {C.arrow_label(a)} is not parallel to the mapped endpoints"))
    for x in C.objects:
        checks += 1
        if F.arr_map[C.identity(x)] != D.identity(F.obj_map[x]):
            violations.append(Violation("identities", f"image of id_{x!r} is not the identity"))
    for (g, f) in C.composable_pairs():
        checks += 1
        try:
            lhs = F.arr_map[C.compose(g, f)]
            rhs = D.compose(F.arr_map[g], F.arr_map[f])
        except StructuralError as e:
            violations.append(Violation("composition", str(e)))
            continue
        if lhs != rhs:
            violations.append(Violation("composition", f"F(g.f) != F(g).F(f) for g={C.arrow_label(g)}, f={C.arrow_label(f)}"))
    return ValidationReport(not violations, tuple(violations), checks)


# -- terminal objects and products ------------------------------------


def terminal_objects(C) -> frozenset:
    """Objects admitting exactly one arrow from every object."""
    return frozenset(t for t in C.objects if all(C.hom_size(x, t) == 1 for x in C.objects))


def bang(C, x, t):
    """The unique arrow x -> t into a terminal object."""
    if C.backend == "finset":
        ct = C.carrier(t)
        if len(ct) != 1:
            raise UniversalPropertyError(f"{t!r} is not terminal (carrier size {len(ct)})")
        return FinFunction(x, t, tuple(ct[0] for _ in C.carrier(x)))
    h = C.hom(x, t)
    if len(h) != 1:
        raise UniversalPropertyError(f"no unique arrow {x!r} -> {t!r} (found {len(h)})")
    return h[0]


def _search_estimate(C, A, B):
    inner = sum(C.hom_size(x, A) * C.hom_size(x, B) for x in C.objects)
    cones = sum(C.hom_size(p, A) * C.hom_size(p, B) for p in C.objects)
    return cones * max(inner, 1)


def search_product_cones(C, A, B, candidate_cap: int = DEFAULT_CANDIDATE_CAP):
    """All product cones over (A, B), by exhaustive universal-property search."""
    est = _search_estimate(C, A, B)
    if est > candidate_cap:
        raise ResourceError(
            f"product search over ~{est} candidates exceeds the candidate cap {candidate_cap}",
            cap_name="candidates",
            cap_value=candidate_cap,
        )
    out = []
    for p in C.objects:
        for p1 in C.hom(p, A):
            for p2 in C.hom(p, B):
                if _is_product_cone(C, A, B, p, p1, p2):
                    out.append(ProductCone(A, B, p, p1, p2))
    return tuple(sorted(out, key=lambda c: (str(c.apex), str(c.p1), str(c.p2))))


def _is_product_cone(C, A, B, p, p1, p2):
    """Whether m -> (p1.m, p2.m) maps hom(x, p) one-to-one onto
    hom(x, A) x hom(x, B) for every object x."""
    for x in C.objects:
        homs = C.hom(x, p)
        pairs = {(C.compose(p1, m), C.compose(p2, m)) for m in homs}
        if not len(pairs) == len(homs) == C.hom_size(x, A) * C.hom_size(x, B):
            return False
    return True


def canonical_finset_product(C: FinSetCategory, A, B) -> ProductCone:
    """The cartesian-product cone in a finite-set category.

    The apex must be present among the carriers as the literal set of
    pairs ``(a, b)``; the projections are the coordinate maps.
    """
    pairs = [(a, b) for a in C.carrier(A) for b in C.carrier(B)]
    want = set(pairs)
    apexes = [x for x in C.objects if set(C.carrier(x)) == want and len(C.carrier(x)) == len(pairs)]
    if not apexes:
        raise StructuralError(
            f"no carrier equals the pair set of {A!r} x {B!r}; add it to the carrier list"
        )
    apex = sorted(apexes, key=str)[0]
    p1 = FinFunction(apex, A, tuple(e[0] for e in C.carrier(apex)))
    p2 = FinFunction(apex, B, tuple(e[1] for e in C.carrier(apex)))
    return ProductCone(A, B, apex, p1, p2)


def binary_product(C, A, B, candidate_cap: int = DEFAULT_CANDIDATE_CAP):
    """Product cones over (A, B): exhaustive search for table categories,
    the canonical cartesian cone for finite-set categories."""
    for o in (A, B):
        if not C.has_object(o):
            raise StructuralError(f"unknown object {o!r}")
    if C.backend == "finset":
        return (canonical_finset_product(C, A, B),)
    return search_product_cones(C, A, B, candidate_cap)


def pair(C, cone: ProductCone, f, g):
    """The mediating arrow into a product cone for the pair (f, g)."""
    if C.dom(f) != C.dom(g):
        raise StructuralError("pairing needs arrows with a common domain")
    if C.cod(f) != cone.left or C.cod(g) != cone.right:
        raise StructuralError("pairing arrows must target the cone's factors")
    x = C.dom(f)
    if C.backend == "finset":
        idx = C._index.get(cone.apex, {})
        images = []
        ok = True
        for e in C.carrier(x):
            v = (C.apply(f, e), C.apply(g, e))
            if v not in idx:
                ok = False
                break
            images.append(v)
        if ok:
            return FinFunction(x, cone.apex, tuple(images))
    meds = [
        m
        for m in C.hom(x, cone.apex)
        if C.compose(cone.p1, m) == f and C.compose(cone.p2, m) == g
    ]
    if len(meds) != 1:
        raise UniversalPropertyError(
            f"expected a unique mediating arrow {x!r} -> {cone.apex!r}, found {len(meds)}"
        )
    return meds[0]


# -- builders ---------------------------------------------------------


def build_divisor_poset(N: int, candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> FinCategory:
    """The divisors of N ordered by divisibility, as a thin category.

    Exactly one arrow ``k -> n`` for each pair k | n; products are gcds
    and coproducts are lcms.  Raises the candidate cap before building
    when factoring N needs a trial divisor past it, or when the table
    holds more entries, one per chain k | m | n: prod C(e + 3, 3) over the
    exponents e of N's primes.
    """
    if isinstance(N, bool) or not isinstance(N, int) or N < 1:
        raise DomainError(f"divisor poset needs a positive integer, got {N!r}")
    exponents, rest, p = {}, N, 2
    while p * p <= rest and p <= candidate_cap:
        while rest % p == 0:
            rest //= p
            exponents[p] = exponents.get(p, 0) + 1
        p += 1
    if p * p > rest > 1:
        exponents[rest] = 1
    pairs = math.prod(math.comb(e + 3, 3) for e in exponents.values())
    if p * p <= rest or pairs > candidate_cap:
        what = f"factoring {N} needs trial divisors past" if p * p <= rest else f"D_{N} has {pairs} composable pairs, over"
        raise ResourceError(f"{what} the candidate cap {candidate_cap}", cap_name="candidates", cap_value=candidate_cap)
    divs = [1]
    for p, e in exponents.items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    divs.sort()
    above = {k: [n for n in divs if n % k == 0 and n != k] for k in divs}
    arrows = {f"{k}|{n}": (k, n) for n in divs for k in divs if k != n and n % k == 0}
    compose = {(f"{m}|{n}", f"{k}|{m}"): f"{k}|{n}" for k in divs for m in above[k] for n in above[m]}
    return FinCategory.from_data(f"D_{N}", divs, arrows, compose)


def build_product_category(C: FinCategory, D: FinCategory, candidate_cap: int = DEFAULT_CANDIDATE_CAP):
    """The product of two table categories, with its projection functors.

    Objects and arrows are componentwise pairs; returns ``(P, p1, p2)``.
    """
    for cat in (C, D):
        if cat.backend != "table":
            raise StructuralError("product categories are built over table backends")
    n_arr = len(C.all_arrows()) * len(D.all_arrows())
    n_tab = len(C.composable_pairs()) * len(D.composable_pairs())
    if max(n_arr, n_tab) > candidate_cap:
        raise ResourceError(
            f"product category with {n_arr} arrows / {n_tab} composites exceeds the candidate cap {candidate_cap}",
            cap_name="candidates",
            cap_value=candidate_cap,
        )
    objects = [(x, y) for x in C.objects for y in D.objects]
    arrows = {
        (a, b): ((C.dom(a), D.dom(b)), (C.cod(a), D.cod(b)))
        for a in C.all_arrows()
        for b in D.all_arrows()
    }
    identity = {(x, y): (C.identity(x), D.identity(y)) for (x, y) in objects}
    table = {}
    for (g1, f1), h1 in C._table.items():
        for (g2, f2), h2 in D._table.items():
            table[((g1, g2), (f1, f2))] = (h1, h2)
    P = FinCategory(f"{C.name}x{D.name}", objects, arrows, identity, table)
    p1 = Functor("p1", P, C, {o: o[0] for o in objects}, {a: a[0] for a in arrows})
    p2 = Functor("p2", P, D, {o: o[1] for o in objects}, {a: a[1] for a in arrows})
    return P, p1, p2


def relabel_category(C: FinCategory, obj_fn=str, arr_fn=None) -> FinCategory:
    """A copy of a table category with renamed object and arrow ids."""
    if arr_fn is None:
        def arr_fn(a):
            return str(a)
    objs = {x: obj_fn(x) for x in C.objects}
    arrs = {a: arr_fn(a) for a in C.all_arrows()}
    if len(set(objs.values())) != len(objs) or len(set(arrs.values())) != len(arrs):
        raise StructuralError("relabeling must be injective")
    return FinCategory(
        C.name,
        [objs[x] for x in C.objects],
        {arrs[a]: (objs[C.dom(a)], objs[C.cod(a)]) for a in C.all_arrows()},
        {objs[x]: arrs[C.identity(x)] for x in C.objects},
        {(arrs[g], arrs[f]): arrs[h] for (g, f), h in C._table.items()},
    )


def build_lcm_functor(P: FinCategory, C: FinCategory) -> Functor:
    """The least-common-multiple map as a functor from C x C to C.

    Requires a divisor-style thin category with integer-like object ids.
    """
    def as_int(x):
        try:
            return int(x)
        except (TypeError, ValueError):
            raise StructuralError(f"lcm functor needs integer object ids, got {x!r}") from None

    obj_map = {}
    for o in P.objects:
        a, b = o
        v = math.lcm(as_int(a), as_int(b))
        target = next((x for x in C.objects if as_int(x) == v), None)
        if target is None:
            raise StructuralError(f"lcm({a!r}, {b!r}) = {v} is not an object of {C.name!r}")
        obj_map[o] = target
    arr_map = {}
    for a in P.all_arrows():
        s, t = obj_map[P.dom(a)], obj_map[P.cod(a)]
        h = C.hom(s, t)
        if len(h) != 1:
            raise StructuralError(f"lcm functor needs a thin codomain; hom({s!r},{t!r}) has {len(h)} arrows")
        arr_map[a] = h[0]
    return Functor("lcm", P, C, obj_map, arr_map)


def divisor_inclusion_functor(Csub: FinCategory, C: FinCategory) -> Functor:
    """Inclusion of one divisor poset into a larger one (shared ids)."""
    for x in Csub.objects:
        if not C.has_object(x):
            raise StructuralError(f"object {x!r} of {Csub.name!r} is not in {C.name!r}")
    arr_map = {}
    for a in Csub.all_arrows():
        if Csub.is_identity(a):
            arr_map[a] = C.identity(Csub.dom(a))
        elif C.has_arrow(a):
            arr_map[a] = a
        else:
            raise StructuralError(f"arrow {a!r} of {Csub.name!r} is not in {C.name!r}")
    return Functor(f"incl_{Csub.name}", Csub, C, {x: x for x in Csub.objects}, arr_map)

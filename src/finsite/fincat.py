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
import random
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


class FinCategory:
    """A finite category with an explicit composition table.

    ``arrows`` maps arrow id to ``(dom, cod)``; ``table`` maps a composable
    pair ``(g, f)`` (g after f) to the composite id.  Construction checks
    referential integrity and composition typing; the categorical laws are
    the business of :func:`validate_category`.
    """

    backend = "table"

    def __init__(self, name, objects, arrows, identity, table):
        self.name = str(name)
        self.objects = tuple(objects)
        self._arrows = dict(arrows)
        self._identity = dict(identity)
        self._table = dict(table)
        self._sieve_cache: dict = {}
        self._check_structure()
        self._hom: dict = {}
        for a in sorted(self._arrows, key=str):
            d, c = self._arrows[a]
            self._hom.setdefault((d, c), []).append(a)
        self._hom = {k: tuple(v) for k, v in self._hom.items()}
        self._into = {
            x: tuple(a for a in sorted(self._arrows, key=str) if self._arrows[a][1] == x)
            for x in self.objects
        }

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
        for (g, f), h in self._table.items():
            for a in (g, f, h):
                if a not in self._arrows:
                    raise StructuralError(f"composition entry references unknown arrow {a!r}")
            fd, fc = self._arrows[f]
            gd, gc = self._arrows[g]
            hd, hc = self._arrows[h]
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
        Unit compositions are filled in automatically.
        """
        objects = tuple(objects)
        arrows = dict(arrows)
        for a in arrows:
            if isinstance(a, str) and a.startswith("id_"):
                raise StructuralError(f"arrow id {a!r} uses the reserved identity prefix")
        identity = {}
        for x in objects:
            ida = identity_name(x)
            if ida in arrows:
                raise StructuralError(f"reserved identity id {ida!r} already declared")
            arrows[ida] = (x, x)
            identity[x] = ida
        table = dict(compose)
        for a, (d, c) in arrows.items():
            # dangling endpoints are left for the structural check to report
            if d in identity and c in identity:
                table[(a, identity[d])] = a
                table[(identity[c], a)] = a
        return cls(name, objects, arrows, identity, table)

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
            raise StructuralError(f"composition table has no entry for ({g!r} . {f!r})") from None

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
        return tuple(sorted(self._arrows, key=str))

    def composable_pairs(self):
        return tuple(self._table)

    def arrow_label(self, a) -> str:
        return str(a)

    def factoring_key(self, a) -> frozenset:
        """The sieve a generates: a factors through b iff key(a) <= key(b)."""
        return frozenset(self.compose(a, g) for g in self.arrows_into(self.dom(a)))


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
    equality of individual arrows never need enumeration.
    """

    backend = "finset"

    def __init__(self, name, carriers: Mapping[ObjId, Sequence], hom_cap: int = DEFAULT_HOM_CAP):
        self.name = str(name)
        self.hom_cap = int(hom_cap)
        self._carriers = {}
        for x, elems in carriers.items():
            elems = tuple(elems)
            if len(set(elems)) != len(elems):
                raise StructuralError(f"carrier of {x!r} has duplicate elements")
            self._carriers[x] = elems
        if not self._carriers:
            raise StructuralError("a finite-set category needs at least one carrier")
        self.objects = tuple(self._carriers)
        self._index = {x: {e: i for i, e in enumerate(t)} for x, t in self._carriers.items()}
        self._hom_cache: dict = {}
        self._into_cache: dict = {}
        self._sieve_cache: dict = {}

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
        body = ",".join(repr(v) for v in a.images)
        return f"{a.dom}->{a.cod}[{body}]"

    def factoring_key(self, a) -> frozenset:
        """The image of a: a factors through b iff key(a) <= key(b)."""
        return frozenset(self._check_arrow(a).images)


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


# -- cones and paths --------------------------------------------------


@dataclass(frozen=True)
class ProductCone:
    """A binary product witness: apex with projections onto the factors."""

    left: ObjId
    right: ObjId
    apex: ObjId
    p1: ArrowId
    p2: ArrowId


@dataclass(frozen=True)
class CoproductCone:
    """A binary coproduct witness: apex with injections from the factors."""

    left: ObjId
    right: ObjId
    apex: ObjId
    i1: ArrowId
    i2: ArrowId


@dataclass(frozen=True)
class Path:
    """A composable chain of arrows; an empty path must name its object."""

    arrows: tuple = ()
    at_object: ObjId | None = None

    def __post_init__(self):
        if not self.arrows and self.at_object is None:
            raise StructuralError("empty path must state its object")


def path_start(C, p: Path):
    return p.at_object if not p.arrows else C.dom(p.arrows[0])


def path_end(C, p: Path):
    return p.at_object if not p.arrows else C.cod(p.arrows[-1])


def path_composite(C, p: Path):
    """Fold a path into a single arrow (identity for the empty path)."""
    if not p.arrows:
        return C.identity(p.at_object)
    out = p.arrows[0]
    for a in p.arrows[1:]:
        out = C.compose(a, out)
    return out


def check_commutes(C, p: Path, q: Path) -> bool:
    """Whether two parallel paths compose to the same arrow."""
    if path_start(C, p) != path_start(C, q) or path_end(C, p) != path_end(C, q):
        raise StructuralError("paths do not share start and end objects")
    return path_composite(C, p) == path_composite(C, q)


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
    seed: int | None = None

    def summary(self) -> str:
        if self.ok:
            return f"pass ({self.checks} checks)"
        lines = [f"fail ({len(self.violations)} violations)"]
        lines += [f"  [{v.law}] {v.detail}" for v in self.violations]
        return "\n".join(lines)


def validate_category(C, seed: int = 0, spot_triples: int = 1000) -> ValidationReport:
    """Check the categorical laws.

    Table backend: exhaustive over unit laws, totality of composition on
    composable pairs, and associativity on composable triples.  Finset
    backend: laws hold by construction; a seeded random spot check samples
    ``spot_triples`` composable triples as a guard against representation
    bugs.
    """
    if C.backend == "finset":
        return _validate_finset(C, seed, spot_triples)
    violations = []
    checks = 0
    for x in C.objects:
        i = C.identity(x)
        if C.dom(i) != x or C.cod(i) != x:
            violations.append(Violation("identity-endomorphism", f"id of {x!r} is {i!r}: {C.dom(i)!r}->{C.cod(i)!r}"))
        checks += 1
    arrows = C.all_arrows()
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
    composable = [(g, f) for f in arrows for g in arrows if C.cod(f) == C.dom(g)]
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
        for h in arrows:
            if C.dom(h) != C.cod(g) or (h, g) not in comp:
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


def _validate_finset(C, seed, spot_triples):
    rng = random.Random(seed)
    objs = C.objects
    violations = []
    checks = 0

    def random_arrow(x, y):
        cy = C.carrier(y)
        return FinFunction(x, y, tuple(rng.choice(cy) for _ in C.carrier(x)))

    nonempty = [x for x in objs if C.carrier(x)]
    for _ in range(spot_triples):
        if not nonempty:
            break
        a, b, c, d = (rng.choice(objs) for _ in range(4))
        if not (C.carrier(b) and C.carrier(c) and C.carrier(d)):
            continue
        f, g, h = random_arrow(a, b), random_arrow(b, c), random_arrow(c, d)
        checks += 1
        if C.compose(h, C.compose(g, f)) != C.compose(C.compose(h, g), f):
            violations.append(Violation("associativity", f"spot check failed on {C.arrow_label(f)}, {C.arrow_label(g)}, {C.arrow_label(h)}"))
        if C.compose(f, C.identity(a)) != f or C.compose(C.identity(b), f) != f:
            violations.append(Violation("unit", f"spot check failed on {C.arrow_label(f)}"))
    return ValidationReport(not violations, tuple(violations), checks, seed=seed)


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


# -- terminal objects, products, coproducts ---------------------------


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


class _Opposite:
    """The opposite of a category, as far as the cone search needs it."""

    def __init__(self, C):
        self.objects = C.objects
        self._C = C

    def hom(self, x, y):
        return self._C.hom(y, x)

    def hom_size(self, x, y) -> int:
        return self._C.hom_size(y, x)

    def compose(self, g, f):
        return self._C.compose(f, g)


def _search_estimate(C, A, B):
    inner = sum(C.hom_size(x, A) * C.hom_size(x, B) for x in C.objects)
    cones = sum(C.hom_size(p, A) * C.hom_size(p, B) for p in C.objects)
    return cones * max(inner, 1)


def search_product_cones(C, A, B, candidate_cap: int = DEFAULT_CANDIDATE_CAP):
    """All product cones over (A, B), by exhaustive universal-property search."""
    return _search_cones(C, A, B, candidate_cap, "product")


def _search_cones(C, A, B, candidate_cap, what):
    est = _search_estimate(C, A, B)
    if est > candidate_cap:
        raise ResourceError(
            f"{what} search over ~{est} candidates exceeds the candidate cap {candidate_cap}",
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
    for x in C.objects:
        for f in C.hom(x, A):
            for g in C.hom(x, B):
                n = sum(1 for m in C.hom(x, p) if C.compose(p1, m) == f and C.compose(p2, m) == g)
                if n != 1:
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


def binary_coproduct(C, A, B, candidate_cap: int = DEFAULT_CANDIDATE_CAP):
    """Coproduct cones over (A, B): the product cones of the opposite
    category, found by the same search on both backends."""
    for o in (A, B):
        if not C.has_object(o):
            raise StructuralError(f"unknown object {o!r}")
    cones = _search_cones(_Opposite(C), A, B, candidate_cap, "coproduct")
    return tuple(CoproductCone(A, B, c.apex, c.p1, c.p2) for c in cones)


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


def build_divisor_poset(N: int) -> FinCategory:
    """The divisors of N ordered by divisibility, as a thin category.

    Exactly one arrow ``k -> n`` for each pair k | n; products are gcds
    and coproducts are lcms.
    """
    if not isinstance(N, int) or N < 1:
        raise DomainError(f"divisor poset needs a positive integer, got {N!r}")
    divs = [k for k in range(1, N + 1) if N % k == 0]
    arrows = {}
    for n in divs:
        for k in divs:
            if k != n and n % k == 0:
                arrows[f"{k}|{n}"] = (k, n)
    compose = {}
    for k in divs:
        for m in divs:
            if m % k or k == m:
                continue
            for n in divs:
                if n % m or m == n or k == n:
                    continue
                compose[(f"{m}|{n}", f"{k}|{m}")] = f"{k}|{n}"
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

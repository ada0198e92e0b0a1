"""Topological monoid and group objects: continuity of the structure maps.

Two distinct readings are exposed and never conflated:

* morphism level -- the multiplication and inverse of a witness must be
  continuous once the product carrier carries the localized topology
  ``p1*(J(G)) meet p2*(J(G))`` (:func:`is_gtop_algebraic_object`);
* functor level -- a multiplication functor ``C x C -> C`` must be
  associative, unital, and cover-preserving, optionally together with a
  commuting submonoid square (:func:`is_gtop_functor_monoid`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import GroupObjectWitness
from .continuity import (
    CoverPreservationVerdict,
    LocalTopology,
    initial_local_topology,
    is_continuous_local,
    is_cover_preserving,
    localize,
)
from .errors import StructuralError
from .fincat import Functor, ProductCone
from .gtopology import GrothendieckTopology
from .sieves import Sieve


def product_local_topology(C, cone: ProductCone, L: LocalTopology) -> LocalTopology:
    """The localized topology on a product carrier: the initial topology
    along the two projections, each carrying L."""
    if cone.left != L.base or cone.right != L.base:
        raise StructuralError("cone projections must target the local topology's base")
    return initial_local_topology(C, cone.apex, [(cone.p1, L), (cone.p2, L)])


@dataclass(frozen=True)
class GTopReport:
    """Continuity obligations for one witness under one topology."""

    witness: object
    topology: str
    mu_ok: bool
    mu_witness: Sieve | None
    zeta_ok: bool | None
    zeta_witness: Sieve | None
    product_local: LocalTopology

    @property
    def ok(self) -> bool:
        return self.mu_ok and (self.zeta_ok is None or self.zeta_ok)


def is_gtop_algebraic_object(C, w, J: GrothendieckTopology) -> GTopReport:
    """Whether a monoid/group witness has continuous structure maps.

    The mu obligation compares the product-carrier topology against the
    pullback of J(G) along mu; the zeta obligation (group witnesses only)
    is ordinary continuity of the inverse at G.
    """
    if J.category is not C:
        raise StructuralError("topology lives on a different category")
    G = w.carrier
    LG = localize(J, G)
    PL = product_local_topology(C, w.cone_gg, LG)
    mu_v = is_continuous_local(C, w.mu, PL, LG)
    zeta_ok = zeta_witness = None
    if isinstance(w, GroupObjectWitness):
        zeta_v = is_continuous_local(C, w.zeta, LG, LG)
        zeta_ok, zeta_witness = zeta_v.ok, zeta_v.witness
    return GTopReport(
        witness=w,
        topology=J.name,
        mu_ok=mu_v.ok,
        mu_witness=mu_v.witness,
        zeta_ok=zeta_ok,
        zeta_witness=zeta_witness,
        product_local=PL,
    )


@dataclass(frozen=True)
class FunctorMonoidReport:
    """Functor-level verdict: associativity, unit, cover preservation,
    and (optionally) the submonoid square."""

    associative: bool
    assoc_witness: tuple | None
    unital: bool
    unit_witness: object | None
    cover_preserving: CoverPreservationVerdict
    square: bool | None
    square_witness: object | None

    @property
    def ok(self) -> bool:
        return (
            self.associative
            and self.unital
            and self.cover_preserving.ok
            and (self.square is None or self.square)
        )


def _functor_associative(mul: Functor, C):
    """Pointwise associativity of the object and arrow maps; on failure
    the first triple in ``C.objects`` or ``C.all_arrows()`` order.

    The arrow map is read once, as one row of arrow numbers per arrow:
    ``rows[u][v]`` numbers mul(u, v).  Then (u.v).w = u.(v.w) for every w
    iff the row of u.v equals the row of v read through the row of u.
    """
    for a in C.objects:
        for b in C.objects:
            for c in C.objects:
                if mul.obj((mul.obj((a, b)), c)) != mul.obj((a, mul.obj((b, c)))):
                    return False, (a, b, c)
    arrows = C.all_arrows()
    number = {u: i for i, u in enumerate(arrows)}
    try:
        rows = [tuple(number[mul.arr((u, v))] for v in arrows) for u in arrows]
    except KeyError as e:
        raise StructuralError(f"functor {mul.name!r} sends a pair of arrows to {e.args[0]!r}, not an arrow of {C.name!r}") from None
    for u, row_u in zip(arrows, rows):
        for j, row_v in enumerate(rows):
            left, right = rows[row_u[j]], tuple(map(row_u.__getitem__, row_v))
            if left != right:
                k = next(k for k, (a, b) in enumerate(zip(left, right)) if a != b)
                return False, (u, arrows[j], arrows[k])
    return True, None


def _functor_unital(mul: Functor, C, unit):
    idu = C.identity(unit)
    for a in C.objects:
        if mul.obj((unit, a)) != a or mul.obj((a, unit)) != a:
            return False, a
    for u in C.all_arrows():
        if mul.arr((idu, u)) != u or mul.arr((u, idu)) != u:
            return False, u
    return True, None


def is_gtop_functor_monoid(
    mul: Functor,
    unit,
    Jprod: GrothendieckTopology,
    Jcod: GrothendieckTopology,
    inclusion: Functor | None = None,
    sub_mul: Functor | None = None,
) -> FunctorMonoidReport:
    """Check a multiplication functor P -> C (P the product category).

    ``unit`` is an object of C acting as two-sided unit.  When an
    inclusion i and the sub-multiplication are supplied, also checks the
    square mul . (i x i) = i . sub_mul pointwise.
    """
    P, C = mul.dom, mul.cod
    if Jprod.category is not P or Jcod.category is not C:
        raise StructuralError("topologies do not match the functor's categories")
    if not C.has_object(unit):
        raise StructuralError(f"unit {unit!r} is not an object of {C.name!r}")
    assoc, assoc_w = _functor_associative(mul, C)
    unital, unit_w = _functor_unital(mul, C, unit)
    cover = is_cover_preserving(mul, Jprod, Jcod)
    square = square_w = None
    if inclusion is not None:
        if sub_mul is None:
            raise StructuralError("a submonoid check needs both the inclusion and its multiplication")
        square, square_w = _submonoid_square(mul, inclusion, sub_mul)
    return FunctorMonoidReport(assoc, assoc_w, unital, unit_w, cover, square, square_w)


def _submonoid_square(mul: Functor, incl: Functor, sub_mul: Functor):
    """mul . (i x i) = i . sub_mul, object- and arrow-pointwise."""
    Psub = sub_mul.dom
    for o in Psub.objects:
        a, b = o
        if mul.obj((incl.obj(a), incl.obj(b))) != incl.obj(sub_mul.obj(o)):
            return False, o
    for ar in Psub.all_arrows():
        u, v = ar
        if mul.arr((incl.arr(u), incl.arr(v))) != incl.arr(sub_mul.arr(ar)):
            return False, ar
    return True, None

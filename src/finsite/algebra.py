"""Monoid, group, and abelian group objects inside a finite category.

A witness packages a carrier G with a multiplication mu : GxG -> G, a
unit eta : 1 -> G (1 terminal), and for groups an inverse zeta : G -> G,
together with the chosen product cones for GxG and (GxG)xG.  The diagonal
delta, the twist tau, and all comparison arrows are computed from the
cones by pairing, never supplied by hand.

Checks cascade: the group check first runs the monoid check, the abelian
check first runs the group check, and a failed stage is reported as the
verdict rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DEFAULT_CANDIDATE_CAP,
    ResourceError,
    StructuralError,
)
from .fincat import (
    ProductCone,
    bang,
    binary_product,
    pair,
    terminal_objects,
)


@dataclass(frozen=True)
class MonoidObjectWitness:
    carrier: object
    mu: object
    eta: object
    terminal: object
    cone_gg: ProductCone
    cone_ggg: ProductCone


@dataclass(frozen=True)
class GroupObjectWitness(MonoidObjectWitness):
    zeta: object


@dataclass(frozen=True)
class HomWitness:
    """A candidate homomorphism between two algebraic-object witnesses."""

    source: object
    target: object
    arrow: object


@dataclass(frozen=True)
class AlgebraVerdict:
    ok: bool
    diagram: str | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _unique_terminal(C):
    ts = terminal_objects(C)
    if not ts:
        raise StructuralError(f"category {C.name!r} has no terminal object")
    return sorted(ts, key=str)[0]


def _pick_unique(C, x, y, role):
    h = C.hom(x, y)
    if len(h) != 1:
        raise StructuralError(
            f"{role} must be given explicitly: hom({x!r}, {y!r}) has {len(h)} arrows"
        )
    return h[0]


def monoid_witness(
    C,
    G,
    mu=None,
    eta=None,
    terminal=None,
    cone_gg: ProductCone | None = None,
    cone_ggg: ProductCone | None = None,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
) -> MonoidObjectWitness:
    """Assemble a monoid-object witness, resolving omitted pieces.

    Cones default to the first product cone in canonical order (canonical
    construction for the finset backend); mu and eta may be omitted only
    when the relevant hom-set is a singleton.
    """
    if not C.has_object(G):
        raise StructuralError(f"unknown carrier {G!r}")
    if terminal is None:
        terminal = _unique_terminal(C)
    if cone_gg is None:
        cones = binary_product(C, G, G, candidate_cap)
        if not cones:
            raise StructuralError(f"no product cone for ({G!r}, {G!r})")
        cone_gg = cones[0]
    if cone_ggg is None:
        cones = binary_product(C, cone_gg.apex, G, candidate_cap)
        if not cones:
            raise StructuralError(f"no product cone for ({cone_gg.apex!r}, {G!r})")
        cone_ggg = cones[0]
    if mu is None:
        mu = _pick_unique(C, cone_gg.apex, G, "mu")
    if eta is None:
        eta = _pick_unique(C, terminal, G, "eta")
    if C.dom(mu) != cone_gg.apex or C.cod(mu) != G:
        raise StructuralError(f"mu must be an arrow {cone_gg.apex!r} -> {G!r}")
    if C.dom(eta) != terminal or C.cod(eta) != G:
        raise StructuralError(f"eta must be an arrow {terminal!r} -> {G!r}")
    return MonoidObjectWitness(G, mu, eta, terminal, cone_gg, cone_ggg)


def group_witness(C, G, mu=None, eta=None, zeta=None, **kwargs) -> GroupObjectWitness:
    m = monoid_witness(C, G, mu=mu, eta=eta, **kwargs)
    if zeta is None:
        zeta = _pick_unique(C, G, G, "zeta")
    if C.dom(zeta) != G or C.cod(zeta) != G:
        raise StructuralError(f"zeta must be an endomorphism of {G!r}")
    return GroupObjectWitness(**vars(m), zeta=zeta)


def _one_times_mu(C, w: MonoidObjectWitness):
    """(a,(b,c)) |-> (a, mu(b,c)) as an arrow out of the (GxG)xG apex,
    re-associating through pairing."""
    gg, ggg = w.cone_gg, w.cone_ggg
    first = C.compose(gg.p1, ggg.p1)
    inner = pair(C, gg, C.compose(gg.p2, ggg.p1), ggg.p2)
    return pair(C, gg, first, C.compose(w.mu, inner))


def _mu_times_one(C, w: MonoidObjectWitness):
    gg, ggg = w.cone_gg, w.cone_ggg
    return pair(C, gg, C.compose(w.mu, ggg.p1), ggg.p2)


def check_monoid_object(C, w: MonoidObjectWitness) -> AlgebraVerdict:
    """Associativity square and both unit laws.

    The unit triangles are checked in their pairing form: composing mu
    with <eta.!, id> and <id, eta.!> must give the identity on the
    carrier.
    """
    G = w.carrier
    if C.dom(w.mu) != w.cone_gg.apex or C.cod(w.mu) != G:
        raise StructuralError("mu does not match the chosen product cone")
    if C.cod(w.eta) != G:
        raise StructuralError("eta does not land in the carrier")
    if C.hom_size(G, w.terminal) != 1 or C.dom(w.eta) != w.terminal:
        raise StructuralError(f"{w.terminal!r} is not terminal for the witness")
    lhs = C.compose(w.mu, _mu_times_one(C, w))
    rhs = C.compose(w.mu, _one_times_mu(C, w))
    if lhs != rhs:
        return AlgebraVerdict(
            False,
            "associativity",
            f"mu.(mu x 1) = {C.arrow_label(lhs)} but mu.(1 x mu) = {C.arrow_label(rhs)}",
        )
    ident = C.identity(G)
    unit = C.compose(w.eta, bang(C, G, w.terminal))
    left = C.compose(w.mu, pair(C, w.cone_gg, unit, ident))
    if left != ident:
        return AlgebraVerdict(False, "left-unit", f"mu.<eta.!, 1> = {C.arrow_label(left)}")
    right = C.compose(w.mu, pair(C, w.cone_gg, ident, unit))
    if right != ident:
        return AlgebraVerdict(False, "right-unit", f"mu.<1, eta.!> = {C.arrow_label(right)}")
    return AlgebraVerdict(True)


def delta_arrow(C, w: MonoidObjectWitness):
    """The diagonal: the unique arrow with both projections the identity."""
    ident = C.identity(w.carrier)
    return pair(C, w.cone_gg, ident, ident)


def check_group_object(C, w: GroupObjectWitness) -> AlgebraVerdict:
    """Monoid laws plus the inverse square mu.(1 x zeta).delta = eta.!"""
    base = check_monoid_object(C, w)
    if not base.ok:
        return base
    G = w.carrier
    if C.dom(w.zeta) != G or C.cod(w.zeta) != G:
        raise StructuralError("zeta is not an endomorphism of the carrier")
    delta = delta_arrow(C, w)
    one_x_zeta = pair(C, w.cone_gg, w.cone_gg.p1, C.compose(w.zeta, w.cone_gg.p2))
    lhs = C.compose(w.mu, C.compose(one_x_zeta, delta))
    rhs = C.compose(w.eta, bang(C, G, w.terminal))
    if lhs != rhs:
        return AlgebraVerdict(
            False,
            "inverse",
            f"mu.(1 x zeta).delta = {C.arrow_label(lhs)} but eta.! = {C.arrow_label(rhs)}",
        )
    return AlgebraVerdict(True)


def twist_arrow(C, w: MonoidObjectWitness):
    """The swap on GxG, paired from the projections in reverse order."""
    return pair(C, w.cone_gg, w.cone_gg.p2, w.cone_gg.p1)


def check_abelian_group_object(C, w: GroupObjectWitness) -> AlgebraVerdict:
    base = check_group_object(C, w)
    if not base.ok:
        return base
    tau = twist_arrow(C, w)
    gg = w.cone_gg
    if C.compose(gg.p1, tau) != gg.p2 or C.compose(gg.p2, tau) != gg.p1:
        return AlgebraVerdict(False, "twist-projections", "tau does not swap the projections")
    lhs = C.compose(w.mu, tau)
    if lhs != w.mu:
        return AlgebraVerdict(False, "commutativity", f"mu.tau = {C.arrow_label(lhs)} differs from mu")
    return AlgebraVerdict(True)


def _check_witness(C, w) -> AlgebraVerdict:
    if isinstance(w, GroupObjectWitness):
        return check_group_object(C, w)
    return check_monoid_object(C, w)


def check_homomorphism(C, h: HomWitness) -> AlgebraVerdict:
    """The square mu2 . (f x f) = f . mu1."""
    for role, w in (("source", h.source), ("target", h.target)):
        v = _check_witness(C, w)
        if not v.ok:
            return AlgebraVerdict(False, f"{role}-witness", f"{v.diagram}: {v.detail}")
    w1, w2 = h.source, h.target
    f = h.arrow
    if C.dom(f) != w1.carrier or C.cod(f) != w2.carrier:
        raise StructuralError("arrow does not run between the witness carriers")
    fxf = pair(
        C,
        w2.cone_gg,
        C.compose(f, w1.cone_gg.p1),
        C.compose(f, w1.cone_gg.p2),
    )
    lhs = C.compose(w2.mu, fxf)
    rhs = C.compose(f, w1.mu)
    if lhs != rhs:
        return AlgebraVerdict(
            False,
            "homomorphism",
            f"mu2.(f x f) = {C.arrow_label(lhs)} but f.mu1 = {C.arrow_label(rhs)}",
        )
    return AlgebraVerdict(True)


def compose_homomorphisms(C, h2: HomWitness, h1: HomWitness) -> HomWitness:
    if h1.target != h2.source:
        raise StructuralError("homomorphism witnesses are not composable")
    return HomWitness(h1.source, h2.target, C.compose(h2.arrow, h1.arrow))


def find_algebraic_objects(
    C,
    kind: str = "monoid",
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
):
    """Exhaustive search for all monoid- or group-object witnesses.

    Table backend only: iterates carriers, product cones, mu, eta (and
    zeta), keeping every passing witness.
    """
    if kind not in ("monoid", "group"):
        raise StructuralError(f"kind must be 'monoid' or 'group', got {kind!r}")
    if C.backend != "table":
        raise StructuralError("witness search needs a table-backed category")
    T = _unique_terminal(C)
    found = []
    tried = 0
    for G in sorted(C.objects, key=str):
        for cone_gg in binary_product(C, G, G, candidate_cap):
            for cone_ggg in binary_product(C, cone_gg.apex, G, candidate_cap):
                for mu in C.hom(cone_gg.apex, G):
                    for eta in C.hom(T, G):
                        tried += 1
                        if tried > candidate_cap:
                            raise ResourceError(
                                f"witness search exceeds the candidate cap {candidate_cap}",
                                cap_name="candidates",
                                cap_value=candidate_cap,
                            )
                        w = MonoidObjectWitness(G, mu, eta, T, cone_gg, cone_ggg)
                        if not check_monoid_object(C, w).ok:
                            continue
                        if kind == "monoid":
                            found.append(w)
                            continue
                        for zeta in C.hom(G, G):
                            gw = GroupObjectWitness(G, mu, eta, T, cone_gg, cone_ggg, zeta)
                            if check_group_object(C, gw).ok:
                                found.append(gw)
    return tuple(found)

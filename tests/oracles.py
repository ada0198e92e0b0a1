"""Independent oracles: plain integer arithmetic and brute-force set search.

Nothing here imports the package under test; expected values in the test
suite are computed against these and frozen where the value is small.
"""

from __future__ import annotations

import math
import re
from itertools import combinations


def divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


def down_sets(elements, leq) -> list[frozenset]:
    """All downward-closed subsets of a finite poset, by include/exclude
    recursion along a linear extension."""
    elems = sorted(elements, key=lambda e: (sum(1 for x in elements if leq(x, e)), str(e)))
    strict_below = {e: frozenset(x for x in elems if x != e and leq(x, e)) for e in elems}
    out = []

    def rec(i, current):
        if i == len(elems):
            out.append(frozenset(current))
            return
        e = elems[i]
        rec(i + 1, current)
        if strict_below[e] <= current:
            current.add(e)
            rec(i + 1, current)
            current.discard(e)

    rec(0, set())
    return out


def divisor_down_sets(n: int) -> list[frozenset]:
    """Down-closed subsets of the divisors of n under divisibility."""
    return down_sets(divisors(n), lambda a, b: b % a == 0)


def dense_below(n: int, D: frozenset) -> bool:
    """Whether every divisor of n has a divisor inside D."""
    return all(any(m % k == 0 for k in D) for m in divisors(n))


def gcd(a: int, b: int) -> int:
    return math.gcd(a, b)


def all_subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in combinations(items, r))


# -- sieves of an arbitrary finite category, by brute force ---------------
#
# These take a category through its protocol (``arrows_into``, ``dom``,
# ``compose``) and sieves as plain frozensets of arrows into one object.


def sieves_on(C, x) -> set[frozenset]:
    """All sieves on x: the unions of principal sieves, found by closing
    {empty} under union with each principal sieve."""
    principal = {frozenset(C.compose(f, g) for g in C.arrows_into(C.dom(f))) for f in C.arrows_into(x)}
    found = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        S = frontier.pop()
        for P in principal:
            if S | P not in found:
                found.add(S | P)
                frontier.append(S | P)
    return found


def factoring_classes(C, x) -> list[list]:
    """The arrows into x grouped by the sieve each generates (arrows that
    factor through each other generate the same one), in the order of
    their first arrows in ``C.arrows_into(x)``."""
    classes: dict = {}
    for f in C.arrows_into(x):
        principal = frozenset(C.compose(f, g) for g in C.arrows_into(C.dom(f)))
        classes.setdefault(principal, []).append(f)
    return list(classes.values())


def preimage_masks(C, h, at_dom, at_cod) -> list[int]:
    """Per factoring class c at cod(h), the mask (bit i = class i at
    dom(h)) of the classes whose first arrow r has h.r in c, composing h
    with each; ``at_dom`` and ``at_cod`` are the ``factoring_classes`` of
    dom(h) and cod(h)."""
    class_at_cod = {a: c for c, arrows in enumerate(at_cod) for a in arrows}
    masks = [0] * len(at_cod)
    for i, arrows in enumerate(at_dom):
        masks[class_at_cod[C.compose(h, arrows[0])]] |= 1 << i
    return masks


def first_images(C, x) -> list[frozenset]:
    """The images of the arrows into x of a finite-set category, each
    where its first arrow stands in ``C.arrows_into(x)``."""
    return list(dict.fromkeys(frozenset(a.images) for a in C.arrows_into(x)))


def is_maximal(C, x, S) -> bool:
    return S == frozenset(C.arrows_into(x))


def is_any(C, x, S) -> bool:
    return True


def is_nonempty(C, x, S) -> bool:
    return bool(S)


def is_dense(C, x, S) -> bool:
    """For every f into x, some f.g lies in S."""
    return all(any(C.compose(f, g) in S for g in C.arrows_into(C.dom(f))) for f in C.arrows_into(x))


def pullback_members(C, h, S) -> frozenset:
    """{g into dom(h) : h.g in S}, composing h with every such g."""
    return frozenset(g for g in C.arrows_into(C.dom(h)) if C.compose(h, g) in S)


def continuity_witness(C, f, covers):
    """The first sieve in ``position_order`` among the covers at dom(f)
    that is no pullback along f of a cover at cod(f), or None when f is
    continuous; ``covers`` maps each object to a set of sieves on it, as
    arrow sets, and every pullback is found by composing."""
    pulled = {pullback_members(C, f, S) for S in covers[C.cod(f)]}
    failing = [S for S in covers[C.dom(f)] if S not in pulled]
    return position_order(C, failing)[0] if failing else None


def cover_preservation_witness(F, dom_covers, cod_covers):
    """The first object d of F's domain, in ``str`` order, and the first
    sieve S in ``position_order`` among ``dom_covers[d]`` whose image is
    not in ``cod_covers[F(d)]``, or None when every image is there; the
    image is F(S) closed by composing, every F(a).g for a in S, and sieves
    are arrow sets."""
    C, D = F.dom, F.cod
    for d in sorted(C.objects, key=str):
        for S in position_order(C, dom_covers[d]):
            image = frozenset(D.compose(F.arr(a), g) for a in S for g in D.arrows_into(D.dom(F.arr(a))))
            if image not in cod_covers[F.obj(d)]:
                return d, S
    return None


def initial_sieves(C, x, family) -> set[frozenset]:
    """The sieves on x that are a pullback along every arrow f of
    ``family`` (pairs of f, out of x, and a set of sieves on cod(f), as
    arrow sets) of one of f's sieves: every sieve on x for the empty
    family."""
    out = sieves_on(C, x)
    for f, sieves in family:
        out &= {pullback_members(C, f, S) for S in sieves}
    return out


def topology_ok(C, covers) -> bool:
    """Whether ``covers`` (object -> set of sieves on it) is a Grothendieck
    topology: the maximal sieve covers, every pullback of a cover along an
    arrow into its object covers, and every sieve that pulls back to a
    cover along each member of some cover covers, scanning every sieve."""
    for x in C.objects:
        cov = covers[x]
        if frozenset(C.arrows_into(x)) not in cov:
            return False
        for S in cov:
            for h in C.arrows_into(x):
                if pullback_members(C, h, S) not in covers[C.dom(h)]:
                    return False
        for R in sieves_on(C, x):
            if R not in cov and any(
                all(pullback_members(C, h, R) in covers[C.dom(h)] for h in S) for S in cov
            ):
                return False
    return True


def axiom_violations(C, covers) -> list[tuple]:
    """The violations of the axioms by ``covers`` (object -> a set of
    sieves on it, as arrow sets), each as ``(axiom, object, sieve, arrow,
    detail)``: per object in ``str`` order a missing maximal sieve; then
    per object, per cover in ``position_order`` and per arrow into the
    object, a pullback that is no cover; then per object, per non-cover
    in ``position_order``, the first cover in that order along each of
    whose members it pulls back to a cover, when there is one."""
    objs = sorted(C.objects, key=str)
    out = []
    for x in objs:
        top = frozenset(C.arrows_into(x))
        if top not in covers[x]:
            out.append(("maximality", x, top, None, "maximal sieve is not a cover"))
    for x in objs:
        for S in position_order(C, covers[x]):
            for h in C.arrows_into(x):
                P = pullback_members(C, h, S)
                if P not in covers[C.dom(h)]:
                    detail = f"pullback {member_literal(C, P)} is not a cover at {C.dom(h)!r}"
                    out.append(("stability", x, S, h, detail))
    for x in objs:
        cov = position_order(C, covers[x])
        for R in position_order(C, sieves_on(C, x) - set(covers[x])):
            forcing = [S for S in cov if all(pullback_members(C, h, R) in covers[C.dom(h)] for h in S)]
            if forcing:
                out.append(("transitivity", x, R, None, f"forced by cover {member_literal(C, forcing[0])} but not a cover"))
    return out


def associativity(objects, arrows, obj, arr):
    """``(True, None)`` when the binary maps ``obj`` and ``arr`` (on pairs)
    are associative, else ``(False, (a, b, c))`` for the first failing
    triple of objects, then of arrows, with the first factor outermost;
    by the triple loop."""
    for a in objects:
        for b in objects:
            for c in objects:
                if obj((obj((a, b)), c)) != obj((a, obj((b, c)))):
                    return False, (a, b, c)
    for u in arrows:
        for v in arrows:
            for w in arrows:
                if arr((arr((u, v)), w)) != arr((u, arr((v, w)))):
                    return False, (u, v, w)
    return True, None


def table_laws(C) -> tuple[list, int]:
    """``(violations, checks)`` for the unit, totality and associativity
    laws of a table category, each violation a ``(law, detail)`` pair, by
    scanning every pair of arrows for the composable ones and every third
    arrow for each composable pair; a composite is missing when its pair
    is not among ``C.composable_pairs()``."""
    violations, checks = [], 0
    label, table = C.arrow_label, set(C.composable_pairs())
    for x in C.objects:
        i = C.identity(x)
        if C.dom(i) != x or C.cod(i) != x:
            violations.append(("identity-endomorphism", f"id of {x!r} is {i!r}: {C.dom(i)!r}->{C.cod(i)!r}"))
        checks += 1
    arrows = C.all_arrows()
    for f in arrows:
        for law, g, h in (("right-unit", f, C.identity(C.dom(f))), ("left-unit", C.identity(C.cod(f)), f)):
            checks += 1
            if (g, h) not in table:
                violations.append(("totality", f"no composite for ({label(g)} . {label(h)})"))
                continue
            got = C.compose(g, h)
            if got != f:
                violations.append((law, f"{label(g)} . {label(h)} = {label(got)}, expected {label(f)}"))
    composable = [(g, f) for f in arrows for g in arrows if C.cod(f) == C.dom(g)]
    comp = {}
    for g, f in composable:
        checks += 1
        if (g, f) in table:
            comp[(g, f)] = C.compose(g, f)
        else:
            violations.append(("totality", f"no composite for ({label(g)} . {label(f)})"))
    for g, f in composable:
        if (g, f) not in comp:
            continue
        for h in arrows:
            if C.dom(h) != C.cod(g) or (h, g) not in comp:
                continue
            checks += 1
            left, right = comp.get((h, comp[(g, f)])), comp.get((comp[(h, g)], f))
            if left is not None and right is not None and left != right:
                violations.append(
                    ("associativity", f"h.(g.f) != (h.g).f for h={label(h)}, g={label(g)}, f={label(f)}")
                )
    return violations, checks


def up_set(C, x, least) -> set[frozenset]:
    """The sieves on x that contain ``least``."""
    return {S for S in sieves_on(C, x) if least <= S}


def generated(C, seed) -> dict:
    """The least topology whose covers include ``seed`` (object -> sieves):
    from the seed and the maximal sieves, add every pullback of a cover and
    every sieve forced by a cover until nothing is added."""
    covers = {x: {frozenset(C.arrows_into(x)), *seed.get(x, ())} for x in C.objects}
    universes = {x: sieves_on(C, x) for x in C.objects}
    grew = True
    while grew:
        grew = False
        for x in C.objects:
            for S in list(covers[x]):
                for h in C.arrows_into(x):
                    P = pullback_members(C, h, S)
                    if P not in covers[C.dom(h)]:
                        covers[C.dom(h)].add(P)
                        grew = True
            for R in universes[x] - covers[x]:
                if any(all(pullback_members(C, h, R) in covers[C.dom(h)] for h in S) for S in covers[x]):
                    covers[x].add(R)
                    grew = True
    return covers


def position_order(C, sets) -> list:
    """Arrow sets by size, then by the sorted positions of their members
    among the arrows into their codomain."""

    def position(a):
        return C.arrows_into(C.cod(a)).index(a)

    return sorted(sets, key=lambda S: (len(S), sorted(map(position, S))))


def label_order(C, sets) -> list:
    """Arrow sets by size, then by their sorted member labels, then by the
    sorted positions of their members among the arrows into their
    codomain (which only orders different sets whose labels agree)."""

    def position(a):
        return C.arrows_into(C.cod(a)).index(a)

    return sorted(sets, key=lambda S: (len(S), sorted(C.arrow_label(a) for a in S), sorted(map(position, S))))


def canonical_keys(C, topologies) -> list[tuple]:
    """The order key of each topology, given by its cover sets (object ->
    a frozenset of arrow sets): per object, in ``str`` order, the object's
    ``str`` and the literals of all its covers in ``position_order``."""
    literals: dict = {}  # a cover set -> its literals, listed once for every topology that holds it

    def listed(covers):
        if covers not in literals:
            literals[covers] = tuple("{" + ", ".join(sorted(map(C.arrow_label, S))) + "}" for S in position_order(C, covers))
        return literals[covers]

    objs = sorted(C.objects, key=str)
    return [tuple((str(x), listed(frozenset(covers[x]))) for x in objs) for covers in topologies]


def forced_by_composing(C, least, x) -> frozenset:
    """The union of the factoring classes at x of r.r2, composed for the
    first arrow r of each class in ``least[x]`` and the first arrow r2 of
    each class in ``least[dom r]``; ``least`` maps each object to a sieve
    on it, as an arrow set."""
    at_x = factoring_classes(C, x)
    class_at_x = {a: arrows for arrows in at_x for a in arrows}
    out = set()
    for r, *_ in at_x:
        if r in least[x]:
            d = C.dom(r)
            for r2, *_ in factoring_classes(C, d):
                if r2 in least[d]:
                    out.update(class_at_x[C.compose(r, r2)])
    return frozenset(out)


def member_literal(C, members) -> str:
    """A sieve's literal from its listed members: their labels, sorted."""
    return "{" + ", ".join(sorted(map(C.arrow_label, members))) + "}"


def member_topology_file(J) -> str:
    """The topology file of J from every cover's listed members: per
    object in ``str`` order, each cover other than the maximal sieve (all
    the arrows into the object) as its members' sorted ``str`` labels in
    braces, by length and then text."""
    C = J.category
    name = re.sub(r"[^\w()|.*+\-]", "-", J.name) if J.name else "topology"
    lines = [f"topology {name} on {C.name}"]
    for x in sorted(C.objects, key=str):
        top = frozenset(C.arrows_into(x))
        literals = ["{" + ", ".join(sorted(map(str, S.members))) + "}" for S in J.covers(x) if S.base != x or S.members != top]
        lines += [f"cover {x} : {lit}" for lit in sorted(literals, key=lambda s: (len(s), s))]
    return "\n".join(lines) + "\n"


def minimal(sets) -> set[frozenset]:
    sets = set(sets)
    return {S for S in sets if not any(T < S for T in sets)}


def is_product_cone(C, A, B, p, p1, p2) -> bool:
    """For every x and every pair (f, g) into A and B, exactly one m into p
    with p1.m = f and p2.m = g."""
    for x in C.objects:
        for f in C.hom(x, A):
            for g in C.hom(x, B):
                if sum(1 for m in C.hom(x, p) if C.compose(p1, m) == f and C.compose(p2, m) == g) != 1:
                    return False
    return True


# -- image masks: finite-set sieves from the subsets of each carrier ------
#
# On a finite-set category an arrow factors through another iff its image
# is a subset of the other's, so a sieve on x is a down-closed set of image
# subsets of x's carrier.  These work on plain tuples and dicts, not on the
# package's categories.


def image_classes(carrier, largest: int, empty: bool) -> list[frozenset]:
    """The image subsets of ``carrier`` that a map from some carrier (the
    largest of size ``largest``; one empty when ``empty``) realizes."""
    sizes = range(0 if empty else 1, min(len(carrier), largest) + 1)
    return [frozenset(c) for k in sizes for c in combinations(carrier, k)]


def strict_subsets(sets) -> list[set[int]]:
    """Per set, the positions of the sets that are proper subsets of it,
    comparing every pair."""
    return [{j for j, B in enumerate(sets) if B < A} for A in sets]


def image_sieves(classes) -> list[frozenset]:
    """The down-closed sets of image classes, by subset inclusion."""
    return down_sets(classes, lambda a, b: a <= b)


def image_pullback(f: dict, S, classes) -> frozenset:
    """The classes A (at f's domain) whose image f[A] lies in S."""
    return frozenset(A for A in classes if frozenset(f[a] for a in A) in S)


def image_preimage_masks(f: dict, at_dom, at_cod) -> list[int]:
    """Per image class B of ``at_cod``, the mask (bit i = class i of
    ``at_dom``) of the classes A with f[A] = B."""
    where = {B: c for c, B in enumerate(at_cod)}
    masks = [0] * len(at_cod)
    for i, A in enumerate(at_dom):
        masks[where[frozenset(f[a] for a in A)]] |= 1 << i
    return masks


def image_gtop(kind: str, g, gg, largest: int, mu: dict, zeta: dict | None):
    """(product-local sieves at gg, mu continuous, zeta continuous or None)
    for the structure maps of an algebraic object on the carrier g, with
    gg = g x g, under a named topology; every carrier is nonempty."""
    at_g, at_gg = image_classes(g, largest, False), image_classes(gg, largest, False)
    sieves = image_sieves(at_g)
    covers = {
        "trivial": [S for S in sieves if S == frozenset(at_g)],
        "discrete": sieves,
        "dense": [S for S in sieves if all(frozenset({e}) in S for e in g)],
        "atomic": [S for S in sieves if S],
    }[kind]
    p1, p2 = {p: p[0] for p in gg}, {p: p[1] for p in gg}
    local = {image_pullback(p1, S, at_gg) for S in covers} & {image_pullback(p2, S, at_gg) for S in covers}
    mu_ok = local <= {image_pullback(mu, S, at_gg) for S in covers}
    zeta_ok = None if zeta is None else set(covers) <= {image_pullback(zeta, S, at_g) for S in covers}
    return local, mu_ok, zeta_ok

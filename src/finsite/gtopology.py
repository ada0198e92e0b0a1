"""Grothendieck topologies on finite categories.

A topology assigns to every object a set of covering sieves subject to
three axioms: the maximal sieve covers, covers are stable under pullback
along every arrow, and a sieve forced by a cover (all of whose pullbacks
along the cover's members are covers) is itself a cover.

Cover sets may be stored extensionally or backed by a rule that is
materialized per object on demand; membership predicates and small bases
let the named builders stay usable on categories whose full sieve
universes exceed any reasonable cap.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import (
    DEFAULT_CANDIDATE_CAP,
    DEFAULT_SIEVE_CAP,
    ResourceError,
    StructuralError,
)
from .sieves import (
    Sieve,
    empty_sieve,
    is_sieve,
    maximal_sieve,
    pullback_sieve,
    sieve_literal,
    sieve_sort_key,
)


# -- sieve universes ---------------------------------------------------


def sieve_universe(C, x, cap: int = DEFAULT_SIEVE_CAP):
    """All sieves on x, as a sorted tuple.

    Sieves are the down-sets of the factoring preorder on arrows into x
    (a <= b iff a factors through b), so the universe is enumerated as the
    down-sets of the quotient poset of that preorder.
    """
    if not C.has_object(x):
        raise StructuralError(f"unknown object {x!r}")
    cache = C._universe_cache
    if x in cache:
        result = cache[x]
    else:
        classes, below = _factoring_classes(C, x)
        ideals = _down_sets(range(len(classes)), below, cap, x)
        result = tuple(
            sorted(
                (Sieve(x, frozenset(itertools.chain.from_iterable(classes[i] for i in ideal))) for ideal in ideals),
                key=lambda s: sieve_sort_key(C, s),
            )
        )
        cache[x] = result
    if len(result) > cap:
        raise ResourceError(
            f"object {x!r} has {len(result)} sieves, over the sieve cap {cap}",
            cap_name="sieves",
            cap_value=cap,
        )
    return result


def _factoring_classes(C, x):
    """Mutual-factoring classes of arrows into x and their strict order.

    An arrow a factors through b exactly when ``C.factoring_key(a)`` is a
    subset of ``C.factoring_key(b)``, so the classes are the arrows grouped
    by key.  Returns ``(classes, below)`` where ``below[i]`` is the set of
    class indices strictly under class i.
    """
    by_key: dict = {}
    for a in C.arrows_into(x):
        by_key.setdefault(C.factoring_key(a), []).append(a)
    keys = list(by_key)
    classes = [tuple(by_key[k]) for k in keys]
    below = [frozenset(j for j, kj in enumerate(keys) if kj < ki) for ki in keys]
    return classes, below


def _down_sets(indices, below, cap, obj):
    """Down-sets of a finite poset given by strict lower sets, cap-guarded."""
    order = sorted(indices, key=lambda i: (len(below[i]), i))
    out = []

    def rec(pos, current):
        if pos == len(order):
            out.append(frozenset(current))
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

    rec(0, set())
    return out


# -- the topology type -------------------------------------------------


class GrothendieckTopology:
    """Per-object sets of covering sieves on a finite category.

    ``covers(x)`` materializes the cover set at one object (memoized when
    rule-backed); ``contains`` and ``basis`` default to the materialized
    set but builders override them with cheap predicates and small
    generating families, which is what keeps checks on large categories
    tractable.  A basis at x is a subset of the covers such that every
    cover refines (contains) some basis element.
    """

    def __init__(
        self,
        category,
        name: str = "",
        covers: Mapping | None = None,
        rule: Callable | None = None,
        contains_fn: Callable | None = None,
        basis_fn: Callable | None = None,
    ):
        if covers is None and rule is None:
            raise StructuralError("a topology needs either explicit covers or a rule")
        self.category = category
        self.name = name
        self._covers: dict = {}
        if covers is not None:
            for x, sieves in covers.items():
                if not category.has_object(x):
                    raise StructuralError(f"covers mention unknown object {x!r}")
                self._covers[x] = frozenset(sieves)
            for x in category.objects:
                self._covers.setdefault(x, frozenset({maximal_sieve(category, x)}))
        self._rule = rule
        self._contains_fn = contains_fn
        self._basis_fn = basis_fn

    def covers(self, x) -> frozenset:
        if x not in self._covers:
            if not self.category.has_object(x):
                raise StructuralError(f"unknown object {x!r}")
            self._covers[x] = frozenset(self._rule(x))
        return self._covers[x]

    def covers_map(self) -> dict:
        return {x: self.covers(x) for x in self.category.objects}

    def contains(self, S: Sieve) -> bool:
        if self._contains_fn is not None:
            return self._contains_fn(S)
        return S in self.covers(S.base)

    def basis(self, x):
        if self._basis_fn is not None:
            b = self._basis_fn(x)
            if b is not None:
                return tuple(sorted(b, key=lambda s: sieve_sort_key(self.category, s)))
        return tuple(sorted(self.covers(x), key=lambda s: sieve_sort_key(self.category, s)))

    def __eq__(self, other):
        if not isinstance(other, GrothendieckTopology):
            return NotImplemented
        return self.category is other.category and self.covers_map() == other.covers_map()

    def __repr__(self):
        return f"GrothendieckTopology({self.name or '?'} on {self.category.name!r})"


def topology_leq(J1: GrothendieckTopology, J2: GrothendieckTopology) -> bool:
    """Coarser-or-equal: pointwise containment of cover sets."""
    if J1.category is not J2.category:
        raise StructuralError("topologies live on different categories")
    return all(J1.covers(x) <= J2.covers(x) for x in J1.category.objects)


# -- axiom checking ----------------------------------------------------


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    obj: object
    sieve: Sieve | None
    arrow: object | None
    detail: str


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    violations: tuple

    def summary(self, C=None) -> str:
        if self.ok:
            return "pass"
        lines = [f"fail ({len(self.violations)} violations)"]
        for v in self.violations:
            arrow = "" if v.arrow is None else f", arrow {C.arrow_label(v.arrow) if C else v.arrow}"
            sieve = "" if v.sieve is None else f", sieve {sieve_literal(C, v.sieve) if C else v.sieve}"
            lines.append(f"  [{v.axiom}] at {v.obj!r}{sieve}{arrow}: {v.detail}")
        return "\n".join(lines)


class _Axioms:
    """The stability and transitivity passes over a cover assignment.

    ``covers`` maps objects to cover sets; it may be partial, and it may
    grow between or during the passes.  Both passes share one pullback
    cache and report in canonical order: by object, then cover, then arrow
    label.
    """

    def __init__(self, C, covers):
        self.C = C
        self.covers = covers
        self.pullback = functools.lru_cache(maxsize=None)(functools.partial(pullback_sieve, C))
        self._sort_key = functools.lru_cache(maxsize=None)(functools.partial(sieve_sort_key, C))

    def ordered(self, sieves):
        return sorted(sieves, key=self._sort_key)

    def unstable(self):
        """``(x, S, h, h*(S))`` for every cover S at x and arrow h into x
        whose pullback is not a cover; arrows out of unassigned objects
        are skipped."""
        C, covers = self.C, self.covers
        for x in sorted(covers, key=str):
            into = sorted(C.arrows_into(x), key=C.arrow_label)
            for S in self.ordered(covers[x]):
                for h in into:
                    d = C.dom(h)
                    if d in covers:
                        P = self.pullback(h, S)
                        if P not in covers[d]:
                            yield x, S, h, P

    def unforced(self, universe):
        """``(x, R, S)`` for every sieve R in ``universe(x)`` that is not a
        cover although it pulls back to a cover along every member of the
        cover S; S is the first such cover."""
        C, covers = self.C, self.covers
        for x in sorted(covers, key=str):
            cov = self.ordered(covers[x])
            for R in universe(x):
                if R in covers[x]:
                    continue
                for S in cov:
                    if all(self.pullback(h, R) in covers[C.dom(h)] for h in S.members):
                        yield x, R, S
                        break


def check_axioms(J: GrothendieckTopology, sieve_cap: int = DEFAULT_SIEVE_CAP) -> AxiomReport:
    """Verify maximality, stability and transitivity, exhaustively.

    Transitivity quantifies the forced sieve over the full universe at
    each object, so the per-object sieve cap applies.
    """
    C = J.category
    violations = []
    covers = {x: J.covers(x) for x in C.objects}
    axioms = _Axioms(C, covers)
    for x in sorted(C.objects, key=str):
        tx = maximal_sieve(C, x)
        if tx not in covers[x]:
            violations.append(AxiomViolation("maximality", x, tx, None, "maximal sieve is not a cover"))
        for S in axioms.ordered(covers[x]):
            if S.base != x:
                violations.append(AxiomViolation("well-formed", x, S, None, f"sieve based at {S.base!r} stored at {x!r}"))
            elif not is_sieve(C, x, S.members):
                violations.append(AxiomViolation("well-formed", x, S, None, "stored arrow set is not a sieve"))
    for x, S, h, P in axioms.unstable():
        detail = f"pullback {sieve_literal(C, P)} is not a cover at {C.dom(h)!r}"
        violations.append(AxiomViolation("stability", x, S, h, detail))
    for x, R, S in axioms.unforced(lambda x: sieve_universe(C, x, sieve_cap)):
        detail = f"forced by cover {sieve_literal(C, S)} but not a cover"
        violations.append(AxiomViolation("transitivity", x, R, None, detail))
    return AxiomReport(not violations, tuple(violations))


# -- named builders ----------------------------------------------------


def _global_source(C):
    """An object with at least one arrow to every object, if any.

    Used to shrink the existential in the density test: for a right ideal
    S and f into x, some g with f.g in S exists iff one exists with
    domain the global source.
    """
    best = None
    best_cost = None
    for p in sorted(C.objects, key=str):
        sizes = [C.hom_size(p, e) for e in C.objects]
        if all(s >= 1 for s in sizes):
            cost = sum(sizes)
            if best is None or cost < best_cost:
                best, best_cost = p, cost
    return best


def is_dense_sieve(C, S: Sieve) -> bool:
    """Double-negation density: every arrow into the base meets S after
    further precomposition."""
    probe = _global_source(C)
    for f in C.arrows_into(S.base):
        d = C.dom(f)
        candidates = C.hom(probe, d) if probe is not None else C.arrows_into(d)
        if not any(C.compose(f, g) in S.members for g in candidates):
            return False
    return True


def _is_thin(C) -> bool:
    return all(C.hom_size(x, y) <= 1 for x in C.objects for y in C.objects)


def trivial_topology(C) -> GrothendieckTopology:
    """Only the maximal sieve covers, at every object."""
    return GrothendieckTopology(
        C,
        name="trivial",
        rule=lambda x: frozenset({maximal_sieve(C, x)}),
        contains_fn=lambda S: S.members == frozenset(C.arrows_into(S.base)),
        basis_fn=lambda x: (maximal_sieve(C, x),),
    )


def discrete_topology(C, sieve_cap: int = DEFAULT_SIEVE_CAP) -> GrothendieckTopology:
    """Every sieve covers."""
    return GrothendieckTopology(
        C,
        name="discrete",
        rule=lambda x: frozenset(sieve_universe(C, x, sieve_cap)),
        contains_fn=lambda S: True,
        basis_fn=lambda x: (empty_sieve(x),),
    )


def dense_topology(C, sieve_cap: int = DEFAULT_SIEVE_CAP) -> GrothendieckTopology:
    """The dense sieves cover.

    On a thin category with a global source the unique minimal dense
    sieve is generated by the arrow from that source, which gives a
    one-element basis; otherwise the basis falls back to the full cover
    set.
    """
    basis_fn = None
    if _is_thin(C):
        src = _global_source(C)
        if src is not None:
            from .sieves import sieve_closure

            def basis_fn(x):
                return (sieve_closure(C, x, C.hom(src, x)),)

    return GrothendieckTopology(
        C,
        name="dense",
        rule=lambda x: frozenset(S for S in sieve_universe(C, x, sieve_cap) if is_dense_sieve(C, S)),
        contains_fn=lambda S: is_dense_sieve(C, S),
        basis_fn=basis_fn,
    )


def atomic_topology(C, sieve_cap: int = DEFAULT_SIEVE_CAP) -> GrothendieckTopology:
    """The nonempty sieves cover; a candidate that need not satisfy the
    stability axiom (the builder's verdict says whether it does)."""
    from .sieves import sieve_closure

    def basis_fn(x):
        return frozenset(sieve_closure(C, x, (f,)) for f in C.arrows_into(x))

    return GrothendieckTopology(
        C,
        name="atomic",
        rule=lambda x: frozenset(S for S in sieve_universe(C, x, sieve_cap) if S.members),
        contains_fn=lambda S: bool(S.members),
        basis_fn=basis_fn,
    )


_BUILDERS = {
    "trivial": trivial_topology,
    "discrete": discrete_topology,
    "dense": dense_topology,
    "atomic": atomic_topology,
}


def build_topology(C, kind: str, sieve_cap: int = DEFAULT_SIEVE_CAP, verify: bool = True):
    """Build a named topology candidate and (by default) check the axioms.

    Returns ``(topology, report)``; ``report`` is None when ``verify`` is
    off.  The atomic candidate may legitimately fail stability.
    """
    if kind not in _BUILDERS:
        raise StructuralError(f"unknown topology kind {kind!r}; expected one of {sorted(_BUILDERS)}")
    builder = _BUILDERS[kind]
    J = builder(C) if kind == "trivial" else builder(C, sieve_cap)
    report = check_axioms(J, sieve_cap) if verify else None
    return J, report


# -- enumeration and the lattice ---------------------------------------


def enumerate_topologies(
    C,
    sieve_cap: int = DEFAULT_SIEVE_CAP,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
):
    """All Grothendieck topologies on a small category.

    Searches the product of per-object sieve subsets that contain the
    maximal sieve, pruning partial assignments that already break
    stability, then filtering by the full axiom check.  The size of that
    product is compared with the candidate cap before any subset is built.
    """
    objs = sorted(C.objects, key=str)
    universes = {x: sieve_universe(C, x, sieve_cap) for x in objs}
    total = 1
    for x in objs:
        total *= 2 ** (len(universes[x]) - 1)
        if total > candidate_cap:
            raise ResourceError(
                f"topology enumeration over ~{total} candidates exceeds the candidate cap {candidate_cap}",
                cap_name="candidates",
                cap_value=candidate_cap,
            )
    options = {}
    for x in objs:
        tx = maximal_sieve(C, x)
        rest = [S for S in universes[x] if S != tx]
        options[x] = [
            frozenset({tx, *combo}) for r in range(len(rest) + 1) for combo in itertools.combinations(rest, r)
        ]
    found = []
    assigned: dict = {}
    axioms = _Axioms(C, assigned)

    def rec(i):
        if i == len(objs):
            J = GrothendieckTopology(C, covers=dict(assigned))
            if check_axioms(J, sieve_cap).ok:
                found.append(J)
            return
        x = objs[i]
        for opt in options[x]:
            assigned[x] = opt
            if next(axioms.unstable(), None) is None:
                rec(i + 1)
        del assigned[x]

    rec(0)
    found.sort(key=_canonical_key)
    for i, J in enumerate(found):
        J.name = f"J{i}"
    return found


def _canonical_key(J: GrothendieckTopology):
    C = J.category
    return tuple(
        (str(x), tuple(sieve_literal(C, S) for S in sorted(J.covers(x), key=lambda s: sieve_sort_key(C, s))))
        for x in sorted(C.objects, key=str)
    )


def meet(J1: GrothendieckTopology, J2: GrothendieckTopology) -> GrothendieckTopology:
    """Pointwise intersection of cover sets (the lattice meet)."""
    if J1.category is not J2.category:
        raise StructuralError("cannot meet topologies on different categories")
    C = J1.category
    covers = {x: J1.covers(x) & J2.covers(x) for x in C.objects}
    return GrothendieckTopology(C, name=f"meet({J1.name},{J2.name})", covers=covers)


def generate_topology(C, seed: Mapping, sieve_cap: int = DEFAULT_SIEVE_CAP) -> GrothendieckTopology:
    """The least topology whose covers include the seed sieves.

    Iterates to a fixpoint: insert maximal sieves, then add whatever the
    stability and transitivity passes report missing, until they report
    nothing.
    """
    covers: dict = {x: {maximal_sieve(C, x)} for x in C.objects}
    for x, sieves in seed.items():
        if not C.has_object(x):
            raise StructuralError(f"seed mentions unknown object {x!r}")
        for S in sieves:
            if S.base != x:
                raise StructuralError(f"seed sieve based at {S.base!r} filed under {x!r}")
            if not is_sieve(C, x, S.members):
                raise StructuralError(f"seed set {sieve_literal(C, S)} is not a sieve on {x!r}")
            covers[x].add(S)
    universes = {x: sieve_universe(C, x, sieve_cap) for x in C.objects}
    axioms = _Axioms(C, covers)
    grew = True
    while grew:
        grew = False
        for _, _, h, P in axioms.unstable():
            covers[C.dom(h)].add(P)
            grew = True
        for x, R, _ in axioms.unforced(universes.__getitem__):
            covers[x].add(R)
            grew = True
    return GrothendieckTopology(C, name="generated", covers=covers)


def join(J1: GrothendieckTopology, J2: GrothendieckTopology, sieve_cap: int = DEFAULT_SIEVE_CAP) -> GrothendieckTopology:
    """The least topology containing both (generated pointwise union)."""
    if J1.category is not J2.category:
        raise StructuralError("cannot join topologies on different categories")
    C = J1.category
    seed = {x: J1.covers(x) | J2.covers(x) for x in C.objects}
    out = generate_topology(C, seed, sieve_cap)
    out.name = f"join({J1.name},{J2.name})"
    return out

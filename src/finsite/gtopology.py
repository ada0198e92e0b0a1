"""Grothendieck topologies on finite categories.

A topology assigns to every object a set of covering sieves subject to
three axioms: the maximal sieve covers, covers are stable under pullback
along every arrow, and a sieve forced by a cover (all of whose pullbacks
along the cover's members are covers) is itself a cover.

A topology is data: either its cover sets, or its minimal covers at each
object, from which the cover sets (every sieve containing a minimal
cover) are enumerated only when asked for.  The named builders give
minimal covers, so membership tests and cover-preservation checks on
them never need a full sieve universe.
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


# -- sieve enumeration -------------------------------------------------


def sieve_universe(C, x, cap: int = DEFAULT_SIEVE_CAP):
    """All sieves on x, as a sorted tuple."""
    sieves = _sieves_on(C, x)
    if sieves.universe is None:
        sieves.universe = tuple(sorted(sieves.above((empty_sieve(x),), cap), key=lambda s: sieve_sort_key(C, s)))
    if len(sieves.universe) > cap:
        raise ResourceError(
            f"object {x!r} has {len(sieves.universe)} sieves, over the sieve cap {cap}",
            cap_name="sieves",
            cap_value=cap,
        )
    return sieves.universe


def _sieves_on(C, x):
    """The ``_ObjectSieves`` of x, cached on C."""
    if x not in C._sieve_cache:
        C._sieve_cache[x] = _ObjectSieves(C, x)
    return C._sieve_cache[x]


class _ObjectSieves:
    """The sieves on one object, each built once.

    Sieves are the down-sets of the factoring preorder on arrows into x
    (a <= b iff a factors through b, that is iff ``C.factoring_key(a)`` is
    a subset of ``C.factoring_key(b)``), so they are enumerated as the
    down-sets of the poset of mutual-factoring classes.  ``below[i]`` is
    the set of classes strictly under class i.
    """

    def __init__(self, C, x):
        by_key: dict = {}
        for a in C.arrows_into(x):
            by_key.setdefault(C.factoring_key(a), []).append(a)
        keys = list(by_key)
        self.x = x
        self.classes = [tuple(by_key[k]) for k in keys]
        self.below = [frozenset(j for j, kj in enumerate(keys) if kj < ki) for ki in keys]
        self.minimal = frozenset(i for i, b in enumerate(self.below) if not b)
        self.universe = None
        self._built: dict = {}

    def sieve(self, ideal: frozenset) -> Sieve:
        """The sieve made of the classes in the down-set ``ideal``."""
        if ideal not in self._built:
            self._built[ideal] = Sieve(self.x, frozenset(itertools.chain.from_iterable(self.classes[i] for i in ideal)))
        return self._built[ideal]

    def ideal(self, S: Sieve) -> frozenset:
        """The classes that make up the sieve S."""
        return frozenset(i for i, cls in enumerate(self.classes) if cls[0] in S.members)

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


# -- the topology type -------------------------------------------------


class GrothendieckTopology:
    """Per-object sets of covering sieves on a finite category, given in
    exactly one of two forms:

    * ``covers`` maps objects to cover sets (an object left out gets the
      maximal sieve alone).  Parsed, enumerated, generated and met
      topologies take this form; they need not satisfy the axioms.
    * ``basis(x)`` returns the minimal covers at x; the covers at x are the
      sieves that contain one of them, enumerated on first use under
      ``sieve_cap``.  The named builders take this form.

    The ``basis`` method returns the sorted cover set in the first form
    and the sorted minimal covers in the second.
    """

    def __init__(
        self,
        category,
        name: str = "",
        covers: Mapping | None = None,
        basis: Callable | None = None,
        sieve_cap: int = DEFAULT_SIEVE_CAP,
    ):
        if (covers is None) == (basis is None):
            raise StructuralError("a topology needs exactly one of explicit covers and a basis")
        self.category = category
        self.name = name
        self._covers: dict = {}
        self._basis: dict = {}
        self._minimal_covers = basis
        self._sieve_cap = sieve_cap
        if covers is not None:
            for x, sieves in covers.items():
                if not category.has_object(x):
                    raise StructuralError(f"covers mention unknown object {x!r}")
                self._covers[x] = frozenset(sieves)
            for x in category.objects:
                self._covers.setdefault(x, frozenset({maximal_sieve(category, x)}))

    def covers(self, x) -> frozenset:
        if x not in self._covers:
            self._covers[x] = frozenset(_sieves_on(self.category, x).above(self.basis(x), self._sieve_cap))
        return self._covers[x]

    def covers_map(self) -> dict:
        return {x: self.covers(x) for x in self.category.objects}

    def contains(self, S: Sieve) -> bool:
        if self._minimal_covers is None:
            return S in self.covers(S.base)
        return any(B.members <= S.members for B in self.basis(S.base))

    def basis(self, x):
        if x not in self._basis:
            if not self.category.has_object(x):
                raise StructuralError(f"unknown object {x!r}")
            sieves = self._covers[x] if self._minimal_covers is None else self._minimal_covers(x)
            self._basis[x] = tuple(sorted(sieves, key=lambda s: sieve_sort_key(self.category, s)))
        return self._basis[x]

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


def unclosed_cover(J: GrothendieckTopology):
    """``(x, S, R)`` for the first cover S at x that grows by one factoring
    class into a sieve R that is not a cover, or None when every cover set
    of J is closed upward.  One class at a time reaches every larger sieve,
    so this one pass decides upward closure."""
    C = J.category
    for x in sorted(C.objects, key=str):
        sieves, cov = _sieves_on(C, x), J.covers(x)
        for S in sorted(cov, key=lambda s: sieve_sort_key(C, s)):
            ideal = sieves.ideal(S)
            for i, b in enumerate(sieves.below):
                if i not in ideal and b <= ideal:
                    R = sieves.sieve(ideal | {i})
                    if R not in cov:
                        return x, S, R
    return None


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


def is_dense_sieve(C, S: Sieve) -> bool:
    """Double-negation density: every arrow into the base meets S after
    further precomposition.

    The composites f.g are the arrows that factor through f, and every
    arrow lies above a minimal factoring class, so S is dense iff it meets
    every minimal class.
    """
    sieves = _sieves_on(C, S.base)
    return all(not S.members.isdisjoint(sieves.classes[i]) for i in sieves.minimal)


def trivial_topology(C, sieve_cap: int = DEFAULT_SIEVE_CAP) -> GrothendieckTopology:
    """Only the maximal sieve covers, at every object."""
    return GrothendieckTopology(C, "trivial", basis=lambda x: (maximal_sieve(C, x),), sieve_cap=sieve_cap)


def discrete_topology(C, sieve_cap: int = DEFAULT_SIEVE_CAP) -> GrothendieckTopology:
    """Every sieve covers."""
    return GrothendieckTopology(C, "discrete", basis=lambda x: (empty_sieve(x),), sieve_cap=sieve_cap)


def dense_topology(C, sieve_cap: int = DEFAULT_SIEVE_CAP) -> GrothendieckTopology:
    """The dense sieves cover.

    A sieve is dense iff it contains every minimal factoring class (see
    ``is_dense_sieve``), so the least dense sieve at each object is the
    union of those classes.
    """

    def basis(x):
        sieves = _sieves_on(C, x)
        return (sieves.sieve(sieves.minimal),)

    return GrothendieckTopology(C, "dense", basis=basis, sieve_cap=sieve_cap)


def atomic_topology(C, sieve_cap: int = DEFAULT_SIEVE_CAP) -> GrothendieckTopology:
    """The nonempty sieves cover; a candidate that need not satisfy the
    stability axiom (the builder's verdict says whether it does).

    The minimal covers are the principal sieves of the minimal factoring
    classes, which are those classes alone.
    """

    def basis(x):
        sieves = _sieves_on(C, x)
        return tuple(sieves.sieve(frozenset({i})) for i in sieves.minimal)

    return GrothendieckTopology(C, "atomic", basis=basis, sieve_cap=sieve_cap)


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
    J = _BUILDERS[kind](C, sieve_cap)
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

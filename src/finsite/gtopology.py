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

On a finite category the covers of a topology at x are exactly the
sieves that contain their intersection L(x), the least cover (Mac Lane
and Moerdijk, *Sheaves in Geometry and Logic*, III.2).  So a topology is
generated one least cover per object, with one pullback per arrow and no
sieve universe (``_closed``), and it is valid iff generating from its
least covers changes none of them; only a failing verdict runs the
report pass, which pulls every sieve back once along each arrow into its
object.  A sieve's classes are the int mask kept by ``finsite.sieves``
(bit i = class i), so the conditions in this module are ``&``, ``|`` and
``a & ~b == 0`` on masks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import (
    DEFAULT_CANDIDATE_CAP,
    DEFAULT_SIEVE_CAP,
    FinsiteError,
    ResourceError,
    StructuralError,
)
from .sieves import (
    Sieve,
    _bits,
    _mask,
    _not_on,
    _sieves_on,
    maximal_sieve,
    sieve_literal,
    sorted_sieves,
)


# -- sieve enumeration -------------------------------------------------


def sieve_universe(C, x, cap: int = DEFAULT_SIEVE_CAP):
    """All sieves on x, as a sorted tuple."""
    sieves = _sieves_on(C, x)
    if sieves.universe is None:
        sieves.universe = tuple(sorted_sieves(C, map(sieves.sieve, sieves.up_sets((sieves.sieve(0),), cap))))
    if len(sieves.universe) > cap:
        raise ResourceError(
            f"object {x!r} has {len(sieves.universe)} sieves, over the sieve cap {cap}",
            cap_name="sieves",
            cap_value=cap,
        )
    return sieves.universe


# -- the topology type -------------------------------------------------


class GrothendieckTopology:
    """Per-object sets of covering sieves on a finite category, given in
    exactly one of two forms:

    * ``covers`` maps objects to cover sets (an object left out gets the
      maximal sieve alone).  Parsed and met topologies take this form;
      they need not satisfy the axioms.
    * ``basis(x)`` returns the minimal covers at x; the covers at x are the
      sieves that contain one of them, enumerated on first use under
      ``sieve_cap``.  The named builders and generated and enumerated
      topologies take this form; the last two give one least cover per
      object.

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
        self._gap = ()  # unclosed_cover's verdict, once decided: None or (x, S, R)
        if covers is not None:
            for x, sieves in covers.items():
                if not category.has_object(x):
                    raise StructuralError(f"covers mention unknown object {x!r}")
                self._covers[x] = frozenset(sieves)
            for x in category.objects:
                if x not in self._covers:
                    self._covers[x] = frozenset({maximal_sieve(category, x)})

    def covers(self, x) -> frozenset:
        if x not in self._covers:
            sieves = _sieves_on(self.category, x)
            self._covers[x] = frozenset(map(sieves.sieve, sieves.up_sets(self.basis(x), self._sieve_cap)))
        return self._covers[x]

    def covers_map(self) -> dict:
        return {x: self.covers(x) for x in self.category.objects}

    def contains(self, S: Sieve) -> bool:
        why = _not_on(self.category, S.base, S)
        if why:
            raise StructuralError(f"{self!r} cannot hold a {why}")
        if self._minimal_covers is None:
            return S in self.covers(S.base)
        return any(B <= S for B in self.basis(S.base))

    def basis(self, x):
        if x not in self._basis:
            if not self.category.has_object(x):
                raise StructuralError(f"unknown object {x!r}")
            self._basis[x] = tuple(sorted_sieves(self.category, self._stored(x)))
        return self._basis[x]

    def _stored(self, x):
        """The sieves given at x, unsorted: its cover set or its minimal
        covers."""
        return self._covers[x] if self._minimal_covers is None else tuple(self._minimal_covers(x))

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
    of J is closed upward, as those of minimal covers are.  Decided once
    per topology."""
    if J._minimal_covers is not None:
        return None
    if J._gap == ():
        J._gap = _unclosed_cover(J)
    return J._gap


def _unclosed_cover(J):
    C = J.category
    for x in sorted(C.objects, key=str):
        cov = J.covers(x)
        gap = _first_gap(_sieves_on(C, x), sorted_sieves(C, cov), cov)
        if gap is not None:
            return (x, *gap)
    return None


def _first_gap(sieves, order, covers):
    """``(S, R)`` for the first sieve S of ``order`` that grows by one
    factoring class into a sieve R not in ``covers``, or None.  One class
    at a time reaches every larger sieve, so when ``order`` lists the
    sieves of ``covers``, None means that ``covers`` is closed upward."""
    down = sieves.down
    for S in order:
        ideal, out = S._ideal, ~S._ideal
        for i, d in enumerate(down):
            if d & out == 1 << i:  # class i is not in S, and every class under it is
                R = sieves.sieve(ideal | 1 << i)
                if R not in covers:
                    return S, R
    return None


# -- least covers ------------------------------------------------------


def _least_covers(J):
    """``{x: L(x)}`` when the covers of J at each object x are exactly the
    sieves that contain L(x), the intersection of the sieves stored at x;
    None when some stored sieve is not on its object or some cover set is
    not such an up-set.

    Minimal covers give such an up-set when L(x) is among them.  A cover
    set is one when it holds L(x) and is closed under growth by one
    factoring class, which reaches every larger sieve from L(x).
    """
    C = J.category
    least = {}
    for x in C.objects:
        sieves, stored = _sieves_on(C, x), J._stored(x)
        if not stored or any(_not_on(C, x, S) for S in stored):
            return None
        ideal = -1  # every class
        for S in stored:
            ideal &= S._ideal
        L = sieves.sieve(ideal)
        if L not in stored:
            return None
        if J._minimal_covers is None and _first_gap(sieves, stored, stored):
            return None
        least[x] = L
    return least


def _restricts(C, least, x, h) -> int:
    """The mask of the classes of L(d) that lie in the pullback of L(x)
    along the arrow h: d -> x; all of L(d) when the up-sets are stable
    along h."""
    d = C.dom(h)
    return least[d]._ideal & _sieves_on(C, d).pulled(h, least[x])


def _forced(C, least, x) -> int:
    """The mask of the sieve M(x) generated by rep(c).rep(c') for every
    class c of L(x) and c' of L(dom rep(c)): class e at x lies in it iff
    for some c the preimage mask of e along rep(c) meets L(dom rep(c)).

    These classes are already a down-set: an arrow under rep(c).rep(c')
    is rep(c).g with g in L(dom rep(c)), so it is in the class of
    rep(c).rep(c'') for the class c'' of g.  When the up-sets of ``least``
    are stable, M(x) is the least sieve forced by L(x): h.g lies in it for
    every h in L(x) and g in L(dom h), since stability carries g to a
    class of L(dom rep(c)) when h factors through rep(c).  M only grows
    with ``least``; and M(x) lies in L(x), which is a down-set.
    """
    sieves = _sieves_on(C, x)
    out = 0
    for c in _bits(least[x]._ideal):
        r = sieves.rep(c)
        below, pre = least[C.dom(r)]._ideal, _sieves_on(C, C.dom(r)).preimages(r, sieves)
        out |= _mask(e for e, m in enumerate(pre) if m & below)
    return out


def _closed(C, least) -> dict:
    """The greatest least covers under ``least`` (one sieve L(x) per
    object) whose up-sets are stable and transitive: ``least`` itself iff
    its up-sets form a topology.

    They are stable iff L(d) lies in the pullback of L(x) along every arrow
    h: d -> x, and then transitive iff L(x) lies in the sieve M(x) that it
    forces (see ``_forced``).  Each step keeps every topology whose least
    covers lie under ``least``: L(d) shrinks to its part in the pullback of
    L(x) along each h, redone only along the arrows into an object whose
    L(x) shrank, until nothing shrinks; then each L(x) shrinks to its part
    in M(x), and both steps repeat until neither shrinks anything.
    """
    least = dict(least)
    pending = dict.fromkeys(C.objects)  # objects whose L shrank: pull it back along the arrows in
    while pending:
        while pending:
            x, _ = pending.popitem()
            for h in C.arrows_into(x):
                d = C.dom(h)
                kept = _restricts(C, least, x, h)
                if kept != least[d]._ideal:
                    least[d] = _sieves_on(C, d).sieve(kept)
                    pending[d] = None
        for x in C.objects:
            M = _forced(C, least, x)
            if least[x]._ideal & ~M:
                least[x] = _sieves_on(C, x).sieve(least[x]._ideal & M)
                pending[x] = None
    return least


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


def check_axioms(J: GrothendieckTopology, sieve_cap: int = DEFAULT_SIEVE_CAP) -> AxiomReport:
    """Verify maximality, stability and transitivity, exhaustively.

    A topology passes on its least covers: ``_least_covers`` finds them
    and ``_closed`` keeps them all, so verifying one lists no sieve
    universe and needs no cap.  Anything else, and any input on which that
    decision hits a cap, runs one report pass over the sieve universe at
    each object, under the sieve cap.  It pulls each sieve T back once
    along each arrow into its object, and reports a cover T with a pullback
    that is no cover, and a non-cover T that the first cover (a union of
    classes) holding none of the arrows along which T fails forces.
    """
    C = J.category
    try:
        for x in C.objects:
            C.arrows_into(x)  # a hom cap is hit before any pullback
        least = _least_covers(J)
        if least is not None and _closed(C, least) == least:
            return AxiomReport(True, ())
    except FinsiteError:
        pass  # the report that follows decides on its own, and raises what it hits
    objs = sorted(C.objects, key=str)
    violations = []
    covers = {x: J.covers(x) for x in C.objects}
    for x in objs:
        tx = maximal_sieve(C, x)
        if tx not in covers[x]:
            violations.append(AxiomViolation("maximality", x, tx, None, "maximal sieve is not a cover"))
        malformed = {S: why for S in covers[x] if (why := _not_on(C, x, S))}
        for S in sorted(malformed, key=lambda S: (str(S.base), sieve_literal(S._space.C, S))):
            violations.append(AxiomViolation("well-formed", x, S, None, f"{malformed[S]} stored at {x!r}"))
        if malformed:  # the report pass sees only the sieves on x
            covers[x] = covers[x].difference(malformed)
    into = {x: C.arrows_into(x) for x in objs}  # a hom cap is hit before any pullback
    held = {x: {S._ideal for S in covers[x]} for x in objs}  # the covers' masks
    forced = []  # the transitivity lines, which follow every stability line
    for x in objs:
        space, universe = _sieves_on(C, x), sieve_universe(C, x, sieve_cap)
        cov = [S for S in universe if S._ideal in held[x]]
        for T in universe:
            covered, bad = T._ideal in held[x], 0  # bad: the classes of the arrows along which T fails
            for h in into[x]:
                at = _sieves_on(C, C.dom(h))
                if (pulled := at.pulled(h, T)) not in held[at.x]:
                    bad |= 1 << space.class_of(h)
                    if covered:
                        detail = f"pullback {sieve_literal(C, at.sieve(pulled))} is not a cover at {at.x!r}"
                        violations.append(AxiomViolation("stability", x, T, h, detail))
            if covered:
                continue
            for S in cov:  # the first cover that holds no arrow along which T fails, a union of classes
                if not S._ideal & bad:
                    detail = f"forced by cover {sieve_literal(C, S)} but not a cover"
                    forced.append(AxiomViolation("transitivity", x, T, None, detail))
                    break
    violations += forced
    return AxiomReport(not violations, tuple(violations))


# -- named builders ----------------------------------------------------


def is_dense_sieve(C, S: Sieve) -> bool:
    """Double-negation density: every arrow into the base meets S after
    further precomposition.

    The composites f.g are the arrows that factor through f, and every
    arrow lies above a minimal factoring class, so S is dense iff it meets
    every minimal class.
    """
    why = _not_on(C, S.base, S)
    if why:
        raise StructuralError(f"density in {C.name!r} cannot be tested on a {why}")
    return not S._space.minimal & ~S._ideal


def trivial_topology(C, sieve_cap: int = DEFAULT_SIEVE_CAP) -> GrothendieckTopology:
    """Only the maximal sieve covers, at every object."""
    return GrothendieckTopology(C, "trivial", basis=lambda x: (maximal_sieve(C, x),), sieve_cap=sieve_cap)


def discrete_topology(C, sieve_cap: int = DEFAULT_SIEVE_CAP) -> GrothendieckTopology:
    """Every sieve covers."""

    def basis(x):
        return (_sieves_on(C, x).sieve(0),)

    return GrothendieckTopology(C, "discrete", basis=basis, sieve_cap=sieve_cap)


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
        return tuple(sieves.sieve(1 << i) for i in _bits(sieves.minimal))

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


def enumerate_topologies(C, sieve_cap: int = DEFAULT_SIEVE_CAP, candidate_cap: int = DEFAULT_CANDIDATE_CAP):
    """All Grothendieck topologies on a small category, each in basis form:
    its least cover at each object (see ``_closed``).

    Searches one least cover L(x) per object from the sieve universe at x,
    taking objects by their number of factoring classes (a linear
    extension on posets), then by ``str``.  A pick is kept only while the
    two conditions of ``_closed`` hold on what is picked: stability
    along every arrow whose two ends are picked, checked once the later
    end is, and L(y) inside the sieve it forces for every y whose forced
    sieve reads only picked objects, that is once y and the domain of
    every class representative at y are picked.  So every leaf is a
    topology.  The candidate cap counts the picks visited.  Topologies
    are named J0, J1, ... in the order of their least covers' literals
    (objects by ``str``), which is that of all their covers' literals.
    """
    by_str = sorted(C.objects, key=str)
    universes = {x: sieve_universe(C, x, sieve_cap) for x in by_str}
    objs = sorted(universes, key=lambda x: (len(_sieves_on(C, x).keys), str(x)))
    pos = {x: i for i, x in enumerate(objs)}
    arrows = [[] for _ in objs]  # (x, h) for each arrow h into x, under the later of its two ends
    forced = [[] for _ in objs]  # each y, under the last object its forced sieve reads
    for x in objs:
        sieves = _sieves_on(C, x)
        for h in C.arrows_into(x):
            arrows[max(pos[x], pos[C.dom(h)])].append((x, h))
        reps = (pos[C.dom(sieves.rep(c))] for c in range(len(sieves.keys)))
        forced[max(pos[x], *reps)].append(x)
    found = []  # each topology's least covers
    least: dict = {}
    visited = 0

    def rec(i):
        nonlocal visited
        if i == len(objs):
            found.append(dict(least))
            return
        x = objs[i]
        for L in universes[x]:
            visited += 1
            if visited > candidate_cap:
                raise ResourceError(
                    f"topology enumeration exceeds the candidate cap {candidate_cap} while picking "
                    f"the least cover at {x!r}, with {len(found)} topologies found so far",
                    cap_name="candidates",
                    cap_value=candidate_cap,
                )
            least[x] = L
            if all(_restricts(C, least, y, h) == least[C.dom(h)]._ideal for y, h in arrows[i]) and not any(
                least[y]._ideal & ~_forced(C, least, y) for y in forced[i]
            ):
                rec(i + 1)
        del least[x]

    rec(0)
    literal = functools.cache(lambda S: sieve_literal(C, S))
    found.sort(key=lambda least: [literal(least[x]) for x in by_str])
    return [
        GrothendieckTopology(C, f"J{i}", basis=lambda x, least=least: (least[x],), sieve_cap=sieve_cap)
        for i, least in enumerate(found)
    ]


def meet(J1: GrothendieckTopology, J2: GrothendieckTopology) -> GrothendieckTopology:
    """Pointwise intersection of cover sets (the lattice meet)."""
    if J1.category is not J2.category:
        raise StructuralError("cannot meet topologies on different categories")
    C = J1.category
    covers = {x: J1.covers(x) & J2.covers(x) for x in C.objects}
    return GrothendieckTopology(C, name=f"meet({J1.name},{J2.name})", covers=covers)


def generate_topology(C, seed: Mapping, sieve_cap: int = DEFAULT_SIEVE_CAP) -> GrothendieckTopology:
    """The least topology whose covers include the seed sieves, given by
    its least cover at each object; ``sieve_cap`` bounds the cover sets
    when they are listed.

    Its least covers are the greatest ones under the intersection of the
    seed and maximal sieves at each object whose up-sets are stable and
    transitive (see ``_closed``).
    """
    least = {x: maximal_sieve(C, x) for x in C.objects}
    for x, sieves in seed.items():
        if not C.has_object(x):
            raise StructuralError(f"seed mentions unknown object {x!r}")
        space, ideal = _sieves_on(C, x), least[x]._ideal
        for S in sieves:
            if S._space is not space:  # then _not_on says why
                raise StructuralError(f"seed {_not_on(C, x, S)} filed under {x!r}")
            ideal &= S._ideal
        least[x] = space.sieve(ideal)
    least = _closed(C, least)
    return GrothendieckTopology(C, name="generated", basis=lambda x: (least[x],), sieve_cap=sieve_cap)


def join(J1: GrothendieckTopology, J2: GrothendieckTopology, sieve_cap: int = DEFAULT_SIEVE_CAP) -> GrothendieckTopology:
    """The least topology containing both (generated from the sieves that
    each stores: its covers, or its minimal covers, which generate the
    same topology)."""
    if J1.category is not J2.category:
        raise StructuralError("cannot join topologies on different categories")
    C = J1.category
    seed = {x: [*J1._stored(x), *J2._stored(x)] for x in C.objects}
    out = generate_topology(C, seed, sieve_cap)
    out.name = f"join({J1.name},{J2.name})"
    return out

"""Reference computations that every benchmark operation is checked against.

Nothing here imports finsite.  The models are the closed forms the
program's verdicts must agree with:

* Finite posets.  Every Grothendieck topology on a finite poset is
  J_D(x) = {down-sets S of the principal ideal of x : D meet (ideal of x)
  is contained in S} for one subset D of the elements.  So there are
  2^|P| topologies, meet(J_D, J_E) = J_{D | E} and join(J_D, J_E) =
  J_{D & E}.  On a divisor poset D_n the trivial kind is J_all, discrete
  is J_empty, and dense and atomic are both J_{1}.  Pullback along k -> n
  is intersection with the divisors of k.
* Finite-set categories whose carriers are all nonempty and include one
  at least as large as every other.  The mutual-factoring classes of
  arrows into x are the nonempty subsets of x's carrier (the image), so a
  sieve is a down-set of nonempty subsets and its pullback along h is
  {A : h[A] in S}.  Subsets are bitmasks over carrier positions.
* Algebraic facts checked by brute force over small tables.

``self_check`` compares the models with hand-known values and runs before
any workload.
"""

from __future__ import annotations

import functools
import math
import re
from itertools import combinations, product


class ReferenceError(Exception):
    """A program output disagrees with the reference, or the reference
    disagrees with a hand-known value."""


def require(cond, message):
    if not cond:
        raise ReferenceError(message)


# -- posets ---------------------------------------------------------------


class Poset:
    """A finite poset with string element names and arrow labels a|b."""

    def __init__(self, name, elements, leq):
        self.name = name
        self.elements = tuple(elements)
        self.ideal = {x: frozenset(y for y in self.elements if leq(y, x)) for x in self.elements}
        self._downsets = {}

    def leq(self, a, b):
        return a in self.ideal[b]

    def arrows(self):
        """Non-identity arrows (a, b) with a < b."""
        return [(a, b) for b in self.elements for a in sorted(self.ideal[b], key=str) if a != b]

    def downsets(self, x):
        """All down-sets of the principal ideal of x."""
        if x not in self._downsets:
            elems = sorted(self.ideal[x], key=lambda e: (len(self.ideal[e]), str(e)))
            out = []

            def rec(i, current):
                if i == len(elems):
                    out.append(frozenset(current))
                    return
                e = elems[i]
                rec(i + 1, current)
                if self.ideal[e] - {e} <= current:
                    current.add(e)
                    rec(i + 1, current)
                    current.discard(e)

            rec(0, set())
            self._downsets[x] = tuple(out)
        return self._downsets[x]

    def topology(self, D):
        """J_D as {x: frozenset of covering down-sets}."""
        D = frozenset(D)
        return {x: frozenset(S for S in self.downsets(x) if D & self.ideal[x] <= S) for x in self.elements}

    def closure(self, x, gens):
        out = set()
        for g in gens:
            require(self.leq(g, x), f"{g} is not below {x} in {self.name}")
            out |= self.ideal[g]
        return frozenset(out)

    # -- the text forms the program reads and writes -----------------------

    def label(self, a, b):
        return f"{a}|{b}"

    def category_text(self):
        lines = [f"category {self.name}"]
        lines += [f"object {x}" for x in self.elements]
        lines += [f"arrow {a}|{b} : {a} -> {b}" for a, b in self.arrows()]
        for a, b in self.arrows():
            for c in self.elements:
                if c != b and self.leq(b, c):
                    lines.append(f"compose {b}|{c} . {a}|{b} = {a}|{c}")
        return "\n".join(lines) + "\n"

    def topology_text(self, name, covers):
        lines = [f"topology {name} on {self.name}"]
        for x in self.elements:
            for S in sorted(covers[x], key=lambda s: (len(s), sorted(map(str, s)))):
                if S != self.ideal[x]:
                    lines.append(f"cover {x} : {{{', '.join(f'{a}|{x}' for a in sorted(S, key=str))}}}")
        return "\n".join(lines) + "\n"

    def as_tokens(self, covers):
        """Covers in the comparison form of ``parse_topology_text``: object
        token -> set of non-maximal covers, each a frozenset of arrow labels."""
        return {
            str(x): frozenset(
                frozenset(self.label(a, x) for a in S) for S in covers[x] if S != self.ideal[x]
            )
            for x in self.elements
        }

    def sieve_from_tokens(self, x, tokens):
        """Members of a sieve literal on x, as elements."""
        by_label = {self.label(a, x): a for a in self.ideal[x] if a != x}
        by_label[f"id_{x}"] = x
        out = set()
        for t in tokens:
            require(t in by_label, f"{t!r} is not an arrow into {x} of {self.name}")
            out.add(by_label[t])
        return frozenset(out)


def divisors(n):
    return [k for k in range(1, n + 1) if n % k == 0]


@functools.cache
def divisor_poset(n):
    return Poset(f"D_{n}", divisors(n), lambda a, b: b % a == 0)


def cospan_poset():
    return Poset("cospan", ("X", "Y", "Z"), lambda a, b: a == b or b == "Z")


def named_divisor_set(P, kind):
    """The D of J_D for the program's named builders on a divisor poset."""
    return {"trivial": P.elements, "discrete": (), "dense": (1,), "atomic": (1,)}[kind]


def is_continuous_poset(P, J, k, n):
    """Every cover at k is the pullback (intersection with the ideal of k)
    of a cover at n; returns the set of non-pullback covers."""
    pulled = {S & P.ideal[k] for S in J[n]}
    return frozenset(S for S in J[k] if S not in pulled)


def initial_poset(P, J, x, targets):
    if not targets:
        return frozenset(P.downsets(x))
    out = None
    for t in targets:
        pulled = frozenset(S & P.ideal[x] for S in J[t])
        out = pulled if out is None else out & pulled
    return out


def broken_topology(P, J, x):
    """J with its smallest non-maximal cover at x removed, and the exact
    violations ``check_axioms`` must report: one stability violation for
    every cover S' at an object above x with S' meet ideal(x) = S0, and one
    transitivity violation at x when another non-maximal cover forces S0."""
    S0 = min((S for S in J[x] if S != P.ideal[x]), key=lambda s: (len(s), sorted(map(str, s))))
    broken = dict(J)
    broken[x] = J[x] - {S0}
    stability = [
        (y, S) for y in P.elements if y != x and P.leq(x, y) for S in J[y] if S & P.ideal[x] == S0
    ]
    forced = any(S != P.ideal[x] for S in broken[x])
    return broken, S0, stability, forced


def validate_checks(P):
    """The check count of the program's exhaustive table validation on a
    poset: identities, both unit laws per arrow, composable pairs, and
    composable triples (identities included)."""
    n_arrows = sum(len(P.ideal[x]) for x in P.elements)
    pairs = sum(len(P.ideal[m]) for n in P.elements for m in P.ideal[n])
    triples = sum(len(P.ideal[k]) for n in P.elements for m in P.ideal[n] for k in P.ideal[m])
    return len(P.elements) + 2 * n_arrows + pairs + triples


def cover_preservation_failures(P, E):
    """Objects (a, b) of D_n x D_n where the lcm functor sends the least
    cover of the dense product topology, the sieve generated by the bottom
    (1, 1), to a sieve outside J_E.  Covers are closed upward and
    generation is monotone, so the least cover decides."""
    E = frozenset(E)
    return [(a, b) for a in P.elements for b in P.elements if not E & P.ideal[math.lcm(a, b)] <= P.ideal[1]]


# -- finite-set categories ------------------------------------------------


def nonempty_masks(n):
    return list(range(1, 1 << n))


def finset_sieves(n):
    """Down-sets of the nonempty subsets of an n-element carrier."""
    masks = sorted(nonempty_masks(n), key=lambda m: (bin(m).count("1"), m))
    out = []

    def rec(i, current):
        if i == len(masks):
            out.append(frozenset(current))
            return
        m = masks[i]
        rec(i + 1, current)
        if all(m & ~(1 << b) in current for b in range(n) if m >> b & 1 and m & ~(1 << b)):
            current.add(m)
            rec(i + 1, current)
            current.discard(m)

    rec(0, set())
    return out


def finset_topology(n, kind):
    """Covers at an n-element carrier for the program's named builders.

    Dense: an arrow with image A meets S after precomposition iff some
    nonempty subset of A lies in S, so the dense sieves are the ones that
    hold every singleton.
    """
    full = frozenset(nonempty_masks(n))
    if kind == "trivial":
        return frozenset({full})
    sieves = finset_sieves(n)
    if kind == "discrete":
        return frozenset(sieves)
    if kind == "atomic":
        return frozenset(S for S in sieves if S)
    singles = {1 << b for b in range(n)}
    return frozenset(S for S in sieves if singles <= S)


def image_mask(h, A):
    """h[A] for a map given as a tuple of codomain positions."""
    out = 0
    for i, j in enumerate(h):
        if A >> i & 1:
            out |= 1 << j
    return out


def finset_pullback(h, n_dom, S):
    return frozenset(A for A in nonempty_masks(n_dom) if image_mask(h, A) in S)


def finset_gtop(n, kind, mu, zeta):
    """(product-local topology at G x G, mu continuous, zeta continuous or
    None) for a structure on an n-element carrier G; positions in G x G are
    i * n + j for the pair (i, j)."""
    J = finset_topology(n, kind)
    p1 = tuple(i for i in range(n) for _ in range(n))
    p2 = tuple(j for _ in range(n) for j in range(n))
    nn = n * n
    PL = frozenset(finset_pullback(p1, nn, S) for S in J) & frozenset(finset_pullback(p2, nn, S) for S in J)
    mu_ok = PL <= {finset_pullback(mu, nn, S) for S in J}
    zeta_ok = None if zeta is None else J <= {finset_pullback(zeta, n, S) for S in J}
    return PL, mu_ok, zeta_ok


def finset_continuity_failures(n, kind, f):
    """Covers at G that are not pullbacks along the endomorphism f."""
    J = finset_topology(n, kind)
    pulled = {finset_pullback(f, n, S) for S in J}
    return frozenset(S for S in J if S not in pulled)


def surjections(m, k):
    """Maps from an m-set onto a fixed k-set (inclusion-exclusion)."""
    return sum((-1) ** i * math.comb(k, i) * (k - i) ** m for i in range(k + 1))


def class_sizes(into_size, source_sizes):
    """Arrows into an ``into_size`` carrier with image exactly A, for each
    nonempty mask A, summed over the source carriers."""
    return {
        A: sum(surjections(m, bin(A).count("1")) for m in source_sizes)
        for A in nonempty_masks(into_size)
    }


# -- algebra ----------------------------------------------------------------


def is_monoid(elems, op, unit):
    assoc = all(op(op(a, b), c) == op(a, op(b, c)) for a, b, c in product(elems, repeat=3))
    return assoc and all(op(unit, a) == a == op(a, unit) for a in elems)


def is_group(elems, op, unit, inv):
    return is_monoid(elems, op, unit) and all(op(a, inv(a)) == unit for a in elems)


def is_abelian(elems, op):
    return all(op(a, b) == op(b, a) for a, b in product(elems, repeat=2))


def algebraic_objects_in_divisor_poset(n):
    """Carriers of monoid (and group) objects in D_n.  The terminal object
    is n and the unit is an arrow n -> G, which exists only for G = n;
    there mu = eta = zeta = id_n satisfy every law."""
    return [G for G in divisors(n) if G % n == 0]


# -- parsing the program's text output ------------------------------------

_COVER = re.compile(r"^cover\s+(\S+)\s*:\s*\{(.*)\}\s*$")


def literal_tokens(body):
    return frozenset(t.strip() for t in body.split(",") if t.strip())


def parse_sieve_literal(text):
    text = text.strip()
    require(text.startswith("{") and text.endswith("}"), f"not a sieve literal: {text!r}")
    return literal_tokens(text[1:-1])


def parse_topology_text(text):
    """(name, category, {object token: set of covers as token sets})."""
    lines = [l for l in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if l]
    require(lines, "empty topology text")
    head = lines[0].split()
    require(len(head) == 4 and head[0] == "topology" and head[2] == "on", f"bad topology header {lines[0]!r}")
    covers = {}
    for line in lines[1:]:
        m = _COVER.match(line)
        require(m, f"bad cover line {line!r}")
        covers.setdefault(m.group(1), set()).add(literal_tokens(m.group(2)))
    return head[1], head[3], covers


def topology_blocks(text):
    """The topology texts of an enumerate-topologies report."""
    lines = text.splitlines()
    require(lines and lines[0].split()[1:2] == ["topologies"], f"bad enumeration header {lines[:1]!r}")
    blocks = []
    for line in lines[1:]:
        if line.startswith("topology "):
            blocks.append([])
        require(blocks, f"cover line before a header: {line!r}")
        blocks[-1].append(line)
    require(len(blocks) == int(lines[0].split()[0]), f"{lines[0]!r} but {len(blocks)} are listed")
    return ["\n".join(b) + "\n" for b in blocks]


def parse_topology_list(text):
    return [parse_topology_text(b) for b in topology_blocks(text)]


def normalize(covers, objects):
    """Token covers with every object present and maximal sieves dropped
    (the program's files omit them)."""
    return {str(x): frozenset(covers.get(str(x), ())) for x in objects}


def parse_local_lines(text):
    """'<label> at X (K sieves):' followed by one sieve literal per line."""
    lines = text.splitlines()
    m = re.match(r"^.* at (\S+) \((\d+) sieves\):$", lines[0]) if lines else None
    require(m, f"bad local topology header {lines[:1]!r}")
    sieves = [parse_sieve_literal(l) for l in lines[1:]]
    require(len(sieves) == int(m.group(2)), "sieve count does not match the header")
    return m.group(1), frozenset(sieves)


def parse_category_text(text):
    """(name, objects, {arrow: (dom, cod)}, {(g, f): h}) of a .cat file."""
    objects, arrows, table, name = [], {}, {}, None
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] == "category":
            name = toks[1]
        elif toks[0] == "object":
            objects.append(toks[1])
        elif toks[0] == "arrow":
            arrows[toks[1]] = (toks[3], toks[5])
        elif toks[0] == "compose":
            table[(toks[1], toks[3])] = toks[5]
        else:
            raise ReferenceError(f"bad category line {raw!r}")
    return name, objects, arrows, table


def expected_category(P):
    """What a .cat file of the poset P must hold, in parse_category_text form."""
    arrows = {f"{a}|{b}": (str(a), str(b)) for a, b in P.arrows()}
    table = {}
    for a, b in P.arrows():
        for c in P.elements:
            if c != b and P.leq(b, c):
                table[(f"{b}|{c}", f"{a}|{b}")] = f"{a}|{c}"
    return sorted(map(str, P.elements)), arrows, table


# -- hand-known values --------------------------------------------------------


def self_check():
    # Dedekind numbers 3, 6, 20, 168, minus the empty down-set of the empty set
    require([len(finset_sieves(n)) for n in (1, 2, 3, 4)] == [2, 5, 19, 167], "finset sieve counts")
    require(len(finset_topology(2, "dense")) == 2 and len(finset_topology(2, "atomic")) == 4, "finset named kinds")
    require(surjections(3, 2) == 6 and surjections(8, 4) == 40824, "surjection counts")
    # J_D is injective in D: a chain of five has 32 topologies
    chain = divisor_poset(16)
    tops = {tuple(sorted((x, frozenset(S)) for x, S in chain.topology(D).items())) for r in range(6) for D in combinations(chain.elements, r)}
    require(len(tops) == 32, "D_16 topologies")
    require(sum(len(divisor_poset(n).downsets(x)) for n in (360,) for x in divisors(n)) == 1057, "D_360 sieves")
    require(sum(len(divisor_poset(720).downsets(x)) for x in divisors(720)) == 2533, "D_720 sieves")
    d12 = divisor_poset(12)
    require(len(d12.topology((1,))[12]) == 9, "dense covers at 12 in D_12")
    require(validate_checks(divisor_poset(1)) == 5, "validation count on the point")
    # the cospan X -> Z <- Y has 8 topologies, and atomic is not one of them
    cospan = cospan_poset()
    cospan_tops = [cospan.topology(D) for r in range(4) for D in combinations(cospan.elements, r)]
    require(len({tuple(sorted(J.items())) for J in cospan_tops}) == 8, "cospan topologies")
    atomic = {x: frozenset(S for S in cospan.downsets(x) if S) for x in cospan.elements}
    require(atomic not in cospan_tops, "atomic on the cospan")
    bits = (0, 1)
    require(is_group(bits, lambda a, b: a ^ b, 0, lambda a: a) and is_abelian(bits, lambda a, b: a ^ b), "xor group")
    require(is_monoid(bits, lambda a, b: a & b, 1) and not is_group(bits, lambda a, b: a & b, 1, lambda a: a), "and monoid")
    require(is_monoid(bits, lambda a, b: a | b, 0), "or monoid")
    z3 = (0, 1, 2)
    require(is_group(z3, lambda a, b: (a + b) % 3, 0, lambda a: -a % 3), "Z/3 group")
    for n in (36, 60, 360):
        require(algebraic_objects_in_divisor_poset(n) == [n], f"algebraic objects of D_{n}")
        require(is_monoid(divisors(n), math.lcm, 1), f"lcm monoid on D_{n}")

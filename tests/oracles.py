"""Independent oracles: plain integer arithmetic and brute-force set search.

Nothing here imports the package under test; expected values in the test
suite are computed against these and frozen where the value is small.
"""

from __future__ import annotations

import math
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


def lcm(a: int, b: int) -> int:
    return math.lcm(a, b)


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


def is_maximal(C, x, S) -> bool:
    return S == frozenset(C.arrows_into(x))


def is_any(C, x, S) -> bool:
    return True


def is_nonempty(C, x, S) -> bool:
    return bool(S)


def is_dense(C, x, S) -> bool:
    """For every f into x, some f.g lies in S."""
    return all(any(C.compose(f, g) in S for g in C.arrows_into(C.dom(f))) for f in C.arrows_into(x))


def minimal(sets) -> set[frozenset]:
    sets = set(sets)
    return {S for S in sets if not any(T < S for T in sets)}

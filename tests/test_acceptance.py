"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All comparisons are exact (set equality / arrow equality); the only
tolerances are the stated runtime budgets.
"""

import functools
import itertools
import time
from pathlib import Path

from finsite.algebra import (
    HomWitness,
    check_abelian_group_object,
    check_group_object,
    check_homomorphism,
    check_monoid_object,
    compose_homomorphisms,
    find_algebraic_objects,
    group_witness,
)
from finsite.cli import CommandRequest, run_command
from finsite.continuity import (
    initial_local_topology,
    is_continuous,
    is_continuous_local,
    is_cover_preserving,
    localize,
)
from finsite.fincat import (
    FinCategory,
    build_divisor_poset,
    build_finset_category,
    build_lcm_functor,
    build_product_category,
    divisor_inclusion_functor,
)
from finsite.gtopgroup import is_gtop_algebraic_object, is_gtop_functor_monoid
from finsite.gtopology import (
    GrothendieckTopology,
    atomic_topology,
    check_axioms,
    dense_topology,
    discrete_topology,
    enumerate_topologies,
    join,
    meet,
    sieve_universe,
    trivial_topology,
)
from finsite.parsing import (
    parse_category_file,
    parse_topology_file,
    parse_witness_file,
    serialize_category,
    serialize_topology,
    serialize_witness,
)
from finsite.sieves import maximal_sieve, pullback_sieve, sieve_closure

from oracles import dense_below, divisor_down_sets

FIXTURES = Path(__file__).parent / "fixtures"


def criterion(n, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {n} ({name}): FAIL")
                raise
            print(f"\nACCEPTANCE {n} ({name}): PASS")

        return wrapper

    return deco


def arrow_category():
    return FinCategory.from_data("arrow", [1, 2], {"f": (1, 2)})


def point_category():
    return FinCategory.from_data("point", ["*"], {})


def cospan_category():
    return FinCategory.from_data("cospan", ["X", "Y", "Z"], {"f": ("X", "Z"), "g": ("Y", "Z")})


def zmod2_category():
    g = (0, 1)
    gg = tuple((a, b) for a in g for b in g)
    ggg = tuple((p, c) for p in gg for c in g)
    return build_finset_category({"unit": ((),), "g": g, "g2": gg, "g3": ggg}, name="zmod2")


def all_builders(C):
    return {
        "trivial": trivial_topology(C),
        "discrete": discrete_topology(C),
        "dense": dense_topology(C),
        "atomic": atomic_topology(C),
    }


@criterion(1, "axiom suite for the named builders")
def test_criterion_1_axiom_suite():
    t0 = time.perf_counter()
    divisor_cats = [build_divisor_poset(n) for n in (12, 30, 60)]
    small_cats = [arrow_category(), point_category(), cospan_category()]
    for C in divisor_cats + small_cats:
        for kind in ("trivial", "discrete", "dense"):
            builder = all_builders(C)[kind]
            assert check_axioms(builder).ok, f"{kind} fails on {C.name}"
    for C in divisor_cats:
        assert check_axioms(atomic_topology(C)).ok, f"atomic fails on {C.name}"
    cospan = cospan_category()
    report = check_axioms(atomic_topology(cospan))
    assert not report.ok
    witnesses = [
        v
        for v in report.violations
        if v.axiom == "stability" and v.obj == "Z" and v.arrow == "g" and v.sieve.members == {"f"}
    ]
    assert witnesses, "expected the stability witness g*(closure{f}) empty"
    assert time.perf_counter() - t0 < 10.0


@criterion(2, "pullback functoriality, exhaustive on D_12")
def test_criterion_2_pullback_functoriality():
    C = build_divisor_poset(12)
    universes = {x: sieve_universe(C, x) for x in C.objects}
    for x in C.objects:
        assert len(universes[x]) <= 10
        for S in universes[x]:
            assert pullback_sieve(C, C.identity(x), S) == S
    assert len(C.all_arrows()) == 18
    for (g, f) in C.composable_pairs():
        gf = C.compose(g, f)
        for S in universes[C.cod(g)]:
            assert pullback_sieve(C, gf, S) == pullback_sieve(C, f, pullback_sieve(C, g, S))


@criterion(3, "dense topology characterization on divisor posets")
def test_criterion_3_dense_characterization():
    for n in (12, 30, 60):
        C = build_divisor_poset(n)
        J = dense_topology(C)
        for x in C.objects:
            got = {frozenset(C.dom(a) for a in S.members) for S in J.covers(x)}
            bottom_arrow = C.hom(1, x)[0]
            with_bottom = {
                frozenset(C.dom(a) for a in S.members)
                for S in sieve_universe(C, x)
                if bottom_arrow in S.members
            }
            oracle = {frozenset(D) for D in divisor_down_sets(x) if dense_below(x, D)}
            assert got == with_bottom == oracle, f"divergence at {x} in D_{n}"


@criterion(4, "topology enumeration and the lattice structure")
def test_criterion_4_enumeration_lattice():
    t0 = time.perf_counter()
    point = point_category()
    assert len(enumerate_topologies(point)) == 2
    arrow = arrow_category()
    found = enumerate_topologies(arrow)
    assert len(found) == 4
    # unpruned oracle: every maximal-containing assignment through check_axioms
    per_object = []
    for x in arrow.objects:
        tx = maximal_sieve(arrow, x)
        rest = [S for S in sieve_universe(arrow, x) if S != tx]
        opts = [
            frozenset({tx, *combo})
            for r in range(len(rest) + 1)
            for combo in itertools.combinations(rest, r)
        ]
        per_object.append(opts)
    oracle = []
    for assignment in itertools.product(*per_object):
        J = GrothendieckTopology(arrow, covers=dict(zip(arrow.objects, assignment)))
        if check_axioms(J).ok:
            oracle.append(J)
    assert len(oracle) == 4
    for J in oracle:
        assert any(J == K for K in found)
    for C, tops in ((point, enumerate_topologies(point)), (arrow, found)):
        bottom = GrothendieckTopology(C, covers={x: {maximal_sieve(C, x)} for x in C.objects})
        top = GrothendieckTopology(C, covers={x: set(sieve_universe(C, x)) for x in C.objects})
        assert any(J == bottom for J in tops)
        assert any(J == top for J in tops)
        for j1 in tops:
            for j2 in tops:
                m, j = meet(j1, j2), join(j1, j2)
                assert any(J == m for J in tops)
                assert any(J == j for J in tops)
                # absorption
                assert meet(j1, join(j1, j2)) == j1
                assert join(j1, meet(j1, j2)) == j1
    assert time.perf_counter() - t0 < 5.0


@criterion(5, "continuity composition closure and the negative instance")
def test_criterion_5_continuity():
    C = build_divisor_poset(12)
    for kind, J in all_builders(C).items():
        cont = {f for f in C.all_arrows() if is_continuous(C, f, J).ok}
        for (g, f) in C.composable_pairs():
            if f in cont and g in cont:
                assert C.compose(g, f) in cont, f"composition closure fails under {kind}"
    arrow = arrow_category()
    for J in enumerate_topologies(arrow):
        cont = {f for f in arrow.all_arrows() if is_continuous(arrow, f, J).ok}
        for (g, f) in arrow.composable_pairs():
            if f in cont and g in cont:
                assert arrow.compose(g, f) in cont
    t1, t2 = maximal_sieve(arrow, 1), maximal_sieve(arrow, 2)
    J = GrothendieckTopology(arrow, covers={1: {t1, sieve_closure(arrow, 1, ())}, 2: {t2}})
    verdict = is_continuous(arrow, "f", J)
    assert not verdict.ok
    assert verdict.witness == sieve_closure(arrow, 1, ())


@criterion(6, "initial topologies have the characteristic property")
def test_criterion_6_initial_topology():
    C = build_divisor_poset(12)
    builders = all_builders(C)
    for J in builders.values():
        for x in C.objects:
            outs = [f for f in C.all_arrows() if C.dom(f) == x]
            families = [(f,) for f in outs]
            families += list(itertools.combinations(outs, 2))
            for fam in families:
                family = [(f, localize(J, C.cod(f))) for f in fam]
                Lhat = initial_local_topology(C, x, family)
                for f, L in family:
                    assert is_continuous_local(C, f, Lhat, L).ok
                for K in builders.values():
                    for g in C.arrows_into(x):
                        KZ = localize(K, C.dom(g))
                        left = is_continuous_local(C, g, KZ, Lhat).ok
                        right = all(
                            is_continuous_local(C, C.compose(f, g), KZ, L).ok
                            for f, L in family
                        )
                        assert left == right, (
                            f"characteristic property fails at x={x}, family={fam}, g={g}"
                        )


@criterion(7, "algebraic object search and the xor witness")
def test_criterion_7_algebra():
    C = build_divisor_poset(12)
    found = find_algebraic_objects(C, "monoid")
    assert [(w.carrier, w.mu, w.eta) for w in found] == [(12, "id_12", "id_12")]
    Z = zmod2_category()
    xor = Z.function("g2", "g", {p: (p[0] + p[1]) % 2 for p in Z.carrier("g2")})
    eta = Z.function("unit", "g", {(): 0})
    w = group_witness(Z, "g", mu=xor, eta=eta, zeta=Z.identity("g"))
    assert check_monoid_object(Z, w).ok
    assert check_group_object(Z, w).ok
    assert check_abelian_group_object(Z, w).ok
    ident = Z.identity("g")
    const0 = Z.function("g", "g", {0: 0, 1: 0})
    flip = Z.function("g", "g", {0: 1, 1: 0})
    assert check_homomorphism(Z, HomWitness(w, w, ident)).ok
    assert check_homomorphism(Z, HomWitness(w, w, const0)).ok
    assert not check_homomorphism(Z, HomWitness(w, w, flip)).ok
    # composition closure over every passing endo pair
    endos = [Z.function("g", "g", {0: a, 1: b}) for a in (0, 1) for b in (0, 1)]
    passing = [f for f in endos if check_homomorphism(Z, HomWitness(w, w, f)).ok]
    assert {tuple(f.images) for f in passing} == {(0, 0), (0, 1)}
    for f in passing:
        for g in passing:
            comp = compose_homomorphisms(Z, HomWitness(w, w, g), HomWitness(w, w, f))
            assert check_homomorphism(Z, comp).ok


@criterion(8, "topological monoid and group objects")
def test_criterion_8_gtop_objects():
    t0 = time.perf_counter()
    for C in (build_divisor_poset(12), cospan_category()):
        J = trivial_topology(C)
        witnesses = find_algebraic_objects(C, "group")
        assert witnesses, f"no group objects found in {C.name}"
        for w in witnesses:
            assert is_gtop_algebraic_object(C, w, J).ok
    for n in (12, 30):
        C = build_divisor_poset(n)
        P, _, _ = build_product_category(C, C)
        F = build_lcm_functor(P, C)
        for kind in ("discrete", "dense"):
            Jp = discrete_topology(P) if kind == "discrete" else dense_topology(P)
            Jc = discrete_topology(C) if kind == "discrete" else dense_topology(C)
            assert is_cover_preserving(F, Jp, Jc).ok, f"lcm not cover-preserving on D_{n} ({kind})"
    d12, d6 = build_divisor_poset(12), build_divisor_poset(6)
    P12, _, _ = build_product_category(d12, d12)
    P6, _, _ = build_product_category(d6, d6)
    report = is_gtop_functor_monoid(
        build_lcm_functor(P12, d12),
        1,
        dense_topology(P12),
        dense_topology(d12),
        inclusion=divisor_inclusion_functor(d6, d12),
        sub_mul=build_lcm_functor(P6, d6),
    )
    assert report.ok and report.square
    assert time.perf_counter() - t0 < 10.0


@criterion(9, "CLI determinism and byte-exact round-trips")
def test_criterion_9_cli_determinism():
    for name in ("d12.cat", "cospan.cat", "arrow.cat"):
        text = (FIXTURES / name).read_text()
        assert serialize_category(parse_category_file(text, name)) == text
    for cat, name in (("d12.cat", "dense12.gtop"), ("arrow.cat", "j3.gtop")):
        C = parse_category_file((FIXTURES / cat).read_text(), cat)
        text = (FIXTURES / name).read_text()
        J = parse_topology_file(text, C, name)
        assert serialize_topology(J) == text
    d12 = parse_category_file((FIXTURES / "d12.cat").read_text(), "d12.cat")
    text = (FIXTURES / "top12.wit").read_text()
    assert serialize_witness(d12, parse_witness_file(text, d12, "top12.wit")) == text
    for seed in (0, 7, 42):
        runs = [
            run_command(CommandRequest("validate", {"category": str(FIXTURES / "d12.cat"), "seed": seed}))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
    a = run_command(CommandRequest("enumerate-topologies", {"category": str(FIXTURES / "arrow.cat")}))
    b = run_command(CommandRequest("enumerate-topologies", {"category": str(FIXTURES / "arrow.cat")}))
    assert a == b and a[0] == 0

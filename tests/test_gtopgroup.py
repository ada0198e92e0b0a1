import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite.algebra import HomWitness, check_homomorphism, find_algebraic_objects, group_witness, monoid_witness
from finsite.continuity import LocalTopology, is_continuous, localize
from finsite.errors import StructuralError
from finsite.fincat import (
    FinCategory,
    Functor,
    binary_product,
    build_divisor_poset,
    build_finset_category,
    build_lcm_functor,
    build_product_category,
    divisor_inclusion_functor,
)
from finsite.gtopgroup import (
    _functor_associative,
    is_gtop_algebraic_object,
    is_gtop_functor_monoid,
    product_local_topology,
)
from finsite.gtopology import (
    build_topology,
    dense_topology,
    discrete_topology,
    trivial_topology,
)
from finsite.sieves import maximal_sieve, sieve_literal, sorted_sieves

import oracles

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def d12():
    return build_divisor_poset(12)


@pytest.fixture(scope="module")
def zmod2():
    g = (0, 1)
    gg = tuple((a, b) for a in g for b in g)
    ggg = tuple((p, c) for p in gg for c in g)
    return build_finset_category({"unit": ((),), "g": g, "g2": gg, "g3": ggg}, name="zmod2")


def zmod2_witness(C):
    xor = C.function("g2", "g", {p: (p[0] + p[1]) % 2 for p in C.carrier("g2")})
    eta = C.function("unit", "g", {(): 0})
    zeta = C.identity("g")
    return group_witness(C, "g", mu=xor, eta=eta, zeta=zeta)


class TestProductLocalTopology:
    def test_idempotent_poset_product(self, d12):
        cone = binary_product(d12, 12, 12)[0]
        L = localize(dense_topology(d12), 12)
        assert product_local_topology(d12, cone, L) == L

    def test_trivial_gives_maximal_singleton(self, zmod2):
        cone = binary_product(zmod2, "g", "g")[0]
        L = LocalTopology("g", frozenset({maximal_sieve(zmod2, "g")}))
        P = product_local_topology(zmod2, cone, L)
        assert P == LocalTopology("g2", frozenset({maximal_sieve(zmod2, "g2")}))

    def test_symmetric_in_projections(self, zmod2):
        from finsite.fincat import ProductCone

        cone = binary_product(zmod2, "g", "g")[0]
        flipped = ProductCone(cone.left, cone.right, cone.apex, cone.p2, cone.p1)
        J = dense_topology(zmod2)
        L = localize(J, "g")
        assert product_local_topology(zmod2, cone, L) == product_local_topology(zmod2, flipped, L)

    def test_monotone_in_local_topology(self, d12):
        cone = binary_product(d12, 12, 12)[0]
        small = localize(trivial_topology(d12), 12)
        big = localize(discrete_topology(d12), 12)
        ps = product_local_topology(d12, cone, small)
        pb = product_local_topology(d12, cone, big)
        assert ps.sieves <= pb.sieves

    def test_base_mismatch(self, d12):
        cone = binary_product(d12, 12, 12)[0]
        with pytest.raises(StructuralError):
            product_local_topology(d12, cone, localize(trivial_topology(d12), 6))


class TestMorphismLevel:
    def test_d12_group_object_under_all_builders(self, d12):
        w = group_witness(d12, 12)
        for J in (trivial_topology(d12), discrete_topology(d12), dense_topology(d12)):
            report = is_gtop_algebraic_object(d12, w, J)
            assert report.ok and report.mu_ok and report.zeta_ok

    def test_zmod2_trivial(self, zmod2):
        report = is_gtop_algebraic_object(zmod2, zmod2_witness(zmod2), trivial_topology(zmod2))
        assert report.ok

    def test_zmod2_dense_report_is_reproducible(self, zmod2):
        w = zmod2_witness(zmod2)
        first = is_gtop_algebraic_object(zmod2, w, dense_topology(zmod2))
        second = is_gtop_algebraic_object(zmod2, w, dense_topology(zmod2))
        assert first == second

    def test_monoid_witness_checks_mu_only(self, zmod2):
        xor = zmod2.function("g2", "g", {p: (p[0] + p[1]) % 2 for p in zmod2.carrier("g2")})
        eta = zmod2.function("unit", "g", {(): 0})
        w = monoid_witness(zmod2, "g", mu=xor, eta=eta)
        report = is_gtop_algebraic_object(zmod2, w, trivial_topology(zmod2))
        assert report.ok and report.zeta_ok is None

    def test_every_found_group_object_is_gtop_under_trivial(self, d12):
        J = trivial_topology(d12)
        for w in find_algebraic_objects(d12, "group"):
            assert is_gtop_algebraic_object(d12, w, J).ok


@pytest.fixture(scope="module")
def lcm_setup(d12):
    P, _, _ = build_product_category(d12, d12)
    return P, build_lcm_functor(P, d12)


class TestFunctorLevel:
    def test_lcm_dense(self, d12, lcm_setup):
        P, F = lcm_setup
        report = is_gtop_functor_monoid(F, 1, dense_topology(P), dense_topology(d12))
        assert report.ok and report.associative and report.unital and report.cover_preserving.ok

    def test_lcm_discrete(self, d12, lcm_setup):
        P, F = lcm_setup
        report = is_gtop_functor_monoid(F, 1, discrete_topology(P), discrete_topology(d12))
        assert report.ok

    def test_submonoid_square(self, d12, lcm_setup):
        P, F = lcm_setup
        d6 = build_divisor_poset(6)
        P6, _, _ = build_product_category(d6, d6)
        sub_mul = build_lcm_functor(P6, d6)
        incl = divisor_inclusion_functor(d6, d12)
        report = is_gtop_functor_monoid(
            F, 1, dense_topology(P), dense_topology(d12), inclusion=incl, sub_mul=sub_mul
        )
        assert report.ok and report.square

    def test_wrong_unit_detected(self, d12, lcm_setup):
        P, F = lcm_setup
        report = is_gtop_functor_monoid(F, 2, trivial_topology(P), trivial_topology(d12))
        assert not report.unital and not report.ok


@st.composite
def binary_tables(draw):
    """A one-object table category with n arrows and a binary map on them,
    as a list t with mul(arrows[i], arrows[j]) = arrows[t[i * n + j]]:
    either any table, or one of a few associative ones."""
    n = draw(st.integers(1, 5))
    C = FinCategory.from_data("one", ["*"], {f"a{i}": ("*", "*") for i in range(1, n)})
    order = draw(st.permutations(range(n)))
    kind = draw(st.sampled_from(["any", "left", "right", "constant", "max"]))
    if kind == "any":
        table = draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    elif kind == "constant":
        table = [draw(st.integers(0, n - 1))] * (n * n)
    else:
        pick = {"left": lambda i, j: i, "right": lambda i, j: j, "max": lambda i, j: max(i, j, key=order.index)}[kind]
        table = [pick(i, j) for i in range(n) for j in range(n)]
    return C, table


class TestAssociativityAgainstOracle:
    @given(binary_tables())
    @settings(max_examples=200, deadline=None)
    def test_verdict_and_first_witness_match_the_triple_loop(self, drawn):
        C, table = drawn
        arrows = C.all_arrows()
        n = len(arrows)
        arr_map = {(u, v): arrows[table[i * n + j]] for i, u in enumerate(arrows) for j, v in enumerate(arrows)}
        mul = Functor("mul", C, C, {("*", "*"): "*"}, arr_map)
        assert _functor_associative(mul, C) == oracles.associativity(C.objects, arrows, mul.obj, mul.arr)


class TestSubcategoryClosure:
    """Identity homs on topological group objects are continuous, and
    composites of continuous homs are continuous homs."""

    def test_zmod2_trivial(self, zmod2):
        w = zmod2_witness(zmod2)
        J = trivial_topology(zmod2)
        assert is_gtop_algebraic_object(zmod2, w, J).ok
        homs = [
            zmod2.identity("g"),
            zmod2.function("g", "g", {0: 0, 1: 0}),
        ]
        passing = [
            f
            for f in homs
            if check_homomorphism(zmod2, HomWitness(w, w, f)).ok and is_continuous(zmod2, f, J).ok
        ]
        assert len(passing) == 2
        for f in passing:
            for g in passing:
                gf = zmod2.compose(g, f)
                assert check_homomorphism(zmod2, HomWitness(w, w, gf)).ok
                assert is_continuous(zmod2, gf, J).ok

    def test_d12_builders(self, d12):
        w = group_witness(d12, 12)
        for J in (trivial_topology(d12), dense_topology(d12), discrete_topology(d12)):
            assert is_gtop_algebraic_object(d12, w, J).ok
            f = "id_12"
            assert check_homomorphism(d12, HomWitness(w, w, f)).ok
            assert is_continuous(d12, f, J).ok


def test_group_object_check_composes_once_per_class(monkeypatch):
    g = (0, 1)
    gg = tuple((a, b) for a in g for b in g)
    C = build_finset_category({"unit": ((),), "g": g, "g2": gg, "g3": tuple((p, c) for p in gg for c in g)})
    w = zmod2_witness(C)
    J = discrete_topology(C)
    calls = []
    original = type(C).compose
    monkeypatch.setattr(type(C), "compose", lambda self, outer, inner: calls.append(outer) or original(self, outer, inner))
    assert is_gtop_algebraic_object(C, w, J).ok
    assert len(calls) <= 1000


def test_finset_continuity_reports_match_the_golden_file(zmod2):
    """The endomorphism witnesses, and the mu/zeta witnesses and product-
    local sieves of xor, and, or under the four kinds, on {unit, g, g2, g3};
    a literal over 400 characters is pinned by its member count and
    digest."""

    def digest(lines):
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]

    def literal(S):
        if S is None:
            return "-"
        text = sieve_literal(zmod2, S)
        return text if len(text) < 400 else f"<{len(S.members)} members sha {digest([text])}>"

    def report_digest(PL):
        report = [f"pl at {PL.base} ({len(PL.sieves)} sieves):"]
        report += [f"  {sieve_literal(zmod2, S)}" for S in sorted_sieves(zmod2, PL.sieves)]
        return digest(report)

    kinds = ("trivial", "discrete", "dense", "atomic")
    tops = {kind: build_topology(zmod2, kind, verify=False)[0] for kind in kinds}
    digests = {}  # the product-local topology depends on the kind alone
    lines = []
    for kind in kinds:
        for images in ((0, 0), (0, 1), (1, 0), (1, 1)):
            f = zmod2.function("g", "g", dict(zip((0, 1), images)))
            v = is_continuous(zmod2, f, tops[kind])
            lines.append(f"endo {kind} {zmod2.arrow_label(f)} {v.ok} {literal(v.witness)}")
    structures = {"xor": (lambda a, b: a ^ b, 0, True), "and": (lambda a, b: a & b, 1, False), "or": (lambda a, b: a | b, 0, False)}
    for name, (op, unit, group) in structures.items():
        mu = zmod2.function("g2", "g", {p: op(*p) for p in zmod2.carrier("g2")})
        eta = zmod2.function("unit", "g", {(): unit})
        if group:
            w = group_witness(zmod2, "g", mu=mu, eta=eta, zeta=zmod2.identity("g"))
        else:
            w = monoid_witness(zmod2, "g", mu=mu, eta=eta)
        for kind in kinds:
            r = is_gtop_algebraic_object(zmod2, w, tops[kind])
            PL = r.product_local
            if PL not in digests:
                digests[PL] = report_digest(PL)
            sizes = sorted(len(S) for S in PL.sieves)
            lines.append(
                f"gtop {name} {kind} mu {r.mu_ok} {literal(r.mu_witness)} zeta {r.zeta_ok} {literal(r.zeta_witness)}"
                f" product-local sizes {sizes} sha {digests[PL]}"
            )
    assert lines == (FIXTURES / "zmod2-continuity.golden").read_text().splitlines()

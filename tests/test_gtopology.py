import functools
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite.errors import ResourceError, StructuralError
from finsite.fincat import FinCategory, build_divisor_poset, build_finset_category
from finsite.gtopology import (
    GrothendieckTopology,
    build_topology,
    check_axioms,
    dense_topology,
    discrete_topology,
    enumerate_topologies,
    generate_topology,
    is_dense_sieve,
    join,
    meet,
    sieve_universe,
    topology_leq,
    trivial_topology,
)
from finsite.sieves import Sieve, empty_sieve, maximal_sieve, sieve_closure

import oracles
from oracles import dense_below, divisor_down_sets


@pytest.fixture(scope="module")
def d12():
    return build_divisor_poset(12)


@pytest.fixture(scope="module")
def arrow_cat():
    return FinCategory.from_data("arrow", [1, 2], {"f": (1, 2)})


@pytest.fixture(scope="module")
def point_cat():
    return FinCategory.from_data("point", ["*"], {})


@pytest.fixture(scope="module")
def cospan():
    return FinCategory.from_data(
        "cospan", ["X", "Y", "Z"], {"f": ("X", "Z"), "g": ("Y", "Z")}
    )


def cover_doms(C, J, x):
    return {frozenset(C.dom(a) for a in S.members) for S in J.covers(x)}


class TestSieveUniverse:
    @pytest.mark.parametrize("n", [6, 12, 30, 60])
    def test_counts_match_down_set_oracle(self, n):
        C = build_divisor_poset(n)
        for x in C.objects:
            assert len(sieve_universe(C, x)) == len(divisor_down_sets(x))

    def test_ten_sieves_on_12(self, d12):
        assert len(sieve_universe(d12, 12)) == 10

    def test_cap_is_enforced(self, d12):
        d30 = build_divisor_poset(30)
        with pytest.raises(ResourceError):
            sieve_universe(d30, 30, cap=5)

    def test_finset_universe_by_images(self):
        g = (0, 1)
        gg = tuple((a, b) for a in g for b in g)
        C = build_finset_category({"unit": ((),), "g": g, "g2": gg})
        # classes of arrows into g are the nonempty image subsets {0},{1},{0,1}
        assert len(sieve_universe(C, "g")) == 5

    def test_arrow_category_universes(self, arrow_cat):
        assert len(sieve_universe(arrow_cat, 1)) == 2
        assert len(sieve_universe(arrow_cat, 2)) == 3


class TestCheckAxioms:
    def test_trivial_passes_on_d12(self, d12):
        J, report = build_topology(d12, "trivial")
        assert report.ok

    def test_discrete_passes_on_d12(self, d12):
        J, report = build_topology(d12, "discrete")
        assert report.ok

    def test_discrete_without_maximal_fails_maximality(self, d12):
        covers = {x: set(sieve_universe(d12, x)) for x in d12.objects}
        covers[12] = covers[12] - {maximal_sieve(d12, 12)}
        J = GrothendieckTopology(d12, covers=covers)
        report = check_axioms(J)
        assert not report.ok
        assert any(v.axiom == "maximality" and v.obj == 12 for v in report.violations)

    def test_dense_covers_have_bottom(self, d12):
        J, report = build_topology(d12, "dense")
        assert report.ok
        for n in d12.objects:
            expected = {
                frozenset(D)
                for D in divisor_down_sets(n)
                if 1 in D
            }
            assert cover_doms(d12, J, n) == expected

    def test_atomic_passes_on_divisor_posets(self):
        for n in (6, 12, 30):
            C = build_divisor_poset(n)
            _, report = build_topology(C, "atomic")
            assert report.ok

    def test_atomic_fails_on_cospan_with_stability_witness(self, cospan):
        J, report = build_topology(cospan, "atomic")
        assert not report.ok
        hits = [
            v
            for v in report.violations
            if v.axiom == "stability" and v.obj == "Z" and v.arrow == "g" and v.sieve.members == {"f"}
        ]
        assert hits, report.summary(cospan)

    def test_unknown_kind_is_structural(self, d12):
        with pytest.raises(StructuralError):
            build_topology(d12, "zariski")


class TestDenseTopology:
    @pytest.mark.parametrize("n", [12, 30, 60])
    def test_matches_definitional_oracle(self, n):
        C = build_divisor_poset(n)
        J = dense_topology(C)
        for x in C.objects:
            got = cover_doms(C, J, x)
            expected = {frozenset(D) for D in divisor_down_sets(x) if dense_below(x, D)}
            assert got == expected

    def test_dense_passes_everywhere_tried(self, arrow_cat, point_cat, cospan, d12):
        for C in (arrow_cat, point_cat, cospan, d12):
            _, report = build_topology(C, "dense")
            assert report.ok, f"dense fails on {C.name}: {report.summary(C)}"

    def test_contains_agrees_with_membership(self, d12):
        J = dense_topology(d12)
        for x in d12.objects:
            cov = J.covers(x)
            for S in sieve_universe(d12, x):
                assert J.contains(S) == (S in cov)

    def test_sieve_cap_counts_covers_not_the_universe(self, d12):
        assert len(dense_topology(d12, sieve_cap=9).covers(12)) == 9
        assert len(sieve_universe(d12, 12)) == 10
        with pytest.raises(ResourceError, match="more than 8 sieves"):
            dense_topology(d12, sieve_cap=8).covers(12)

    def test_contains_and_basis_need_no_sieve_universe(self, d12):
        J = dense_topology(d12, sieve_cap=1)
        assert len(J.basis(12)) == 1
        assert J.contains(maximal_sieve(d12, 12))
        assert not J.contains(empty_sieve(12))
        with pytest.raises(ResourceError):
            sieve_universe(d12, 12, 1)

    def test_basis_is_minimal_dense_sieve(self, d12):
        J = dense_topology(d12)
        (b,) = J.basis(12)
        assert {d12.dom(a) for a in b.members} == {1}
        assert is_dense_sieve(d12, b)


class TestBuilderInterfaces:
    def test_every_cover_refines_a_basis_element(self, d12, cospan):
        for C in (d12, cospan):
            for kind in ("trivial", "discrete", "dense", "atomic"):
                J, _ = build_topology(C, kind, verify=False)
                for x in C.objects:
                    basis = J.basis(x)
                    assert set(basis) <= set(J.covers(x))
                    for S in J.covers(x):
                        assert any(b.members <= S.members for b in basis)

    def test_localized_counts(self, d12):
        assert len(discrete_topology(d12).covers(12)) == 10
        assert len(dense_topology(d12).covers(12)) == 9
        assert len(trivial_topology(d12).covers(12)) == 1


class TestEnumeration:
    def test_point_category_has_two_topologies(self, point_cat):
        found = enumerate_topologies(point_cat)
        assert len(found) == 2

    def test_arrow_category_matches_unpruned_oracle(self, arrow_cat):
        found = enumerate_topologies(arrow_cat)
        assert len(found) == 4
        # unpruned oracle: filter every assignment through check_axioms
        oracle = []
        per_object = []
        for x in arrow_cat.objects:
            tx = maximal_sieve(arrow_cat, x)
            rest = [S for S in sieve_universe(arrow_cat, x) if S != tx]
            opts = []
            for r in range(len(rest) + 1):
                for combo in itertools.combinations(rest, r):
                    opts.append(frozenset({tx, *combo}))
            per_object.append(opts)
        for assignment in itertools.product(*per_object):
            J = GrothendieckTopology(arrow_cat, covers=dict(zip(arrow_cat.objects, assignment)))
            if check_axioms(J).ok:
                oracle.append(J.covers_map())
        assert sorted(map(sorted_map, oracle)) == sorted(
            sorted_map(J.covers_map()) for J in found
        )

    def test_trivial_and_discrete_always_enumerated(self, point_cat, arrow_cat):
        for C in (point_cat, arrow_cat):
            found = enumerate_topologies(C)
            assert any(J == trivial_topology_as_table(C) for J in found)
            assert any(J == discrete_topology_as_table(C) for J in found)

    def test_candidate_cap(self, d12):
        with pytest.raises(ResourceError):
            enumerate_topologies(d12, candidate_cap=10)

    def test_parallel_pair_matches_unpruned_oracle(self):
        # non-thin: two parallel arrows into the same object
        C = FinCategory.from_data("pair", [1, 2], {"f": (1, 2), "g": (1, 2)})
        assert len(sieve_universe(C, 2)) == 5
        found = enumerate_topologies(C)
        oracle = []
        per_object = []
        for x in C.objects:
            tx = maximal_sieve(C, x)
            rest = [S for S in sieve_universe(C, x) if S != tx]
            per_object.append(
                [
                    frozenset({tx, *combo})
                    for r in range(len(rest) + 1)
                    for combo in itertools.combinations(rest, r)
                ]
            )
        for assignment in itertools.product(*per_object):
            J = GrothendieckTopology(C, covers=dict(zip(C.objects, assignment)))
            if check_axioms(J).ok:
                oracle.append(J)
        assert len(found) == len(oracle)
        for J in oracle:
            assert any(J == K for K in found)


def sorted_map(m):
    return tuple(sorted((str(k), tuple(sorted(map(repr, v)))) for k, v in m.items()))


def trivial_topology_as_table(C):
    return GrothendieckTopology(C, covers={x: {maximal_sieve(C, x)} for x in C.objects})


def discrete_topology_as_table(C):
    return GrothendieckTopology(C, covers={x: set(sieve_universe(C, x)) for x in C.objects})


class TestLattice:
    def test_meet_discrete_trivial_is_trivial(self, d12):
        m = meet(discrete_topology(d12), trivial_topology(d12))
        assert m == trivial_topology_as_table(d12)

    def test_meet_idempotent(self, d12):
        J = dense_topology(d12)
        assert meet(J, J) == J

    def test_meet_on_arrow_category(self, arrow_cat):
        t1, t2 = maximal_sieve(arrow_cat, 1), maximal_sieve(arrow_cat, 2)
        f_sieve = Sieve(2, frozenset({"f"}))
        j5 = GrothendieckTopology(arrow_cat, covers={1: {t1, empty_sieve(1)}, 2: {t2}})
        j3 = GrothendieckTopology(arrow_cat, covers={1: {t1}, 2: {t2, f_sieve}})
        assert meet(j5, j3) == trivial_topology_as_table(arrow_cat)

    def test_meet_category_mismatch(self, d12, arrow_cat):
        with pytest.raises(StructuralError):
            meet(trivial_topology(d12), trivial_topology(arrow_cat))

    def test_meet_passes_axioms(self, arrow_cat):
        found = enumerate_topologies(arrow_cat)
        for a in found:
            for b in found:
                assert check_axioms(meet(a, b)).ok


class TestGenerate:
    def test_empty_seed_gives_trivial(self, d12):
        J = generate_topology(d12, {})
        assert J == trivial_topology_as_table(d12)

    def test_principal_seed_on_arrow_category(self, arrow_cat):
        f_sieve = Sieve(2, frozenset({"f"}))
        J = generate_topology(arrow_cat, {2: [f_sieve]})
        assert J.covers(1) == {maximal_sieve(arrow_cat, 1)}
        assert J.covers(2) == {maximal_sieve(arrow_cat, 2), f_sieve}

    def test_join_forces_discrete(self, arrow_cat):
        t1, t2 = maximal_sieve(arrow_cat, 1), maximal_sieve(arrow_cat, 2)
        f_sieve = Sieve(2, frozenset({"f"}))
        j5 = GrothendieckTopology(arrow_cat, covers={1: {t1, empty_sieve(1)}, 2: {t2}})
        j3 = GrothendieckTopology(arrow_cat, covers={1: {t1}, 2: {t2, f_sieve}})
        assert join(j5, j3) == discrete_topology_as_table(arrow_cat)

    def test_bad_seed_is_structural(self, arrow_cat):
        with pytest.raises(StructuralError):
            generate_topology(arrow_cat, {2: [Sieve(2, frozenset({"id_2"}))]})

    def test_generate_is_a_closure_operator(self, arrow_cat):
        f_sieve = Sieve(2, frozenset({"f"}))
        seeds = [
            {},
            {2: [f_sieve]},
            {1: [empty_sieve(1)]},
            {2: [empty_sieve(2)]},
        ]
        for seed in seeds:
            J = generate_topology(arrow_cat, seed)
            # extensive
            for x, sieves in seed.items():
                assert set(sieves) <= J.covers(x)
            # idempotent
            again = generate_topology(arrow_cat, J.covers_map())
            assert again == J
            # output is a topology
            assert check_axioms(J).ok
        # monotone
        small = generate_topology(arrow_cat, {2: [f_sieve]})
        big = generate_topology(arrow_cat, {2: [f_sieve, empty_sieve(2)]})
        assert topology_leq(small, big)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_generated_topologies_always_pass_axioms(self, data):
        C = FinCategory.from_data("pair", [1, 2], {"f": (1, 2), "g": (1, 2)})
        seed = {}
        for x in C.objects:
            sieves = data.draw(st.sets(st.sampled_from(sieve_universe(C, x)), max_size=3))
            if sieves:
                seed[x] = sieves
        J = generate_topology(C, seed)
        assert check_axioms(J).ok
        for x, sieves in seed.items():
            assert sieves <= J.covers(x)


class TestAxiomEngine:
    """Outputs pinned against the implementation that had one copy of the
    stability and transitivity checks per caller."""

    def test_finset_report_orders_stability_by_arrow_label(self):
        # arrows into b come as hom(b, b) then hom(a, b), not in label order
        F = build_finset_category({"b": (0, 1), "a": ("x",)}, name="two")
        S0 = sieve_closure(F, "b", [F.function("b", "b", {0: 0, 1: 0})])
        J = GrothendieckTopology(F, name="broken", covers={"b": {maximal_sieve(F, "b"), S0}})
        assert check_axioms(J).summary(F) == (
            "fail (4 violations)\n"
            "  [stability] at 'b', sieve {a->b[0], b->b[0,0]}, arrow a->b[1]: pullback {} is not a cover at 'a'\n"
            "  [stability] at 'b', sieve {a->b[0], b->b[0,0]}, arrow b->b[1,0]: "
            "pullback {a->b[1], b->b[1,1]} is not a cover at 'b'\n"
            "  [stability] at 'b', sieve {a->b[0], b->b[0,0]}, arrow b->b[1,1]: pullback {} is not a cover at 'b'\n"
            "  [transitivity] at 'b', sieve {a->b[0], a->b[1], b->b[0,0], b->b[1,1]}: "
            "forced by cover {a->b[0], b->b[0,0]} but not a cover"
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda: FinCategory.from_data("point", ["*"], {}),
            lambda: FinCategory.from_data("arrow", [1, 2], {"f": (1, 2)}),
            lambda: FinCategory.from_data("cospan", ["X", "Y", "Z"], {"f": ("X", "Z"), "g": ("Y", "Z")}),
            lambda: FinCategory.from_data("idem", ["*"], {"e": ("*", "*")}, {("e", "e"): "e"}),
            lambda: FinCategory.from_data("Z2", ["*"], {"g": ("*", "*")}, {("g", "g"): "id_*"}),
        ],
        ids=["point", "arrow", "cospan", "idempotent-monoid", "Z2"],
    )
    def test_generate_is_meet_of_enumerated_topologies_containing_seed(self, make):
        C = make()
        tops = enumerate_topologies(C)
        singles = [(x, S) for x in C.objects for S in sieve_universe(C, x)]
        for seed_pairs in itertools.chain(
            ((p,) for p in singles), itertools.combinations(singles, 2)
        ):
            seed = {}
            for x, S in seed_pairs:
                seed.setdefault(x, set()).add(S)
            containing = [J for J in tops if all(S in J.covers(x) for x, S in seed_pairs)]
            assert generate_topology(C, seed) == functools.reduce(meet, containing)

    def test_enumeration_checks_its_cap_before_building_candidates(self):
        d30 = build_divisor_poset(30)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match=r"~17179869184 candidates exceeds the candidate cap 1000000"):
                enumerate_topologies(d30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000


# -- the named builders against brute-force oracles on generated categories


@st.composite
def posets(draw):
    """A random finite poset on 1-5 points as a thin category."""
    k = draw(st.integers(1, 5))
    rel = {(i, j) for i in range(k) for j in range(i + 1, k) if draw(st.booleans())}
    for m in range(k):  # transitive closure through each middle point in turn
        rel |= {(i, j) for (i, a) in rel for (b, j) in rel if a == m == b}
    arrows = {f"{i}<{j}": (i, j) for i, j in rel}
    compose = {(f"{b}<{c}", f"{a}<{b}"): f"{a}<{c}" for a, b in rel for b2, c in rel if b == b2}
    return FinCategory.from_data("poset", list(range(k)), arrows, compose)


@st.composite
def transformation_monoids(draw):
    """The monoid generated by random self-maps of a 2- or 3-element set,
    as a one-object category; the map t sends i to t[i]."""
    n = draw(st.integers(2, 3))
    maps = st.tuples(*[st.integers(0, n - 1)] * n)
    ident = tuple(range(n))
    elems = {ident} | set(draw(st.lists(maps, min_size=1, max_size=3)))
    while True:
        more = {tuple(g[i] for i in f) for f in elems for g in elems} - elems
        if not more:
            break
        elems |= more

    def name(t):
        return "id_*" if t == ident else "m" + "".join(map(str, t))

    arrows = {name(t): ("*", "*") for t in elems if t != ident}
    compose = {(name(g), name(f)): name(tuple(g[i] for i in f)) for f in elems for g in elems}
    return FinCategory.from_data("monoid", ["*"], arrows, compose)


@st.composite
def finset_families(draw):
    """Finite-set categories with an empty carrier and one or two more."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    return build_finset_category({"e": (), **{f"c{i}": tuple(range(s)) for i, s in enumerate(sizes)}})


BUILDER_ORACLES = {
    "trivial": oracles.is_maximal,
    "discrete": oracles.is_any,
    "dense": oracles.is_dense,
    "atomic": oracles.is_nonempty,
}


class TestBuildersAgainstOracles:
    def check(self, C):
        for kind, predicate in BUILDER_ORACLES.items():
            J, _ = build_topology(C, kind, verify=False)
            for x in C.objects:
                universe = oracles.sieves_on(C, x)
                expected = {S for S in universe if predicate(C, x, S)}
                assert {S.members for S in J.covers(x)} == expected, (kind, x)
                assert {B.members for B in J.basis(x)} == oracles.minimal(expected), (kind, x)
                for S in universe:
                    assert J.contains(Sieve(x, S)) == (S in expected), (kind, x, S)
        for x in C.objects:
            for S in oracles.sieves_on(C, x) | {frozenset({a}) for a in C.arrows_into(x)}:
                assert is_dense_sieve(C, Sieve(x, S)) == oracles.is_dense(C, x, S), (x, S)

    @given(posets())
    @settings(max_examples=30, deadline=None)
    def test_random_posets(self, C):
        self.check(C)

    @given(transformation_monoids())
    @settings(max_examples=30, deadline=None)
    def test_transformation_monoids(self, C):
        self.check(C)

    @given(finset_families())
    @settings(max_examples=10, deadline=None)
    def test_finset_families_with_an_empty_carrier(self, C):
        self.check(C)


def test_dense_covers_run_no_density_test(monkeypatch):
    # not thin: hom(g, g) has four arrows.  The least dense sieve comes from
    # the factoring classes of the arrows into g2, one hom-set per object.
    C = build_finset_category({"unit": ((),), "g": (0, 1), "g2": ((0, 0), (0, 1), (1, 0), (1, 1))})
    calls = []
    original = type(C).hom_size
    monkeypatch.setattr(type(C), "hom_size", lambda self, x, y: calls.append((x, y)) or original(self, x, y))
    J = dense_topology(C)
    assert len(J.covers("g2")) == 114
    assert len(sieve_universe(C, "g2")) == 167
    assert len(calls) <= len(C.objects)

import functools
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import finsite
from finsite import gtopology
from finsite.errors import ResourceError, StructuralError
from finsite.fincat import FinCategory, build_divisor_poset, build_finset_category, relabel_category
from finsite.gtopology import (
    GrothendieckTopology,
    atomic_topology,
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
from finsite.parsing import parse_category_file, parse_topology_file
from finsite.sieves import _ObjectSieves, _sieves_on, is_sieve, maximal_sieve, pullback_sieve, sieve_closure, sorted_sieves

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

    def test_a_listed_universe_does_not_lift_the_cap(self, d12):
        assert len(sieve_universe(d12, 12)) == 10
        with pytest.raises(ResourceError) as e:
            sieve_universe(d12, 12, 3)
        assert (e.value.cap_name, e.value.cap_value) == ("sieves", 3)

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
        assert not J.contains(sieve_closure(d12, 12, ()))
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
        assert len(assert_enumeration_matches_brute_force(arrow_cat)) == 4

    def test_trivial_and_discrete_always_enumerated(self, point_cat, arrow_cat):
        for C in (point_cat, arrow_cat):
            found = enumerate_topologies(C)
            assert any(J == trivial_topology_as_table(C) for J in found)
            assert any(J == discrete_topology_as_table(C) for J in found)

    def test_candidate_cap(self, d12):
        with pytest.raises(ResourceError):
            enumerate_topologies(d12, candidate_cap=10)

    def test_parallel_pair_matches_unpruned_oracle(self):
        # not thin: two parallel arrows into the same object
        C = FinCategory.from_data("pair", [1, 2], {"f": (1, 2), "g": (1, 2)})
        assert len(sieve_universe(C, 2)) == 5
        assert_enumeration_matches_brute_force(C)


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
        f_sieve = sieve_closure(arrow_cat, 2, ["f"])
        j5 = GrothendieckTopology(arrow_cat, covers={1: {t1, sieve_closure(arrow_cat, 1, ())}, 2: {t2}})
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
        f_sieve = sieve_closure(arrow_cat, 2, ["f"])
        J = generate_topology(arrow_cat, {2: [f_sieve]})
        assert J.covers(1) == {maximal_sieve(arrow_cat, 1)}
        assert J.covers(2) == {maximal_sieve(arrow_cat, 2), f_sieve}

    def test_join_forces_discrete(self, arrow_cat):
        t1, t2 = maximal_sieve(arrow_cat, 1), maximal_sieve(arrow_cat, 2)
        f_sieve = sieve_closure(arrow_cat, 2, ["f"])
        j5 = GrothendieckTopology(arrow_cat, covers={1: {t1, sieve_closure(arrow_cat, 1, ())}, 2: {t2}})
        j3 = GrothendieckTopology(arrow_cat, covers={1: {t1}, 2: {t2, f_sieve}})
        assert join(j5, j3) == discrete_topology_as_table(arrow_cat)

    def test_bad_seed_is_structural(self, arrow_cat):
        with pytest.raises(StructuralError):
            generate_topology(arrow_cat, {2: [maximal_sieve(arrow_cat, 1)]})

    def test_generate_is_a_closure_operator(self, arrow_cat):
        f_sieve = sieve_closure(arrow_cat, 2, ["f"])
        seeds = [
            {},
            {2: [f_sieve]},
            {1: [sieve_closure(arrow_cat, 1, ())]},
            {2: [sieve_closure(arrow_cat, 2, ())]},
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
        big = generate_topology(arrow_cat, {2: [f_sieve, sieve_closure(arrow_cat, 2, ())]})
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

    def test_finset_report_orders_stability_by_arrows_into(self):
        # arrows into b come as hom(b, b) then hom(a, b), not in label
        # order, and the stability lines follow them
        F = build_finset_category({"b": (0, 1), "a": ("x",)}, name="two")
        S0 = sieve_closure(F, "b", [F.function("b", "b", {0: 0, 1: 0})])
        J = GrothendieckTopology(F, name="broken", covers={"b": {maximal_sieve(F, "b"), S0}})
        assert check_axioms(J).summary(F) == (
            "fail (4 violations)\n"
            "  [stability] at 'b', sieve {a->b[0], b->b[0,0]}, arrow b->b[1,0]: "
            "pullback {a->b[1], b->b[1,1]} is not a cover at 'b'\n"
            "  [stability] at 'b', sieve {a->b[0], b->b[0,0]}, arrow b->b[1,1]: pullback {} is not a cover at 'b'\n"
            "  [stability] at 'b', sieve {a->b[0], b->b[0,0]}, arrow a->b[1]: pullback {} is not a cover at 'a'\n"
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

    def test_enumeration_on_d30_counts_its_picks_against_the_cap(self):
        # 3 276 least-cover picks find the 2^8 topologies of D_30
        with pytest.raises(ResourceError, match=r"candidate cap 3275 while picking the least cover at 30, with \d+ topologies found so far"):
            enumerate_topologies(build_divisor_poset(30), candidate_cap=3275)
        d30 = build_divisor_poset(30)
        tracemalloc.start()
        try:
            assert len(enumerate_topologies(d30)) == 256
            assert len(enumerate_topologies(build_divisor_poset(30), candidate_cap=3276)) == 256
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


class TestEnumerationAgainstOracle:
    """Enumeration equals the brute-force search: every assignment of a set
    of sieves from ``oracles.sieves_on`` to each object that holds its
    maximal sieve, filtered by ``oracles.topology_ok``."""

    @given(st.one_of(posets(), transformation_monoids(), finset_families()))
    @settings(max_examples=60, deadline=None)
    def test_generated_categories(self, C):
        universes = {x: oracles.sieves_on(C, x) for x in C.objects}
        assume(math.prod(2 ** (len(u) - 1) for u in universes.values()) <= 2048)
        assert_enumeration_matches_brute_force(C)


def assert_enumeration_matches_brute_force(C):
    """``enumerate_topologies(C)`` lists each topology that the brute-force
    search over ``oracles.sieves_on`` and ``oracles.topology_ok`` finds, once."""
    options = []
    for x in C.objects:
        top = frozenset(C.arrows_into(x))
        options.append([rest | {top} for rest in oracles.all_subsets(oracles.sieves_on(C, x) - {top})])
    expected = set()
    for assignment in itertools.product(*options):
        covers = dict(zip(C.objects, assignment))
        if oracles.topology_ok(C, covers):
            expected.add(frozenset((x, frozenset(cov)) for x, cov in covers.items()))
    found = enumerate_topologies(C)
    got = {frozenset((x, frozenset(S.members for S in J.covers(x))) for x in C.objects) for J in found}
    assert len(found) == len(got)
    assert got == expected
    return found


@st.composite
def twin_labels(draw, categories):
    """A table category drawn from ``categories`` in which one to three
    pairs of arrows into one object are renamed to the int k and the str
    "k", which print alike."""
    C = draw(categories)
    pairs = [
        pair
        for x in C.objects
        for pair in itertools.combinations([a for a in C.arrows_into(x) if a != C.identity(C.dom(a))], 2)
    ]
    assume(pairs)
    rename = {}
    for k, (a, b) in enumerate(draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3))):
        if a not in rename and b not in rename:
            rename[a], rename[b] = k, str(k)
    return relabel_category(C, obj_fn=lambda x: x, arr_fn=lambda a: rename.get(a, a))


class TestEnumerationOrder:
    """Enumeration names its topologies J0, J1, ... in the order of
    ``oracles.canonical_keys``, which lists the literals of every cover at
    every object; the keys differ whenever no two arrows share a label."""

    def check(self, C, found=None):
        found = enumerate_topologies(C) if found is None else found
        universes = {x: oracles.sieves_on(C, x) for x in C.objects}

        @functools.cache
        def up_set(L):
            return frozenset(S for S in universes[L.base] if L.members <= S)

        keys = oracles.canonical_keys(C, [{x: up_set(J.basis(x)[0]) for x in C.objects} for J in found])
        assert keys == sorted(keys)
        labels = list(map(C.arrow_label, C.all_arrows()))
        if len(set(labels)) == len(labels):
            assert len(set(keys)) == len(keys)
        assert [J.name for J in found] == [f"J{i}" for i in range(len(found))]

    @given(posets())
    @settings(max_examples=30, deadline=None)
    def test_random_posets(self, C):
        self.check(C)

    @given(transformation_monoids())
    @settings(max_examples=20, deadline=None)
    def test_transformation_monoids(self, C):
        self.check(C)

    @given(finset_families())
    @settings(max_examples=10, deadline=None)
    def test_finset_families_with_an_empty_carrier(self, C):
        self.check(C)

    @given(twin_labels(st.one_of(posets(), transformation_monoids())))
    @settings(max_examples=40, deadline=None)
    def test_arrows_whose_ids_print_alike(self, C):
        self.check(C)

    def test_a_parallel_pair_whose_ids_print_alike(self):
        self.check(FinCategory.from_data("clash", ["a", "b"], {1: ("a", "b"), "1": ("a", "b")}))

    @pytest.mark.parametrize("n", [12, 30])
    def test_divisor_posets(self, n):
        self.check(build_divisor_poset(n))

    def test_d60_lists_no_cover_set_and_composes_only_for_its_class_tables(self, monkeypatch):
        # 320 compositions build the class tables and class maps; listing
        # every cover to sort the topologies took 49 152 covers calls
        C = build_divisor_poset(60)
        compositions, covers = [], []
        compose, listed = type(C).compose, GrothendieckTopology.covers
        monkeypatch.setattr(type(C), "compose", lambda self, g, f: compositions.append(g) or compose(self, g, f))
        monkeypatch.setattr(GrothendieckTopology, "covers", lambda self, x: covers.append(x) or listed(self, x))
        found = enumerate_topologies(C)
        monkeypatch.undo()  # the oracle composes
        assert len(found) == 4096
        assert covers == []
        assert len(compositions) <= 400
        self.check(C, found)


class TestForcedAgainstOracle:
    """``_forced`` reads the preimage masks of class representatives and
    composes nothing; ``oracles.forced_by_composing`` composes them.  They
    agree on random least covers and on the greatest stable and
    transitive ones under them, and the forced classes form a sieve."""

    def check(self, C, data):
        objs = sorted(C.objects, key=str)
        drawn = {x: data.draw(st.sampled_from(sieve_universe(C, x))) for x in objs}
        for least in (drawn, gtopology._closed(C, drawn)):
            as_arrows = {x: L.members for x, L in least.items()}
            for x in objs:
                forced = _sieves_on(C, x).members(gtopology._forced(C, least, x))
                assert forced == oracles.forced_by_composing(C, as_arrows, x), x
                assert is_sieve(C, x, forced), x

    @given(posets(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_posets(self, C, data):
        self.check(C, data)

    @given(transformation_monoids(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_transformation_monoids(self, C, data):
        self.check(C, data)

    @given(finset_families(), st.data())
    @settings(max_examples=15, deadline=None)
    def test_finset_families_with_an_empty_carrier(self, C, data):
        self.check(C, data)


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
                    assert J.contains(sieve_closure(C, x, S)) == (S in expected), (kind, x, S)
        for x in C.objects:
            for S in oracles.sieves_on(C, x):
                assert is_dense_sieve(C, sieve_closure(C, x, S)) == oracles.is_dense(C, x, S), (x, S)

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


class TestClassRoutesAgainstOracles:
    """Pullback and ordering work one factoring class at a time; both
    agree with the oracles on the sieve universes, the principal sieves
    and the sieve each object's every other arrow generates."""

    def check(self, C):
        objs = sorted(C.objects, key=str)
        hand = {
            x: [sieve_closure(C, x, [a]) for a in C.arrows_into(x)] + [sieve_closure(C, x, C.arrows_into(x)[::2])]
            for x in objs
        }

        def pullbacks_agree(sets):
            for h in C.all_arrows():
                for S in sets[C.cod(h)]:
                    assert pullback_sieve(C, h, S).members == oracles.pullback_members(C, h, S.members), (h, S)

        pullbacks_agree(hand)  # before any sieve universe is built
        universes = {x: sieve_universe(C, x) for x in objs}
        pullbacks_agree({x: list(universes[x]) + hand[x] for x in objs})
        # a table lists arrows by label, so with distinct labels position
        # order is label order
        labels = list(map(C.arrow_label, C.all_arrows()))
        by_label = C.backend == "table" and len(set(labels)) == len(labels)
        for x in objs:
            if C.backend == "table":
                assert list(C.arrows_into(x)) == sorted(C.arrows_into(x), key=C.arrow_label)
            for sets in (list(universes[x]), hand[x], hand[x] + list(universes[x])):
                got = [S.members for S in sorted_sieves(C, sets)]
                assert got == oracles.position_order(C, [S.members for S in sets]), x
                if by_label:
                    assert got == oracles.label_order(C, [S.members for S in sets]), x

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

    def test_arrows_that_share_a_label(self):
        # the ids 1 and "1" print alike; arrows_into lists them in the order
        # they were given, and their sieves are ordered by that position
        self.check(FinCategory.from_data("clash", ["a", "b"], {1: ("a", "b"), "1": ("a", "b")}))


def copy_of(C):
    """A second category equal to C, whose sieves are its own."""
    if C.backend == "finset":
        return build_finset_category(C._carriers)
    return FinCategory(C.name, C.objects, C._arrows, C._identity, C._table)


class TestOneSieveForm:
    """One sieve per set of classes: the closure of a sieve's members is
    the sieve itself; a sieve of a copy of the category is refused where a
    sieve is taken; and ``is_sieve`` agrees with the oracle on raw arrow
    sets, the only input that is not built as a sieve."""

    def check(self, C, data):
        objs = sorted(C.objects, key=str)
        for x in objs:
            for S in sieve_universe(C, x):
                assert sieve_closure(C, x, S.members) is S
        for h in C.all_arrows():
            for S in sieve_universe(C, C.cod(h)):
                P = pullback_sieve(C, h, S)
                assert sieve_closure(C, C.dom(h), P.members) is P
        built = [build_topology(C, kind, verify=False)[0] for kind in BUILDER_ORACLES]
        for J in built:
            for x in objs:
                for B in J.basis(x):
                    assert sieve_closure(C, x, B.members) is B
        D = copy_of(C)
        explicit = GrothendieckTopology(C, covers={x: sieve_universe(C, x) for x in objs})
        for x in objs:
            T, F = maximal_sieve(C, x), maximal_sieve(D, x)
            assert F.members == T.members and F != T and not F <= T
            assert is_sieve(C, x, T) and not is_sieve(C, x, F)
            with pytest.raises(StructuralError, match="another category"):
                pullback_sieve(C, C.identity(x), F)
            for J in (built[0], explicit):
                with pytest.raises(StructuralError, match="another category"):
                    J.contains(F)
            with pytest.raises(StructuralError, match="another category"):
                is_dense_sieve(C, F)
            with pytest.raises(StructuralError, match="another category"):
                generate_topology(C, {x: [F]})
            report = check_axioms(GrothendieckTopology(C, covers={x: {T, F}}))
            assert [(v.axiom, v.sieve) for v in report.violations] == [("well-formed", F)]
            into = C.arrows_into(x)
            universe = oracles.sieves_on(C, x)
            raw = [frozenset({a}) for a in into] + [frozenset(into[::2])]
            raw += [data.draw(st.sets(st.sampled_from(into))) for _ in range(5)]
            for arrows in raw:
                assert is_sieve(C, x, arrows) == (arrows in universe), (x, arrows)

    @given(posets(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_posets(self, C, data):
        self.check(C, data)

    @given(transformation_monoids(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_transformation_monoids(self, C, data):
        self.check(C, data)

    @given(finset_families(), st.data())
    @settings(max_examples=10, deadline=None)
    def test_finset_families_with_an_empty_carrier(self, C, data):
        self.check(C, data)


class TestLeastCoversAgainstOracles:
    """Verdicts, generated topologies and joins against the brute-force
    oracles, on random cover assignments: half give each object every
    sieve above one random sieve, the form each topology takes, and half
    a few random sieves."""

    def assignment(self, C, data):
        upsets = data.draw(st.booleans())
        covers = {}
        for x in sorted(C.objects, key=str):
            universe = oracles.position_order(C, oracles.sieves_on(C, x))
            if upsets:
                least = data.draw(st.sampled_from(universe))
                covers[x] = {S for S in universe if least <= S}
            else:
                covers[x] = set(data.draw(st.lists(st.sampled_from(universe), max_size=4)))
        return covers

    def sieves(self, C, covers):
        return {x: {sieve_closure(C, x, S) for S in cov} for x, cov in covers.items()}

    def members(self, J):
        return {x: {S.members for S in J.covers(x)} for x in J.category.objects}

    def decided(self, J):
        """The verdict of the least covers alone: found, and kept by the
        fixed point."""
        least = gtopology._least_covers(J)
        return least is not None and gtopology._closed(J.category, least) == least

    def check(self, C, data):
        first, second = self.assignment(C, data), self.assignment(C, data)
        J1 = GrothendieckTopology(C, covers=self.sieves(C, first))
        J2 = GrothendieckTopology(C, covers=self.sieves(C, second))
        valid = oracles.topology_ok(C, first)
        report = check_axioms(J1)
        # a rejection runs the report pass, so the decision is tested alone too
        assert self.decided(J1) == report.ok == valid
        listed = [(v.axiom, v.obj, v.sieve.members, v.arrow, v.detail) for v in report.violations]
        assert listed == oracles.axiom_violations(C, first)
        least = {x: functools.reduce(frozenset.intersection, cov) for x, cov in first.items() if cov}
        if len(least) == len(first):  # the same sieves, held as a basis
            basis = GrothendieckTopology(C, basis=lambda x: (sieve_closure(C, x, least[x]),))
            valid = oracles.topology_ok(C, {x: oracles.up_set(C, x, L) for x, L in least.items()})
            assert self.decided(basis) == check_axioms(basis).ok == valid
        J = generate_topology(C, self.sieves(C, first))
        assert self.members(J) == oracles.generated(C, first)
        assert check_axioms(J).ok
        both = {x: first[x] | second[x] for x in C.objects}
        assert self.members(join(J1, J2)) == oracles.generated(C, both)

    @given(posets(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_posets(self, C, data):
        self.check(C, data)

    @given(transformation_monoids(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_transformation_monoids(self, C, data):
        self.check(C, data)

    @given(finset_families(), st.data())
    @settings(max_examples=15, deadline=None)
    def test_finset_families_with_an_empty_carrier(self, C, data):
        self.check(C, data)


class TestLeastCoverCounts:
    """A topology is verified with one pullback per arrow, and joined
    without a sieve universe; D_360 has 180 arrows."""

    @pytest.fixture
    def pullbacks(self, monkeypatch):
        calls = []
        original = _ObjectSieves.pulled
        monkeypatch.setattr(_ObjectSieves, "pulled", lambda self, h, S: calls.append(h) or original(self, h, S))
        return calls

    @pytest.mark.parametrize("kind", sorted(BUILDER_ORACLES))
    def test_verifying_a_named_topology_on_d360(self, kind, pullbacks):
        C = build_divisor_poset(360)
        assert len(C.all_arrows()) == 180
        _, report = build_topology(C, kind)
        assert report.ok
        assert len(pullbacks) <= 180

    def test_a_cap_hit_while_deciding_raises_what_the_passes_raise(self, pullbacks):
        # arrows_into('g3') needs hom(g3, g3), 8^8 arrows, so the decision
        # stops before any pullback; the passes then list the dense covers
        # at g3 and stop at the sieve cap
        g = (0, 1)
        gg = tuple((a, b) for a in g for b in g)
        C = build_finset_category({"unit": ((),), "g": g, "g2": gg, "g3": tuple((p, c) for p in gg for c in g)})
        with pytest.raises(ResourceError, match="'g3' has more than 20000 sieves"):
            build_topology(C, "dense")
        assert pullbacks == []

    def test_the_passes_list_every_arrow_before_the_first_pullback(self, pullbacks):
        # the trivial covers at g3 are the maximal sieve alone, so the
        # passes list them and then stop at arrows_into('g3'), before
        # pulling back along the arrows into g2
        g = (0, 1)
        gg = tuple((a, b) for a in g for b in g)
        C = build_finset_category({"unit": ((),), "g": g, "g2": gg, "g3": tuple((p, c) for p in gg for c in g)})
        with pytest.raises(ResourceError, match=r"hom\('g3', 'g3'\) has 16777216 arrows, over the hom cap 100000"):
            build_topology(C, "trivial")
        assert pullbacks == []

    def test_a_failing_topology_pulls_every_cover_back_through_one_method(self, monkeypatch):
        # the report pass pulls each sieve back along each arrow into its
        # object, covers included
        C = parse_category_file((FIXTURES / "d12.cat").read_text())
        J = parse_topology_file((FIXTURES / "broken12.gtop").read_text(), C)
        calls = []
        original = _ObjectSieves.pulled
        monkeypatch.setattr(_ObjectSieves, "pulled", lambda self, h, S: calls.append((h, S)) or original(self, h, S))
        assert not check_axioms(J).ok
        stability = {(h, S) for x in C.objects for S in J.covers(x) for h in C.arrows_into(x)}
        assert len(calls) >= sum(len(J.covers(x)) * len(C.arrows_into(x)) for x in C.objects) == len(stability)
        assert stability <= set(calls)

    def test_joining_dense_and_atomic_on_d360(self, pullbacks, monkeypatch):
        C = build_divisor_poset(360)
        universes = []
        original = gtopology.sieve_universe
        monkeypatch.setattr(gtopology, "sieve_universe", lambda *a, **k: universes.append(a) or original(*a, **k))
        J = join(dense_topology(C), atomic_topology(C))
        assert len(pullbacks) <= 360
        assert universes == []
        assert all(J.basis(x) == dense_topology(C).basis(x) for x in C.objects)


def test_sieve_universe_builds_one_label_per_arrow(monkeypatch):
    g = (0, 1)
    gg = tuple((a, b) for a in g for b in g)
    C = build_finset_category({"unit": ((),), "g": g, "g2": gg, "g3": tuple((p, c) for p in gg for c in g)})
    calls = []
    original = type(C).arrow_label
    monkeypatch.setattr(type(C), "arrow_label", lambda self, a: calls.append(a) or original(self, a))
    assert len(sieve_universe(C, "g2")) == 167
    assert len(C.arrows_into("g2")) == 65812
    assert len(calls) <= 65812


def outputs_under_two_hash_seeds(script):
    src = str(Path(finsite.__file__).resolve().parents[1])
    return [
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("0", "5")
    ]


def test_reports_on_arrows_that_print_alike_ignore_the_hash_seed():
    # the sieves of 1 and "1" print alike; the stability lines of each
    # differ, so their order shows in the report
    script = "\n".join([
        "from finsite.fincat import FinCategory",
        "from finsite.gtopology import GrothendieckTopology, check_axioms",
        "from finsite.sieves import maximal_sieve, sieve_closure",
        "C = FinCategory.from_data('clash', ['a', 'b'], {1: ('a', 'b'), '1': ('a', 'b')})",
        "covers = {'a': set(), 'b': {maximal_sieve(C, 'b'), sieve_closure(C, 'b', [1]), sieve_closure(C, 'b', ['1'])}}",
        "print(check_axioms(GrothendieckTopology(C, covers=covers)).summary(C))",
    ])
    outs = outputs_under_two_hash_seeds(script)
    assert outs[0] == outs[1]
    assert outs[0].count("[stability] at 'b', sieve {1}, arrow 1") == 4


def test_finset_universes_on_objects_that_print_alike_ignore_the_hash_seed():
    # arrows from 1 and "1" print alike, and each image class holds some
    # from both; the universes are ordered without labelling them
    script = "\n".join([
        "from finsite.fincat import build_finset_category",
        "from finsite.gtopology import sieve_universe",
        "from finsite.sieves import sieve_literal",
        "C = build_finset_category({1: (0, 1), '1': (0, 1), 'e': ()})",
        "for x in C.objects:",
        "    for S in sieve_universe(C, x):",
        "        print(repr(S), sieve_literal(C, S))",
    ])
    outs = outputs_under_two_hash_seeds(script)
    assert outs[0] == outs[1]
    assert "Sieve(base=1, classes=(0, 3), size=3) {1->1[0,0], 1->1[0,0], e->1[]}\n" in outs[0]


def test_a_failing_report_pulls_back_alike_under_every_hash_seed(broken720):
    # each sieve is pulled back once along each arrow into its object,
    # whatever order a set of sieves iterates in
    script = "\n".join([
        "from finsite.cli import CommandRequest, run_command",
        "from finsite.sieves import _ObjectSieves",
        "calls, pulled = [], _ObjectSieves.pulled",
        "_ObjectSieves.pulled = lambda self, h, S: calls.append(h) or pulled(self, h, S)",
        f"print(*run_command(CommandRequest('check-topology', {broken720!r})), len(calls), sep='\\n')",
    ])
    outs = outputs_under_two_hash_seeds(script)
    assert outs[0] == outs[1]
    code, first, *_, calls = outs[0].splitlines()
    assert (code, first) == ("1", "check-topology broken on D_720: fail (2 violations)")
    assert int(calls) <= 60000


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize(
    "verb, options, needle, golden",
    [
        ("check-topology", {"category": "d12.cat", "topology": "broken12.gtop"}, "fail (10 violations)", None),
        ("enumerate-topologies", {"category": "cospan.cat"}, "topologies on cospan", None),
        ("enumerate-topologies", {"category": "d12.cat"}, "64 topologies on D_12", "d12-enumerate.report"),
    ],
    ids=["broken12", "cospan", "d12-enumerate"],
)
def test_cli_reports_ignore_the_hash_seed(verb, options, needle, golden):
    # sieves hash by their base and class indices, so a set of sieves
    # iterates in an order that follows the hash seed
    options = {k: str(FIXTURES / v) for k, v in options.items()}
    script = "\n".join([
        "from finsite.cli import CommandRequest, run_command",
        f"print(*run_command(CommandRequest({verb!r}, {options!r})), sep='\\n')",
    ])
    outs = outputs_under_two_hash_seeds(script)
    assert outs[0] == outs[1]
    assert needle in outs[0]
    if golden:
        assert outs[0] == "0\n" + (FIXTURES / golden).read_text()

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite.continuity import (
    LocalTopology,
    initial_local_topology,
    is_continuous,
    is_continuous_local,
    is_cover_preserving,
    localize,
    pullback_local,
)
from finsite.errors import StructuralError
from finsite.fincat import (
    FinCategory,
    build_divisor_poset,
    build_lcm_functor,
    build_product_category,
    identity_functor,
)
from finsite.gtopology import (
    GrothendieckTopology,
    build_topology,
    dense_topology,
    discrete_topology,
    enumerate_topologies,
    sieve_universe,
    trivial_topology,
    unclosed_cover,
)
from finsite.sieves import maximal_sieve, pullback_sieve, sieve_closure
from test_gtopology import posets, transformation_monoids

import oracles


@pytest.fixture(scope="module")
def d12():
    return build_divisor_poset(12)


@pytest.fixture(scope="module")
def arrow_cat():
    return FinCategory.from_data("arrow", [1, 2], {"f": (1, 2)})


def builders(C):
    return {
        "trivial": trivial_topology(C),
        "discrete": discrete_topology(C),
        "dense": dense_topology(C),
    }


class TestLocalize:
    def test_discrete_at_12(self, d12):
        assert len(localize(discrete_topology(d12), 12).sieves) == 10

    def test_trivial_is_singleton(self, d12):
        for x in d12.objects:
            assert localize(trivial_topology(d12), x).sieves == {maximal_sieve(d12, x)}

    def test_dense_at_12(self, d12):
        assert len(localize(dense_topology(d12), 12).sieves) == 9

    def test_unknown_object(self, d12):
        with pytest.raises(StructuralError):
            localize(trivial_topology(d12), 7)


class TestPullbackLocal:
    def test_identity_pullback(self, d12):
        L = localize(dense_topology(d12), 12)
        assert pullback_local(d12, "id_12", L) == L

    def test_trivial_pulls_to_trivial(self, d12):
        L = localize(trivial_topology(d12), 12)
        P = pullback_local(d12, "6|12", L)
        assert P == LocalTopology(6, frozenset({maximal_sieve(d12, 6)}))

    def test_arrow_category(self, arrow_cat):
        L = LocalTopology(2, frozenset({maximal_sieve(arrow_cat, 2)}))
        P = pullback_local(arrow_cat, "f", L)
        assert P == LocalTopology(1, frozenset({maximal_sieve(arrow_cat, 1)}))

    def test_base_mismatch(self, d12):
        with pytest.raises(StructuralError):
            pullback_local(d12, "2|6", localize(trivial_topology(d12), 12))

    def test_sieve_based_elsewhere(self, d12):
        with pytest.raises(StructuralError, match="holds a sieve based at 6"):
            pullback_local(d12, "6|12", LocalTopology(12, frozenset({maximal_sieve(d12, 6)})))

    def test_contains_maximal_for_all_builders(self, d12, arrow_cat):
        for C in (d12, arrow_cat):
            for J in builders(C).values():
                for f in C.all_arrows():
                    P = pullback_local(C, f, localize(J, C.cod(f)))
                    assert maximal_sieve(C, C.dom(f)) in P.sieves


class TestPullbackFunctoriality:
    def test_identity_and_composition_exhaustive(self, d12):
        universes = {x: sieve_universe(d12, x) for x in d12.objects}
        for x in d12.objects:
            for S in universes[x]:
                assert pullback_sieve(d12, d12.identity(x), S) == S
        for (g, f) in d12.composable_pairs():
            gf = d12.compose(g, f)
            for S in universes[d12.cod(g)]:
                assert pullback_sieve(d12, gf, S) == pullback_sieve(
                    d12, f, pullback_sieve(d12, g, S)
                )


class TestContinuity:
    def test_identity_arrows_always_continuous(self, d12):
        for J in builders(d12).values():
            for x in d12.objects:
                assert is_continuous(d12, d12.identity(x), J).ok

    def test_everything_continuous_under_trivial(self, d12):
        J = trivial_topology(d12)
        for f in d12.all_arrows():
            assert is_continuous(d12, f, J).ok

    def test_negative_instance_with_empty_witness(self, arrow_cat):
        t1, t2 = maximal_sieve(arrow_cat, 1), maximal_sieve(arrow_cat, 2)
        J = GrothendieckTopology(arrow_cat, covers={1: {t1, sieve_closure(arrow_cat, 1, ())}, 2: {t2}})
        verdict = is_continuous(arrow_cat, "f", J)
        assert not verdict.ok
        assert verdict.witness == sieve_closure(arrow_cat, 1, ())

    def test_domain_sieve_of_another_category(self, arrow_cat):
        copy = FinCategory.from_data("arrow", [1, 2], {"f": (1, 2)})
        Ldom = LocalTopology(1, frozenset({maximal_sieve(copy, 1)}))
        Lcod = localize(trivial_topology(arrow_cat), 2)
        with pytest.raises(StructuralError, match="holds a sieve on 1 of another category"):
            is_continuous_local(arrow_cat, "f", Ldom, Lcod)

    def test_composition_closure_on_d12(self, d12):
        from finsite.gtopology import atomic_topology

        tops = dict(builders(d12))
        tops["atomic"] = atomic_topology(d12)
        for J in tops.values():
            cont = {f for f in d12.all_arrows() if is_continuous(d12, f, J).ok}
            for (g, f) in d12.composable_pairs():
                if f in cont and g in cont:
                    assert d12.compose(g, f) in cont

    def test_composition_closure_on_arrow_category(self, arrow_cat):
        for J in enumerate_topologies(arrow_cat):
            cont = {f for f in arrow_cat.all_arrows() if is_continuous(arrow_cat, f, J).ok}
            for (g, f) in arrow_cat.composable_pairs():
                if f in cont and g in cont:
                    assert arrow_cat.compose(g, f) in cont

    def test_candidate_local_topology_iff_subset_of_pullback(self, arrow_cat):
        # continuity of f under a candidate K at the domain holds exactly
        # when K is inside the pullback of the codomain's covers
        import itertools

        for J in enumerate_topologies(arrow_cat):
            L2 = localize(J, 2)
            pulled = pullback_local(arrow_cat, "f", L2)
            all_sieves = sieve_universe(arrow_cat, 1)
            for r in range(len(all_sieves) + 1):
                for combo in itertools.combinations(all_sieves, r):
                    K = LocalTopology(1, frozenset(combo))
                    verdict = is_continuous_local(arrow_cat, "f", K, L2)
                    assert verdict.ok == (K.sieves <= pulled.sieves)


class TestInitialTopology:
    def test_identity_family_returns_local(self, d12):
        L = localize(dense_topology(d12), 12)
        assert initial_local_topology(d12, 12, [("id_12", L)]) == L

    def test_empty_family_is_full_universe(self, d12):
        L = initial_local_topology(d12, 12, [])
        assert len(L.sieves) == 10

    def test_arrow_category_single_pullback(self, arrow_cat):
        L2 = LocalTopology(2, frozenset({maximal_sieve(arrow_cat, 2)}))
        L = initial_local_topology(arrow_cat, 1, [("f", L2)])
        assert L == LocalTopology(1, frozenset({maximal_sieve(arrow_cat, 1)}))

    def test_dom_mismatch(self, d12):
        with pytest.raises(StructuralError):
            initial_local_topology(d12, 12, [("2|6", localize(trivial_topology(d12), 6))])

    def test_family_members_become_continuous(self, d12):
        for J in builders(d12).values():
            for x in d12.objects:
                outs = [f for f in d12.all_arrows() if d12.dom(f) == x and not d12.is_identity(f)]
                for k in (1, 2):
                    if len(outs) < k:
                        continue
                    family = [(f, localize(J, d12.cod(f))) for f in outs[:k]]
                    Lhat = initial_local_topology(d12, x, family)
                    for f, L in family:
                        assert is_continuous_local(d12, f, Lhat, L).ok

    def test_characteristic_property_over_arrow_topologies(self, arrow_cat):
        import itertools

        tops = enumerate_topologies(arrow_cat)
        assert len(tops) == 4
        for J in tops:
            for x in arrow_cat.objects:
                outs = [f for f in arrow_cat.all_arrows() if arrow_cat.dom(f) == x]
                families = [(f,) for f in outs] + list(itertools.combinations(outs, 2))
                for fam in families:
                    family = [(f, localize(J, arrow_cat.cod(f))) for f in fam]
                    Lhat = initial_local_topology(arrow_cat, x, family)
                    for K in tops:
                        for g in arrow_cat.arrows_into(x):
                            KZ = localize(K, arrow_cat.dom(g))
                            left = is_continuous_local(arrow_cat, g, KZ, Lhat).ok
                            right = all(
                                is_continuous_local(
                                    arrow_cat, arrow_cat.compose(f, g), KZ, L
                                ).ok
                                for f, L in family
                            )
                            assert left == right


class TestCoverPreserving:
    def test_identity_functor(self, d12):
        for J in builders(d12).values():
            assert is_cover_preserving(identity_functor(d12), J, J).ok

    def test_lcm_dense_and_discrete(self, d12):
        P, _, _ = build_product_category(d12, d12)
        F = build_lcm_functor(P, d12)
        for kind in ("dense", "discrete"):
            Jp = builders(P)[kind] if kind != "discrete" else discrete_topology(P)
            Jc = builders(d12)[kind]
            assert is_cover_preserving(F, Jp, Jc).ok

    def test_non_preserving_witness(self, arrow_cat):
        # collapse functor onto the point: the empty cover at 1 maps to a
        # non-cover under the trivial topology of the point category
        point = FinCategory.from_data("point", ["*"], {})
        F = type(identity_functor(point))(
            "collapse",
            arrow_cat,
            point,
            {1: "*", 2: "*"},
            {a: "id_*" for a in arrow_cat.all_arrows()},
        )
        t1 = maximal_sieve(arrow_cat, 1)
        t2 = maximal_sieve(arrow_cat, 2)
        Jdom = GrothendieckTopology(
            arrow_cat, covers={1: {t1, sieve_closure(arrow_cat, 1, ())}, 2: {t2, sieve_closure(arrow_cat, 2, ()), sieve_closure(arrow_cat, 2, ["f"])}}
        )
        Jcod = trivial_topology(point)
        verdict = is_cover_preserving(F, Jdom, Jcod)
        assert not verdict.ok
        assert verdict.witness.members == frozenset()

    def test_a_codomain_not_closed_upward_is_refused(self, d12):
        # dense's cover sets less {1|12, 2|12}, which is not a least cover:
        # the dense basis maps onto covers, but the image of that dropped
        # cover is not one, so checking the basis alone would pass wrongly
        dense = dense_topology(d12)
        dropped = sieve_closure(d12, 12, ["2|12"])
        covers = dense.covers_map()
        covers[12] = covers[12] - {dropped}
        J = GrothendieckTopology(d12, covers=covers)
        with pytest.raises(StructuralError) as err:
            is_cover_preserving(identity_functor(d12), dense, J)
        assert str(err.value) == (
            "cover preservation needs the codomain's cover sets closed upward: at 12, "
            "{1|12, 2|12} contains the cover {1|12} but is not a cover"
        )

    def test_minimal_covers_are_closed_upward_without_listing_them(self, d12):
        J = discrete_topology(d12)
        assert unclosed_cover(J) is None
        assert J._covers == {}


# -- continuity and initial topologies against member-level oracles -----


class TestAgainstOracles:
    """``is_continuous``, with its witness, and ``initial_local_topology``
    against ``oracles.continuity_witness`` and ``oracles.initial_sieves``,
    which pull listed members back by composing, on random cover sets:
    half give each object every sieve above one random sieve, half a few
    random sieves."""

    def check(self, C, data):
        covers = {}
        for x in sorted(C.objects, key=str):
            universe = oracles.position_order(C, oracles.sieves_on(C, x))
            if data.draw(st.booleans()):
                least = data.draw(st.sampled_from(universe))
                covers[x] = {S for S in universe if least <= S}
            else:
                covers[x] = set(data.draw(st.lists(st.sampled_from(universe), max_size=4)))
        J = GrothendieckTopology(C, covers={x: {sieve_closure(C, x, S) for S in cov} for x, cov in covers.items()})
        for f in C.all_arrows():
            verdict, witness = is_continuous(C, f, J), oracles.continuity_witness(C, f, covers)
            assert verdict.ok == (witness is None)
            assert verdict.ok or verdict.witness.members == witness
        x = data.draw(st.sampled_from(sorted(C.objects, key=str)))
        out = [f for f in C.all_arrows() if C.dom(f) == x]
        family = data.draw(st.lists(st.sampled_from(out), max_size=3))
        L = initial_local_topology(C, x, [(f, localize(J, C.cod(f))) for f in family])
        expected = oracles.initial_sieves(C, x, [(f, covers[C.cod(f)]) for f in family])
        assert {S.members for S in L.sieves} == expected

    @given(posets(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_posets(self, C, data):
        self.check(C, data)

    @given(transformation_monoids(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_transformation_monoids(self, C, data):
        self.check(C, data)


# -- cover preservation against a member-level oracle ------------------


class TestCoverPreservationAgainstOracle:
    """``is_cover_preserving`` against ``oracles.cover_preservation_witness``,
    which maps each cover's members through F and closes the image by
    composing: the verdict, the object and the witness."""

    def check(self, F, Jdom, Jcod, dom_covers, cod_covers):
        verdict = is_cover_preserving(F, Jdom, Jcod)
        expected = oracles.cover_preservation_witness(F, dom_covers, cod_covers)
        assert verdict.ok == (expected is None)
        assert verdict.ok or (verdict.obj, verdict.witness.members) == expected

    def check_identity(self, C, data):
        """The identity functor from random cover sets to cover sets closed
        upward: each the sieves above one or two random sieves."""
        dom, cod = {}, {}
        for x in sorted(C.objects, key=str):
            universe = oracles.position_order(C, oracles.sieves_on(C, x))
            dom[x] = set(data.draw(st.lists(st.sampled_from(universe), max_size=4)))
            least = data.draw(st.lists(st.sampled_from(universe), min_size=1, max_size=2))
            cod[x] = {S for S in universe if any(L <= S for L in least)}

        def explicit(covers):
            return GrothendieckTopology(C, covers={x: {sieve_closure(C, x, S) for S in cov} for x, cov in covers.items()})

        self.check(identity_functor(C), explicit(dom), explicit(cod), dom, cod)

    @given(posets(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_identity_on_random_posets(self, C, data):
        self.check_identity(C, data)

    @given(transformation_monoids(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_identity_on_transformation_monoids(self, C, data):
        self.check_identity(C, data)

    @pytest.mark.parametrize("n", [12, 30])
    def test_lcm_on_every_pair_of_kinds(self, n):
        C = build_divisor_poset(n)
        P, _, _ = build_product_category(C, C)
        F = build_lcm_functor(P, C)
        kinds = ("trivial", "discrete", "dense", "atomic")
        verdicts = []
        for kp in kinds:
            Jp = build_topology(P, kp, verify=False)[0]
            basis = {x: [S.members for S in Jp.basis(x)] for x in P.objects}
            for kc in kinds:
                Jc = build_topology(C, kc, verify=False)[0]
                self.check(F, Jp, Jc, basis, {y: {S.members for S in Jc.covers(y)} for y in C.objects})
                verdicts.append(is_cover_preserving(F, Jp, Jc).ok)
        assert True in verdicts and False in verdicts

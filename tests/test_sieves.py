import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite.errors import StructuralError
from finsite.fincat import FinCategory, build_divisor_poset
from finsite.sieves import (
    Sieve,
    is_sieve,
    maximal_sieve,
    pullback_sieve,
    sieve_closure,
)

from oracles import divisor_down_sets, divisors


@pytest.fixture(scope="module")
def d12():
    return build_divisor_poset(12)


@pytest.fixture(scope="module")
def cospan():
    return FinCategory.from_data(
        "cospan", ["X", "Y", "Z"], {"f": ("X", "Z"), "g": ("Y", "Z")}
    )


def doms(C, S):
    return {C.dom(a) for a in S.members}


class TestClosure:
    def test_principal_sieve_is_divisor_set(self, d12):
        S = sieve_closure(d12, 12, ("4|12",))
        assert doms(d12, S) == {1, 2, 4}

    def test_empty_generators(self, d12):
        S = sieve_closure(d12, 12, ())
        assert S.members == frozenset() and S.size == 0

    def test_union_of_divisor_sets(self, d12):
        S = sieve_closure(d12, 12, ("6|12", "4|12"))
        assert doms(d12, S) == {1, 2, 3, 4, 6}

    def test_wrong_codomain_is_structural(self, d12):
        with pytest.raises(StructuralError):
            sieve_closure(d12, 12, ("2|6",))

    @given(st.sampled_from([6, 12, 30]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_closure_operator_laws(self, n, data):
        C = build_divisor_poset(n)
        x = data.draw(st.sampled_from(C.objects))
        into = C.arrows_into(x)
        gens = data.draw(st.sets(st.sampled_from(into)))
        more = gens | data.draw(st.sets(st.sampled_from(into)))
        S = sieve_closure(C, x, gens)
        # extensive
        assert gens <= S.members
        # idempotent
        assert sieve_closure(C, x, S.members) == S
        # monotone
        assert S.members <= sieve_closure(C, x, more).members


class TestConstruction:
    def test_direct_construction_is_structural(self):
        # a sieve is built only from the classes of its base
        with pytest.raises(StructuralError, match="sieve_closure"):
            Sieve(2, frozenset({"f"}))


class TestMissingComposite:
    def test_class_tables_raise_what_compose_raises(self):
        # g . f is composable but left out of a hand-built table
        C = FinCategory.from_data("chain", "abc", {"f": ("a", "b"), "g": ("b", "c"), "h": ("a", "c")}, {("g", "f"): "h"})
        table = {pair: h for pair, h in C._table.items() if pair != ("g", "f")}
        broken = FinCategory("chain", C.objects, C._arrows, C._identity, table)
        with pytest.raises(StructuralError) as composed:
            broken.compose("g", "f")
        assert str(composed.value) == "composition table has no entry for ('g' . 'f')"
        with pytest.raises(StructuralError) as listed:
            sieve_closure(broken, "c", ["g"])
        assert str(listed.value) == str(composed.value)
        assert sieve_closure(broken, "b", ["f"]).members == {"f"}  # the classes at b need no g . f


class TestMaximalSieve:
    def test_d12_top(self, d12):
        S = maximal_sieve(d12, 12)
        assert doms(d12, S) == {1, 2, 3, 4, 6, 12}

    def test_terminal_category(self):
        C = FinCategory.from_data("point", ["*"], {})
        assert maximal_sieve(C, "*").members == {"id_*"}

    def test_cospan_census(self, cospan):
        assert maximal_sieve(cospan, "Z").members == {"f", "g", "id_Z"}

    def test_unknown_object_is_structural(self, d12):
        with pytest.raises(StructuralError):
            maximal_sieve(d12, 7)


class TestIsSieve:
    def test_closures_are_sieves(self, d12):
        for gens in (("4|12",), ("6|12", "4|12"), ()):
            S = sieve_closure(d12, 12, gens)
            assert is_sieve(d12, 12, S.members)

    def test_identity_alone_is_not_a_sieve(self):
        d2 = build_divisor_poset(2)
        assert not is_sieve(d2, 2, {"id_2"})

    def test_down_set_is_sieve(self, d12):
        members = {a for a in d12.arrows_into(12) if d12.dom(a) in {1, 2, 3, 6}}
        assert is_sieve(d12, 12, members)

    def test_wrong_codomain_rejected(self, d12):
        assert not is_sieve(d12, 12, {"2|6"})


class TestPullback:
    def test_identity_pullback(self, d12):
        S = sieve_closure(d12, 12, ("4|12",))
        assert pullback_sieve(d12, "id_12", S) == S

    def test_maximal_pulls_to_maximal(self, d12):
        for h in d12.all_arrows():
            S = maximal_sieve(d12, d12.cod(h))
            assert pullback_sieve(d12, h, S) == maximal_sieve(d12, d12.dom(h))

    def test_divisor_intersection(self, d12):
        S = sieve_closure(d12, 12, ("4|12",))
        P = pullback_sieve(d12, "6|12", S)
        assert P.base == 6
        assert doms(d12, P) == {1, 2}

    def test_base_mismatch_is_structural(self, d12):
        with pytest.raises(StructuralError):
            pullback_sieve(d12, "2|6", maximal_sieve(d12, 12))

    def test_result_is_sieve(self, d12):
        from finsite.gtopology import sieve_universe

        for x in d12.objects:
            for S in sieve_universe(d12, x):
                for h in d12.arrows_into(x):
                    P = pullback_sieve(d12, h, S)
                    assert is_sieve(d12, P.base, P.members)

    def test_monotone(self, d12):
        S1 = sieve_closure(d12, 12, ("4|12",))
        S2 = sieve_closure(d12, 12, ("4|12", "6|12"))
        for h in d12.arrows_into(12):
            assert pullback_sieve(d12, h, S1).members <= pullback_sieve(d12, h, S2).members

    def test_functoriality_on_arrow_category(self):
        from finsite.gtopology import sieve_universe

        C = FinCategory.from_data("arrow", [1, 2], {"f": (1, 2)})
        universes = {x: sieve_universe(C, x) for x in C.objects}
        for x in C.objects:
            for S in universes[x]:
                assert pullback_sieve(C, C.identity(x), S) == S
        for (g, f) in C.composable_pairs():
            for S in universes[C.cod(g)]:
                assert pullback_sieve(C, C.compose(g, f), S) == pullback_sieve(
                    C, f, pullback_sieve(C, g, S)
                )


class TestPosetSpecialization:
    """Sieves on n are exactly the down-sets of the divisors of n, and
    pullback along k -> n is intersection with the divisors of k."""

    @pytest.mark.parametrize("n", [6, 12, 30])
    def test_sieves_are_down_sets(self, n):
        from finsite.gtopology import sieve_universe

        C = build_divisor_poset(n)
        for x in C.objects:
            got = {frozenset(C.dom(a) for a in S.members) for S in sieve_universe(C, x)}
            assert got == set(divisor_down_sets(x))

    def test_pullback_is_divisor_intersection(self):
        from finsite.gtopology import sieve_universe

        C = build_divisor_poset(12)
        for x in C.objects:
            for S in sieve_universe(C, x):
                sdoms = frozenset(C.dom(a) for a in S.members)
                for h in C.arrows_into(x):
                    k = C.dom(h)
                    got = frozenset(C.dom(a) for a in pullback_sieve(C, h, S).members)
                    assert got == sdoms & frozenset(divisors(k))

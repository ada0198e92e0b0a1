"""Finite-set sieves as unions of image classes.

On a finite-set category the factoring classes at x are the image subsets
of x's carrier, listed without building an arrow.  These tests compare the
class route with brute-force oracles on small families, and pin the reach
it gives: the group objects on {unit, g, g2, g3} are checked without
listing a hom-set.
"""

import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from finsite.algebra import group_witness
from finsite.continuity import localize
from finsite.errors import ResourceError, StructuralError
from finsite.fincat import FinFunction, FinSetCategory, build_finset_category
from finsite.gtopgroup import is_gtop_algebraic_object
from finsite.gtopology import build_topology, dense_topology, discrete_topology, sieve_universe
from finsite.sieves import (
    _bits,
    _ObjectSieves,
    _sieves_on,
    maximal_sieve,
    pullback_sieve,
    sieve_closure,
    sorted_sieves,
)

KINDS = ("trivial", "discrete", "dense", "atomic")

# element reprs that are prefixes of one another: 1 and 10, 'a' and 'a,'
POOL = (1, 10, "a", "a,", 0, (0, 1))


def family(carriers):
    return build_finset_category({"e": (), **{f"c{i}": c for i, c in enumerate(carriers)}})


@st.composite
def image_families(draw):
    """An empty carrier and one or two more of up to three elements."""
    carriers = draw(st.lists(st.lists(st.sampled_from(POOL), max_size=3, unique=True), min_size=1, max_size=2))
    return family([tuple(c) for c in carriers])


@st.composite
def carrier_families(draw):
    """One to three carriers of up to five elements, any of them empty."""
    sizes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))
    return build_finset_category({f"c{i}": tuple(range(n)) for i, n in enumerate(sizes)})


def group_family(n):
    g = tuple(range(n))
    gg = tuple((a, b) for a in g for b in g)
    return build_finset_category({"unit": ((),), "g": g, "g2": gg, "g3": tuple((p, c) for p in gg for c in g)})


def cyclic_witness(C, n):
    g = C.carrier("g")
    mu = C.function("g2", "g", {(a, b): (a + b) % n for a, b in C.carrier("g2")})
    return group_witness(
        C, "g", mu=mu, eta=C.function("unit", "g", {(): 0}), zeta=C.function("g", "g", {a: -a % n for a in g})
    )


class TestImageClassesAgainstOracles:
    @given(image_families())
    @example(family([(1, 10), ("a", "a,")]))
    @example(family([(1, 10, "a,"), ()]))
    @settings(max_examples=25, deadline=None)
    def test_against_brute_force(self, C):
        objs = sorted(C.objects, key=str)
        universes = {x: oracles.sieves_on(C, x) for x in objs}
        program = {x: {T: sieve_closure(C, x, T) for T in universes[x]} for x in objs}
        for x in objs:
            into = C.arrows_into(x)
            for T, S in program[x].items():
                assert S.members == T
                assert len(S) == len(T)
                assert all((a in S) == (a in T) for a in into)
            assert {S.members for S in sieve_universe(C, x)} == universes[x]
            expected = oracles.position_order(C, list(universes[x]))
            assert [S.members for S in sorted_sieves(C, program[x].values())] == expected
        for h in C.all_arrows():
            for T, S in program[C.cod(h)].items():
                assert pullback_sieve(C, h, S).members == oracles.pullback_members(C, h, T), (h, T)

    def test_prefix_reprs_are_ordered_without_labelling_arrows(self, monkeypatch):
        # element reprs that are prefixes of one another, and domains 1 and
        # "1" whose arrows print alike
        families = [
            family([(1, 10), ("a", "a,"), (1, 10, "a,")]),
            build_finset_category({1: (0, 1), "1": (0, 1), "e": ()}),
        ]
        calls = []
        original = FinSetCategory.arrow_label
        monkeypatch.setattr(FinSetCategory, "arrow_label", lambda self, a: calls.append(a) or original(self, a))
        for C in families:
            for x in C.objects:
                sieve_universe(C, x)
            assert calls == []
            assert C._hom_cache == {}

    @pytest.mark.parametrize("sizes", [(2, 1), (2, 2)])
    def test_objects_that_print_alike(self, sizes):
        # the domains 1 and "1" give arrows the same label prefix; with
        # equal carriers their labels collide, and sieves are still ordered
        # by the positions of their members in arrows_into
        C = build_finset_category({1: tuple(range(sizes[0])), "1": tuple(range(sizes[1])), "e": ()})
        for x in C.objects:
            universe = oracles.sieves_on(C, x)
            program = [sieve_closure(C, x, T) for T in universe]
            assert [S.members for S in sorted_sieves(C, program)] == oracles.position_order(C, list(universe))


class TestClassesByImageMask:
    @given(carrier_families())
    @example(build_finset_category({"a": (), "b": range(5), "c": range(2)}))
    @settings(max_examples=30, deadline=None)
    def test_classes_and_lower_sets_against_subsets(self, C):
        for x in C.objects:
            space, carrier = _sieves_on(C, x), C.carrier(x)
            images = [frozenset(carrier[j] for j in _bits(A)) for A in space.keys]
            assert images == oracles.first_images(C, x)
            assert all(d >> i & 1 for i, d in enumerate(space.down))
            assert [set(_bits(d ^ 1 << i)) for i, d in enumerate(space.down)] == oracles.strict_subsets(images)

    def test_lower_sets_of_fourteen_elements_reach_the_sieve_cap_quickly(self):
        # 16 383 classes; comparing every pair of them took about 21 s
        C = build_finset_category({"x": tuple(range(14))})
        start = time.perf_counter()
        with pytest.raises(ResourceError) as err:
            localize(discrete_topology(C), "x")
        assert err.value.cap_name == "sieves"
        assert time.perf_counter() - start < 5


class TestClassMapsAgainstOracles:
    @given(image_families())
    @example(family([(1, 10), ("a", "a,")]))
    @example(family([(1, 10, "a,"), ()]))
    @settings(max_examples=25, deadline=None)
    def test_against_composition(self, C):
        # the oracle composes each arrow with the first arrow of each class
        classes = {x: oracles.factoring_classes(C, x) for x in C.objects}
        for h in C.all_arrows():
            d, y = C.dom(h), C.cod(h)
            expected = oracles.preimage_masks(C, h, classes[d], classes[y])
            assert _sieves_on(C, d).preimages(h, _sieves_on(C, y)) == expected, h

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_carriers_wider_than_one_chunk(self, data):
        # class maps read 8 carrier elements at a time, and preimage masks
        # are set 4 096 classes at a time; a has 8 191 classes in two
        # chunks, b has 511, and the images are compared as sets
        C = build_finset_category({"a": tuple(range(13)), "b": tuple(range(9)), "c": (0, 1, 2)})
        images = {}
        for x in C.objects:
            carrier = C.carrier(x)
            images[x] = [frozenset(carrier[j] for j in _bits(A)) for A in _sieves_on(C, x).keys]
        for d, y in (("a", "b"), ("b", "b"), ("a", "c"), ("c", "a")):
            targets = C.carrier(y)
            f = {e: data.draw(st.sampled_from(targets)) for e in C.carrier(d)}
            h = C.function(d, y, f)
            expected = oracles.image_preimage_masks(f, images[d], images[y])
            assert _sieves_on(C, d).preimages(h, _sieves_on(C, y)) == expected

    def test_an_arrow_is_checked_as_composing_it_would(self):
        C = family([(1, 10), ("a",)])
        S = maximal_sieve(C, "c1")
        with pytest.raises(StructuralError, match="'b' of .* is not in the carrier of 'c1'"):
            pullback_sieve(C, FinFunction("c0", "c1", ("a", "b")), S)
        with pytest.raises(StructuralError, match="does not run from 'c1' to 'c0'"):
            _sieves_on(C, "c1").preimages(FinFunction("c1", "c1", ("a",)), _sieves_on(C, "c0"))

    def test_z3_pullbacks_compose_no_arrow(self, monkeypatch):
        C = group_family(3)
        inside, pulled, composed = [], [], []
        preimages, compose = _ObjectSieves.preimages, FinSetCategory.compose

        def counted_preimages(self, h, at_cod):
            inside.append(h)
            pulled.append(h)
            try:
                return preimages(self, h, at_cod)
            finally:
                inside.pop()

        monkeypatch.setattr(_ObjectSieves, "preimages", counted_preimages)
        monkeypatch.setattr(FinSetCategory, "compose", lambda self, g, f: composed.append(bool(inside)) or compose(self, g, f))
        for kind in KINDS:
            J, _ = build_topology(C, kind, verify=False)
            is_gtop_algebraic_object(C, cyclic_witness(C, 3), J)
        assert pulled and True not in composed


class TestGroupObjectsWithoutHomSets:
    @pytest.mark.parametrize("kind", KINDS)
    def test_z2_lists_no_hom_set(self, kind):
        C = group_family(2)
        J, _ = build_topology(C, kind, verify=False)
        is_gtop_algebraic_object(C, cyclic_witness(C, 2), J)
        assert C._hom_cache == {} and C._into_cache == {}

    @pytest.mark.parametrize("kind", KINDS)
    def test_z3_matches_the_image_mask_oracle(self, kind):
        C = group_family(3)
        g, gg = C.carrier("g"), C.carrier("g2")
        J, _ = build_topology(C, kind, verify=False)
        report = is_gtop_algebraic_object(C, cyclic_witness(C, 3), J)
        mu = {(a, b): (a + b) % 3 for a, b in gg}
        local, mu_ok, zeta_ok = oracles.image_gtop(kind, g, gg, len(C.carrier("g3")), mu, {a: -a % 3 for a in g})
        assert (report.mu_ok, report.zeta_ok) == (mu_ok, zeta_ok)
        classes = oracles.image_classes(gg, len(C.carrier("g3")), False)
        onto = {A: {e: sorted(A)[min(i, len(A) - 1)] for i, e in enumerate(C.carrier("g3"))} for A in classes}
        reps = {A: C.function("g3", "g2", onto[A]) for A in classes}
        got = {frozenset(A for A in classes if reps[A] in S) for S in report.product_local.sieves}
        assert got == local
        assert C._hom_cache == {}

    def test_repr_names_classes_not_arrows(self):
        C = group_family(3)
        S = maximal_sieve(C, "g2")
        assert repr(S).startswith("Sieve(base='g2', classes=(0, 1, 2, ")
        assert repr(S).endswith(f", 510), size={S.size})")
        assert C._hom_cache == {}
        # one repr per sieve of the category, as comparisons of cover sets
        # through repr need
        sieves = [*sieve_universe(C, "unit"), *sieve_universe(C, "g")]
        assert len(set(map(repr, sieves))) == len(sieves)

    def test_classes_at_g3_on_z3_hit_the_hom_cap(self):
        C = group_family(3)
        for ask in (maximal_sieve, sieve_universe):
            with pytest.raises(ResourceError, match=r"'g3' has 134217727 image classes") as err:
                ask(C, "g3")
            assert err.value.cap_name == "homs"

    def test_listing_members_counts_the_arrows_from_each_domain(self):
        # 7 image classes fit the cap, but the 27 maps of {0, 1, 2} do not
        C = build_finset_category({"a": (0, 1, 2)}, hom_cap=10)
        S = maximal_sieve(C, "a")
        with pytest.raises(ResourceError) as err:
            S.members
        assert str(err.value) == "a sieve on 'a' has 27 arrows from 'a', over the hom cap 10"
        assert (err.value.cap_name, err.value.cap_value) == ("homs", 10)

    def test_ordering_sieves_on_z4_keeps_no_weight_per_class(self):
        # g2 has 65 535 image classes; a key that weighs each class by a
        # power of two would hold about n^2 / 16 bytes of weights
        C = group_family(4)
        space = _sieves_on(C, "g2")
        assert len(space.keys) == 65535
        (dense,) = dense_topology(C).basis("g2")
        pairs = space.sieve(sum(1 << i for i, A in enumerate(space.keys) if A.bit_count() <= 2))  # bit i = class i
        top = maximal_sieve(C, "g2")
        tracemalloc.start()
        try:
            ordered = sorted_sieves(C, [top, pairs, dense])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ordered == [dense, pairs, top]
        assert peak < 4 * 2**20

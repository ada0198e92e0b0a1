import functools
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite.errors import DomainError, ResourceError, StructuralError
from finsite.fincat import (
    FinCategory,
    FinFunction,
    bang,
    binary_product,
    build_divisor_poset,
    build_finset_category,
    build_lcm_functor,
    build_product_category,
    divisor_inclusion_functor,
    identity_functor,
    pair,
    search_product_cones,
    terminal_objects,
    validate_category,
    validate_functor,
)
from oracles import divisors, gcd, table_laws


@pytest.fixture(scope="module")
def d12():
    return build_divisor_poset(12)


@pytest.fixture(scope="module")
def cospan():
    # X --f--> Z <--g-- Y
    return FinCategory.from_data(
        "cospan", ["X", "Y", "Z"], {"f": ("X", "Z"), "g": ("Y", "Z")}
    )


@pytest.fixture(scope="module")
def zmod2():
    g = (0, 1)
    gg = tuple((a, b) for a in g for b in g)
    ggg = tuple((p, c) for p in gg for c in g)
    return build_finset_category({"unit": ((),), "g": g, "g2": gg, "g3": ggg}, name="zmod2")


@st.composite
def tables(draw):
    """A table category on 1-3 objects with up to 4 more arrows whose
    composition table has entries dropped or replaced by other arrows of
    the right type, so laws can fail and composites can be missing."""
    objects = list(range(draw(st.integers(1, 3))))
    ends = st.tuples(st.sampled_from(objects), st.sampled_from(objects))
    arrows = {f"a{i}": e for i, e in enumerate(draw(st.lists(ends, max_size=4)))}
    C = FinCategory.from_data("random", objects, arrows)
    table = {}
    for g in C.all_arrows():
        for f in C.all_arrows():
            if C.cod(f) != C.dom(g):
                continue
            typed = [h for h in C.all_arrows() if (C.dom(h), C.cod(h)) == (C.dom(f), C.cod(g))]
            choice = draw(st.sampled_from([None, *typed]))
            if choice is not None:
                table[(g, f)] = C._table.get((g, f), choice) if draw(st.booleans()) else choice
    return FinCategory("random", C.objects, C._arrows, C._identity, table)


@st.composite
def finset_triples(draw):
    """A finite-set category on one to four carriers of zero to three
    elements, each listed in a random order, and maps f: a -> b, g: b -> c
    and h: c -> d with random images."""
    sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    C = build_finset_category({f"c{i}": draw(st.permutations(range(n))) for i, n in enumerate(sizes)})
    chain = [draw(st.sampled_from(C.objects))]
    for _ in range(3):  # no map runs from a nonempty carrier to an empty one
        x = chain[-1]
        chain.append(draw(st.sampled_from([y for y in C.objects if C.carrier(y) or not C.carrier(x)])))
    maps = []
    for x, y in zip(chain, chain[1:]):
        n = len(C.carrier(x))
        images = draw(st.lists(st.sampled_from(C.carrier(y)), min_size=n, max_size=n)) if n else []
        maps.append(FinFunction(x, y, tuple(images)))
    return (C, *maps)


def assert_laws_match_the_oracle(C):
    report = validate_category(C)
    violations, checks = table_laws(C)
    assert [(v.law, v.detail) for v in report.violations] == violations
    assert report.checks == checks and report.ok == (not violations)


class TestValidateCategory:
    def test_divisor_poset_passes(self, d12):
        report = validate_category(d12)
        assert report.ok, report.summary()

    def test_terminal_category_passes(self):
        C = FinCategory.from_data("point", ["*"], {})
        assert validate_category(C).ok

    def test_ill_typed_composition_is_structural(self):
        with pytest.raises(StructuralError):
            FinCategory.from_data(
                "bad",
                ["a", "b", "c"],
                {"f": ("a", "b"), "g": ("b", "c"), "h": ("a", "b")},
                {("g", "f"): "h"},  # composite should land in c, not b
            )

    def test_dangling_arrow_reference_is_structural(self):
        with pytest.raises(StructuralError):
            FinCategory.from_data("bad", ["a"], {"f": ("a", "zzz")})

    @pytest.mark.parametrize(
        "objects,arrows,compose,message",
        [
            (["a", "a"], {}, {}, "duplicate object ids in category 'c'"),
            (["a"], {"f": "a"}, {}, "the arrows of 'c' must map each id to a (dom, cod) pair"),
            (["a"], {"f": ("a", "a")}, {"f": "f"}, "the composition table of 'c' must map (g, f) pairs to arrows"),
        ],
    )
    def test_malformed_data_is_structural(self, objects, arrows, compose, message):
        with pytest.raises(StructuralError) as e:
            FinCategory.from_data("c", objects, arrows, compose)
        assert str(e.value) == message

    def test_law_violation_is_reported_not_raised(self):
        # parallel arrows allow a well-typed but wrong unit row
        arrows = {"f": ("a", "b"), "f2": ("a", "b")}
        C = FinCategory.from_data("twist", ["a", "b"], arrows)
        table = dict(C._table)
        table[("f", "id_a")] = "f2"
        broken = FinCategory("twist", C.objects, C._arrows, C._identity, table)
        report = validate_category(broken)
        assert not report.ok
        assert any(v.law == "right-unit" for v in report.violations)

    @given(tables())
    @settings(max_examples=150, deadline=None)
    def test_the_arrows_out_index_agrees_with_scanning_every_pair(self, C):
        assert_laws_match_the_oracle(C)

    @pytest.mark.parametrize("n", [12, 60, 360])
    def test_divisor_posets_agree_with_scanning_every_pair(self, n):
        assert_laws_match_the_oracle(build_divisor_poset(n))

    def test_finset_check_reads_every_element_index(self, zmod2):
        report = validate_category(zmod2)
        assert report.ok and report.checks == 4
        C = build_finset_category({"e": (), "g": (0, 1)})
        C._index["g"] = {0: 1, 1: 0}
        assert validate_category(C).summary() == "fail (1 violations)\n  [element-index] the element index of 'g' does not invert its carrier"
        C._index["g"] = {0: 0, 1: 1, 2: 2}
        assert not validate_category(C).ok

    @given(finset_triples())
    @settings(max_examples=200, deadline=None)
    def test_finset_laws_on_random_triples(self, triple):
        """The laws that validation once sampled: associativity, both unit
        laws, and ``compose`` against composing image tuples by hand."""
        C, f, g, h = triple
        assert C.compose(h, C.compose(g, f)) == C.compose(C.compose(h, g), f)
        assert C.compose(f, C.identity(f.dom)) == f == C.compose(C.identity(f.cod), f)
        for y, x in ((g, f), (h, g)):
            by_hand = tuple(y.images[C.carrier(x.cod).index(e)] for e in x.images)
            assert C.compose(y, x) == FinFunction(x.dom, y.cod, by_hand)


class TestDivisorPoset:
    def test_d12_counts(self, d12):
        assert len(d12.objects) == 6
        assert len(d12.all_arrows()) == 18

    def test_d6_counts(self):
        d6 = build_divisor_poset(6)
        assert len(d6.objects) == 4
        assert len(d6.all_arrows()) == 9

    def test_n1_is_terminal_category(self):
        d1 = build_divisor_poset(1)
        assert d1.objects == (1,)
        assert len(d1.all_arrows()) == 1

    def test_zero_is_domain_error(self):
        with pytest.raises(DomainError):
            build_divisor_poset(0)

    def test_a_bool_is_domain_error(self):
        with pytest.raises(DomainError, match="got True"):
            build_divisor_poset(True)

    @pytest.mark.parametrize("n", [6, 12, 30, 60])
    def test_hom_sizes_match_divisibility(self, n):
        C = build_divisor_poset(n)
        for k in C.objects:
            for m in C.objects:
                assert C.hom_size(k, m) == (1 if m % k == 0 else 0)

    @given(st.integers(min_value=1, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_trial_division_matches_the_linear_definition(self, n):
        C = build_divisor_poset(n)
        assert list(C.objects) == divisors(n)
        assert {a: (C.dom(a), C.cod(a)) for a in C.all_arrows() if not C.is_identity(a)} == {
            f"{k}|{m}": (k, m) for m in divisors(n) for k in divisors(m) if k != m
        }
        assert validate_category(C).ok

    def test_a_large_n_with_few_divisors_builds_quickly(self):
        start = time.perf_counter()
        C = build_divisor_poset(2**40)
        assert C.objects == tuple(2**i for i in range(41))
        assert time.perf_counter() - start < 5

    @given(st.integers(min_value=1, max_value=60))
    @settings(max_examples=25, deadline=None)
    def test_arrow_census_matches_divisor_counts(self, n):
        C = build_divisor_poset(n)
        assert len(C.all_arrows()) == sum(len(divisors(m)) for m in C.objects)


class TestTerminalObjects:
    def test_divisor_poset_top(self, d12):
        assert terminal_objects(d12) == {12}

    def test_terminal_category(self):
        C = FinCategory.from_data("point", ["*"], {})
        assert terminal_objects(C) == {"*"}

    def test_cospan(self, cospan):
        assert terminal_objects(cospan) == {"Z"}


class TestProductsAndCoproducts:
    def test_product_is_gcd(self, d12):
        cones = binary_product(d12, 4, 6)
        assert len(cones) == 1 and cones[0].apex == 2

    def test_product_with_top(self, d12):
        assert binary_product(d12, 12, 4)[0].apex == 4

    def test_cospan_has_no_product(self, cospan):
        assert binary_product(cospan, "X", "Y") == ()

    @pytest.mark.parametrize("n", [12, 30, 60])
    def test_gcd_lcm_oracles_all_pairs(self, n):
        C = build_divisor_poset(n)
        for a in C.objects:
            for b in C.objects:
                assert [c.apex for c in binary_product(C, a, b)] == [gcd(a, b)]

    def test_search_cap(self, d12):
        with pytest.raises(ResourceError):
            binary_product(d12, 4, 6, candidate_cap=3)

    def test_multiple_isomorphic_products_all_returned(self):
        # p and q are isomorphic apexes for a x b
        C = FinCategory.from_data(
            "twoprod",
            ["a", "b", "p", "q"],
            {
                "pa": ("p", "a"), "pb": ("p", "b"),
                "qa": ("q", "a"), "qb": ("q", "b"),
                "pq": ("p", "q"), "qp": ("q", "p"),
            },
            {
                ("qa", "pq"): "pa", ("qb", "pq"): "pb",
                ("pa", "qp"): "qa", ("pb", "qp"): "qb",
                ("pq", "qp"): "id_q", ("qp", "pq"): "id_p",
            },
        )
        assert validate_category(C).ok
        cones = binary_product(C, "a", "b")
        assert {c.apex for c in cones} == {"p", "q"}


class TestFinsetBackend:
    def test_arrow_count_1_2_4(self):
        C = build_finset_category({"a": [0], "b": [0, 1], "c": [0, 1, 2, 3]})
        assert len(C.all_arrows()) == 301

    def test_single_point(self):
        C = build_finset_category({"a": [0]})
        assert len(C.all_arrows()) == 1

    def test_hom_cap_blocks_enumeration_only(self):
        C = build_finset_category(
            {"a": [0], "b": [0, 1], "c": list(range(4)), "d": list(range(8))}
        )
        with pytest.raises(ResourceError):
            C.hom("d", "d")
        # individual arrows still compose
        f = C.function("d", "d", {i: (i + 1) % 8 for i in range(8)})
        g = C.function("d", "d", {i: (i * 3) % 8 for i in range(8)})
        h = C.compose(g, f)
        assert C.apply(h, 1) == 6

    def test_canonical_product_cone(self, zmod2):
        cone = binary_product(zmod2, "g", "g")[0]
        assert cone.apex == "g2"
        m = pair(zmod2, cone, zmod2.identity("g"), zmod2.identity("g"))
        assert zmod2.apply(m, 0) == (0, 0) and zmod2.apply(m, 1) == (1, 1)

    def test_canonical_cone_agrees_with_search(self):
        C = build_finset_category({"u": [()], "g": [0, 1], "g2": [(0, 0), (0, 1), (1, 0), (1, 1)]})
        canonical = binary_product(C, "g", "g")[0]
        searched = search_product_cones(C, "g", "g", candidate_cap=10_000_000)
        assert canonical in searched

    def test_missing_product_carrier_is_structural(self):
        C = build_finset_category({"g": [0, 1]})
        with pytest.raises(StructuralError):
            binary_product(C, "g", "g")

    def test_terminal_and_bang(self, zmod2):
        assert terminal_objects(zmod2) == {"unit"}
        bg = bang(zmod2, "g", "unit")
        assert bg.images == ((), ())

    def test_function_with_unknown_codomain_is_structural(self, zmod2):
        with pytest.raises(StructuralError, match="unknown object 'nope'"):
            zmod2.function("g", "nope", {0: 0, 1: 1})

    def test_apply_outside_the_domain_is_structural(self, zmod2):
        with pytest.raises(StructuralError, match="7 is not an element of 'g'"):
            zmod2.apply(zmod2.identity("g"), 7)

    def test_element_index_of_unknown_object_or_element_is_structural(self, zmod2):
        assert zmod2.element_index("g", 1) == 1
        with pytest.raises(StructuralError, match="unknown object 'nope'"):
            zmod2.element_index("nope", 0)
        with pytest.raises(StructuralError, match="7 is not an element of 'g'"):
            zmod2.element_index("g", 7)

    def test_hand_built_arrow_on_an_unknown_object_is_structural(self, zmod2):
        with pytest.raises(StructuralError, match="outside 'zmod2'"):
            zmod2.is_identity(FinFunction("nope", "nope", ()))

    def test_composite_into_an_unknown_object_is_structural(self, zmod2):
        with pytest.raises(StructuralError, match="outside 'zmod2'"):
            zmod2.compose(FinFunction("g", "nope", (0, 0)), zmod2.identity("g"))

    def test_image_outside_the_carrier_is_structural(self, zmod2):
        with pytest.raises(StructuralError, match="image 5 .* not in the carrier of 'g'"):
            zmod2.compose(zmod2.identity("g"), FinFunction("g", "g", (0, 5)))
        with pytest.raises(StructuralError, match="one image per element of 'g'"):
            zmod2.compose(zmod2.identity("g"), FinFunction("g", "g", (0,)))

    def test_outer_arrow_with_an_image_outside_the_carrier_is_structural(self):
        C = build_finset_category({"g": (0, 1)})
        with pytest.raises(StructuralError, match="image 5 .* not in the carrier of 'g'"):
            C.compose(FinFunction("g", "g", (0, 5)), C.identity("g"))

    @pytest.mark.parametrize(
        "carriers,hom_cap,message",
        [
            ({"a": [[1], [2]]}, 10, "carrier of 'a' must be a sequence of hashable elements"),
            ({"a": 5}, 10, "carrier of 'a' must be a sequence of hashable elements, got 5"),
            ({"a": [0]}, "x", "the hom cap must be a non-negative integer, got 'x'"),
            ({"a": [0]}, True, "the hom cap must be a non-negative integer, got True"),
            ({"a": [0]}, -1, "the hom cap must be a non-negative integer, got -1"),
        ],
    )
    def test_bad_arguments_are_structural(self, carriers, hom_cap, message):
        with pytest.raises(StructuralError, match=re.escape(message)):
            build_finset_category(carriers, hom_cap=hom_cap)

    def test_empty_carrier(self):
        C = build_finset_category({"e": [], "x": [0]})
        assert C.hom_size("e", "x") == 1  # the empty map
        assert C.hom_size("x", "e") == 0
        assert terminal_objects(C) == {"x"}
        from finsite.gtopology import sieve_universe

        assert len(sieve_universe(C, "x")) == 3
        assert len(sieve_universe(C, "e")) == 2


class TestPathsAndCommutes:
    def test_non_composable_path_is_structural(self, d12):
        with pytest.raises(StructuralError):
            d12.compose("2|6", "2|4")

    def test_zmod2_associativity_square(self, zmod2):
        xor = zmod2.function("g2", "g", {p: (p[0] + p[1]) % 2 for p in zmod2.carrier("g2")})
        cone_gg = binary_product(zmod2, "g", "g")[0]
        cone_ggg = binary_product(zmod2, "g2", "g")[0]
        mu_x_1 = pair(zmod2, cone_gg, zmod2.compose(xor, cone_ggg.p1), cone_ggg.p2)
        inner = pair(zmod2, cone_gg, zmod2.compose(cone_gg.p2, cone_ggg.p1), cone_ggg.p2)
        one_x_mu = pair(zmod2, cone_gg, zmod2.compose(cone_gg.p1, cone_ggg.p1), zmod2.compose(xor, inner))
        assert zmod2.compose(xor, mu_x_1) == zmod2.compose(xor, one_x_mu)

    def test_zmod2_unit_triangle_wrong_unit_fails(self, zmod2):
        xor = zmod2.function("g2", "g", {p: (p[0] + p[1]) % 2 for p in zmod2.carrier("g2")})
        cone_gg = binary_product(zmod2, "g", "g")[0]
        bad_eta = zmod2.function("unit", "g", {(): 1})
        unit_arrow = zmod2.compose(bad_eta, bang(zmod2, "g", "unit"))
        lam = pair(zmod2, cone_gg, unit_arrow, zmod2.identity("g"))
        assert zmod2.compose(xor, lam) != zmod2.identity("g")

    @given(st.sampled_from([12, 30]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_composite_invariant_under_reassociation(self, n, data):
        C = build_divisor_poset(n)
        arrows = C.all_arrows()
        chain = [data.draw(st.sampled_from(arrows))]
        for _ in range(3):
            outs = [b for b in arrows if C.dom(b) == C.cod(chain[-1])]
            chain.append(data.draw(st.sampled_from(outs)))

        def composite(arrows):
            return functools.reduce(lambda f, g: C.compose(g, f), arrows)

        whole = composite(chain)
        cut = data.draw(st.integers(min_value=1, max_value=len(chain) - 1))
        assert C.compose(composite(chain[cut:]), composite(chain[:cut])) == whole


class TestProductCategory:
    def test_d2_squared_counts(self):
        d2 = build_divisor_poset(2)
        P, p1, p2 = build_product_category(d2, d2)
        assert len(P.objects) == 4
        assert len(P.all_arrows()) == 9
        assert validate_category(P).ok
        assert validate_functor(p1).ok and validate_functor(p2).ok

    def test_product_with_terminal_preserves_counts(self, d12):
        point = build_divisor_poset(1)
        P, _, _ = build_product_category(d12, point)
        assert len(P.objects) == len(d12.objects)
        assert len(P.all_arrows()) == len(d12.all_arrows())

    def test_d12_squared_counts(self, d12):
        P, _, _ = build_product_category(d12, d12)
        assert len(P.objects) == 36
        assert len(P.all_arrows()) == 324


class TestFunctors:
    def test_identity_functor_passes(self, d12):
        assert validate_functor(identity_functor(d12)).ok

    def test_lcm_functor_is_monotone(self, d12):
        P, _, _ = build_product_category(d12, d12)
        F = build_lcm_functor(P, d12)
        assert validate_functor(F).ok

    def test_non_parallel_arrow_map_fails(self, d12):
        F = identity_functor(d12)
        F.arr_map["2|4"] = "2|6"
        report = validate_functor(F)
        assert not report.ok
        assert any(v.law == "endpoints" for v in report.violations)

    def test_inclusion_functor(self, d12):
        d6 = build_divisor_poset(6)
        inc = divisor_inclusion_functor(d6, d12)
        assert validate_functor(inc).ok


class TestProductConesAgainstOracle:
    """The one-pass cone test (one set of projection pairs per test object)
    agrees with the triple loop over pairs of arrows on every candidate."""

    CATEGORIES = {
        "arrow": lambda: FinCategory.from_data("arrow", [1, 2], {"f": (1, 2)}),
        "cospan": lambda: FinCategory.from_data("cospan", ["X", "Y", "Z"], {"f": ("X", "Z"), "g": ("Y", "Z")}),
        "span": lambda: FinCategory.from_data("span", ["X", "Y", "Z"], {"f": ("Z", "X"), "g": ("Z", "Y")}),
        "pair": lambda: FinCategory.from_data("pair", ["a", "b"], {"f": ("a", "b"), "g": ("a", "b")}),
        "D_6": lambda: build_divisor_poset(6),
        "D_12": lambda: build_divisor_poset(12),
        "u-g": lambda: build_finset_category({"u": ((),), "g": (0, 1)}),
        "e-g": lambda: build_finset_category({"e": (), "g": (0, 1)}),
        "u-g-g2": lambda: build_finset_category({"u": ((),), "g": (0,), "g2": ((0, 0),)}),
        "e-g-h": lambda: build_finset_category({"e": (), "g": (0, 1), "h": (0, 1, 2)}),
    }

    @pytest.mark.parametrize("name", sorted(CATEGORIES))
    def test_every_candidate_cone(self, name):
        import oracles
        from finsite.fincat import _is_product_cone

        C = self.CATEGORIES[name]()
        for A in C.objects:
            for B in C.objects:
                found = []
                for p in C.objects:
                    for p1 in C.hom(p, A):
                        for p2 in C.hom(p, B):
                            verdict = oracles.is_product_cone(C, A, B, p, p1, p2)
                            assert _is_product_cone(C, A, B, p, p1, p2) == verdict, (A, B, p, p1, p2)
                            if verdict:
                                found.append((p, p1, p2))
                got = [(c.apex, c.p1, c.p2) for c in search_product_cones(C, A, B)]
                assert sorted(got, key=str) == sorted(found, key=str), (A, B)

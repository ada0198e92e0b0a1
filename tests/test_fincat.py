import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite.errors import DomainError, ResourceError, StructuralError
from finsite.fincat import (
    FinCategory,
    FinFunction,
    Path,
    bang,
    binary_coproduct,
    binary_product,
    build_divisor_poset,
    build_finset_category,
    build_lcm_functor,
    build_product_category,
    check_commutes,
    divisor_inclusion_functor,
    identity_functor,
    pair,
    path_composite,
    search_product_cones,
    terminal_objects,
    validate_category,
    validate_functor,
)
from oracles import divisors, gcd, lcm


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

    def test_finset_spot_check_reports_seed(self, zmod2):
        report = validate_category(zmod2, seed=7, spot_triples=200)
        assert report.ok
        assert report.seed == 7
        assert report.checks > 0


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

    @pytest.mark.parametrize("n", [6, 12, 30, 60])
    def test_hom_sizes_match_divisibility(self, n):
        C = build_divisor_poset(n)
        for k in C.objects:
            for m in C.objects:
                assert C.hom_size(k, m) == (1 if m % k == 0 else 0)

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

    def test_coproduct_is_lcm(self, d12):
        cones = binary_coproduct(d12, 4, 6)
        assert len(cones) == 1 and cones[0].apex == 12

    def test_coproduct_chain(self, d12):
        assert binary_coproduct(d12, 2, 4)[0].apex == 4

    def test_cospan_coproduct(self, cospan):
        cones = binary_coproduct(cospan, "X", "Y")
        assert {c.apex for c in cones} == {"Z"}

    @pytest.mark.parametrize("n", [12, 30, 60])
    def test_gcd_lcm_oracles_all_pairs(self, n):
        C = build_divisor_poset(n)
        for a in C.objects:
            for b in C.objects:
                prods = binary_product(C, a, b)
                cops = binary_coproduct(C, a, b)
                assert [c.apex for c in prods] == [gcd(a, b)]
                assert [c.apex for c in cops] == [lcm(a, b)]

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

    def test_coproduct_apex_holds_both_carriers(self):
        C = build_finset_category({"a": (0,), "b": (0, 1), "s": ("p", "q", "r")})
        cones = binary_coproduct(C, "a", "b")
        assert len(cones) == 6  # one per bijection of a + b onto s
        for cone in cones:
            assert len(C.carrier(cone.apex)) == len(C.carrier("a")) + len(C.carrier("b"))
            assert set(cone.i1.images) | set(cone.i2.images) == set(C.carrier(cone.apex))

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

    def test_empty_carrier(self):
        C = build_finset_category({"e": [], "x": [0]})
        assert C.hom_size("e", "x") == 1  # the empty map
        assert C.hom_size("x", "e") == 0
        assert terminal_objects(C) == {"x"}
        from finsite.gtopology import sieve_universe

        assert len(sieve_universe(C, "x")) == 3
        assert len(sieve_universe(C, "e")) == 2


class TestPathsAndCommutes:
    def test_identity_path(self, d12):
        p = Path(at_object=12)
        q = Path(at_object=12)
        assert check_commutes(d12, p, q)

    def test_empty_path_needs_object(self):
        with pytest.raises(StructuralError):
            Path()

    def test_non_composable_path_is_structural(self, d12):
        with pytest.raises(StructuralError):
            path_composite(d12, Path(arrows=("2|4", "2|6")))

    def test_mismatched_endpoints_are_structural(self, d12):
        with pytest.raises(StructuralError):
            check_commutes(d12, Path(arrows=("2|4",)), Path(arrows=("2|6",)))

    def test_zmod2_associativity_square(self, zmod2):
        xor = zmod2.function("g2", "g", {p: (p[0] + p[1]) % 2 for p in zmod2.carrier("g2")})
        cone_gg = binary_product(zmod2, "g", "g")[0]
        cone_ggg = binary_product(zmod2, "g2", "g")[0]
        mu_x_1 = pair(zmod2, cone_gg, zmod2.compose(xor, cone_ggg.p1), cone_ggg.p2)
        inner = pair(zmod2, cone_gg, zmod2.compose(cone_gg.p2, cone_ggg.p1), cone_ggg.p2)
        one_x_mu = pair(zmod2, cone_gg, zmod2.compose(cone_gg.p1, cone_ggg.p1), zmod2.compose(xor, inner))
        assert check_commutes(
            zmod2, Path(arrows=(mu_x_1, xor)), Path(arrows=(one_x_mu, xor))
        )

    def test_zmod2_unit_triangle_wrong_unit_fails(self, zmod2):
        xor = zmod2.function("g2", "g", {p: (p[0] + p[1]) % 2 for p in zmod2.carrier("g2")})
        cone_gg = binary_product(zmod2, "g", "g")[0]
        bad_eta = zmod2.function("unit", "g", {(): 1})
        unit_arrow = zmod2.compose(bad_eta, bang(zmod2, "g", "unit"))
        lam = pair(zmod2, cone_gg, unit_arrow, zmod2.identity("g"))
        assert not check_commutes(
            zmod2, Path(arrows=(lam, xor)), Path(arrows=(zmod2.identity("g"),))
        )

    @given(st.sampled_from([6, 12, 30]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_check_commutes_reflexive(self, n, data):
        C = build_divisor_poset(n)
        arrows = C.all_arrows()
        a = data.draw(st.sampled_from(arrows))
        chain = [a]
        for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
            outs = [b for b in arrows if C.dom(b) == C.cod(chain[-1])]
            chain.append(data.draw(st.sampled_from(outs)))
        p = Path(arrows=tuple(chain))
        assert check_commutes(C, p, p)

    @given(st.sampled_from([12, 30]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_composite_invariant_under_reassociation(self, n, data):
        C = build_divisor_poset(n)
        arrows = C.all_arrows()
        chain = [data.draw(st.sampled_from(arrows))]
        for _ in range(3):
            outs = [b for b in arrows if C.dom(b) == C.cod(chain[-1])]
            chain.append(data.draw(st.sampled_from(outs)))
        whole = path_composite(C, Path(arrows=tuple(chain)))
        cut = data.draw(st.integers(min_value=1, max_value=len(chain) - 1))
        left = path_composite(C, Path(arrows=tuple(chain[:cut])))
        right = path_composite(C, Path(arrows=tuple(chain[cut:])))
        assert C.compose(right, left) == whole
        grouped = Path(arrows=(left, right))
        assert check_commutes(C, grouped, Path(arrows=tuple(chain)))


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

import pytest

from finsite.algebra import (
    GroupObjectWitness,
    HomWitness,
    check_abelian_group_object,
    check_group_object,
    check_homomorphism,
    check_monoid_object,
    compose_homomorphisms,
    delta_arrow,
    find_algebraic_objects,
    group_witness,
    monoid_witness,
    twist_arrow,
)
from finsite.errors import StructuralError
from finsite.fincat import (
    FinCategory,
    binary_product,
    build_divisor_poset,
    build_finset_category,
)


@pytest.fixture(scope="module")
def d12():
    return build_divisor_poset(12)


@pytest.fixture(scope="module")
def zmod2():
    g = (0, 1)
    gg = tuple((a, b) for a in g for b in g)
    ggg = tuple((p, c) for p in gg for c in g)
    return build_finset_category({"unit": ((),), "g": g, "g2": gg, "g3": ggg}, name="zmod2")


def xor_witness(C, zeta_map=None):
    xor = C.function("g2", "g", {p: (p[0] + p[1]) % 2 for p in C.carrier("g2")})
    eta = C.function("unit", "g", {(): 0})
    if zeta_map is None:
        return monoid_witness(C, "g", mu=xor, eta=eta)
    zeta = C.function("g", "g", zeta_map)
    return group_witness(C, "g", mu=xor, eta=eta, zeta=zeta)


class TestMonoidCheck:
    def test_d12_top_is_a_monoid_object(self, d12):
        w = monoid_witness(d12, 12)
        assert w.mu == "id_12" and w.eta == "id_12"
        assert check_monoid_object(d12, w).ok

    def test_d12_non_top_carrier_has_no_unit(self, d12):
        with pytest.raises(StructuralError):
            monoid_witness(d12, 6)

    def test_zmod2_xor_monoid(self, zmod2):
        assert check_monoid_object(zmod2, xor_witness(zmod2)).ok

    def test_left_projection_is_not_unital(self):
        g = (0, 1, 2)
        gg = tuple((a, b) for a in g for b in g)
        ggg = tuple((p, c) for p in gg for c in g)
        C = build_finset_category({"unit": ((),), "g": g, "g2": gg, "g3": ggg})
        proj = C.function("g2", "g", {p: p[0] for p in C.carrier("g2")})
        for e in g:
            eta = C.function("unit", "g", {(): e})
            w = monoid_witness(C, "g", mu=proj, eta=eta)
            verdict = check_monoid_object(C, w)
            assert not verdict.ok
            assert verdict.diagram in ("left-unit", "right-unit")


class TestGroupCheck:
    def test_zmod2_identity_inverse(self, zmod2):
        w = xor_witness(zmod2, {0: 0, 1: 1})
        assert check_group_object(zmod2, w).ok

    def test_zmod2_constant_inverse_fails(self, zmod2):
        w = xor_witness(zmod2, {0: 0, 1: 0})
        verdict = check_group_object(zmod2, w)
        assert not verdict.ok and verdict.diagram == "inverse"

    def test_d12_group_object(self, d12):
        w = group_witness(d12, 12)
        assert check_group_object(d12, w).ok

    def test_delta_projects_to_identity(self, zmod2):
        w = xor_witness(zmod2)
        d = delta_arrow(zmod2, w)
        assert zmod2.compose(w.cone_gg.p1, d) == zmod2.identity("g")
        assert zmod2.compose(w.cone_gg.p2, d) == zmod2.identity("g")


class TestAbelianCheck:
    def test_zmod2_xor_is_abelian(self, zmod2):
        w = xor_witness(zmod2, {0: 0, 1: 1})
        assert check_abelian_group_object(zmod2, w).ok

    def test_d12_witness_is_abelian(self, d12):
        assert check_abelian_group_object(d12, group_witness(d12, 12)).ok

    def test_twist_swaps_projections(self, zmod2):
        w = xor_witness(zmod2)
        tau = twist_arrow(zmod2, w)
        assert zmod2.apply(tau, (0, 1)) == (1, 0)

    def test_failed_unit_cascades(self):
        g = (0, 1, 2)
        gg = tuple((a, b) for a in g for b in g)
        ggg = tuple((p, c) for p in gg for c in g)
        C = build_finset_category({"unit": ((),), "g": g, "g2": gg, "g3": ggg})
        proj = C.function("g2", "g", {p: p[0] for p in C.carrier("g2")})
        eta = C.function("unit", "g", {(): 0})
        zeta = C.identity("g")
        w = GroupObjectWitness(**vars(monoid_witness(C, "g", mu=proj, eta=eta)), zeta=zeta)
        verdict = check_abelian_group_object(C, w)
        assert not verdict.ok
        assert verdict.diagram in ("left-unit", "right-unit")


def cyclic3_category():
    g = (0, 1, 2)
    gg = tuple((a, b) for a in g for b in g)
    ggg = tuple((p, c) for p in gg for c in g)
    return build_finset_category({"unit": ((),), "g": g, "g2": gg, "g3": ggg}, name="zmod3")


def sym3_category():
    import itertools

    g = tuple(itertools.permutations((0, 1, 2)))
    gg = tuple((a, b) for a in g for b in g)
    ggg = tuple((p, c) for p in gg for c in g)
    return build_finset_category({"unit": ((),), "g": g, "g2": gg, "g3": ggg}, name="sym3")


class TestLargerFinsetGroups:
    def test_cyclic3_is_abelian(self):
        C = cyclic3_category()
        mu = C.function("g2", "g", {p: (p[0] + p[1]) % 3 for p in C.carrier("g2")})
        eta = C.function("unit", "g", {(): 0})
        zeta = C.function("g", "g", {a: (3 - a) % 3 for a in C.carrier("g")})
        w = group_witness(C, "g", mu=mu, eta=eta, zeta=zeta)
        assert check_abelian_group_object(C, w).ok

    def test_cyclic3_wrong_inverse_fails(self):
        C = cyclic3_category()
        mu = C.function("g2", "g", {p: (p[0] + p[1]) % 3 for p in C.carrier("g2")})
        eta = C.function("unit", "g", {(): 0})
        w = group_witness(C, "g", mu=mu, eta=eta, zeta=C.identity("g"))
        verdict = check_group_object(C, w)
        assert not verdict.ok and verdict.diagram == "inverse"

    def test_sym3_is_a_group_but_not_abelian(self):
        C = sym3_category()

        def compose_perm(p, q):
            return tuple(p[q[i]] for i in range(3))

        def invert(p):
            out = [0, 0, 0]
            for i, v in enumerate(p):
                out[v] = i
            return tuple(out)

        mu = C.function("g2", "g", {pq: compose_perm(*pq) for pq in C.carrier("g2")})
        eta = C.function("unit", "g", {(): (0, 1, 2)})
        zeta = C.function("g", "g", {p: invert(p) for p in C.carrier("g")})
        w = group_witness(C, "g", mu=mu, eta=eta, zeta=zeta)
        assert check_group_object(C, w).ok
        verdict = check_abelian_group_object(C, w)
        assert not verdict.ok and verdict.diagram == "commutativity"

    def test_mod3_reduction_is_a_hom_from_z3_to_z3(self):
        # doubling is an automorphism of Z/3
        C = cyclic3_category()
        mu = C.function("g2", "g", {p: (p[0] + p[1]) % 3 for p in C.carrier("g2")})
        eta = C.function("unit", "g", {(): 0})
        zeta = C.function("g", "g", {a: (3 - a) % 3 for a in C.carrier("g")})
        w = group_witness(C, "g", mu=mu, eta=eta, zeta=zeta)
        double = C.function("g", "g", {a: (2 * a) % 3 for a in C.carrier("g")})
        assert check_homomorphism(C, HomWitness(w, w, double)).ok
        shift = C.function("g", "g", {a: (a + 1) % 3 for a in C.carrier("g")})
        assert not check_homomorphism(C, HomWitness(w, w, shift)).ok


class TestHomomorphisms:
    def endo(self, C, w, mapping):
        return HomWitness(w, w, C.function("g", "g", mapping))

    def test_identity_hom(self, zmod2):
        w = xor_witness(zmod2, {0: 0, 1: 1})
        h = HomWitness(w, w, zmod2.identity("g"))
        assert check_homomorphism(zmod2, h).ok

    def test_constant_zero_hom(self, zmod2):
        w = xor_witness(zmod2, {0: 0, 1: 1})
        assert check_homomorphism(zmod2, self.endo(zmod2, w, {0: 0, 1: 0})).ok

    def test_flip_is_not_a_hom(self, zmod2):
        w = xor_witness(zmod2, {0: 0, 1: 1})
        verdict = check_homomorphism(zmod2, self.endo(zmod2, w, {0: 1, 1: 0}))
        assert not verdict.ok and verdict.diagram == "homomorphism"

    def test_composition_closure(self, zmod2):
        w = xor_witness(zmod2, {0: 0, 1: 1})
        passing = [
            self.endo(zmod2, w, {0: 0, 1: 1}),
            self.endo(zmod2, w, {0: 0, 1: 0}),
        ]
        for h1 in passing:
            for h2 in passing:
                assert check_homomorphism(zmod2, h1).ok
                composite = compose_homomorphisms(zmod2, h2, h1)
                assert check_homomorphism(zmod2, composite).ok

    def test_composition_closure_on_d12(self, d12):
        w = group_witness(d12, 12)
        h = HomWitness(w, w, "id_12")
        assert check_homomorphism(d12, compose_homomorphisms(d12, h, h)).ok


class TestSearch:
    def test_d12_monoids(self, d12):
        found = find_algebraic_objects(d12, "monoid")
        assert [(w.carrier, w.mu, w.eta) for w in found] == [(12, "id_12", "id_12")]

    def test_d12_groups(self, d12):
        found = find_algebraic_objects(d12, "group")
        assert [(w.carrier, w.mu, w.eta, w.zeta) for w in found] == [(12, "id_12", "id_12", "id_12")]

    def test_cospan_monoids(self):
        C = FinCategory.from_data(
            "cospan", ["X", "Y", "Z"], {"f": ("X", "Z"), "g": ("Y", "Z")}
        )
        found = find_algebraic_objects(C, "monoid")
        assert [(w.carrier, w.mu, w.eta) for w in found] == [("Z", "id_Z", "id_Z")]

    def test_finset_backend_rejected(self, zmod2):
        with pytest.raises(StructuralError):
            find_algebraic_objects(zmod2, "monoid")

    @pytest.mark.parametrize("n", [2, 6, 8, 12, 17, 30, 36, 60])
    def test_poset_monoid_carriers_are_terminal(self, n):
        C = build_divisor_poset(n)
        found = find_algebraic_objects(C, "monoid")
        assert found, f"no monoid object in D_{n}"
        for w in found:
            assert w.carrier == n

    def test_verdicts_independent_of_cone_choice(self, d12):
        # rerun the checks with every cone the search returns
        for w in find_algebraic_objects(d12, "group"):
            for cone_gg in binary_product(d12, w.carrier, w.carrier):
                for cone_ggg in binary_product(d12, cone_gg.apex, w.carrier):
                    alt = group_witness(
                        d12, w.carrier, mu=w.mu, eta=w.eta, zeta=w.zeta,
                        cone_gg=cone_gg, cone_ggg=cone_ggg,
                    )
                    assert check_group_object(d12, alt).ok == check_group_object(d12, w).ok

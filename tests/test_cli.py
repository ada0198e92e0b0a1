from pathlib import Path

import pytest

from finsite.cli import CommandRequest, main, run_command

FIXTURES = Path(__file__).parent / "fixtures"


def run(verb, **opts):
    return run_command(CommandRequest(verb, opts))


@pytest.fixture(scope="module")
def d12_file():
    return str(FIXTURES / "d12.cat")


@pytest.fixture(scope="module")
def arrow_file():
    return str(FIXTURES / "arrow.cat")


@pytest.fixture()
def dense12(tmp_path, d12_file):
    code, _ = run("make-topology", category=d12_file, kind="dense", output=str(tmp_path / "dense.gtop"))
    assert code == 0
    return str(tmp_path / "dense.gtop")


class TestExitCodes:
    def test_validate_pass_is_zero(self, d12_file):
        code, report = run("validate", category=d12_file)
        assert code == 0 and "pass" in report

    def test_unknown_verb_is_two(self):
        code, report = run("frobnicate")
        assert code == 2 and "usage" in report

    def test_missing_file_is_two(self):
        code, report = run("validate", category="/nonexistent.cat")
        assert code == 2 and "error" in report

    def test_parse_failure_is_two(self, tmp_path):
        bad = tmp_path / "bad.cat"
        bad.write_text("category x\narrow f : a -> b\narrow f : a -> b\n")
        code, report = run("validate", category=str(bad))
        assert code == 2 and "duplicate-arrow" in report

    def test_cap_exceeded_is_two(self, d12_file):
        code, report = run("enumerate-topologies", category=d12_file, cap_candidates=10)
        assert code == 2 and "resource error" in report

    def test_property_failure_is_one(self, arrow_file, tmp_path):
        j5 = tmp_path / "j5.gtop"
        j5.write_text("topology j5 on arrow\ncover 1 : {}\n")
        code, report = run(
            "check-continuous", category=arrow_file, topology=str(j5), arrow="f"
        )
        assert code == 1 and "{}" in report


class TestVerbs:
    def test_make_category_divisor(self, tmp_path):
        out = tmp_path / "d6.cat"
        code, report = run("make-category", divisor=6, output=str(out))
        assert code == 0
        assert "category D_6" in out.read_text()

    def test_make_category_product(self, tmp_path, arrow_file):
        out = tmp_path / "p.cat"
        code, _ = run("make-category", product=[arrow_file, arrow_file], output=str(out))
        assert code == 0
        text = out.read_text()
        assert "object 1*1" in text and "arrow (f*f) : 1*1 -> 2*2" in text
        code, report = run("validate", category=str(out))
        assert code == 0

    def test_make_topology_atomic_failure_is_one(self, tmp_path):
        cospan = str(FIXTURES / "cospan.cat")
        code, report = run("make-topology", category=cospan, kind="atomic", output=str(tmp_path / "a.gtop"))
        assert code == 1 and "stability" in report

    def test_make_topology_no_verify_skips_axioms(self, tmp_path):
        cospan = str(FIXTURES / "cospan.cat")
        code, report = run(
            "make-topology", category=cospan, kind="atomic", output=str(tmp_path / "a.gtop"), verify=False
        )
        assert code == 0 and "not checked" in report

    def test_initial_topology_with_family(self, d12_file, dense12):
        code, report = run(
            "initial-topology",
            category=d12_file,
            topology=dense12,
            object="2",
            arrows="2|4,2|6",
        )
        assert code == 0 and "at 2" in report

    def test_check_topology_golden_report(self, d12_file):
        # the broken fixture fails both stability and transitivity
        code, report = run("check-topology", category=d12_file, topology=str(FIXTURES / "broken12.gtop"))
        assert code == 1
        assert report + "\n" == (FIXTURES / "broken12.report").read_text()

    def test_check_topology(self, d12_file, dense12):
        code, report = run("check-topology", category=d12_file, topology=dense12)
        assert code == 0 and "pass" in report

    def test_pullback_with_sieve_literal(self, d12_file):
        code, report = run("pullback", category=d12_file, arrow="6|12", sieve="{4|12}")
        assert code == 0
        assert "{1|6, 2|6}" in report

    def test_pullback_with_topology(self, d12_file, dense12):
        code, report = run("pullback", category=d12_file, arrow="6|12", topology=dense12)
        assert code == 0 and "at 6" in report

    def test_initial_topology_empty_family(self, d12_file, dense12):
        code, report = run(
            "initial-topology", category=d12_file, topology=dense12, object="12", arrows=""
        )
        assert code == 0 and "(10 sieves)" in report

    def test_enumerate_on_arrow_category(self, arrow_file):
        code, report = run("enumerate-topologies", category=arrow_file)
        assert code == 0 and report.startswith("4 topologies")

    def test_enumerate_on_terminal_category(self, tmp_path):
        point = tmp_path / "point.cat"
        point.write_text("category point\nobject x\n")
        code, report = run("enumerate-topologies", category=str(point))
        assert code == 0 and report.startswith("2 topologies")

    def test_env_variable_cap_override(self, arrow_file, monkeypatch):
        monkeypatch.setenv("FINSITE_CAP_CANDIDATES", "1")
        code, report = run("enumerate-topologies", category=arrow_file)
        assert code == 2 and "resource error" in report
        monkeypatch.setenv("FINSITE_CAP_CANDIDATES", "not-a-number")
        code, report = run("enumerate-topologies", category=arrow_file)
        assert code == 2 and "FINSITE_CAP_CANDIDATES" in report

    def test_cap_of_zero_is_a_real_cap(self, arrow_file):
        code, report = run("enumerate-topologies", category=arrow_file, cap_candidates=0)
        assert code == 2 and "candidate cap 0" in report
        code, report = run("enumerate-topologies", category=arrow_file, cap_sieves=0)
        assert code == 2 and "more than 0 sieves" in report

    def test_cap_of_zero_stops_even_the_trivial_topology(self, arrow_file):
        # the sieve cap counts a named topology's covers, and the maximal sieve is one
        code, report = run("make-topology", category=arrow_file, kind="trivial", verify=False, cap_sieves=0)
        assert code == 2 and "more than 0 sieves" in report
        code, _ = run("make-topology", category=arrow_file, kind="trivial", verify=False, cap_sieves=1)
        assert code == 0

    def test_negative_caps_are_rejected(self, arrow_file, monkeypatch):
        code, report = run("enumerate-topologies", category=arrow_file, cap_candidates=-5)
        assert code == 2 and "--cap-candidates" in report and "-5" in report
        assert main(["enumerate-topologies", "--category", arrow_file, "--cap-sieves", "-1"]) == 2
        monkeypatch.setenv("FINSITE_CAP_SIEVES", "-3")
        code, report = run("validate", category=arrow_file)
        assert code == 2 and "FINSITE_CAP_SIEVES" in report

    def test_seed_only_on_validate(self, capsys, d12_file):
        with pytest.raises(SystemExit) as e:
            main(["check-topology", "--category", d12_file, "--topology", "x.gtop", "--seed", "3"])
        assert e.value.code == 2
        code, report = run("validate", category=d12_file, seed=0)
        assert code == 0 and report.endswith("seed: 0")

    def test_hom_cap_flag_is_gone(self, arrow_file):
        with pytest.raises(SystemExit) as e:
            main(["enumerate-topologies", "--category", arrow_file, "--cap-homs", "5"])
        assert e.value.code == 2

    def test_meet_and_join(self, arrow_file, tmp_path):
        j5 = tmp_path / "j5.gtop"
        j5.write_text("topology j5 on arrow\ncover 1 : {}\n")
        j3 = tmp_path / "j3.gtop"
        j3.write_text("topology j3 on arrow\ncover 2 : {f}\n")
        code, report = run("meet", category=arrow_file, topology=str(j5), topology2=str(j3))
        assert code == 0
        assert "cover" not in report  # trivial topology has no explicit covers
        code, report = run("join", category=arrow_file, topology=str(j5), topology2=str(j3))
        assert code == 0
        assert "cover 1 : {}" in report and "cover 2 : {}" in report

    def test_find_objects(self, d12_file):
        code, report = run("find-objects", category=d12_file, kind="group")
        assert code == 0
        assert report.splitlines()[0] == "1 group objects in D_12"
        assert "group 12 mul=id_12 unit=id_12 inv=id_12" in report

    def test_check_object(self, d12_file):
        code, report = run("check-object", category=d12_file, witness=str(FIXTURES / "top12.wit"))
        assert code == 0 and "group object" in report

    def test_check_object_abelian(self, d12_file):
        code, report = run(
            "check-object", category=d12_file, witness=str(FIXTURES / "top12.wit"), abelian=True
        )
        assert code == 0 and "abelian" in report

    def test_check_hom(self, d12_file):
        w = str(FIXTURES / "top12.wit")
        code, report = run("check-hom", category=d12_file, source=w, target=w, arrow="id_12")
        assert code == 0 and "is a homomorphism" in report

    def test_check_gtop_morphism_level(self, d12_file, dense12):
        code, report = run(
            "check-gtop", category=d12_file, topology=dense12, witness=str(FIXTURES / "top12.wit")
        )
        assert code == 0
        assert "morphism-level" in report and "mu continuous: True" in report

    def test_check_gtop_functor_level(self, d12_file, dense12):
        code, report = run(
            "check-gtop",
            category=d12_file,
            topology=dense12,
            functor_level=True,
            unit="1",
            product_topology="dense",
        )
        assert code == 0
        assert "functor-level" in report and "cover-preserving: True" in report

    def test_check_gtop_functor_level_rejects_covers_not_closed_upward(self, d12_file, tmp_path):
        top = tmp_path / "gap.gtop"
        top.write_text("topology gap on D_12\ncover 12 : {1|12}\n")
        code, report = run(
            "check-gtop", category=d12_file, topology=str(top), functor_level=True, unit="1", product_topology="atomic"
        )
        assert code == 2
        assert "closed upward" in report and "contains the cover {1|12} but is not a cover" in report


@pytest.fixture(scope="module")
def d36_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("d36") / "d36.cat"
    assert run("make-category", divisor=36, output=str(path))[0] == 0
    return str(path)


class TestGoldenReports:
    @pytest.mark.parametrize("kind", ["trivial", "discrete", "dense", "atomic"])
    def test_make_topology_on_d60(self, tmp_path, kind):
        cat = tmp_path / "d60.cat"
        assert run("make-category", divisor=60, output=str(cat))[0] == 0
        code, report = run("make-topology", category=str(cat), kind=kind)
        assert code == 0
        assert report + "\n" == (FIXTURES / f"d60-{kind}.report").read_text()

    def test_trivial_on_a_large_product_needs_no_sieve_universe(self, tmp_path, d36_file):
        product = tmp_path / "p.cat"
        assert run("make-category", product=[d36_file, d36_file], output=str(product))[0] == 0
        code, report = run("make-topology", category=str(product), kind="trivial", verify=False)
        assert (code, report) == (0, "topology trivial on D_36xD_36\naxioms: not checked (--no-verify)")

    @pytest.mark.parametrize(
        "cod_kind, code, tail",
        [
            ("trivial", 1, ["cover-preserving: False", "  witness: object ('1', '12'), cover {('id_1', '1|12')}"]),
            ("dense", 0, ["cover-preserving: True"]),
        ],
    )
    def test_functor_level_check_gtop_with_atomic_product(self, tmp_path, d36_file, cod_kind, code, tail):
        top = tmp_path / "cod.gtop"
        assert run("make-topology", category=d36_file, kind=cod_kind, output=str(top))[0] == 0
        got = run(
            "check-gtop", category=d36_file, topology=str(top), functor_level=True, unit="1", product_topology="atomic"
        )
        head = [
            "reading: functor-level (multiplication functor on the product category)",
            "associative: True",
            "unital: True",
        ]
        assert got == (code, "\n".join(head + tail))


class TestDeterminism:
    def test_identical_seeds_identical_reports(self, d12_file):
        a = run("validate", category=d12_file, seed=42)
        b = run("validate", category=d12_file, seed=42)
        assert a == b

    def test_reports_are_sorted_and_stable(self, arrow_file):
        a = run("enumerate-topologies", category=arrow_file)
        b = run("enumerate-topologies", category=arrow_file)
        assert a == b

    def test_main_entry_point(self, capsys, d12_file):
        code = main(["validate", "--category", d12_file])
        assert code == 0
        assert "pass" in capsys.readouterr().out

    def test_main_unknown_verb_exits_two_with_usage(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2
        assert "usage" in capsys.readouterr().err

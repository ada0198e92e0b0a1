import builtins
import io
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import finsite
from finsite import cli, gtopology
from finsite.cli import CommandRequest, main, run_command
from finsite.sieves import _TableClasses

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

    def test_a_valid_topology_is_verified_without_a_sieve_universe(self, d12_file):
        # the universe at 12 has 10 sieves; the dense covers there are 9
        code, report = run("make-topology", category=d12_file, kind="dense", cap_sieves=9)
        assert code == 0 and report.endswith("\naxioms: pass")

    def test_a_failing_topology_lists_its_universes_under_the_cap(self, d12_file):
        code, report = run("check-topology", category=d12_file, topology=str(FIXTURES / "broken12.gtop"), cap_sieves=9)
        assert (code, report) == (2, "resource error: object '12' has more than 9 sieves")

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

    def test_make_category_divisor_zero_is_a_domain_error(self):
        assert run("make-category", divisor=0) == (2, "error: divisor poset needs a positive integer, got 0")

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

    def test_pullback_with_an_unknown_arrow_in_the_sieve(self, d12_file):
        code, report = run("pullback", category=d12_file, arrow="6|12", sieve="{4|12, 5|12}")
        assert (code, report) == (2, "--sieve:1:8-11: [unknown-arrow] unknown arrow '5|12'")

    def test_pullback_with_a_sieve_arrow_into_another_object(self, d12_file):
        code, report = run("pullback", category=d12_file, arrow="6|12", sieve="{2|6}")
        assert (code, report) == (2, "--sieve:1:2-4: [wrong-codomain] arrow '2|6' lands in '6', not in '12'")

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

    def test_format_flag_is_gone(self, arrow_file):
        with pytest.raises(SystemExit) as e:
            main(["validate", "--category", arrow_file, "--format", "text"])
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

    def test_covers_not_closed_upward_are_refused_before_the_product_is_built(self, d12_file, tmp_path, monkeypatch):
        # the refusal comes before the product search, so it also comes
        # before a product-cap error
        top = tmp_path / "gap.gtop"
        top.write_text("topology gap on D_12\ncover 12 : {1|12}\n")

        def unbuilt(*args):
            raise AssertionError("the product category was built")

        monkeypatch.setattr(cli, "build_product_category", unbuilt)
        refusal = (
            2,
            "error: cover preservation needs the codomain's cover sets closed upward: at '12', "
            "{1|12, 2|12} contains the cover {1|12} but is not a cover",
        )
        for caps in ({}, {"cap_candidates": 0}):
            assert run("check-gtop", category=d12_file, topology=str(top), functor_level=True, unit="1", **caps) == refusal

    def test_a_functor_level_run_decides_closure_once(self, d12_file, tmp_path, monkeypatch):
        # the CLI refuses an unclosed file before the product is built, and
        # cover preservation asks again of the same topology
        top = tmp_path / "discrete.gtop"
        assert run("make-topology", category=d12_file, kind="discrete", output=str(top))[0] == 0
        passes, first_gap = [], gtopology._first_gap
        monkeypatch.setattr(gtopology, "_first_gap", lambda *args: passes.append(args) or first_gap(*args))
        code, report = run("check-gtop", category=d12_file, topology=str(top), functor_level=True, unit="1")
        assert code == 0 and "cover-preserving: True" in report
        assert len(passes) == 6  # one per object of D_12


def _not_utf8(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"category x\nobject \xff\n")
    return str(path)


class TestUndecodableInput:
    """An input file that is not UTF-8 is an error naming it (exit 2), not
    a traceback (exit 1), whichever flag names it."""

    @pytest.mark.parametrize(
        "verb, flag, options",
        [
            ("validate", "category", {}),
            ("check-topology", "topology", {"category": "d12.cat"}),
            ("meet", "topology2", {"category": "d12.cat", "topology": "dense12.gtop"}),
            ("check-object", "witness", {"category": "d12.cat"}),
            ("check-hom", "source", {"category": "d12.cat", "target": "top12.wit", "arrow": "id_12"}),
            ("check-hom", "target", {"category": "d12.cat", "source": "top12.wit", "arrow": "id_12"}),
            ("check-gtop", "witness", {"category": "d12.cat", "topology": "dense12.gtop"}),
        ],
    )
    def test_each_input_flag(self, tmp_path, verb, flag, options):
        bad = _not_utf8(tmp_path, "bad.txt")
        code, report = run(verb, **{k: str(FIXTURES / v) for k, v in options.items()}, **{flag: bad})
        assert code == 2
        assert report.startswith(f"error: {bad} is not UTF-8 text: ")

    @pytest.mark.parametrize("which", [0, 1])
    def test_each_product_file(self, tmp_path, arrow_file, which):
        bad = _not_utf8(tmp_path, "bad.cat")
        files = [arrow_file, arrow_file]
        files[which] = bad
        code, report = run("make-category", product=files)
        assert code == 2
        assert report.startswith(f"error: {bad} is not UTF-8 text: ")

    def test_through_main(self, tmp_path, capsys):
        bad = _not_utf8(tmp_path, "bad.cat")
        assert main(["validate", "--category", bad]) == 2
        assert capsys.readouterr().out.startswith(f"error: {bad} is not UTF-8 text: ")


# a category and a topology file with bad lines, comments and spaces, so
# that diagnostics carry spans past the first column
_BAD_CAT = "category bad  # c\nobject a\n  arrow f : a -> b\narrow g : a => b\n\ncompose f . h = f\n"
_BAD_TOP = "topology t on D_12\ncover 12 : {1|12,  nope}\n  cover 6 :  {3|12}  # c\n"


class TestFileEncoding:
    """Input files are read as bytes and decoded as UTF-8 once, and written
    files are UTF-8 whatever the locale.  Lines are split as
    ``str.splitlines`` splits them, so CRLF and lone-CR files give the
    reports and spans of their LF originals."""

    def test_written_files_do_not_depend_on_the_locale(self, tmp_path):
        (tmp_path / "a.cat").write_bytes("category A\nobject α\n".encode())
        (tmp_path / "b.cat").write_bytes("category B\nobject β\n".encode())
        src = str(Path(finsite.__file__).parents[1])
        env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONPATH": src}
        for argv in (["make-category", "--product", "a.cat", "b.cat", "-o", "out.cat"], ["validate", "--category", "out.cat"]):
            done = subprocess.run([sys.executable, "-m", "finsite.cli", *argv], cwd=tmp_path, env=env, capture_output=True)
            assert (done.returncode, done.stderr) == (0, b"")
        assert (tmp_path / "out.cat").read_bytes() == "category AxB\nobject α*β\n".encode()

    @pytest.mark.parametrize(
        "verb, files, code",
        [
            ("validate", {"category": "d12.cat"}, 0),
            ("check-topology", {"category": "d12.cat", "topology": "dense12.gtop"}, 0),
            ("check-topology", {"category": "d12.cat", "topology": "broken12.gtop"}, 1),
            ("check-object", {"category": "d12.cat", "witness": "top12.wit"}, 0),
            ("validate", {"category": _BAD_CAT}, 2),
            ("check-topology", {"category": "d12.cat", "topology": _BAD_TOP}, 2),
        ],
    )
    def test_crlf_and_cr_files_read_as_lf_ones(self, tmp_path, verb, files, code):
        reports = {}
        for end in ("\n", "\r\n", "\r"):
            where = tmp_path / repr(end)[1:-1]
            where.mkdir()
            opts = {}
            for flag, name in files.items():
                text = name if "\n" in name else (FIXTURES / name).read_text()  # a fixture, or a file's text
                (where / flag).write_bytes(text.replace("\n", end).encode())
                opts[flag] = str(where / flag)
            got, report = run(verb, **opts)
            reports[end] = (got, report.replace(str(where), "<dir>"))
        assert reports["\n"][0] == code
        assert reports["\r\n"] == reports["\r"] == reports["\n"]

    def test_bad_lines_give_spans(self, tmp_path):
        (tmp_path / "bad.cat").write_text(_BAD_CAT)
        assert run("validate", category=str(tmp_path / "bad.cat"))[1].replace(str(tmp_path), "<dir>") == (
            "<dir>/bad.cat:4:1-5: [syntax] unrecognized declaration 'arrow'\n"
            "<dir>/bad.cat:6:13-13: [unknown-arrow] compose line references unknown arrow 'h'"
        )

    def test_a_byte_order_mark_is_text(self, tmp_path, d12_file):
        # the first line then holds U+FEFF: no header, and no comment
        for name in ("d12.cat", "j3-d12.gtop"):
            (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + (FIXTURES / name).read_bytes())
        assert run("validate", category=str(tmp_path / "d12.cat")) == (
            2, f"{tmp_path}/d12.cat:1:1-14: [missing-header] expected 'category <name>' as the first declaration"
        )
        assert run("check-topology", category=d12_file, topology=str(tmp_path / "j3-d12.gtop")) == (
            2, f"{tmp_path}/j3-d12.gtop:1:1-1: [missing-header] expected 'topology <name> on <category>'"
        )


class TestPerCallCounts:
    """A meet or a join CLI call parses its category once, reads each input
    file once and builds the class table of each object at most once."""

    @pytest.mark.parametrize("verb", ["meet", "join"])
    def test_on_d12(self, d12_file, monkeypatch, verb):
        reads, parses, tables = Counter(), [], Counter()
        opened = builtins.open

        def counted(file, *args, **kwargs):
            reads[str(file)] += 1
            return opened(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counted)
        monkeypatch.setattr(io, "open", counted)
        parse, init = cli.parse_category_file, _TableClasses.__init__
        monkeypatch.setattr(cli, "parse_category_file", lambda *a, **k: parses.append(a) or parse(*a, **k))
        monkeypatch.setattr(_TableClasses, "__init__", lambda self, C, x: tables.update([x]) or init(self, C, x))
        files = {"category": d12_file, "topology": str(FIXTURES / "dense12.gtop"), "topology2": str(FIXTURES / "j3-d12.gtop")}
        code, report = run(verb, **files)
        assert code == 0 and report.startswith(f"topology {verb}(")
        assert reads == Counter(files.values())
        assert len(parses) == 1
        assert set(tables.values()) == {1} and len(tables) <= 6


class TestPrintingListsNoArrows:
    """Topology files and the axiom check list no sieve's arrows on a table
    category: literals are printed from class masks, and a failing report
    compares class masks."""

    def test_check_topology_on_broken12_and_a_broken_d720(self, d12_file, broken720, monkeypatch):
        listed, members = [], _TableClasses.members
        monkeypatch.setattr(_TableClasses, "members", lambda self, ideal: listed.append(ideal) or members(self, ideal))
        code, report = run("check-topology", category=d12_file, topology=str(FIXTURES / "broken12.gtop"))
        assert code == 1 and report + "\n" == (FIXTURES / "broken12.report").read_text()
        code, report = run("check-topology", **broken720)
        assert code == 1 and report.startswith("check-topology broken on D_720: fail (2 violations)\n")
        assert listed == []

    def test_d360_make_topology_meet_and_join(self, tmp_path, monkeypatch):
        cat = tmp_path / "d360.cat"
        assert run("make-category", divisor=360, output=str(cat))[0] == 0
        listed, members = [], _TableClasses.members
        monkeypatch.setattr(_TableClasses, "members", lambda self, ideal: listed.append(ideal) or members(self, ideal))
        covers = {}  # file -> its number of cover lines
        for kind in ("dense", "discrete"):
            out = tmp_path / f"{kind}.gtop"
            code, report = run("make-topology", category=str(cat), kind=kind, output=str(out))
            assert code == 0 and report.endswith("axioms: pass")
            covers[kind] = out.read_text().count("\ncover ")
        assert covers["dense"] == 1009
        for verb, kind in (("meet", "dense"), ("join", "discrete")):  # dense covers are discrete ones
            out = tmp_path / f"{verb}.gtop"
            top = {"topology": str(tmp_path / "dense.gtop"), "topology2": str(tmp_path / "discrete.gtop")}
            assert run(verb, category=str(cat), output=str(out), **top)[0] == 0
            assert out.read_text().count("\ncover ") == covers[kind]
        assert listed == []


class TestDivisorCap:
    def test_a_huge_divisor_poset_stops_at_the_candidate_cap(self):
        start = time.perf_counter()
        code, report = run("make-category", divisor=10**18)
        assert code == 2
        assert report == "resource error: D_1000000000000000000 has 1768900 composable pairs, over the candidate cap 1000000"
        assert time.perf_counter() - start < 1

    def test_a_large_prime_stops_at_the_candidate_cap(self):
        start = time.perf_counter()
        code, report = run("make-category", divisor=10**18 + 9)
        assert code == 2
        assert "trial divisors past the candidate cap 1000000" in report
        assert time.perf_counter() - start < 1

    def test_the_cap_flag_reaches_the_builder(self, tmp_path):
        # D_720 has 1 400 composable pairs
        out = tmp_path / "d720.cat"
        assert run("make-category", divisor=720, cap_candidates=1400, output=str(out))[0] == 0
        code, report = run("make-category", divisor=720, cap_candidates=1399)
        assert (code, report) == (2, "resource error: D_720 has 1400 composable pairs, over the candidate cap 1399")


class TestWitnessCap:
    """A witness without product cones searches for them under
    --cap-candidates, in every verb that reads a witness."""

    @pytest.fixture()
    def bare(self, tmp_path):
        path = tmp_path / "bare.wit"
        path.write_text("group 12 mul=id_12 unit=id_12 inv=id_12\n")
        return str(path)

    @pytest.mark.parametrize(
        "verb, options",
        [
            ("check-object", {"witness": "{w}"}),
            ("check-hom", {"source": "{w}", "target": "{w}", "arrow": "id_12"}),
            ("check-gtop", {"witness": "{w}", "topology": str(FIXTURES / "dense12.gtop")}),
        ],
    )
    def test_the_cap_flag_reaches_the_product_search(self, d12_file, bare, verb, options):
        given = {k: v.format(w=bare) for k, v in options.items()}
        code, report = run(verb, category=d12_file, cap_candidates=0, **given)
        assert code == 2 and "exceeds the candidate cap 0" in report
        assert run(verb, category=d12_file, **given)[0] == 0
        explicit = {k: v.format(w=str(FIXTURES / "top12.wit")) for k, v in options.items()}
        assert run(verb, category=d12_file, cap_candidates=0, **explicit)[0] == 0

    def test_a_cap_hit_in_a_witness_is_a_resource_error(self, d12_file, bare):
        code, report = run("check-object", category=d12_file, witness=bare, cap_candidates=0)
        assert (code, report) == (2, "resource error: product search over ~36 candidates exceeds the candidate cap 0")


class TestIgnoredFlags:
    """A flag the verb would ignore next to another is refused, by name."""

    def test_make_category_divisor_and_product(self, arrow_file):
        code, report = run("make-category", divisor=6, product=[arrow_file, arrow_file])
        assert (code, report) == (2, "error: --product cannot be combined with --divisor")

    def test_pullback_sieve_and_topology(self, d12_file, dense12):
        code, report = run("pullback", category=d12_file, arrow="6|12", sieve="{4|12}", topology=dense12)
        assert (code, report) == (2, "error: --topology cannot be combined with --sieve")

    @pytest.mark.parametrize("flag", [{"unit": "1"}, {"product_topology": "dense"}])
    def test_morphism_level_check_gtop_with_a_functor_level_flag(self, d12_file, dense12, flag):
        wit = str(FIXTURES / "top12.wit")
        code, report = run("check-gtop", category=d12_file, topology=dense12, witness=wit, **flag)
        (key,) = flag
        assert (code, report) == (2, f"error: --{key.replace('_', '-')} needs --functor-level")

    def test_functor_level_check_gtop_with_a_witness(self, d12_file, dense12):
        wit = str(FIXTURES / "top12.wit")
        code, report = run("check-gtop", category=d12_file, topology=dense12, functor_level=True, unit="1", witness=wit)
        assert (code, report) == (2, "error: --witness cannot be combined with --functor-level")

    @pytest.mark.parametrize(
        "verb, key",
        [
            ("validate", "cap_sieves"),
            ("pullback", "cap_candidates"),
            ("check-continuous", "cap_sieves"),
            ("meet", "cap_candidates"),
            ("make-category", "cap_sieves"),
            ("find-objects", "cap_sieves"),
            ("make-topology", "cap_candidates"),
            ("check-gtop", "cap_sieves"),  # its product topology's covers are never listed
        ],
    )
    def test_a_cap_the_verb_does_not_read(self, d12_file, verb, key):
        flag = "--" + key.replace("_", "-")
        assert run(verb, category=d12_file, **{key: 5}) == (2, f"error: {flag} is not read by {verb}")
        with pytest.raises(SystemExit) as e:
            main([verb, "--category", d12_file, flag, "5"])
        assert e.value.code == 2

    def test_main_refuses_them_too(self, capsys, d12_file):
        assert main(["make-category", "--divisor", "6", "--product", d12_file, d12_file]) == 2
        assert capsys.readouterr().out == "error: --product cannot be combined with --divisor\n"


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

    @pytest.mark.parametrize("first", ["dense12", "broken12"])
    def test_join_with_j3_on_d12(self, d12_file, first):
        # broken12 is no topology, so the join closes an invalid seed
        fixtures = {"topology": f"{first}.gtop", "topology2": "j3-d12.gtop"}
        code, report = run("join", category=d12_file, **{k: str(FIXTURES / v) for k, v in fixtures.items()})
        assert code == 0
        assert report + "\n" == (FIXTURES / f"{first}-join-j3.report").read_text()

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

import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite.algebra import GroupObjectWitness, check_group_object
from finsite.errors import ResourceError
from finsite.fincat import FinCategory, build_divisor_poset, relabel_category, validate_category
from finsite.gtopology import GrothendieckTopology, build_topology, check_axioms, dense_topology, join, meet, sieve_universe
from finsite.sieves import _sieves_on, maximal_sieve, sieve_closure, sieve_literal
from finsite.parsing import (
    ParseFailure,
    parse_category_file,
    parse_topology_file,
    parse_witness_file,
    serialize_category,
    serialize_topology,
    serialize_witness,
)
from test_gtopology import finset_families, posets, transformation_monoids, twin_labels

import oracles

FIXTURES = Path(__file__).parent / "fixtures"


def read(name):
    return (FIXTURES / name).read_text()


@pytest.fixture(scope="module")
def d12s():
    return parse_category_file(read("d12.cat"), "d12.cat")


@pytest.fixture(scope="module")
def arrow_cat():
    return parse_category_file(read("arrow.cat"), "arrow.cat")


class TestCategoryParsing:
    def test_cospan_census(self):
        C = parse_category_file(read("cospan.cat"), "cospan.cat")
        assert len(C.objects) == 3
        assert len(C.all_arrows()) == 5
        assert validate_category(C).ok

    def test_parsed_d12_validates(self, d12s):
        assert validate_category(d12s).ok
        assert len(d12s.all_arrows()) == 18

    def test_a_parse_hands_the_category_one_copy_of_each_dict(self, monkeypatch):
        """The category keeps the dicts the parser built, with no second
        copy through ``from_data``, and lists its composable pairs as the
        compose lines give them, then two unit entries per arrow: the
        declared arrows first, then the identities in object order."""
        text = read("d12.cat") + "compose id_12 . 6|12 = 6|12\n"
        handed, init = [], FinCategory.__init__
        monkeypatch.setattr(FinCategory, "__init__", lambda self, *args: handed.append(args) or init(self, *args))
        monkeypatch.delattr(FinCategory, "from_data")
        C = parse_category_file(text)
        ((_, _, arrows, identity, table),) = handed
        assert C._arrows is arrows and C._identity is identity and C._table is table
        decls = [line.split() for line in text.splitlines()]
        ends = [t[1] for t in decls if t[0] == "arrow"] + [f"id_{x}" for x in C.objects]
        pairs = [(t[1], t[3]) for t in decls if t[0] == "compose" and not (t[1].startswith("id_") or t[3].startswith("id_"))]
        pairs += [p for a in ends for p in ((a, f"id_{C.dom(a)}"), (f"id_{C.cod(a)}", a))]
        assert C.composable_pairs() == tuple(dict.fromkeys(pairs))

    def test_empty_file_missing_header(self):
        with pytest.raises(ParseFailure) as e:
            parse_category_file("", "empty.cat")
        assert e.value.diagnostics[0].code == "missing-header"

    def test_comment_only_file_missing_header(self):
        with pytest.raises(ParseFailure) as e:
            parse_category_file("# nothing here\n", "c.cat")
        assert e.value.diagnostics[0].code == "missing-header"

    def test_ill_typed_compose(self):
        text = (
            "category bad\n"
            "arrow f : a -> b\n"
            "arrow g : b -> c\n"
            "arrow h : a -> b\n"
            "compose g . f = h\n"
        )
        with pytest.raises(ParseFailure) as e:
            parse_category_file(text, "bad.cat")
        assert any(d.code == "ill-typed-compose" for d in e.value.diagnostics)

    def test_non_composable_compose(self):
        text = "category bad\narrow f : a -> b\narrow g : c -> d\narrow h : a -> d\ncompose g . f = h\n"
        with pytest.raises(ParseFailure) as e:
            parse_category_file(text, "bad.cat")
        assert any(d.code == "ill-typed-compose" for d in e.value.diagnostics)

    def test_duplicate_arrow(self):
        text = "category bad\narrow f : a -> b\narrow f : a -> b\n"
        with pytest.raises(ParseFailure) as e:
            parse_category_file(text, "bad.cat")
        assert any(d.code == "duplicate-arrow" for d in e.value.diagnostics)

    def test_unknown_arrow_in_compose(self):
        text = "category bad\narrow f : a -> b\ncompose zzz . f = f\n"
        with pytest.raises(ParseFailure) as e:
            parse_category_file(text, "bad.cat")
        assert any(d.code == "unknown-arrow" for d in e.value.diagnostics)

    def test_reserved_identity_prefix(self):
        with pytest.raises(ParseFailure) as e:
            parse_category_file("category bad\narrow id_x : a -> b\n", "bad.cat")
        assert any(d.code == "reserved-id" for d in e.value.diagnostics)

    def test_a_second_composite_for_a_pair_is_rejected(self):
        text = (
            "category bad\n"
            "arrow f : a -> b\narrow g : b -> c\narrow h : a -> c\narrow k : a -> c\n"
            "compose g . f = h\ncompose g . f = h\ncompose g . f = k\n"
        )
        with pytest.raises(ParseFailure) as e:
            parse_category_file(text, "bad.cat")
        (d,) = e.value.diagnostics
        assert (d.code, d.message) == ("conflicting-compose", "g . f is 'h', not 'k'")
        assert (d.span.line, d.span.col_start, d.span.col_end) == (8, 17, 17)

    def test_a_composite_with_an_identity_must_be_the_other_arrow(self):
        head = "category bad\narrow f : a -> b\narrow g : a -> b\n"
        C = parse_category_file(head + "compose id_b . f = f\ncompose g . id_a = g\n", "ok.cat")
        assert C.compose("id_b", "f") == "f"
        with pytest.raises(ParseFailure) as e:
            parse_category_file(head + "compose id_b . f = g\n", "bad.cat")
        (d,) = e.value.diagnostics
        assert (d.code, d.message) == ("conflicting-compose", "id_b . f is 'f', not 'g'")
        assert d.span.line == 4

    def test_a_conflicting_composite_is_marked_where_it_stands(self):
        # the composite f also appears earlier on the line, as the f of g . f
        text = "category m\narrow f : a -> a\narrow g : a -> a\ncompose g . f = g\ncompose g . f = f\n"
        with pytest.raises(ParseFailure) as e:
            parse_category_file(text, "m.cat")
        (d,) = e.value.diagnostics
        assert str(d) == "m.cat:5:17-17: [conflicting-compose] g . f is 'g', not 'f'"

    def test_spans_point_into_the_line(self):
        text = "category bad\narrow f : a -> b\ncompose zzz . f = f\n"
        with pytest.raises(ParseFailure) as e:
            parse_category_file(text, "bad.cat")
        d = e.value.diagnostics[0]
        assert d.span.file == "bad.cat" and d.span.line == 3
        assert d.span.col_start >= 1


class TestTopologyParsing:
    def test_cover_with_closure_and_verdict(self, d12s):
        J = parse_topology_file("topology t on D_12\ncover 12 : {4|12}\n", d12s, "t.gtop")
        report = check_axioms(J)
        covered = {frozenset(d12s.dom(a) for a in S.members) for S in J.covers("12")}
        assert frozenset({"1", "2", "4"}) in covered
        assert sieve_closure(d12s, "12", ["4|12"]) in J.covers("12")  # the literal lists a generator only
        assert not report.ok  # stability fails at 6

    def test_empty_cover_list_is_trivial(self, d12s):
        J = parse_topology_file("topology t on D_12\n", d12s, "t.gtop")
        assert check_axioms(J).ok
        for x in d12s.objects:
            assert len(J.covers(x)) == 1

    def test_wrong_codomain_diagnostic(self, d12s):
        with pytest.raises(ParseFailure) as e:
            parse_topology_file("topology t on D_12\ncover 12 : {2|6}\n", d12s, "t.gtop")
        (d,) = e.value.diagnostics
        assert d.code == "wrong-codomain" and d.span.line == 2
        # a good arrow, an unknown one and one into another object, on one line
        text = "topology t on D_12\ncover 12 : {4|12}\ncover 12 : {4|12, 5|12, 2|6}\n"
        with pytest.raises(ParseFailure) as e:
            parse_topology_file(text, d12s, "t.gtop")
        unknown, wrong = e.value.diagnostics
        assert (unknown.code, unknown.message) == ("unknown-arrow", "unknown arrow '5|12'")
        assert (unknown.span.line, unknown.span.col_start, unknown.span.col_end) == (3, 19, 22)
        assert (wrong.code, wrong.message) == ("wrong-codomain", "arrow '2|6' lands in '6', not in '12'")
        assert (wrong.span.line, wrong.span.col_start, wrong.span.col_end) == (3, 25, 27)

    def test_an_unknown_arrow_is_marked_where_it_stands(self, d12s):
        # the label 1 names an object of D_12 but no arrow; the object token
        # earlier on the line is not the one marked
        with pytest.raises(ParseFailure) as e:
            parse_topology_file("topology t on D_12\ncover 1 : {1}\n", d12s, "t.gtop")
        (d,) = e.value.diagnostics
        assert str(d) == "t.gtop:2:12-12: [unknown-arrow] unknown arrow '1'"

    def test_a_label_shared_by_two_arrows_names_the_later_one_in_all_arrows(self):
        from finsite.fincat import FinCategory

        C = FinCategory.from_data("alike", "abc", {1: ("a", "b"), "1": ("b", "c"), "h": ("a", "c")}, {("1", 1): "h"})
        J = parse_topology_file("topology t on alike\ncover c : {1}\n", C)
        assert sieve_closure(C, "c", ["1"]) in J.covers("c")
        with pytest.raises(ParseFailure) as e:
            parse_topology_file("topology t on alike\ncover b : {1}\n", C)
        (d,) = e.value.diagnostics
        assert (d.code, d.message) == ("wrong-codomain", "arrow '1' lands in 'c', not in 'b'")

    @given(st.one_of(posets(), transformation_monoids()), st.data())
    @settings(max_examples=80, deadline=None)
    def test_a_cover_line_reads_as_the_closure_of_its_arrows(self, C, data):
        x = data.draw(st.sampled_from(C.objects))
        gens = data.draw(st.lists(st.sampled_from(C.arrows_into(x)), max_size=4))
        labels = list(map(str, gens))
        head = f"topology t on {C.name}\n"
        J = parse_topology_file(head + f"cover {x} : {{{', '.join(labels)}}}\n", C)
        assert J.covers(x) == {maximal_sieve(C, x), sieve_closure(C, x, gens)}
        # one label that names no arrow into x, at a random place on the line
        into_others = [a for a in C.all_arrows() if C.cod(a) != x]
        bad = data.draw(st.sampled_from([None] + into_others))
        labels.insert(data.draw(st.integers(0, len(labels))), "nope" if bad is None else str(bad))
        line = f"cover {x} : {{{', '.join(labels)}}}"
        with pytest.raises(ParseFailure) as e:
            parse_topology_file(head + line + "\n", C, "t.gtop")
        (d,) = e.value.diagnostics
        if bad is None:
            assert (d.code, d.message) == ("unknown-arrow", "unknown arrow 'nope'")
        else:
            assert (d.code, d.message) == ("wrong-codomain", f"arrow '{bad}' lands in {C.cod(bad)!r}, not in '{x}'")
        token = "nope" if bad is None else str(bad)
        start = line.index("{") + line[line.index("{"):].index(token) + 1
        assert (d.span.line, d.span.col_start, d.span.col_end) == (2, start, start + len(token) - 1)

    def test_wrong_category_name(self, d12s):
        with pytest.raises(ParseFailure) as e:
            parse_topology_file("topology t on D_30\n", d12s, "t.gtop")
        assert any(d.code == "wrong-category" for d in e.value.diagnostics)

    def test_unknown_object(self, d12s):
        with pytest.raises(ParseFailure) as e:
            parse_topology_file("topology t on D_12\ncover 7 : {}\n", d12s, "t.gtop")
        assert any(d.code == "unknown-object" for d in e.value.diagnostics)

    def test_j3_fixture_passes_axioms(self, arrow_cat):
        J = parse_topology_file(read("j3.gtop"), arrow_cat, "j3.gtop")
        assert check_axioms(J).ok


class TestWitnessParsing:
    def test_group_witness_fixture(self, d12s):
        w = parse_witness_file(read("top12.wit"), d12s, "top12.wit")
        assert isinstance(w, GroupObjectWitness)
        assert check_group_object(d12s, w).ok

    def test_missing_inverse(self, d12s):
        with pytest.raises(ParseFailure):
            parse_witness_file("group 12 mul=id_12 unit=id_12\n", d12s, "w.wit")

    def test_unknown_carrier(self, d12s):
        with pytest.raises(ParseFailure):
            parse_witness_file("monoid 7 mul=id_12 unit=id_12\n", d12s, "w.wit")

    def test_structural_error_surfaces_as_diagnostic(self, d12s):
        # eta must start at the terminal object
        with pytest.raises(ParseFailure) as e:
            parse_witness_file("monoid 12 mul=id_12 unit=1|12\n", d12s, "w.wit")
        assert any(d.code == "structural" for d in e.value.diagnostics)

    def test_a_cap_hit_is_a_resource_error(self, d12s):
        # the product search of a witness without cones stops at the cap;
        # the error keeps the cap's name and value
        with pytest.raises(ResourceError) as e:
            parse_witness_file("group 12 mul=id_12 unit=id_12 inv=id_12\n", d12s, "w.wit", candidate_cap=0)
        assert str(e.value) == "product search over ~36 candidates exceeds the candidate cap 0"
        assert (e.value.cap_name, e.value.cap_value) == ("candidates", 0)

    def test_via_is_not_a_keyword(self, d12s):
        line = "group 12 via mul=id_12 via unit=id_12 inv=id_12 via"
        with pytest.raises(ParseFailure) as e:
            parse_witness_file(line + "\n", d12s, "w.wit")
        got = [(d.code, d.message, d.span.col_start, d.span.col_end) for d in e.value.diagnostics]
        assert got == [("syntax", "expected key=value, got 'via'", col, col + 2) for col in (10, 24, 49)]


class TestRoundTrips:
    @pytest.mark.parametrize("name", ["d12.cat", "cospan.cat", "arrow.cat"])
    def test_category_round_trip_is_byte_identical(self, name):
        text = read(name)
        assert serialize_category(parse_category_file(text, name)) == text

    @pytest.mark.parametrize(
        "cat,name", [("d12.cat", "dense12.gtop"), ("arrow.cat", "j3.gtop")]
    )
    def test_topology_round_trip_is_byte_identical(self, cat, name):
        C = parse_category_file(read(cat), cat)
        text = read(name)
        J = parse_topology_file(text, C, name)
        assert serialize_topology(J) == text

    def test_witness_round_trip_is_byte_identical(self, d12s):
        text = read("top12.wit")
        w = parse_witness_file(text, d12s, "top12.wit")
        assert serialize_witness(d12s, w) == text

    def test_dense_fixture_matches_builder(self, d12s):
        J = parse_topology_file(read("dense12.gtop"), d12s, "dense12.gtop")
        assert check_axioms(J).ok
        assert J == dense_topology(d12s)

    def test_isomorphism_composites_round_trip(self):
        from finsite.fincat import FinCategory

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
        text = serialize_category(C)
        assert "compose pq . qp = id_q" in text
        C2 = parse_category_file(text)
        assert validate_category(C2).ok
        assert serialize_category(C2) == text


# -- printed forms against the member-listing oracle ----------------------

KINDS = ("trivial", "discrete", "dense", "atomic")


def assert_prints_as_listed(C):
    """Every sieve's literal, and the file of each named topology, of their
    meets and joins and of each file read back, as ``oracles`` prints them
    from listed members."""
    for x in C.objects:
        for S in sieve_universe(C, x):
            assert sieve_literal(C, S) == oracles.member_literal(C, S.members)
    tops = [build_topology(C, k, verify=False)[0] for k in KINDS]  # basis form, covers not yet listed
    for J in tops:
        text = serialize_topology(J)
        again = build_topology(C, J.name, verify=False)[0]
        assert text == oracles.member_topology_file(again)
        assert serialize_topology(J) == text  # from the covers the oracle did not list
        read_back = parse_topology_file(text, C)  # explicit
        assert serialize_topology(read_back) == oracles.member_topology_file(read_back)
    for J1, J2 in zip(tops, tops[1:]):
        for J in (meet(J1, J2), join(J1, J2)):
            assert serialize_topology(J) == oracles.member_topology_file(J)


class TestPrintedFormAgainstOracle:
    """Literals and topology files are printed from class masks; the
    oracle lists each sieve's members and sorts their labels."""

    @given(posets())
    @settings(max_examples=40, deadline=None)
    def test_random_posets(self, C):
        assert_prints_as_listed(C)

    @given(transformation_monoids())
    @settings(max_examples=40, deadline=None)
    def test_transformation_monoids(self, C):
        # their classes hold several arrows whose labels interleave
        assert_prints_as_listed(C)

    @given(twin_labels(st.one_of(posets(), transformation_monoids())))
    @settings(max_examples=40, deadline=None)
    def test_arrows_whose_ids_print_alike(self, C):
        assert_prints_as_listed(C)

    @given(st.one_of(posets(), transformation_monoids()), st.data())
    @settings(max_examples=30, deadline=None)
    def test_labels_of_one_or_two_letters(self, C, data):
        # many literals of one length, which sort by their text
        moved = [a for a in C.all_arrows() if a != C.identity(C.dom(a))]
        names = data.draw(st.permutations([*"abcde", *map("".join, itertools.product("abcde", repeat=2))]))
        rename = dict(zip(moved, names))
        assert_prints_as_listed(relabel_category(C, obj_fn=lambda x: x, arr_fn=lambda a: rename.get(a, a)))

    def test_swap_which_is_not_thin(self):
        C = parse_category_file((FIXTURES / "swap.cat").read_text())
        assert_prints_as_listed(C)
        # literals at A and B pick arrows by class position masks, and at P,
        # where each class is one arrow, straight from the class mask
        assert {x: _sieves_on(C, x)._positions is None for x in C.objects} == {"A": False, "B": False, "P": True}

    def test_d360_under_every_kind(self):
        assert_prints_as_listed(build_divisor_poset(360))

    def test_a_sieve_filed_under_another_object_prints_from_its_own(self):
        C = build_divisor_poset(12)
        stored = {maximal_sieve(C, 12), maximal_sieve(C, 6), sieve_closure(C, 4, ["2|4"]), sieve_closure(C, 12, ["4|12"])}
        J = GrothendieckTopology(C, "strays", covers={12: stored})
        text = serialize_topology(J)
        assert text == oracles.member_topology_file(J)
        assert "cover 12 : {1|6, 2|6, 3|6, id_6}\n" in text and "cover 12 : {1|4, 2|4}\n" in text

    @given(finset_families())
    @settings(max_examples=10, deadline=None)
    def test_finset_files_print_arrow_labels(self, C):
        for x in C.objects:
            for S in sieve_universe(C, x):
                assert sieve_literal(C, S) == oracles.member_literal(C, S.members)
        J = build_topology(C, "discrete", verify=False)[0]
        lines = serialize_topology(J).splitlines()[1:]
        expected = []
        for x in sorted(C.objects, key=str):
            literals = [oracles.member_literal(C, S.members) for S in sieve_universe(C, x) if S is not maximal_sieve(C, x)]
            expected += [f"cover {x} : {lit}" for lit in sorted(literals, key=lambda s: (len(s), s))]
        assert lines == expected


# -- fuzzing: mutated fixtures give a value or a ParseFailure with spans ----

_PIECES = st.one_of(
    st.sampled_from(["{", "}", ",", ":", ".", "=", "->", "|", "#", "\n", " ", "\t", "id_", "1|2", "12", "x", "*"]),
    st.text(max_size=6),
)


@st.composite
def mutated(draw, text):
    """``text`` after up to four random edits: a slice deleted, a piece
    inserted, or one slice copied over another place."""
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        edit = draw(st.sampled_from(["delete", "insert", "copy"]))
        if edit == "delete":
            text = text[:i] + text[j:]
        elif edit == "insert":
            text = text[:i] + draw(_PIECES) + text[i:]
        else:
            k = draw(st.integers(0, len(text)))
            text = text[:k] + text[i:j] + text[k:]
    return text


def assert_parses_or_fails_inside(parse, text):
    """``parse(text)`` returns, or raises a ParseFailure whose every span
    lies on a line of the text (line 1 of an empty one), inside it."""
    try:
        parse(text)
    except ParseFailure as e:
        assert e.diagnostics
        lines = text.splitlines() or [""]
        for d in e.diagnostics:
            span = d.span
            assert 1 <= span.line <= len(lines), (d, text)
            assert 1 <= span.col_start <= span.col_end <= max(len(lines[span.line - 1]), 1), (d, text)


class TestFuzzedParsers:
    @pytest.mark.parametrize("fixture", ["d12.cat", "cospan.cat", "arrow.cat"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_category_files(self, fixture, data):
        text = data.draw(mutated(read(fixture)))
        assert_parses_or_fails_inside(lambda t: parse_category_file(t, fixture), text)

    @pytest.mark.parametrize("fixture", ["broken12.gtop", "dense12.gtop", "j3-d12.gtop"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_topology_files(self, d12s, fixture, data):
        text = data.draw(mutated(read(fixture)))
        assert_parses_or_fails_inside(lambda t: check_axioms(parse_topology_file(t, d12s, fixture)), text)

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_witness_files(self, d12s, data):
        text = data.draw(mutated(read("top12.wit")))
        assert_parses_or_fails_inside(lambda t: parse_witness_file(t, d12s, "top12.wit"), text)


@pytest.mark.parametrize(
    "line, message, where",
    [
        ("group 12 mul=id_12 unit=id_12 =inv=id_12", "unknown option ''", "="),
        ("group 12 unit=id_12 inv=id_12 mul=", "unknown arrow '' for mul", "="),  # at the line's end
        ("group 12 mul=id_12 unit=id_12 inv=id_12 product=12:id_12:", "unknown projection ''", ":"),
    ],
)
def test_an_empty_token_is_marked_on_one_column_of_its_line(d12s, line, message, where):
    with pytest.raises(ParseFailure) as e:
        parse_witness_file(line + "\n", d12s, "w.wit")
    (d,) = [d for d in e.value.diagnostics if d.message == message]
    assert d.span.col_start == d.span.col_end
    assert line[d.span.col_start - 1] == where

"""Text formats: grammar, exhaustive diagnostics, and round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cedga import GeneratorKind
from cedga.corpus import ROUND_TRIP, corpus_text
from cedga.textio import (DocumentError, parse_disk_counts, parse_dga,
                          parse_strip_counts, parse_traj_config,
                          parse_tree_config, parse_values, serialize_dga,
                          serialize_disk_counts, serialize_strip_counts,
                          serialize_traj_config, serialize_tree_config,
                          serialize_values)
from test_cli import mutate

PARSERS = {
    "dga": (parse_dga, serialize_dga),
    "counts": (parse_disk_counts, serialize_disk_counts),
    "strips": (parse_strip_counts, serialize_strip_counts),
    "values": (lambda text: parse_values(text, 2),
               lambda values: serialize_values(2, values)),
    "tree": (parse_tree_config, serialize_tree_config),
    "traj": (parse_traj_config, serialize_traj_config),
}


@pytest.mark.parametrize("fmt,name", ROUND_TRIP)
def test_corpus_round_trip_identity(fmt, name):
    parse, serialize = PARSERS[fmt]
    text = corpus_text(name)
    assert serialize(parse(text)) == text


@st.composite
def _round_trip_mutants(draw):
    fmt, name = draw(st.sampled_from(ROUND_TRIP))
    return fmt, mutate(draw, corpus_text(name))


@settings(max_examples=300, deadline=None)
@given(mutant=_round_trip_mutants())
def test_parsing_mutants_are_serializer_fixed_points(mutant):
    # whatever a parser accepts, its serialization reads back to itself
    fmt, text = mutant
    parse, serialize = PARSERS[fmt]
    try:
        once = serialize(parse(text))
    except DocumentError:
        return
    assert serialize(parse(once)) == once


def test_empty_document_with_header():
    doc = parse_dga("field 2\nddeg 1\n")
    assert doc.dga.p == 2 and not doc.dga.generators


def test_defaults_without_header():
    doc = parse_dga("gen x 0 1/2 reeb\n")
    assert doc.dga.p == 2 and doc.dga.d_degree == 1


def test_two_term_differential_example():
    doc = parse_dga("field 2\ngen y -1 3/2 reeb\ngen x1 0 1/4 reeb\n"
                    "gen x2 0 1/4 reeb\nd y = x1 x2 + 1\n")
    poly = doc.dga.differential_of("y")
    assert poly.terms == {("x1", "x2"): 1, (): 1}


def test_zero_polynomial_and_coefficients():
    doc = parse_dga("field 3\ngen y -1 3/2 reeb\ngen x 0 1/4 reeb\n"
                    "d y = 0\nd x = 2\n", field_override=None)
    assert doc.dga.differential_of("y").is_zero
    assert doc.dga.differential_of("x").terms == {(): 2}


def test_field_override_changes_reduction():
    text = "gen x -1 1/2 reeb\nd x = 2\n"
    assert parse_dga(text, field_override=2).dga.differential_of("x").is_zero
    assert parse_dga(text, field_override=3).dga.differential_of("x").terms == {(): 2}


def test_comments_and_blank_lines_ignored():
    doc = parse_dga("# header\nfield 2\n\ngen x 0 1/2 reeb  # trailing\n")
    assert list(doc.dga.generators) == ["x"]


def test_exhaustive_error_listing():
    bad = ("field 2\n"
           "gen x 0 1//2 reeb\n"       # bad rational
           "gen x 0 1/2 reeb\n"        # (x failed above, so this declares x)
           "gen x 0 1/2 reeb\n"        # duplicate
           "whatsit\n"                 # unknown directive
           "d ghost = x\n"             # undeclared generator
           "mark ghost\n")             # undeclared mark
    with pytest.raises(DocumentError) as exc:
        parse_dga(bad)
    messages = "\n".join(str(i) for i in exc.value.issues)
    assert "invalid rational" in messages
    assert "duplicate generator" in messages
    assert "unknown directive" in messages
    assert "undeclared generator 'ghost'" in messages
    assert "mark on undeclared" in messages
    assert len(exc.value.issues) >= 5


def test_issue_lines_are_addressed():
    with pytest.raises(DocumentError) as exc:
        parse_dga("field 2\nbogus here\n")
    assert exc.value.issues[0].line == 2


def test_surgery_roles_parsed():
    doc = parse_dga(corpus_text("surgery_k2.txt"))
    assert doc.roles["a1"].type == "a" and doc.roles["a1"].i == 1
    assert doc.roles["b1_12"].j == 2 and doc.roles["b1_12"].m == 1
    assert doc.dga.generator("a1").kind is GeneratorKind.SURGERY_A


def test_marks_parsed_and_serialized():
    doc = parse_dga(corpus_text("quotient_demo.txt"))
    assert doc.marked == ("q",)


def test_counts_rejection_reported_on_table():
    table = parse_disk_counts(corpus_text("fault_counts_rejected.txt"))
    assert len(table.rejected) == 1
    assert table.rejected[0].entry == "(z; x1, x1)"
    assert table.rejected[0].reason == "action 1/8 not above input total 1/2"


def test_counts_undeclared_is_a_parse_error():
    with pytest.raises(DocumentError):
        parse_disk_counts("field 2\ngen y 2 2/1 dp+\ncount y ghost = 1\n")


def test_strip_side_inference():
    table = parse_strip_counts(corpus_text("strip_small.txt"))
    assert "xb" in table.dp_bottom and not table.dp_top
    both = ("field 2\ngen c1 0 -1/1 mixed\ngen c2 1 -1/2 mixed\n"
            "gen x 1 1/5 dp+\n"
            "strip c2 c1 bottom: x = 1\nstrip c2 c1 top: x = 1\n")
    with pytest.raises(DocumentError) as exc:
        parse_strip_counts(both)
    assert "both boundary sides" in str(exc.value)


def test_values_field_mismatch():
    with pytest.raises(DocumentError):
        parse_values("field 3\nset x = 1\n", 2)


def test_tree_config_parses():
    tree = parse_tree_config(corpus_text("tree_single.txt"))
    assert tree.disk_count == 1
    assert [g.name for g in tree.external_inputs()] == ["x1", "x2"]


def test_traj_config_parses():
    traj = parse_traj_config(corpus_text("traj_pair.txt"))
    assert traj.strip_count == 2
    assert traj.output_chord().name == "q2"


def test_traj_config_attach_errors():
    text = ("gen q1 1 -1/2 mixed\ngen q0 0 -1/4 mixed\n"
            "strip q1 q0\nattach 0 bottom 0 5\n")
    with pytest.raises(DocumentError) as exc:
        parse_traj_config(text)
    assert "missing disk" in str(exc.value)


@pytest.mark.parametrize("disk_idx,attach_issue", [
    (1, ""),  # disk 1 exists although disk 0 names an undeclared generator
    (2, "\nline 8: attach references missing disk 2"),
])
def test_traj_attach_indexes_disk_lines(disk_idx, attach_issue):
    text = ("gen q1 1 -1/2 mixed\ngen q0 0 -1/4 mixed\ngen m 0 1/2 dp+\n"
            "gen i 0 1/2 dp+\nstrip q1 q0 bottom: m\n"
            f"disk m ghost\ndisk m i i i\nattach 0 bottom 0 {disk_idx}\n")
    with pytest.raises(DocumentError) as exc:
        parse_traj_config(text)
    assert str(exc.value) == "line 6: undeclared generator 'ghost'" + attach_issue


def test_serialize_parse_fixpoint_on_noncanonical_input():
    scrambled = ("# comment first\n"
                 "ddeg 1\n"
                 "gen y -1 3/2 reeb\n"
                 "field 2\n"
                 "gen x2 0 1/3 reeb\n"
                 "gen x1 0 1/4 reeb\n"
                 "d y = x1 x2 + 1 + x1 x2\n")   # duplicate monomials cancel
    once = serialize_dga(parse_dga(scrambled))
    assert serialize_dga(parse_dga(once)) == once
    assert "d y = 1" in once  # the x1 x2 terms cancelled over F_2


# One document per format: header faults, a directive foreign to the format,
# every usage line of the format and undeclared names.  The whole diagnostic
# text is pinned, every issue in order.
MULTI_FAULT = [
    ("dga",
     "field 4\n"
     "field 2\n"
     "field 3\n"
     "ddeg x\n"
     "ddeg 1\n"
     "ddeg 2\n"
     "gen x 0 1/2\n"
     "gen 1x z 1//2 bogus\n"
     "gen x 0 1/2 reeb  # declares x\n"
     "gen x 0 1/2 reeb\n"
     "count x = 1\n"
     "d x\n"
     "d x = ghost + + x + 3 9z\n"
     "d x = 1\n"
     "d ghost = x\n"
     "mark\n"
     "mark ghost\n"
     "mark x\n"
     "mark x\n"
     "surgery x a\n"
     "surgery x z 1\n"
     "surgery x b q 1 2\n"
     "surgery x a 1 2 3\n"
     "surgery x b 1\n"
     "surgery x b 1 2 3 4\n"
     "surgery x a 1\n"
     "surgery x a 2\n"
     "surgery ghost a 1\n",
     "line 1: field characteristic must be a prime <= 97, got 4\n"
     "line 3: duplicate field declaration\n"
     "line 4: usage: ddeg <integer>\n"
     "line 6: duplicate ddeg declaration\n"
     "line 7: usage: gen <name> <degree> <p/q> <kind>\n"
     "line 8: invalid generator name '1x'\n"
     "line 8: invalid degree 'z'\n"
     "line 8: invalid rational '1//2'\n"
     "line 8: unknown generator kind 'bogus'\n"
     "line 10: duplicate generator 'x' (first declared on line 9)\n"
     "line 11: unknown directive 'count'\n"
     "line 12: usage: d <name> = <poly>\n"
     "line 16: usage: mark <name>\n"
     "line 20: usage: surgery <name> <a|b|c> <i> [<j> <m>]\n"
     "line 21: usage: surgery <name> <a|b|c> <i> [<j> <m>]\n"
     "line 22: surgery indices must be integers\n"
     "line 23: connector roles take a single index\n"
     "line 24: hook/transit roles take three indices\n"
     "line 25: usage: surgery <name> <a|b|c> <i> [<j> <m>]\n"
     "line 27: duplicate surgery role for 'x'\n"
     "line 13: undeclared generator 'ghost' in polynomial\n"
     "line 13: empty monomial in polynomial\n"
     "line 13: invalid generator name '9z' in polynomial\n"
     "line 14: duplicate differential for 'x' (first on line 13)\n"
     "line 15: differential for undeclared generator 'ghost'\n"
     "line 17: mark on undeclared generator 'ghost'\n"
     "line 19: duplicate mark on 'x'\n"
     "line 28: surgery role on undeclared generator 'ghost'"),
    ("counts",
     "field 4\n"
     "field 2\n"
     "field 2\n"
     "ddeg 1\n"
     "gen y 2 2/1 dp+\n"
     "gen c 0 -1/1 mixed\n"
     "gen y 2 2/1 dp+\n"
     "gen z\n"
     "count y\n"
     "count y ghost = x\n"
     "count y ghost = 1\n"
     "count ghost y y = 1\n"
     "set y = 1\n",
     "line 1: field characteristic must be a prime <= 97, got 4\n"
     "line 3: duplicate field declaration\n"
     "line 4: unknown directive 'ddeg'\n"
     "line 6: kind 'mixed' not allowed in this document\n"
     "line 7: duplicate generator 'y' (first declared on line 5)\n"
     "line 8: usage: gen <name> <degree> <p/q> <kind>\n"
     "line 9: usage: count <out> [<in>*] = <coeff>\n"
     "line 10: usage: count <out> [<in>*] = <coeff>\n"
     "line 13: unknown directive 'set'\n"
     "line 11: undeclared double point 'ghost'\n"
     "line 12: undeclared double point 'ghost'"),
    ("strips",
     "field 4\n"
     "field 2\n"
     "field 2\n"
     "ddeg 1\n"
     "gen c1 0 -1/1 mixed\n"
     "gen c2 1 -1/2 mixed\n"
     "gen x 1 1/5 dp+\n"
     "gen r 0 1/2 reeb\n"
     "gen c1 0 -1/1 mixed\n"
     "strip c2 = 1\n"
     "strip c2 c1 c1 = 1\n"
     "strip c2 ghost bottom: x nope = 1\n"
     "strip c2 c1 top: x = 1\n"
     "strip c2 c1 bottom: x = 1\n"
     "count c2 = 1\n",
     "line 1: field characteristic must be a prime <= 97, got 4\n"
     "line 3: duplicate field declaration\n"
     "line 4: unknown directive 'ddeg'\n"
     "line 8: kind 'reeb' not allowed in this document\n"
     "line 9: duplicate generator 'c1' (first declared on line 5)\n"
     "line 10: usage: strip <out> <in> [bottom: <names>] [top: <names>] = <coeff>\n"
     "line 11: strip entries need exactly two chords\n"
     "line 15: unknown directive 'count'\n"
     "line 12: undeclared chord 'ghost'\n"
     "line 12: undeclared double point 'nope'\n"
     "document: double point 'x' appears on both boundary sides"),
    ("values",
     "field 4\n"
     "field 3\n"
     "field 3\n"
     "ddeg 1\n"
     "gen x 0 1/2 reeb\n"
     "set x\n"
     "set 1x = 1\n"
     "set x = 1\n"
     "set x = 2\n"
     "d x = 1\n",
     "line 1: field characteristic must be a prime <= 97, got 4\n"
     "line 3: duplicate field declaration\n"
     "line 4: unknown directive 'ddeg'\n"
     "line 5: unknown directive 'gen'\n"
     "line 6: usage: set <name> = <value>\n"
     "line 7: invalid generator name '1x'\n"
     "line 9: duplicate assignment for 'x'\n"
     "line 10: unknown directive 'd'\n"
     "document: value file declares field 3, expected 2"),
    ("tree",
     "field 4\n"
     "field 2\n"
     "field 2\n"
     "ddeg 1\n"
     "gen x1 0 1/2 dp+\n"
     "gen y 1 3/2 dp+\n"
     "gen y 1 3/2 dp+\n"
     "disk\n"
     "disk ghost x1 nope\n"
     "disk y x1\n"
     "edge 0 1\n"
     "edge a b c\n"
     "attach 0 bottom 0 0\n",
     "line 1: field characteristic must be a prime <= 97, got 4\n"
     "line 3: duplicate field declaration\n"
     "line 4: unknown directive 'ddeg'\n"
     "line 7: duplicate generator 'y' (first declared on line 6)\n"
     "line 8: usage: disk <output> [<inputs>*]\n"
     "line 11: usage: edge <srcDisk> <dstDisk> <slot>\n"
     "line 12: usage: edge <srcDisk> <dstDisk> <slot>\n"
     "line 13: unknown directive 'attach'\n"
     "line 9: undeclared generator 'ghost'\n"
     "line 9: undeclared generator 'nope'"),
    ("traj",
     "field 4\n"
     "field 2\n"
     "field 2\n"
     "ddeg 1\n"
     "gen q1 1 -1/2 mixed\n"
     "gen q0 0 -1/4 mixed\n"
     "gen x 0 1/2 dp+\n"
     "gen q0 0 -1/4 mixed\n"
     "strip q1\n"
     "strip q1 q0 bottom: ghost x top: x\n"
     "strip q1 q0 top: x\n"
     "disk\n"
     "disk x ghost2\n"
     "attach 0 side 0 0\n"
     "attach 0 bottom 0 5\n"
     "edge 0 1 0\n",
     "line 1: field characteristic must be a prime <= 97, got 4\n"
     "line 3: duplicate field declaration\n"
     "line 4: unknown directive 'ddeg'\n"
     "line 8: duplicate generator 'q0' (first declared on line 6)\n"
     "line 9: usage: strip <out> <in> [bottom: <names>] [top: <names>]\n"
     "line 12: usage: disk <output> [<inputs>*]\n"
     "line 14: usage: attach <strip> <bottom|top> <pos> <disk>\n"
     "line 16: unknown directive 'edge'\n"
     "line 10: undeclared generator 'ghost'\n"
     "line 13: undeclared generator 'ghost2'\n"
     "line 15: attach references missing disk 5"),
]


@pytest.mark.parametrize("fmt,text,expected", MULTI_FAULT,
                         ids=[fmt for fmt, _, _ in MULTI_FAULT])
def test_multi_fault_document_diagnostics(fmt, text, expected):
    parse, _ = PARSERS[fmt]
    with pytest.raises(DocumentError) as exc:
        parse(text)
    assert str(exc.value) == expected


def test_two_disk_tree_round_trip_with_edge():
    text = ("gen y 3 5/1 dp+\ngen v 2 3/1 dp+\ngen x3 1 1/1 dp+\ngen x1 1 1/1 dp+\n"
            "gen x2 1 1/1 dp+\ndisk y v x3\ndisk v x1 x2\nedge 1 0 0\n")
    tree = parse_tree_config(text)
    assert tree.edges == ((1, 0, 0),)
    assert [g.name for g in tree.external_inputs()] == ["x3", "x1", "x2"]
    assert serialize_tree_config(tree) == text


def test_diskless_tree_has_no_text_form():
    # the format has no line for the edge generator, so the parser refuses a
    # diskless tree and the serializer must not write one
    from cedga import ConfigError, Generator, PearlyTreeConfig
    tree = PearlyTreeConfig((), (), Generator("x", 1, 1, GeneratorKind.DOUBLE_POINT_POS))
    with pytest.raises(ConfigError) as exc:
        serialize_tree_config(tree)
    assert str(exc.value) == "the tree format has no text form for a diskless tree"
    with pytest.raises(DocumentError) as exc:
        parse_tree_config("gen x 1 1/1 dp+\n")
    assert str(exc.value) == "document: a tree needs at least one disk line"


@pytest.mark.parametrize("separator", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                       "\u2028", "\u2029"],
                         ids=["vt", "ff", "fs", "gs", "rs", "nel", "ls", "ps"])
def test_only_newline_ends_a_line(separator):
    # str.splitlines() would also break at these, ending a comment early and
    # shifting every later line number
    assert parse_dga(f"# note{separator}gen x 0 1/2 reeb\n").dga.generators == {}
    with pytest.raises(DocumentError) as exc:
        parse_dga(f"field 2\n# note{separator}more\nbogus\n")
    assert str(exc.value) == "line 3: unknown directive 'bogus'"


def test_crlf_document_parses():
    # the \r before each \n is whitespace to str.split
    doc = parse_dga("field 2\r\ngen x 0 1/2 reeb  # trailing\r\n\r\ngen y -1 1/1 reeb\r\n")
    assert list(doc.dga.generators) == ["x", "y"]


def test_trajectory_round_trip_with_top_marks_and_attach():
    text = ("gen q1 1 -1/2 mixed\ngen q0 0 -1/4 mixed\ngen m 0 1/2 dp+\ngen t 1 1/2 dp+\n"
            "gen i 1 1/4 dp+\nstrip q1 q0 bottom: m top: t\ndisk t i\nattach 0 top 0 0\n")
    traj = parse_traj_config(text)
    assert [g.name for g in traj.strips[0].top_marked] == ["t"]
    assert [(s, p, d.output.name) for s, p, d in traj.top_disks] == [(0, 0, "t")]
    assert [g.name for g in traj.top_inputs()] == ["i"]
    assert serialize_traj_config(traj) == text

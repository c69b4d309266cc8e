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

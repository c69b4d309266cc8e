"""The record types: public constructors coerce and refuse with fixed
messages, ``repr`` text is pinned, records compare and hash by their fields,
and frozen records refuse assignment."""

from fractions import Fraction

import pytest

from cedga import (Augmentation, ChordRole, Dga, Generator, GeneratorKind, RejectedEntry,
                   SurgeryCertificate, ValidationReport)
from cedga.dga import Violation
from cedga.textio import DgaDocument, ParseIssue

DP_POS, DP_NEG = GeneratorKind.DOUBLE_POINT_POS, GeneratorKind.DOUBLE_POINT_NEG


@pytest.mark.parametrize("action,expected", [
    (3, Fraction(3)), ("1/2", Fraction(1, 2)), ("-7/14", Fraction(-1, 2)),
    (Fraction(2, 3), Fraction(2, 3)),
])
def test_generator_coerces_action(action, expected):
    for gen in (Generator("x", 1, action), Generator(name="x", degree=1, action=action)):
        assert type(gen.action) is Fraction and gen.action == expected
        assert gen.kind is GeneratorKind.REEB_CHORD


@pytest.mark.parametrize("action,kind,message", [
    (0, DP_POS, "double point 'x' tagged positive must have action > 0"),
    ("-1/2", DP_POS, "double point 'x' tagged positive must have action > 0"),
    (0, DP_NEG, "double point 'x' tagged negative must have action < 0"),
    (1, DP_NEG, "double point 'x' tagged negative must have action < 0"),
])
def test_generator_refuses_double_point_sign(action, kind, message):
    with pytest.raises(ValueError) as exc:
        Generator("x", 1, action, kind)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        Generator(name="x", degree=1, action=action, kind=kind)
    assert str(exc.value) == message


def test_generator_accepts_signed_double_points():
    assert Generator("y", 2, 1, DP_POS).action == 1
    assert Generator("y", 2, "-1/3", DP_NEG).action == Fraction(-1, 3)


@pytest.mark.parametrize("args,fields", [
    (("a", 1), ("a", 1, None, None)),
    (("b", 1, 2, 3), ("b", 1, 2, 3)),
    (("c", 2, 3, 1), ("c", 2, 3, 1)),
])
def test_chord_role_fields(args, fields):
    role = ChordRole(*args)
    assert (role.type, role.i, role.j, role.m) == fields


@pytest.mark.parametrize("args,kwargs,message", [
    (("d", 1), {}, "role type must be a, b or c, got 'd'"),
    (("a", 1, 2), {}, "connector roles take only a source index"),
    (("a", 1), {"m": 1}, "connector roles take only a source index"),
    (("b", 1), {}, "'b' roles need target and multiplicity indices"),
    (("c", 1, 2), {}, "'c' roles need target and multiplicity indices"),
    (("c", 1), {"m": 2}, "'c' roles need target and multiplicity indices"),
])
def test_chord_role_refuses_shapes(args, kwargs, message):
    with pytest.raises(ValueError) as exc:
        ChordRole(*args, **kwargs)
    assert str(exc.value) == message


def _records():
    """(record, an equal record built apart, a record differing in one field)."""
    return [
        (Generator("x", 1, Fraction(1, 2), DP_POS), Generator("x", 1, "1/2", DP_POS),
         Generator("x", 1, Fraction(1, 3), DP_POS)),
        (ChordRole("b", 1, 2, 3), ChordRole("b", 1, j=2, m=3), ChordRole("b", 1, 2, 4)),
        (Violation("grading", "x", "bad"), Violation("grading", "x", "bad"),
         Violation("grading", "y", "bad")),
        (ParseIssue(3, "oops"), ParseIssue(line=3, message="oops"), ParseIssue(0, "oops")),
        (RejectedEntry("(y; )", "why"), RejectedEntry("(y; )", "why"),
         RejectedEntry("(y; x)", "why")),
    ]


def test_record_reprs_pinned():
    assert [repr(rec) for rec, _, _ in _records()] == [
        "Generator(name='x', degree=1, action=Fraction(1, 2), "
        "kind=<GeneratorKind.DOUBLE_POINT_POS: 'dp+'>)",
        "ChordRole(type='b', i=1, j=2, m=3)",
        "Violation(kind='grading', subject='x', detail='bad')",
        "ParseIssue(line=3, message='oops')",
        "RejectedEntry(entry='(y; )', reason='why')",
    ]
    assert repr(ChordRole("a", 2)) == "ChordRole(type='a', i=2, j=None, m=None)"
    assert repr(Generator("q", 0, 1)) == ("Generator(name='q', degree=0, action=Fraction(1, 1), "
                                          "kind=<GeneratorKind.REEB_CHORD: 'reeb'>)")


def test_record_strs():
    assert str(Violation("grading", "x", "bad")) == "[grading] x: bad"
    assert str(ParseIssue(3, "oops")) == "line 3: oops"
    assert str(ParseIssue(0, "oops")) == "document: oops"
    assert str(RejectedEntry("(y; )", "why")) == "RejectedEntry(entry='(y; )', reason='why')"


def test_records_equal_and_hash_by_fields():
    for rec, same, other in _records():
        assert rec == same and not rec != same
        assert hash(rec) == hash(same)
        assert rec != other
        assert len({rec, same, other}) == 2


def test_frozen_records_refuse_assignment():
    for rec, _, _ in _records():
        field = type(rec).__match_args__[0]
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
        with pytest.raises(AttributeError):
            rec.extra = 1


def test_documents_never_share_roles():
    dga = Dga.build(2, gens=[("x", 0, 1)])
    first, second = DgaDocument(dga), DgaDocument(dga)
    assert first.marked == () and first.roles == {}
    first.roles["x"] = ChordRole("a", 1)
    assert second.roles == {} and DgaDocument(dga).roles == {}
    roles = {"x": ChordRole("a", 1)}
    assert DgaDocument(dga, ("x",), roles).roles is roles


def test_certificate_ok_needs_clean_reports_and_no_flags():
    def certificate(verification=(), conditions=(), flags=()):
        return SurgeryCertificate(Augmentation(2, {}), ValidationReport(verification),
                                  ValidationReport(conditions), flags)

    bad = [Violation("surgery.residual", "b1", "extension sends d(b1) to 1")]
    assert certificate().ok
    assert certificate().flags == () and certificate().order_reversing == ()
    assert not certificate(verification=bad).ok
    assert not certificate(conditions=bad).ok
    assert not certificate(flags=("recursion demands 1 on c1 of degree 1; value forced to 0",)).ok
    cert = SurgeryCertificate(Augmentation(2, {}), ValidationReport(), ValidationReport(),
                              order_reversing=("c1",))
    assert cert.ok and cert.order_reversing == ("c1",)

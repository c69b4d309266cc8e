"""The record types: public constructors coerce and refuse with fixed
messages, ``repr`` text is pinned, records compare and hash by their fields,
build by position or keyword, and frozen records refuse assignment."""

from fractions import Fraction

import pytest

from cedga import (Augmentation, BrokenTrajectoryConfig, ChordRole, CounterexampleReport, Dga,
                   DiskComponent, DiskCountTable, Generator, GeneratorKind, InputError,
                   PearlyTreeConfig, RejectedEntry, StripComponent, StripCountTable,
                   SurgeryCertificate, TrajectoryLedger, TrajectorySearchBounds,
                   TrajectoryVerdict, TreeLedger, TreeSearchBounds, TreeVerdict,
                   ValidationReport, construct_surgery_augmentation, random_surgery_instance)
from cedga.dga import Violation
from cedga.textio import DgaDocument, ParseIssue, parse_dga, serialize_dga

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


def test_public_writes_raise():
    # a write to the generators would leave the derived scaled actions stale
    d = Dga.build(2, gens=[("x", 0, 1), ("y", -1, 3)], diffs={"y": [(1, ("x",))]})
    assert d.word_action(("x",)) == 1
    with pytest.raises(TypeError):
        d.generators["x"] = Generator("x", 0, 5)
    with pytest.raises(TypeError):
        del d.generators["x"]
    assert d.generator("x").action == 1 and d.validate_action().ok
    S = random_surgery_instance(2, max_chords_per_pair=1, seed=3)
    doc = parse_dga(serialize_dga(DgaDocument(S.dga, (), S.roles)))
    assert doc.roles == S.roles and doc.roles
    default = DgaDocument(d)
    for roles in (S.roles, doc.roles, default.roles):
        with pytest.raises(TypeError):
            roles["x"] = ChordRole("a", 1)
    assert default.marked == () and DgaDocument(d).roles == {}

    dp = GeneratorKind.DOUBLE_POINT_POS
    table = DiskCountTable.build(2, [Generator("x", 1, 1, dp), Generator("y", 2, 3, dp)],
                                 [("y", ("x", "x"), 1)])
    strips = StripCountTable.build(2, [Generator("q", 0, 1, GeneratorKind.MIXED_CHORD)],
                                   [Generator("x", 1, 1, dp)], [], [])
    cert = construct_surgery_augmentation(S, Augmentation(S.dga.p, {}))
    for rec in (table, strips, cert, doc):
        for field in type(rec)._fields:
            with pytest.raises(AttributeError):
                setattr(rec, field, getattr(rec, field))


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


# -- pearly records -------------------------------------------------------------

X, V = Generator("x", 1, 1, DP_POS), Generator("v", 1, 2, DP_POS)
Q0, Q1 = (Generator(f"q{i}", 0, 1, GeneratorKind.MIXED_CHORD) for i in range(2))
DISK = DiskComponent(V, (X,))
STRIP = StripComponent(Q1, Q0, (X,))


def _report(telescope_failures=0, counterexamples=()):
    return CounterexampleReport("trees", {"max_disks": 1}, 4, 4, 3, telescope_failures, 1,
                                list(counterexamples))


def _pearly_records():
    """(record, an equal record built by keyword, a record differing in one field)."""
    return [
        (DISK, DiskComponent(output=V, inputs=(X,)), DiskComponent(V, (X, X))),
        (PearlyTreeConfig((DISK,)), PearlyTreeConfig(disks=(DISK,)),
         PearlyTreeConfig(edge_generator=X)),
        (TreeLedger(1, 1, 0, 1, False), TreeLedger(m=1, k=1, lhs=0, rhs=1, telescoped=False),
         TreeLedger(1, 1, 0, 1, True)),
        (TreeVerdict(False, ("no disk components (single constant edge)",)),
         TreeVerdict(hypotheses_ok=False,
                     hypothesis_violations=("no disk components (single constant edge)",)),
         TreeVerdict(False, ("disk 0 is not rigid",))),
        (STRIP, StripComponent(output_chord=Q1, input_chord=Q0, bottom_marked=(X,)),
         StripComponent(Q1, Q0, (), (X,))),
        (BrokenTrajectoryConfig((STRIP,)), BrokenTrajectoryConfig(strips=(STRIP,)),
         BrokenTrajectoryConfig((StripComponent(Q1, Q0),))),
        (TrajectoryLedger(1, 1, 0, 0, 1, 0, 0, 0, True),
         TrajectoryLedger(M=1, K=1, m0=0, m1=0, k=1, l=0, lhs=0, rhs=0, telescoped=True),
         TrajectoryLedger(1, 1, 0, 0, 1, 0, 0, 1, False)),
        (TrajectoryVerdict(False, ("strip 0 is not rigid",)),
         TrajectoryVerdict(hypotheses_ok=False, hypothesis_violations=("strip 0 is not rigid",)),
         TrajectoryVerdict(True, ())),
        (TreeSearchBounds(2), TreeSearchBounds(max_disks=2), TreeSearchBounds(3)),
        (TrajectorySearchBounds(2), TrajectorySearchBounds(max_strips=2),
         TrajectorySearchBounds(2, degree_range=(-1, 1))),
        (_report(), CounterexampleReport(
            mode="trees", bounds={"max_disks": 1}, estimated_configs=4, enumerated=4,
            in_window=3, telescope_failures=0, materialized=1, counterexamples=[]),
         _report(telescope_failures=1)),
    ]


def test_pearly_record_reprs_pinned():
    x, v, q0, q1 = map(repr, (X, V, Q0, Q1))
    disk = f"DiskComponent(output={v}, inputs=({x},))"
    strip = (f"StripComponent(output_chord={q1}, input_chord={q0}, bottom_marked=({x},), "
             "top_marked=())")
    assert [repr(rec) for rec, _, _ in _pearly_records()] == [
        disk,
        f"PearlyTreeConfig(disks=({disk},), edges=(), edge_generator=None)",
        "TreeLedger(m=1, k=1, lhs=0, rhs=1, telescoped=False)",
        "TreeVerdict(hypotheses_ok=False, hypothesis_violations=('no disk components "
        "(single constant edge)',), positivity_propagates=None, output_action_positive=None, "
        "ledger=None, global_constraint_satisfied=None, forced_disk_count=None, single_disk=None)",
        strip,
        f"BrokenTrajectoryConfig(strips=({strip},), bottom_disks=(), top_disks=())",
        "TrajectoryLedger(M=1, K=1, m0=0, m1=0, k=1, l=0, lhs=0, rhs=0, telescoped=True)",
        "TrajectoryVerdict(hypotheses_ok=False, hypothesis_violations=('strip 0 is not rigid',), "
        "ledger=None, global_constraint_satisfied=None, forced_component_count=None, "
        "unbroken=None, no_attached_disks=None)",
        "TreeSearchBounds(max_disks=2, max_inputs_per_disk=3, degree_range=(-3, 4), "
        "max_configs=50000000, materialize_stride=20000)",
        "TrajectorySearchBounds(max_strips=2, max_marked_per_strip=2, max_total_marked=3, "
        "max_attached_disks=2, max_inputs_per_disk=2, degree_range=(-3, 4), "
        "max_configs=50000000, materialize_stride=20000)",
        "CounterexampleReport(mode='trees', bounds={'max_disks': 1}, estimated_configs=4, "
        "enumerated=4, in_window=3, telescope_failures=0, materialized=1, counterexamples=[])",
    ]


def test_pearly_records_equal_and_hash_by_fields():
    for rec, same, other in _pearly_records():
        assert rec == same and not rec != same
        assert rec != other
    # the report holds a dict and a list, so only the frozen records hash
    for rec, same, other in _pearly_records()[:-1]:
        assert hash(rec) == hash(same)
        assert len({rec, same, other}) == 2


def test_pearly_records_build_by_position_or_keyword():
    for rec, _, _ in _pearly_records():
        names = type(rec).__match_args__
        values = [getattr(rec, name) for name in names]
        assert type(rec)(*values) == rec
        assert type(rec)(**dict(zip(names, values))) == rec


def test_pearly_records_are_tuples_of_their_fields():
    for rec, _, _ in _pearly_records():
        assert isinstance(rec, tuple)
        assert rec == tuple(getattr(rec, name) for name in type(rec).__match_args__)


def test_frozen_pearly_records_refuse_assignment():
    # the search report included: each search builds it once
    for rec, _, _ in _pearly_records():
        field = type(rec).__match_args__[0]
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
        with pytest.raises(AttributeError):
            rec.extra = 1


@pytest.mark.parametrize("make,message", [
    (lambda: TreeSearchBounds(0), "max_disks must be at least 1, got 0"),
    (lambda: TreeSearchBounds(max_disks=-1), "max_disks must be at least 1, got -1"),
    (lambda: TreeSearchBounds(materialize_stride=0),
     "materialize_stride must be at least 1, got 0"),
    (lambda: TreeSearchBounds(max_inputs_per_disk=-1),
     "max_inputs_per_disk must be nonnegative, got -1"),
    (lambda: TreeSearchBounds(degree_range=(1, 0)), "empty degree range [1, 0]"),
    (lambda: TreeSearchBounds(max_configs=-1), "max_configs must be at least 1, got -1"),
    (lambda: TrajectorySearchBounds(0), "max_strips must be at least 1, got 0"),
    (lambda: TrajectorySearchBounds(max_marked_per_strip=-1),
     "max_marked_per_strip must be nonnegative, got -1"),
    (lambda: TrajectorySearchBounds(max_total_marked=-2),
     "max_total_marked must be nonnegative, got -2"),
    (lambda: TrajectorySearchBounds(max_attached_disks=-1),
     "max_attached_disks must be nonnegative, got -1"),
    (lambda: TrajectorySearchBounds(max_inputs_per_disk=-1),
     "max_inputs_per_disk must be nonnegative, got -1"),
    (lambda: TrajectorySearchBounds(materialize_stride=0),
     "materialize_stride must be at least 1, got 0"),
    (lambda: TrajectorySearchBounds(degree_range=(2, -2)), "empty degree range [2, -2]"),
    (lambda: TrajectorySearchBounds(max_configs=0), "max_configs must be at least 1, got 0"),
])
def test_search_bounds_refusal_texts(make, message):
    with pytest.raises(InputError) as exc:
        make()
    assert str(exc.value) == message


def test_counterexample_report_ok_needs_no_failures_and_no_counterexamples():
    assert _report().ok
    assert not _report(telescope_failures=1).ok
    assert not _report(counterexamples=[{"disks": 2}]).ok

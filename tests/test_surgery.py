"""Surgery algebras: quotients, shape validation, and the inductive
augmentation extension."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

import cedga.surgery
from cedga import (Augmentation, ChordRole, Dga, GenerationBudgetError, NcPoly,
                   PreconditionError, QuotientError, SurgeryAlgebra, ValidationReport,
                   check_augmentation, construct_surgery_augmentation,
                   enumerate_augmentations, quotient_order_reversing,
                   random_surgery_instance, validate_surgery_shape,
                   verify_certificate)
from cedga.surgery import SurgeryCertificate
from cedga.textio import DgaDocument, serialize_dga

INSTANCE_DIGEST = "c059412dc1b6038b4be1e2954439eab77b390160f6a8513cd907ff973e2ce910"


def _hand_k2(p=2, alpha_name="x1"):
    """Two cocores, one hook/transit pair, base coefficient on the connector."""
    gens = [
        ("x1", 0, Fraction(1, 50), "reeb"),
        ("a1", 0, Fraction(1, 1000), "a"),
        ("a2", 0, Fraction(1, 1000), "a"),
        ("c1", 0, 1, "c"),
        ("b1", -1, 2, "b"),
    ]
    diffs = {"b1": [(1, (alpha_name, "a1")), (1, ("a2", "c1"))]}
    dga = Dga.build(p, gens=gens, diffs=diffs)
    roles = {"a1": ChordRole("a", 1), "a2": ChordRole("a", 2),
             "b1": ChordRole("b", 1, 2, 1), "c1": ChordRole("c", 1, 2, 1)}
    return SurgeryAlgebra(dga, roles)


# -- quotient -----------------------------------------------------------------


def test_quotient_no_marks_is_identity():
    dga = Dga.build(2, gens=[("x", 0, 1), ("y", -1, 2)],
                    diffs={"y": [(1, ("x",))]})
    q = quotient_order_reversing(dga, ())
    assert list(q.generators) == ["x", "y"]
    assert q.differential_of("y") == dga.differential_of("y")


def test_quotient_deletes_marked_monomials():
    dga = Dga.build(2,
                    gens=[("q", 0, 1), ("r", 1, 2), ("s", 1, 3), ("g", 0, 7)],
                    diffs={"g": [(1, ("q", "r")), (1, ("s",))]})
    result = quotient_order_reversing(dga, ("q",))
    assert "q" not in result.generators
    assert result.differential_of("g").terms == {("s",): 1}


def test_quotient_drops_marked_generators_with_differentials():
    # d q = r with both marked: the ideal is closed, and q's differential goes with q
    dga = Dga.build(2, gens=[("q", -1, 2), ("r", -2, 1), ("s", 0, Fraction(1, 2))],
                    diffs={"q": [(1, ("r",))]})
    result = quotient_order_reversing(dga, ("q", "r"))
    assert list(result.generators) == ["s"]
    assert result.nonzero_differentials() == {}


def test_quotient_rejects_non_closed_ideal():
    dga = Dga.build(2, gens=[("q", -1, 1), ("s", 0, Fraction(1, 2))],
                    diffs={"q": [(1, ("s",))]})
    with pytest.raises(QuotientError) as exc:
        quotient_order_reversing(dga, ("q",))
    assert "s" in exc.value.report.violations[0].detail


def test_quotient_preserves_d_squared():
    rng = random.Random(2)
    for _ in range(40):
        S = random_surgery_instance(3, max_chords_per_pair=2, seed=rng.randrange(999))
        dga = S.dga
        assert dga.validate_d_squared().ok
        # marking any closed generator generates a d-closed ideal
        closed = [n for n in dga.names() if dga.differential_of(n).is_zero]
        marked = rng.sample(closed, min(2, len(closed)))
        result = quotient_order_reversing(dga, marked)
        assert result.validate_d_squared().ok


# -- shape validation ---------------------------------------------------------


def test_shape_base_case_valid():
    dga = Dga.build(2, gens=[("x", 0, 1), ("a1", 0, Fraction(1, 1000), "a")])
    S = SurgeryAlgebra(dga, {"a1": ChordRole("a", 1)})
    assert validate_surgery_shape(S).ok


def test_shape_hand_case_valid():
    assert validate_surgery_shape(_hand_k2()).ok


def test_shape_flags_order_violation():
    gens = [
        ("a1", 0, Fraction(1, 1000), "a"),
        ("a2", 0, Fraction(1, 1000), "a"),
        ("c1", 0, 1, "c"), ("c2", 0, 3, "c"),
        ("b1", -1, 2, "b"), ("b2", -1, 4, "b"),
    ]
    diffs = {
        "b1": [(1, ("a2", "c1"))],
        "b2": [(1, ("a2", "c2"))],
        "c2": [(1, ("c1",))],       # fine: c1 has smaller action
        "c1": [],
    }
    dga = Dga.build(2, gens=gens, diffs=diffs)
    roles = {"a1": ChordRole("a", 1), "a2": ChordRole("a", 2),
             "b1": ChordRole("b", 1, 2, 1), "c1": ChordRole("c", 1, 2, 1),
             "b2": ChordRole("b", 1, 2, 2), "c2": ChordRole("c", 1, 2, 2)}
    assert validate_surgery_shape(SurgeryAlgebra(dga, roles)).ok

    diffs["c1"] = [(1, ("c2",))]   # references a larger-action transit chord
    diffs["c2"] = []
    dga_bad = Dga.build(2, gens=gens, diffs=diffs)
    report = validate_surgery_shape(SurgeryAlgebra(dga_bad, roles))
    assert any(v.kind == "surgery.shape" and "action-smaller" in v.detail
               for v in report)


def test_shape_flags_unit_coefficient():
    S = _hand_k2(p=3)
    dga = S.dga
    diffs = dict(dga.nonzero_differentials())
    diffs["b1"] = NcPoly.from_pairs(3, [(2, ("a2", "c1"))])
    doubled = SurgeryAlgebra(Dga(3, dga.generators.values(), diffs), S.roles)
    report = validate_surgery_shape(doubled)
    assert any("coefficient 2, expected 1" in v.detail for v in report)

    diffs["b1"] = NcPoly.from_pairs(3, [(1, ("x1", "a1"))])
    missing = SurgeryAlgebra(Dga(3, dga.generators.values(), diffs), S.roles)
    report = validate_surgery_shape(missing)
    assert any("missing distinguished monomial" in v.detail for v in report)


def test_structural_index_errors():
    dga = Dga.build(2, gens=[("a1", 0, 1, "a")])
    with pytest.raises(ValueError, match=r"\Aconnector index 2 out of range for k=1\Z"):
        SurgeryAlgebra(dga, {"a1": ChordRole("a", 2)})  # one connector, so k = 1
    with pytest.raises(ValueError):
        ChordRole("b", 1)  # hook roles need all indices


# -- the inductive extension ----------------------------------------------------


def test_extension_base_case():
    dga = Dga.build(2, gens=[("x", 0, 1), ("a1", 0, Fraction(1, 1000), "a")])
    S = SurgeryAlgebra(dga, {"a1": ChordRole("a", 1)})
    eb = Augmentation(2, {"x": 1})
    cert = construct_surgery_augmentation(S, eb)
    assert cert.ok
    assert cert.augmentation.value("x") == 1
    assert cert.augmentation.value("a1") == 1
    assert verify_certificate(S, cert, eb).ok


@pytest.mark.parametrize("p,alpha_value,expected", [
    (2, 1, 1),   # -1 = 1 over F_2
    (2, 0, 0),
    (3, 2, 1),   # -2 = 1 over F_3
])
def test_extension_hand_recursion(p, alpha_value, expected):
    S = _hand_k2(p=p)
    eb = Augmentation(p, {"x1": alpha_value})
    cert = construct_surgery_augmentation(S, eb)
    assert cert.ok
    assert cert.augmentation.value("c1") == expected
    assert verify_certificate(S, cert, eb).ok


def test_extension_respects_base_exactly():
    S = random_surgery_instance(3, max_chords_per_pair=3, seed=5)
    for eb in enumerate_augmentations(S.base_ce()):
        cert = construct_surgery_augmentation(S, eb)
        for name in S.base_names:
            assert cert.augmentation.value(name) == eb.value(name)


def test_extension_rejects_bad_preconditions():
    S = _hand_k2()
    bad_eb = Augmentation(2, {"b1": 1})  # supported outside the base algebra
    with pytest.raises(PreconditionError):
        construct_surgery_augmentation(S, bad_eb)


def test_extension_validates_each_algebra_once(monkeypatch):
    calls = {"shape": 0, "d_squared": 0}
    shape, d_squared = cedga.surgery.validate_surgery_shape, Dga.validate_d_squared

    def counted_shape(S):
        calls["shape"] += 1
        return shape(S)

    def counted_d_squared(self):
        calls["d_squared"] += 1
        return d_squared(self)

    monkeypatch.setattr(cedga.surgery, "validate_surgery_shape", counted_shape)
    monkeypatch.setattr(Dga, "validate_d_squared", counted_d_squared)
    S = _hand_k2()
    for value in (0, 1, 1):
        assert construct_surgery_augmentation(S, Augmentation(2, {"x1": value})).ok
    assert calls == {"shape": 1, "d_squared": 1}


def test_extension_splits_each_hook_once(monkeypatch):
    calls = {}
    split = cedga.surgery._split_hook_differential

    def counted_split(S, name, *rest):
        calls[name] = calls.get(name, 0) + 1
        return split(S, name, *rest)

    built = random_surgery_instance(3, 3, seed=5)
    hooks = sorted(n for n, role in built.roles.items() if role.type == "b")
    assert hooks
    monkeypatch.setattr(cedga.surgery, "_split_hook_differential", counted_split)
    S = SurgeryAlgebra(built.dga, built.roles)  # nothing cached yet
    assert validate_surgery_shape(S).ok
    augs = enumerate_augmentations(S.base_ce())
    for eb in (augs * 3)[:3]:
        assert construct_surgery_augmentation(S, eb).ok
    assert calls == {name: 1 for name in hooks}


def test_precondition_error_carries_report():
    S = _hand_k2()
    diffs = dict(S.dga.nonzero_differentials())
    diffs["b1"] = NcPoly.from_pairs(2, [(1, ("x1", "a1"))])
    bad_shape = SurgeryAlgebra(Dga(2, S.dga.generators.values(), diffs), S.roles)
    with pytest.raises(PreconditionError) as exc:
        construct_surgery_augmentation(bad_shape, Augmentation(2))
    assert exc.value.headline == "1 structural violation(s):"
    assert [(v.kind, v.subject) for v in exc.value.report] == [("surgery.shape", "b1")]
    exc.value.report.add("extra", "b1", "a caller's mutation")
    assert len(bad_shape.precondition_report) == 1  # the report is a copy

    with pytest.raises(PreconditionError) as exc:
        construct_surgery_augmentation(S, Augmentation(2, {"b1": 1}))
    assert exc.value.headline == "base augmentation is invalid:"
    assert [(v.kind, v.subject) for v in exc.value.report] == [
        ("augmentation.support", "b1")]


def test_extension_flags_degree_conflict():
    # transit chord of nonzero degree whose recursion value would be nonzero:
    # the value is forced to 0 and the conflict is flagged, so the certificate
    # honestly fails instead of silently coercing
    gens = [
        ("x1", 1, Fraction(1, 50), "reeb"),
        ("a1", 0, Fraction(1, 1000), "a"),
        ("a2", 0, Fraction(1, 1000), "a"),
        ("c1", 1, 1, "c"),
        ("b1", 0, 2, "b"),
    ]
    dga = Dga.build(2, gens=gens,
                    diffs={"b1": [(1, ("x1", "a1")), (1, ("a2", "c1"))]})
    roles = {"a1": ChordRole("a", 1), "a2": ChordRole("a", 2),
             "b1": ChordRole("b", 1, 2, 1), "c1": ChordRole("c", 1, 2, 1)}
    S = SurgeryAlgebra(dga, roles)
    assert validate_surgery_shape(S).ok
    cert = construct_surgery_augmentation(S, Augmentation(2))  # x1 has degree 1
    assert cert.ok  # zero demand on c1: no conflict when the base value is 0

    # a degree-0 base letter with value 1 forces a nonzero demand on c1
    gens[0] = ("x1", 0, Fraction(1, 50), "reeb")
    dga2 = Dga.build(2, gens=gens,
                     diffs={"b1": [(1, ("x1", "a1")), (1, ("a2", "c1"))]})
    S2 = SurgeryAlgebra(dga2, roles)
    cert2 = construct_surgery_augmentation(S2, Augmentation(2, {"x1": 1}))
    assert cert2.flags and "degree" in cert2.flags[0]
    assert not cert2.ok
    assert not cert2.verification.ok  # the forced 0 cannot satisfy the recursion


def test_verify_flags_injected_connector_value():
    S = _hand_k2()
    eb = Augmentation(2, {"x1": 1})
    cert = construct_surgery_augmentation(S, eb)
    tampered_values = dict(cert.augmentation.values)
    tampered_values.pop("a1")
    tampered = SurgeryCertificate(Augmentation(2, tampered_values),
                                  cert.verification, cert.conditions)
    report = verify_certificate(S, tampered, eb)
    assert any(v.kind == "surgery.connector_value" and v.subject == "a1"
               for v in report)


def test_verify_reports_residual_on_mutated_algebra():
    S = _hand_k2()
    eb = Augmentation(2, {"x1": 1})
    cert = construct_surgery_augmentation(S, eb)
    # mutate the base: add u, v with d(v) = u, d(u) = 1 so d^2(v) = 1
    gens = list(S.dga.generators.values())
    gens += [type(gens[0])("u", -1, Fraction(1, 60), gens[0].kind),
             type(gens[0])("v", -2, Fraction(1, 30), gens[0].kind)]
    diffs = dict(S.dga.nonzero_differentials())
    diffs["u"] = NcPoly.unit(2)
    diffs["v"] = NcPoly.generator(2, "u")
    mutated = SurgeryAlgebra(Dga(2, gens, diffs), S.roles)
    report = verify_certificate(mutated, cert, eb)
    assert any(v.kind == "certificate.residual" and v.subject == "u"
               for v in report)


def test_order_reversing_condition_recorded():
    S = _hand_k2()
    eb = Augmentation(2, {"x1": 1})
    cert = construct_surgery_augmentation(S, eb, order_reversing=("q7", "q9"))
    assert cert.order_reversing == ("q7", "q9")
    assert verify_certificate(S, cert, eb).ok


def test_extension_independent_of_declaration_order():
    S = random_surgery_instance(3, max_chords_per_pair=3, seed=12)
    eb = enumerate_augmentations(S.base_ce())[0]
    cert = construct_surgery_augmentation(S, eb)
    reordered = SurgeryAlgebra(
        Dga(S.dga.p, list(S.dga.generators.values())[::-1],
            S.dga.nonzero_differentials(), S.dga.d_degree),
        S.roles)
    cert2 = construct_surgery_augmentation(reordered, eb)
    assert cert.augmentation == cert2.augmentation


# -- instance generation --------------------------------------------------------


def test_random_instance_deterministic():
    a = random_surgery_instance(3, max_chords_per_pair=3, seed=42)
    b = random_surgery_instance(3, max_chords_per_pair=3, seed=42)
    doc_a = serialize_dga(DgaDocument(a.dga, (), a.roles))
    doc_b = serialize_dga(DgaDocument(b.dga, (), b.roles))
    assert doc_a == doc_b


def test_random_instances_validate_and_extend():
    for seed in range(12):
        for k in (1, 2, 3):
            S = random_surgery_instance(k, max_chords_per_pair=2, seed=seed)
            assert validate_surgery_shape(S).ok
            assert S.dga.validate_all().ok
            base = S.base_ce()
            augs = enumerate_augmentations(base)
            assert augs
            for eb in augs:
                assert check_augmentation(base, eb).ok
                cert = construct_surgery_augmentation(S, eb)
                assert cert.ok
                assert verify_certificate(S, cert, eb).ok


def test_random_instances_pass_without_retry():
    # one candidate per seed: a failing one raises GenerationBudgetError
    for p in (2, 3):
        for k in range(1, 7):
            for chords in range(1, 7):
                for seed in range(5):
                    S = random_surgery_instance(k, chords, seed, p)
                    assert S.precondition_report.ok and S.dga.validate_grading().ok


def test_random_instances_pinned():
    # every generated algebra, byte for byte: its text, role order, differential
    # order and terms, and repr, over a wider grid than the mutation sweep uses
    digest = hashlib.sha256()
    for k, chords, p, seed in itertools.product(range(1, 7), range(5), (2, 3, 5), range(4)):
        S = random_surgery_instance(k, chords, seed, p)
        for part in (serialize_dga(DgaDocument(S.dga, (), S.roles)),
                     repr(list(S.roles.items())),
                     repr([(name, list(poly.terms.items()))
                           for name, poly in S.dga.nonzero_differentials().items()]),
                     repr(S)):
            digest.update(part.encode() + b"\n")
    assert digest.hexdigest() == INSTANCE_DIGEST


def test_random_instance_that_fails_validation_raises(monkeypatch):
    failing = ValidationReport()
    failing.add("grading", "x", "forced")
    monkeypatch.setattr(Dga, "validate_grading", lambda self: failing)
    with pytest.raises(GenerationBudgetError, match="invalid instance for k=2, seed=4"):
        random_surgery_instance(2, seed=4)


def test_random_instance_rejects_bad_k():
    with pytest.raises(ValueError):
        random_surgery_instance(0)

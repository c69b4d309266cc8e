"""Every diagnostic the surgery module emits, pinned by its exact text, and a
seeded sweep over mutated surgery algebras whose shape reports, certificates
and certificate rechecks are pinned by one digest."""

import hashlib
import random
from fractions import Fraction

import pytest

from cedga import (Augmentation, ChordRole, Dga, Generator, GeneratorKind, InputError, NcPoly,
                   PreconditionError, QuotientError, SurgeryAlgebra,
                   construct_surgery_augmentation, enumerate_augmentations,
                   quotient_order_reversing, random_surgery_instance,
                   validate_surgery_shape, verify_certificate)
from cedga.surgery import SurgeryCertificate
from cedga.textio import parse_dga

K3_GENS = """gen x 0 1/50 reeb
gen a1 0 1/1000 a
gen a2 0 1/1000 a
gen a3 0 1/1000 a
gen c1 0 1/1 c
gen c2 0 3/1 c
gen c3 0 5/1 c
gen b1 -1 2/1 b
gen b2 -1 4/1 b
gen b3 -1 6/1 b
"""
K3_ROLES = {"a1": "a 1", "a2": "a 2", "a3": "a 3", "b1": "b 1 2 1", "c1": "c 1 2 1",
            "b2": "b 1 3 1", "c2": "c 1 3 1", "b3": "b 2 3 1", "c3": "c 2 3 1"}
K3_DIFFS = {"b1": "a2 c1 + x a1", "b2": "a3 c2 + x c1", "b3": "a3 c3"}


def k3(p=2, gens="", diffs=None, roles=None):
    """A valid three-cocore algebra (one hook/transit pair per source/target
    pair, one lower-transit summand in d(b2)); ``gens`` lines replace
    generators of the same name, ``diffs`` and ``roles`` entries replace
    differentials and role lines (an empty value drops one)."""
    lines = {line.split()[1]: line for line in (K3_GENS + gens).splitlines()}
    text = f"field {p}\n" + "".join(f"{line}\n" for line in lines.values())
    text += "".join(f"surgery {n} {v}\n" for n, v in dict(K3_ROLES, **(roles or {})).items()
                    if v)
    text += "".join(f"d {n} = {v}\n" for n, v in dict(K3_DIFFS, **(diffs or {})).items()
                    if v)
    doc = parse_dga(text)
    return SurgeryAlgebra(doc.dga, doc.roles)


def shape_lines(S):
    return [str(v) for v in validate_surgery_shape(S)]


@pytest.mark.parametrize("change,expected", [
    ({}, []),
    # hook differentials, one line per branch of the split
    (dict(diffs={"b1": "a2 c1 + 1"}), ["[surgery.shape] b1: differential contains the unit word"]),
    (dict(diffs={"b1": "a2 c1 + x x"}),
     ["[surgery.shape] b1: monomial x x does not end in a cocore chord"]),
    (dict(diffs={"b1": "a2 c1 + x a2"}),
     ["[surgery.shape] b1: connector summand ends in index 2, expected 1"]),
    (dict(diffs={"b1": "a2 c1 + c1 a1"}),
     ["[surgery.shape] b1: connector summand c1 a1 has non-base coefficient"]),
    (dict(diffs={"b3": "a3 c3 + b1"}),
     ["[surgery.filtration] b3: differential leaves level 2 via b1",
      "[surgery.shape] b3: hook summand targets source 1, expected 2"]),
    (dict(diffs={"b1": "a2 c1 + b2"}),
     ["[surgery.shape] b1: hook summand b2 is not action-smaller than b1",
      "[action] b1: monomial b2 has action 4, not below 2"]),
    (dict(diffs={"b2": "a3 c2 + x c1 + a1 b1"}),
     ["[surgery.shape] b2: hook summand a1 b1 has non-base coefficient"]),
    (dict(diffs={"b1": "a2 c1 + c3"}),
     ["[surgery.shape] b1: transit summand targets source 2, expected 1",
      "[action] b1: monomial c3 has action 5, not below 2"]),
    (dict(diffs={"b1": "x a1 + x c1"}),
     ["[surgery.shape] b1: distinguished monomial x c1 must be a2 c1",
      "[surgery.shape] b1: missing distinguished monomial a2 c1"]),
    (dict(diffs={"b1": "a2 c1 + c2"}),
     ["[surgery.shape] b1: transit summand c2 is not action-smaller than b1",
      "[action] b1: monomial c2 has action 3, not below 2"]),
    (dict(diffs={"b2": "a3 c2 + a1 c1"}),
     ["[surgery.shape] b2: transit summand a1 c1 has coefficient outside the "
      "level-2 subalgebra"]),
    (dict(p=3, diffs={"b1": "2 a2 c1"}),
     ["[surgery.shape] b1: distinguished monomial has coefficient 2, expected 1"]),
    # transit differentials
    (dict(diffs={"c2": "1"}), ["[surgery.shape] c2: differential contains the unit word"]),
    (dict(diffs={"c2": "x"}),
     ["[surgery.shape] c2: monomial x does not end in a source-1 transit chord"]),
    (dict(diffs={"c2": "c3"}),
     ["[surgery.shape] c2: monomial c3 does not end in a source-1 transit chord",
      "[action] c2: monomial c3 has action 5, not below 3"]),
    (dict(diffs={"c1": "c2"}),
     ["[surgery.shape] c1: transit summand c2 is not action-smaller than c1",
      "[action] c1: monomial c2 has action 3, not below 1"]),
    (dict(diffs={"c1": "x c1"}),
     ["[surgery.shape] c1: transit summand c1 is not action-smaller than c1",
      "[action] c1: monomial x c1 has action 51/50, not below 1"]),
    (dict(diffs={"c2": "a1 c1"}),
     ["[surgery.shape] c2: monomial a1 c1 has coefficient outside the level-2 subalgebra"]),
    (dict(diffs={"c2": "x c1"}), []),
    # roles, connectors, pairing, actions and filtration
    (dict(gens="gen c1 0 1/1 reeb\n"),
     ["[surgery.kind] c1: declared kind 'reeb' does not match role 'c'"]),
    (dict(gens="gen a2 1 1/1000 a\n"), ["[surgery.connector] a2: degree 1, expected 0"]),
    (dict(gens="gen a2 0 0/1 a\n"),
     ["[surgery.connector] a2: action 0 must be positive",
      "[surgery.connector] *: connector actions must agree, got 0, 1/1000"]),
    (dict(diffs={"a1": "x"}),
     ["[surgery.connector] a1: connector chords must be closed",
      "[action] a1: monomial x has action 1/50, not below 1/1000"]),
    (dict(roles={"b3": "b 2 3 2"}),
     ["[surgery.pairing] b3: hook chord (2, 3, 2) has no transit partner",
      "[surgery.pairing] c3: transit chord (2, 3, 1) has no hook partner"]),
    (dict(gens="gen c2 0 2/1 c\n"),
     ["[surgery.actions] c2: action 2 repeats that of b1"]),
    (dict(diffs={"x": "c1"}),
     ["[surgery.filtration] x: base differential uses cocore chord c1",
      "[action] x: monomial c1 has action 1, not below 1/50"]),
    (dict(diffs={"c3": "a1 c3"}),
     ["[surgery.filtration] c3: differential leaves level 2 via a1",
      "[surgery.shape] c3: transit summand c3 is not action-smaller than c3",
      "[action] c3: monomial a1 c3 has action 5001/1000, not below 5"]),
])
def test_shape_diagnostics_pinned(change, expected):
    assert shape_lines(k3(**change)) == expected


@pytest.mark.parametrize("roles,k,message", [
    ({"a1": "", "a2": "", "a3": ""}, 0, "need at least one cocore"),
    ({"a3": "a 4"}, 3, "connector index 4 out of range for k=3"),
    ({"a3": "a 2"}, 3, "duplicate connector index 2"),
    ({"b3": "b 3 2 1"}, 3, "chord 'b3' needs 1 <= i < j <= k, got i=3, j=2"),
    ({"c3": "c 2 3 0"}, 3, "chord 'c3' multiplicity must be >= 1"),
    ({"c3": "c 1 2 1"}, 3, "duplicate c-chord index (1, 2, 1)"),
    # two connectors make k = 2, so the chords that end at cocore 3 are refused
    ({"a3": ""}, 2, "chord 'b2' needs 1 <= i < j <= k, got i=1, j=3"),
])
def test_structural_errors_pinned(roles, k, message):
    # k, the number of cocores, is the number of connector roles the document keeps
    kept = dict(K3_ROLES, **roles).values()
    assert sum(value.startswith("a ") for value in kept) == k
    with pytest.raises(InputError) as exc:
        k3(roles=roles)
    assert str(exc.value) == message


def test_quotient_witness_pinned():
    dga = Dga.build(2, gens=[("q", -1, 1), ("r", -2, 2), ("s", 0, Fraction(1, 2))],
                    diffs={"q": [(1, ("s",)), (1, ())], "r": [(1, ("q",))]})
    with pytest.raises(QuotientError) as exc:
        quotient_order_reversing(dga, ("q", "r"))
    assert str(exc.value) == ("[quotient.ideal] q: monomial 1 of d(q) contains no marked letter\n"
                              "[quotient.ideal] q: monomial s of d(q) contains no marked letter")


def test_precondition_errors_pinned():
    with pytest.raises(PreconditionError) as exc:
        construct_surgery_augmentation(k3(diffs={"c2": "1"}), Augmentation(2))
    assert str(exc.value) == ("2 structural violation(s):\n"
                              "[surgery.shape] c2: differential contains the unit word\n"
                              "[d_squared] b2: d(d(b2)) = a3")
    with pytest.raises(PreconditionError) as exc:
        construct_surgery_augmentation(k3(), Augmentation(2, {"c1": 1}))
    assert str(exc.value) == ("base augmentation is invalid:\n"
                              "[augmentation.support] c1: value 1 on undeclared generator")


def test_certificate_diagnostics_pinned():
    # a degree-1 transit chord whose recursion demands 1: flagged, forced to 0,
    # and the forced value leaves a residual on its hook
    S = k3(gens="gen c1 1 1/1 c\ngen b1 0 2/1 b\n")
    eb = Augmentation(2, {"x": 1})
    cert = construct_surgery_augmentation(S, eb, order_reversing=("x", "x", "c3"))
    assert cert.flags == ("recursion demands 1 on c1 of degree 1; value forced to 0",)
    assert [str(v) for v in cert.verification] == [
        "[surgery.residual] b1: extension sends d(b1) to 1"]
    assert [str(v) for v in cert.conditions] == [
        "[surgery.order_reversing] x: order-reversing chord must map to 0, got 1"]
    assert cert.order_reversing == ("x", "c3")
    assert list(cert.augmentation.values.items()) == [
        ("x", 1), ("a1", 1), ("a2", 1), ("a3", 1)]
    assert not cert.ok
    assert [str(v) for v in verify_certificate(S, cert, eb)] == [
        "[certificate.residual] b1: certificate augmentation sends d(b1) to 1, "
        "d(b1) = a2 c1 + x a1",
        "[surgery.order_reversing] x: order-reversing chord must map to 0, got 1"]


def test_verify_diagnostics_pinned():
    S = k3()
    eb = Augmentation(2, {"x": 1})
    cert = construct_surgery_augmentation(S, eb)
    assert cert.ok and verify_certificate(S, cert, eb).ok
    values = dict(cert.augmentation.values, zz=1, b2=1)
    del values["a2"], values["x"]
    tampered = SurgeryCertificate(Augmentation(2, values), cert.verification,
                                  cert.conditions, order_reversing=("c2",))
    report = verify_certificate(S, tampered, Augmentation(2, {"x": 1, "y": 1}))
    assert [str(v) for v in report] == [
        "[certificate.support] b2: value 1 on generator of degree -1",
        "[certificate.support] zz: value 1 on undeclared generator",
        "[certificate.residual] b2: certificate augmentation sends d(b2) to 1, "
        "d(b2) = a3 c2 + x c1",
        "[surgery.base_restriction] x: extension sends x to 0, base augmentation has 1",
        "[surgery.base_restriction] y: base augmentation supported outside the base algebra",
        "[surgery.connector_value] a2: connector chord must map to 1, got 0",
        "[surgery.order_reversing] c2: order-reversing chord must map to 0, got 1"]


def test_random_instance_refusal_pinned():
    with pytest.raises(ValueError, match=r"\Ak must be >= 1\Z"):
        random_surgery_instance(0)


# -- the mutation sweep ---------------------------------------------------------

SWEEP_DIGEST = "207627d120403b4f7afc81f7cf0ef8dfc8f3175b88e992766e8eb5aa7a3a3a29"
ROLE_KINDS = (GeneratorKind.REEB_CHORD, GeneratorKind.SURGERY_A, GeneratorKind.SURGERY_B,
              GeneratorKind.SURGERY_C)


def _mutate(rng, S):
    """One to three random edits of an algebra: a chord's kind or action, a
    generator's degree, a differential term added, dropped, doubled or with
    one letter changed to a chord, or a hook/transit role retyped, re-indexed or
    dropped.  Every word uses declared names only."""
    p = S.dga.p
    gens = dict(S.dga.generators)
    diffs = {name: dict(poly.terms) for name, poly in S.dga.nonzero_differentials().items()}
    roles = dict(S.roles)
    names, chords = list(gens), sorted(roles)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(8)
        name = rng.choice(chords if op in (0, 2, 7) else names)
        terms = diffs.setdefault(name, {})
        words = sorted(terms)
        gen = gens[name]
        if op == 0:
            gens[name] = Generator(name, gen.degree, gen.action, rng.choice(ROLE_KINDS))
        elif op == 1:
            gens[name] = Generator(name, rng.choice((-1, 0, 1)), gen.action, gen.kind)
        elif op == 2:
            gens[name] = Generator(name, gen.degree, rng.choice(
                (gens[rng.choice(names)].action, Fraction(0), Fraction(rng.randint(1, 40), 4))),
                gen.kind)
        elif op == 3:
            word = tuple(rng.choice(names) for _ in range(rng.randint(0, 2)))
            word += (rng.choice(chords),) if rng.random() < 0.6 else ()
            terms[word] = terms.get(word, 0) + rng.randint(1, p - 1)
        elif words and op == 4:
            del terms[rng.choice(words)]
        elif words and op == 5:
            terms[rng.choice(words)] *= 2
        elif op == 6 and any(words):
            word = rng.choice([w for w in words if w])
            pos, coeff = rng.randrange(len(word)), terms.pop(word)
            word = word[:pos] + (rng.choice(chords),) + word[pos + 1:]
            terms[word] = terms.get(word, 0) + coeff
        elif op == 7 and name in roles and roles[name].type != "a":
            role = roles[name]
            edit = rng.randrange(4)
            if edit == 0:
                del roles[name]
            elif edit == 1:
                roles[name] = ChordRole("b" if role.type == "c" else "c", role.i, role.j, role.m)
            elif edit == 2:
                roles[name] = ChordRole(role.type, role.i, role.j, role.m + 1)
            else:
                roles[name] = ChordRole(role.type, role.i, rng.randint(1, S.k), role.m)
    dga = Dga(p, gens.values(), {n: NcPoly(p, t) for n, t in diffs.items()}, S.dga.d_degree)
    return SurgeryAlgebra(dga, roles)


def _lines(report):
    return [str(v) for v in report]


def sweep(instances=120, mutants_per_instance=14):
    """Mutate seeded instances and record, for each mutant, its shape
    report, the recheck of the unmutated algebra's certificate (sometimes
    tampered) against it, and its own certificates with their rechecks: one
    from the unmutated base augmentation and, when the mutant passes its
    preconditions, up to three from its own base augmentations.
    Returns (recorded lines, mutated algebras built, violation kinds seen,
    certificates built)."""
    rng = random.Random(15)
    lines, built, kinds, certificates = [], 0, set(), 0
    for _ in range(instances):
        S = random_surgery_instance(rng.randint(2, 4), rng.randint(1, 3),
                                    rng.randrange(10 ** 6), rng.choice((2, 3)))
        eb0 = rng.choice(enumerate_augmentations(S.base_ce()))
        cert0 = construct_surgery_augmentation(S, eb0)
        for _ in range(mutants_per_instance):
            lines.append(f"-- {S!r}")
            try:
                mutant = _mutate(rng, S)
            except InputError as exc:
                lines.append(f"refused: {exc}")
                continue
            built += 1
            shape = validate_surgery_shape(mutant)
            kinds.update(v.kind for v in shape)
            lines += _lines(shape)
            values = dict(cert0.augmentation.values)
            if rng.random() < 0.3:
                values[rng.choice(list(mutant.dga.generators) + ["zz"])] = rng.randint(0, 2)
            order_reversing = tuple(rng.sample(sorted(mutant.dga.generators), rng.randint(0, 1)))
            lines += _lines(verify_certificate(mutant, SurgeryCertificate(
                Augmentation(S.dga.p, values), cert0.verification, cert0.conditions,
                order_reversing=order_reversing), eb0))
            bases = [eb0]
            if mutant.precondition_report.ok:
                bases += enumerate_augmentations(mutant.base_ce())[:3]
            for eb in bases:
                try:
                    cert = construct_surgery_augmentation(mutant, eb, order_reversing)
                except PreconditionError as exc:
                    lines.append(str(exc))
                    continue
                certificates += 1
                lines.append(repr((list(cert.augmentation.values.items()), cert.flags,
                                   cert.order_reversing, cert.ok)))
                lines += _lines(cert.verification) + _lines(cert.conditions)
                lines += _lines(verify_certificate(mutant, cert, eb))
    return lines, built, kinds, certificates


def test_mutation_sweep_pinned():
    lines, built, kinds, certificates = sweep()
    assert built >= 1500 and certificates >= 1500
    assert {"surgery.kind", "surgery.connector", "surgery.pairing", "surgery.actions",
            "surgery.filtration", "surgery.shape"} <= kinds
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SWEEP_DIGEST

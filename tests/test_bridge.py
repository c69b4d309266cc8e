"""Count tables and the cochain/augmentation bridge."""

import itertools
import random
import sys
from fractions import Fraction

import pytest

import cedga.augment
import cedga.field
import cedga.bridge
from cedga import (Augmentation, BoundingCochain, ChordMap, DiskCountTable,
                   Generator, GeneratorKind, NcPoly, StripCountTable, SupportError,
                   b_from_eps, check_augmentation, check_squared_zero,
                   deformed_differential, derive_ce, enumerate_augmentations, eps_from_b,
                   mc_residual, verify_mc_aug_identity)

DP = GeneratorKind.DOUBLE_POINT_POS
MIXED = GeneratorKind.MIXED_CHORD


def dp(name, degree, action):
    return Generator(name, degree, Fraction(action), DP)


def table(points, entries, p=2):
    return DiskCountTable.build(p, points, entries)


def test_build_filters():
    points = [dp("y", 2, 2), dp("x", 1, "1/4"), dp("z", 2, "1/8")]
    t = table(points, [("y", ("x",), 1),       # kept
                       ("y", ("x", "x", "x"), 1),  # degree: 2-3 != 2-3? equal; energy 3/4 ok -> kept
                       ("z", ("x", "x"), 1),   # energy 1/8 <= 1/2 -> rejected
                       ("y", ("y",), 1)])      # degree 2-2=0 != 2-1 -> rejected
    assert t.counts == {"y": {("x",): 1, ("x", "x", "x"): 1}}
    reasons = [r.reason for r in t.rejected]
    assert any("action" in r for r in reasons)
    assert any("degree" in r for r in reasons)


def reference_build(p, points, entries):
    """The load filters with Fraction action sums: the slow oracle for the
    integer filter of DiskCountTable.build."""
    by_name = {g.name: g for g in points}
    counts, rejected = {}, []
    for output, word, coeff in entries:
        coeff %= p
        if not coeff:
            continue
        entry = f"({output}; {', '.join(word)})"
        out = by_name[output]
        in_degree = sum(by_name[n].degree for n in word)
        in_action = sum((by_name[n].action for n in word), 0)
        if out.degree - in_degree != 2 - len(word):
            rejected.append((entry, f"degree {out.degree} - {in_degree} != 2 - {len(word)}"))
        elif out.action <= in_action:
            rejected.append((entry, f"action {out.action} not above input total {in_action}"))
        else:
            words = counts.setdefault(output, {})
            words[word] = (words.get(word, 0) + coeff) % p
            if not words[word]:
                del words[word]
                if not words:
                    del counts[output]
    return counts, rejected


def test_build_filters_match_fraction_reference():
    rng = random.Random(10)
    denominators = [1, 2, 3, 7, 41, 97, 100, 6, 1000]
    kept = by_action = 0
    for _ in range(1500):
        p = rng.choice([2, 3, 5])
        points = []
        for i in range(rng.randint(1, 6)):
            den = rng.choice(denominators)
            points.append(dp(f"g{i}", rng.randint(-1, 3), Fraction(rng.randint(1, 3 * den), den)))
        entries = []
        for _ in range(rng.randint(0, 10)):
            word = tuple(rng.choice(points).name for _ in range(rng.randint(0, 4)))
            # mostly an output that passes the degree filter, so the energy filter decides
            want = 2 - len(word) + sum(g.degree for n in word for g in points if g.name == n)
            fits = [g.name for g in points if g.degree == want]
            output = rng.choice(fits) if fits and rng.random() < 0.7 else rng.choice(points).name
            entries.append((output, word, rng.randint(-2, 5)))
        t = table(points, entries, p)
        counts, rejected = reference_build(p, points, entries)
        assert t.counts == counts
        assert [(r.entry, r.reason) for r in t.rejected] == rejected
        kept += sum(map(len, counts.values()))
        by_action += sum(reason.startswith("action") for _, reason in rejected)
    assert kept > 100 and by_action > 500


def test_build_energy_edge_and_rejection_text():
    points = [dp("x1", 1, "1/100"), dp("x2", 1, "1/50"), dp("z", 2, "1/50"), dp("w", 2, 2)]
    t = table(points, [("z", ("x1", "x2"), 1),   # 1/50 < 3/100
                       ("w", ("x2", "x1"), 2),
                       ("z", ("x1", "x1"), 1),   # 1/50 == 1/100 + 1/100: not above
                       ("w", (), 1)], p=3)
    assert t.counts == {"w": {("x2", "x1"): 2, (): 1}}
    assert [(r.entry, r.reason) for r in t.rejected] == [
        ("(z; x1, x2)", "action 1/50 not above input total 3/100"),
        ("(z; x1, x1)", "action 1/50 not above input total 1/50")]


def test_build_empty_word_input_total_is_zero():
    # a declared positive point cannot have action 0, so the record is built
    # past its validating constructor to reach the empty word's rejection text
    y = tuple.__new__(Generator, ("y", 2, Fraction(0), DP))
    t = table([y], [("y", (), 1)])
    assert [(r.entry, r.reason) for r in t.rejected] == [
        ("(y; )", "action 0 not above input total 0")]


def test_build_accepting_every_entry_adds_no_fractions(monkeypatch):
    points = [dp("y", 2, 3), dp("x1", 1, "1/2"), dp("x2", 1, "1/3"), dp("z", 2, "7/6"),
              dp("w", 3, 2)]
    entries = [("y", ("x1", "x2"), 1), ("y", ("x2", "x1", "x1"), 1), ("z", ("x2", "x2"), 1),
               ("w", ("z",), 1), ("y", (), 1)]

    def no_addition(self, other):
        raise AssertionError("Fraction addition in DiskCountTable.build")

    monkeypatch.setattr(Fraction, "__add__", no_addition)
    monkeypatch.setattr(Fraction, "__radd__", no_addition)
    t = table(points, entries)
    assert t.rejected == ()
    assert sum(map(len, t.counts.values())) == len(entries)


def test_build_drops_cancelled_outputs():
    points = [dp("y", 2, 2), dp("z", 2, 3), dp("x", 1, "1/4")]
    t = table(points, [("y", ("x",), 1), ("z", ("x",), 1), ("y", ("x",), 1)])
    assert t.counts == {"z": {("x",): 1}}
    assert t.outputs() == ["z"]
    assert derive_ce(t).differential_of("y").is_zero


def test_build_rejects_undeclared_and_bad_points():
    with pytest.raises(ValueError):
        table([dp("y", 2, 1)], [("y", ("ghost",), 1)])
    with pytest.raises(ValueError):
        DiskCountTable.build(2, [Generator("y", 2, 1, GeneratorKind.REEB_CHORD)], [])


def test_declaration_message_text():
    c, x, t = Generator("c", 0, -1, MIXED), dp("x", 1, "1/5"), dp("t", 1, "1/7")
    y = Generator("y", 1, 1, GeneratorKind.REEB_CHORD)
    cases = [
        (lambda: DiskCountTable.build(2, [y], []),
         "'y' must be a positive double point, got GeneratorKind.REEB_CHORD"),
        (lambda: DiskCountTable.build(2, [x, x], []), "duplicate double point 'x'"),
        (lambda: StripCountTable.build(2, [y], [], [], []),
         "chord 'y' must have the mixed kind"),
        (lambda: StripCountTable.build(2, [c, c], [], [], []), "duplicate chord 'c'"),
        (lambda: StripCountTable.build(2, [c], [x], [y], []),
         "'y' must be a positive double point"),
        (lambda: StripCountTable.build(2, [c], [x, x], [], []), "duplicate generator 'x'"),
        (lambda: StripCountTable.build(2, [c], [], [dp("c", 1, 1)], []),
         "duplicate generator 'c'"),
        (lambda: StripCountTable.build(2, [c], [x], [t], [("c", "zz", (), (), 1)]),
         "strip entry references undeclared chord 'zz'"),
        (lambda: StripCountTable.build(2, [c], [x], [t], [("c", "c", ("t",), (), 1)]),
         "strip entry references 't', not a bottom double point"),
        (lambda: StripCountTable.build(2, [c], [x], [t], [("c", "c", (), ("x",), 1)]),
         "strip entry references 'x', not a top double point"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message
    # a double point may sit on both sides
    assert list(StripCountTable.build(2, [c], [x], [x], []).dp_top) == ["x"]


def test_derive_ce_empty_table():
    t = table([dp("x", 1, 1)], [])
    ce = derive_ce(t)
    assert ce.differential_of("x").is_zero
    assert ce.generator("x").degree == 0  # 1 - 1


def test_derive_ce_degrees_and_words():
    t = table([dp("y", 2, 3), dp("x1", 1, "1/2"), dp("x2", 1, "1/3")],
              [("y", ("x1", "x2"), 1)])
    ce = derive_ce(t)
    assert ce.generator("y").degree == -1
    assert ce.generator("x1").degree == 0
    assert ce.differential_of("y").terms == {("x1", "x2"): 1}
    assert ce.generator("y").action == 3


def test_derive_ce_constant_term():
    t = table([dp("y", 2, 1)], [("y", (), 1)])
    assert derive_ce(t).differential_of("y").terms == {(): 1}


def test_derived_ce_passes_validators():
    rng = random.Random(11)
    for _ in range(60):
        t = _random_table(rng, p=2)
        ce = derive_ce(t)
        assert ce.validate_grading().ok
        assert ce.validate_action().ok


def test_mc_residual_examples():
    t0 = table([dp("y", 2, 1), dp("x", 1, "1/4")], [("y", ("x",), 1)])
    assert mc_residual(t0, BoundingCochain(2)) == {"y": 0}

    t1 = table([dp("y", 2, 1)], [("y", (), 1)])
    assert mc_residual(t1, BoundingCochain(2)) == {"y": 1}

    t2 = table([dp("y", 2, 1), dp("x", 1, "1/4")],
               [("y", (), 1), ("y", ("x",), 1)])
    assert mc_residual(t2, BoundingCochain(2, {"x": 1})) == {"y": 0}


def test_mc_residual_support_violation():
    t = table([dp("y", 2, 1), dp("x", 1, "1/4")], [])
    with pytest.raises(SupportError):
        mc_residual(t, BoundingCochain(2, {"y": 1}))


def test_transcriptions_and_round_trip():
    t = table([dp("y", 2, 1), dp("x", 1, "1/4")], [])
    assert eps_from_b(BoundingCochain(2)) == Augmentation(2)
    assert b_from_eps(t, Augmentation(2)) == BoundingCochain(2)
    b = BoundingCochain(2, {"x": 1})
    eps = eps_from_b(b)
    assert eps.value("x") == 1
    assert b_from_eps(t, eps) == b
    with pytest.raises(SupportError):
        b_from_eps(t, Augmentation(2, {"y": 1}))


def _random_table(rng, p=2, max_points=5):
    n = rng.randint(1, max_points)
    points = []
    for i in range(n):
        degree = rng.choice((0, 1, 1, 2, 2, 3))
        points.append(dp(f"g{i}", degree, Fraction(rng.randint(1, 50), 37)
                         if degree != 2 else Fraction(rng.randint(30, 90), 7)))
    names = [g.name for g in points]
    entries = []
    for _ in range(rng.randint(0, 12)):
        out = rng.choice(names)
        word = tuple(rng.choice(names) for _ in range(rng.randint(0, 3)))
        entries.append((out, word, rng.randint(1, p - 1)))
    return DiskCountTable.build(p, points, entries)


def _random_cochain(rng, t):
    return BoundingCochain(t.p, {name: rng.randrange(t.p) for name, g in
                                 sorted(t.double_points.items()) if g.degree == 1})


def test_bridge_identity_randomized():
    rng = random.Random(5)
    for p in (2, 3):
        for _ in range(150):
            t = _random_table(rng, p=p)
            b = _random_cochain(rng, t)
            assert verify_mc_aug_identity(t, b)


def test_bridge_identity_sides_are_independent(monkeypatch):
    # a deliberately wrong word-evaluation kernel breaks only the augmentation
    # side; were the series side routed through the kernel too, both sides
    # would shift alike and the identity would still hold
    t = table([dp("y", 2, 1), dp("x", 1, "1/4")], [("y", ("x",), 1)])
    b = BoundingCochain(2, {"x": 1})
    residual = mc_residual(t, b)
    assert residual == {"y": 1}
    assert verify_mc_aug_identity(t, b)
    kernel = cedga.augment.evaluate_terms

    def off_by_one(terms, values, p):
        return (kernel(terms, values, p) + 1) % p

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("cedga") \
                and getattr(module, "evaluate_terms", None) is kernel:
            monkeypatch.setattr(module, "evaluate_terms", off_by_one)
    assert cedga.augment.evaluate_terms is off_by_one
    assert not verify_mc_aug_identity(t, b)
    assert mc_residual(t, b) == residual


def test_identity_builds_no_chord_algebra(monkeypatch):
    t = table([dp("y", 2, 2), dp("x", 1, "1/4"), dp("w", 1, "1/3"),
               dp("z", 2, 3)],
              [("y", ("x",), 1), ("y", ("x", "w", "x"), 1), ("z", ("w",), 1)])
    built = {"Generator": 0, "Dga": 0}

    def counting(name):
        real = getattr(cedga.bridge, name)

        def construct(*args, **kwargs):
            built[name] += 1
            return real(*args, **kwargs)
        return construct

    for name in built:
        monkeypatch.setattr(cedga.bridge, name, counting(name))
    names = sorted(n for n, g in t.double_points.items() if g.degree == 1)
    for values in itertools.product(range(t.p), repeat=len(names)):
        assert verify_mc_aug_identity(t, BoundingCochain(t.p, dict(zip(names, values))))
    assert built == {"Generator": 0, "Dga": 0}
    derive_ce(t)
    assert built == {"Generator": len(t.double_points), "Dga": 1}


def test_identity_differential_matches_derive_ce():
    rng = random.Random(11)
    checked = 0
    for p in (2, 3, 5):
        for _ in range(60):
            t = _random_table(rng, p=p)
            ce = derive_ce(t)
            for output in t.outputs():
                assert (cedga.bridge._derived_differential(t, output)
                        == ce.differential_of(output))
                checked += 1
    assert checked


def test_non_int_cochain_coefficient_rejected():
    with pytest.raises(TypeError):
        BoundingCochain(2, {"x": Fraction(1, 2)})


def test_non_int_disk_count_rejected():
    with pytest.raises(TypeError):
        table([dp("y", 2, 1), dp("x", 1, "1/4")], [("y", ("x",), Fraction(1, 3))])


def test_non_int_strip_count_rejected():
    with pytest.raises(TypeError):
        _strip_table([("cout", "cin", (), (), Fraction(1, 3))])


def test_non_int_chord_map_entry_rejected():
    with pytest.raises(TypeError):
        ChordMap(2, ["a"], {("a", "a"): Fraction(1, 2)})


@pytest.mark.parametrize("build, message", [
    (lambda: NcPoly(2, {("x",): Fraction(1, 2)}), "coefficient of ('x',)"),
    (lambda: Augmentation(2, {"x": Fraction(1, 2)}), "value of 'x'"),
    (lambda: BoundingCochain(2, {"x": Fraction(1, 2)}), "coefficient of 'x'"),
    (lambda: ChordMap(2, ["a"], {("a", "a"): Fraction(1, 2)}), "entry ('a', 'a')"),
    (lambda: table([dp("y", 2, 1), dp("x", 1, "1/4")], [("y", ("x",), Fraction(1, 2))]),
     "count of (y; x)"),
    (lambda: _strip_table([("cout", "cin", (), (), Fraction(1, 2))]),
     "count of strip (cout <- cin)"),
])
def test_non_int_message_text(build, message):
    with pytest.raises(TypeError) as info:
        build()
    assert str(info.value) == f"{message} must be an int, got Fraction"


def test_sparse_reprs():
    assert repr(NcPoly(3, {("x", "y"): 2, (): 4})) == "NcPoly(3, '1 + 2 x y')"
    assert repr(Augmentation(3, {"y": 2, "x": 4, "z": 3})) == "Augmentation(p=3, {x=1, y=2})"
    assert (repr(BoundingCochain(3, {"y": 5, "x": 1}))
            == "BoundingCochain(p=3, {x=1, y=2})")
    assert (repr(ChordMap(3, ["a", "b"], {("b", "a"): 2, ("a", "b"): 4, ("a", "a"): 3}))
            == "ChordMap(p=3, entries=[('a', 'b', 1), ('b', 'a', 2)])")


def test_sparse_equality():
    assert Augmentation(3, {"x": 4, "y": 0}) == Augmentation(3, {"x": 1})
    assert Augmentation(3, {"x": 1}) != Augmentation(5, {"x": 1})
    assert Augmentation(3, {"x": 1}) != BoundingCochain(3, {"x": 1})
    assert BoundingCochain(3, {"x": 1}) != Augmentation(3, {"x": 1})
    assert ChordMap(3, ["a"], {("a", "a"): 3}) == ChordMap(3, ["a", "b"])
    assert NcPoly(3, {("x",): 1}) != NcPoly(3, {("x",): 2})
    for value in (NcPoly(2), Augmentation(2), BoundingCochain(2), ChordMap(2, [])):
        with pytest.raises(TypeError):
            hash(value)


def test_bridge_identity_with_rejected_entries():
    # identity is over loaded entries only; rejected lines do not enter
    t = table([dp("y", 2, 1), dp("x", 1, "1/4"), dp("z", 2, "1/16")],
              [("y", ("x",), 1), ("z", ("x", "x"), 1)])
    assert t.rejected  # the z entry failed the energy filter
    assert verify_mc_aug_identity(t, BoundingCochain(2, {"x": 1}))


def test_deformation_solutions_match_augmentations_exhaustively():
    # over every F_2 table on <= 3 double points (degrees 1 and 2, words <= 2
    # here; the acceptance suite runs the full families), the solution set of
    # the obstruction equation transcribes onto the augmentation set
    points = [dp("y", 2, 1), dp("x1", 1, "1/8"), dp("x2", 1, "1/9")]
    universe = [("y", word) for length in range(3)
                for word in itertools.product(("x1", "x2"), repeat=length)]
    for bits in range(2 ** len(universe)):
        entries = [(out, word, 1) for i, (out, word) in enumerate(universe)
                   if bits >> i & 1]
        t = table(points, entries)
        ce = derive_ce(t)
        for values in itertools.product((0, 1), repeat=2):
            b = BoundingCochain(2, dict(zip(("x1", "x2"), values)))
            solves = not any(mc_residual(t, b).values())
            eps = eps_from_b(b)
            assert check_augmentation(ce, eps).ok == solves
            assert b_from_eps(t, eps) == b


def _strip_table(entries, p=2):
    chords = [Generator("cin", 0, -1, MIXED), Generator("cout", 1, -2, MIXED)]
    bottom = [dp("xb", 1, "1/5")]
    top = [dp("xt", 1, "1/7")]
    return StripCountTable.build(p, chords, bottom, top, entries)


def test_strip_degree_filter():
    t = _strip_table([("cout", "cin", (), (), 1),
                      ("cout", "cin", ("xb",), (), 1),
                      ("cin", "cout", (), (), 1)])  # degree -1 != 1 rejected
    assert len(t.counts) == 2 and len(t.rejected) == 1


def test_deformed_differential_weights():
    t = _strip_table([("cout", "cin", ("xb",), (), 1)])
    zero = BoundingCochain(2)
    assert not deformed_differential(t, zero, zero).entries
    weighted = deformed_differential(t, BoundingCochain(2, {"xb": 1}), zero)
    assert weighted.entry("cout", "cin") == 1


def test_deformed_differential_bare_strips():
    t = _strip_table([("cout", "cin", (), (), 1)])
    m = deformed_differential(t, BoundingCochain(2), BoundingCochain(2))
    assert m.entry("cout", "cin") == 1


def test_deformed_support_violation():
    t = _strip_table([])
    with pytest.raises(SupportError):
        deformed_differential(t, BoundingCochain(2, {"xt": 1}), BoundingCochain(2))
    with pytest.raises(SupportError, match=r"\Atop cochain supported on 'xb', "
                                           r"not a top double point\Z"):
        deformed_differential(t, BoundingCochain(2), BoundingCochain(2, {"xb": 1}))


def test_weights_agree_through_transcription():
    t = _strip_table([("cout", "cin", ("xb",), ("xt",), 1)])
    b0 = BoundingCochain(2, {"xb": 1})
    b1 = BoundingCochain(2, {"xt": 1})
    m = deformed_differential(t, b0, b1)
    eps0, eps1 = eps_from_b(b0), eps_from_b(b1)
    assert m.entry("cout", "cin") == eps0.value("xb") * eps1.value("xt")


def test_check_squared_zero():
    zero_table = _strip_table([])
    assert check_squared_zero(zero_table, BoundingCochain(2), BoundingCochain(2)).ok

    # two-chord complex d(cin) = cout, d(cout) = 0
    ok_table = _strip_table([("cout", "cin", (), (), 1)])
    assert check_squared_zero(ok_table, BoundingCochain(2), BoundingCochain(2)).ok

    chords = [Generator("c1", 0, -1, MIXED), Generator("c2", 1, -2, MIXED),
              Generator("c3", 2, -3, MIXED)]
    chain = StripCountTable.build(2, chords, [], [],
                                  [("c2", "c1", (), (), 1),
                                   ("c3", "c2", (), (), 1)])
    report = check_squared_zero(chain, BoundingCochain(2), BoundingCochain(2))
    assert not report.ok
    assert report.violations[0].subject == "(c3, c1)"


def test_relabeling_equivariance():
    t1 = _strip_table([("cout", "cin", ("xb",), ("xt",), 1)])
    chords = [Generator("cin", 0, -1, MIXED), Generator("cout", 1, -2, MIXED)]
    t2 = StripCountTable.build(2, chords, [dp("ub", 1, "1/5")], [dp("ut", 1, "1/7")],
                               [("cout", "cin", ("ub",), ("ut",), 1)])
    m1 = deformed_differential(t1, BoundingCochain(2, {"xb": 1}),
                               BoundingCochain(2, {"xt": 1}))
    m2 = deformed_differential(t2, BoundingCochain(2, {"ub": 1}),
                               BoundingCochain(2, {"ut": 1}))
    assert m1.entries == m2.entries


def _values_of(obj):
    return list(getattr(obj, obj._values).items())


def _assert_twins(fast, checked):
    assert type(fast) is type(checked) and fast.p == checked.p
    assert fast == checked and repr(fast) == repr(checked)
    assert _values_of(fast) == _values_of(checked)


def _shuffled_cochain(rng, t):
    names = [name for name, g in t.double_points.items() if g.degree == 1]
    rng.shuffle(names)
    return BoundingCochain(t.p, {name: rng.randrange(t.p) for name in names})


def test_fast_paths_match_checked_constructors():
    # every object the bridge and the enumeration build from values a checked
    # object already holds equals the public constructor's result, value order
    # included
    rng = random.Random(13)
    leaves = 0
    for i in range(2000):
        p = (2, 3, 5)[i % 3]
        t = _random_table(rng, p=p)
        b = _shuffled_cochain(rng, t)
        eps = eps_from_b(b)
        _assert_twins(eps, Augmentation(p, b.coefficients))
        _assert_twins(b_from_eps(t, eps), BoundingCochain(p, eps.values))
        for output in t.outputs():
            _assert_twins(cedga.bridge._derived_differential(t, output),
                          NcPoly(p, t.counts[output]))
        ce = derive_ce(t)
        names = sorted(ce.degree_zero_names())
        for e in enumerate_augmentations(ce):
            _assert_twins(e, Augmentation(p, {n: e.value(n) for n in names}))
            leaves += 1
    assert leaves > 2000


def test_outputs_and_residual_keys_keep_sorted_order():
    rng = random.Random(14)
    unsorted = 0
    for p in (2, 3):
        for _ in range(200):
            points = [dp(f"g{i}", rng.choice((1, 2, 2)), Fraction(rng.randint(1, 9), 11))
                      for i in range(rng.randint(1, 6))]
            anchor = points[0] = dp(points[0].name, 1, "1/99")
            rng.shuffle(points)
            entries = [(g.name, (anchor.name,) * (g.degree != 1), 1) for g in points]
            rng.shuffle(entries)
            t = table(points, entries, p=p)
            assert t.outputs() == sorted(t.counts)
            arrived = list(dict.fromkeys(o for o, _, _ in entries if o in t.counts))
            unsorted += arrived != sorted(arrived)
            b = _shuffled_cochain(rng, t)
            assert list(mc_residual(t, b)) == [
                o for o in sorted(t.counts) if t.double_points[o].degree == 2]
    assert unsorted  # some entries arrived out of sorted output order


def test_first_offender_is_named_in_sorted_order():
    t = table([dp("y", 2, 1), dp("x", 1, "1/4"), dp("m", 2, 2)], [("y", ("x",), 1)])
    support = {"z": 1, "y": 1, "x": 1, "m": 1, "c": 1}  # c, m, y, z all fail
    with pytest.raises(SupportError) as residual:
        mc_residual(t, BoundingCochain(2, support))
    assert str(residual.value) == ("cochain supported on 'c', "
                                   "which is not a degree-1 double point")
    with pytest.raises(SupportError) as inverse:
        b_from_eps(t, Augmentation(2, support))
    assert str(inverse.value) == ("augmentation value on 'c', "
                                  "which is not a degree-0 chord of this table")


def test_fast_paths_skip_reduce_mod(monkeypatch):
    # values a checked object already holds are not reduced again; the public
    # constructors still reduce once each
    real = cedga.field.reduce_mod
    calls = []

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("cedga") \
                and getattr(module, "reduce_mod", None) is real:
            monkeypatch.setattr(module, "reduce_mod", counting)
    t = table([dp("y", 2, 2), dp("x", 1, "1/4"), dp("w", 1, "1/3"), dp("z", 2, 3)],
              [("y", ("x",), 1), ("y", ("x", "w", "x"), 1), ("z", ("w",), 1), ("z", (), 1)],
              p=3)
    ce = derive_ce(t)
    cochains = [BoundingCochain(3, {"x": x, "w": w}) for x in range(3) for w in range(3)]
    augmentations = [Augmentation(3, {"x": x, "w": w}) for x in range(3) for w in range(3)]
    assert len(calls) == len(cochains) + len(augmentations)
    calls.clear()
    for b in cochains:
        assert verify_mc_aug_identity(t, b)
        eps_from_b(b)
    for e in augmentations:
        b_from_eps(t, e)
    found = enumerate_augmentations(ce)
    assert found and calls == []
    for build in (lambda: NcPoly(3, {("x",): 4}), lambda: Augmentation(3, {"x": 4}),
                  lambda: BoundingCochain(3, {"x": 4}),
                  lambda: ChordMap(3, ["a"], {("a", "a"): 4})):
        calls.clear()
        build()
        assert len(calls) == 1

"""Validated DGAs: the differential, its laws, and the three validators."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cedga import (Dga, Generator, GeneratorKind, NcPoly, UndeclaredGeneratorError,
                   ValidationReport)


def test_dp_sign_invariants():
    Generator("x", 1, Fraction(1, 2), GeneratorKind.DOUBLE_POINT_POS)
    with pytest.raises(ValueError):
        Generator("x", 1, Fraction(-1, 2), GeneratorKind.DOUBLE_POINT_POS)
    with pytest.raises(ValueError):
        Generator("x", 1, Fraction(1, 2), GeneratorKind.DOUBLE_POINT_NEG)


class Half(Fraction):
    pass


@pytest.mark.parametrize("action, negated, value", [
    (3, -3, Fraction(3)), ("3/4", "-3/4", Fraction(3, 4)),
    (Half(1, 2), Half(-1, 2), Fraction(1, 2)), (Fraction(5, 7), Fraction(-5, 7), Fraction(5, 7))])
def test_action_is_exactly_fraction(action, negated, value):
    for kind, given, expected in ((GeneratorKind.REEB_CHORD, action, value),
                                  (GeneratorKind.DOUBLE_POINT_POS, action, value),
                                  (GeneratorKind.DOUBLE_POINT_NEG, negated, -value)):
        g = Generator("x", 1, given, kind)
        assert type(g.action) is Fraction and g.action == expected
    with pytest.raises(ValueError, match="tagged negative"):
        Generator("x", 1, action, GeneratorKind.DOUBLE_POINT_NEG)
    with pytest.raises(ValueError, match="tagged positive"):
        Generator("x", 1, negated, GeneratorKind.DOUBLE_POINT_POS)


def test_fraction_action_is_kept_not_copied():
    action = Fraction(2, 3)
    assert Generator("x", 1, action).action is action


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        Dga.build(2, gens=[("x", 0, 1), ("x", 1, 2)])


def test_undeclared_letter_rejected():
    with pytest.raises(UndeclaredGeneratorError):
        Dga.build(2, gens=[("y", -1, 1)], diffs={"y": [(1, ("x",))]})


def test_differential_of_unit_is_zero():
    dga = Dga.build(2, gens=[("x", 0, 1)])
    assert dga.apply_differential(NcPoly.unit(2)).is_zero


def test_apply_differential_rejects_undeclared_letters():
    dga = Dga.build(2, gens=[("x", 0, 1)])
    with pytest.raises(UndeclaredGeneratorError):
        dga.apply_differential(NcPoly.generator(2, "ghost"))


def test_differential_of_undeclared_generator_rejected():
    with pytest.raises(UndeclaredGeneratorError) as exc:
        Dga.build(2, gens=[("x", 0, 1)], diffs={"y": [(1, ("x",))]})
    assert str(exc.value) == "'y'"


def test_max_action_of_zero_is_none():
    dga = Dga.build(2, gens=[("x", 0, 1)])
    assert dga.max_action(NcPoly.zero(2)) is None
    assert dga.max_action(NcPoly.monomial(2, ("x", "x"))) == 2


def test_dga_repr_and_valid_summary():
    dga = Dga.build(3, gens=[("x", 0, 1), ("y", -1, 2)], diffs={"y": [(1, ("x",))]},
                    d_degree=-1)
    assert repr(dga) == "Dga(p=3, generators=2, nonzero_differentials=1, d_degree=-1)"
    assert ValidationReport().summary() == "valid"


def test_char_two_square_word():
    # d(x) = 1 on the word x x gives 1*x + x*1 = 2x = 0 over F_2
    dga = Dga.build(2, gens=[("x", -1, 1)], diffs={"x": [(1, ())]})
    result = dga.apply_differential(NcPoly.monomial(2, ("x", "x")))
    assert result.is_zero


def test_leibniz_hand_expansion():
    # d(y) = x1 x2, x_i closed: d(y x1) = x1 x2 x1 in any characteristic
    for p in (2, 3):
        dga = Dga.build(p, gens=[("y", -1, 3), ("x1", 0, 1), ("x2", 0, 1)],
                        diffs={"y": [(1, ("x1", "x2"))]})
        result = dga.apply_differential(NcPoly.monomial(p, ("y", "x1")))
        assert result == NcPoly.monomial(p, ("x1", "x2", "x1"))


def test_d_squared_validator():
    zero = Dga.build(2, gens=[("x", 0, 1), ("y", -1, 2)])
    assert zero.validate_d_squared().ok

    closed_targets = Dga.build(2, gens=[("y", -1, 3), ("x1", 0, 1), ("x2", 0, 1)],
                               diffs={"y": [(1, ("x1", "x2"))]})
    assert closed_targets.validate_d_squared().ok

    bad = Dga.build(2, gens=[("y", -2, 2), ("x", -1, 1)],
                    diffs={"y": [(1, ("x",))], "x": [(1, ())]})
    report = bad.validate_d_squared()
    assert not report.ok
    assert [v.subject for v in report] == ["y"]
    assert "1" in report.violations[0].detail


def test_grading_validator():
    good = Dga.build(2, gens=[("y", -1, 3), ("x1", 0, 1), ("x2", 0, 1)],
                     diffs={"y": [(1, ("x1", "x2")), (1, ())]})
    assert good.validate_grading().ok

    assert Dga.build(2, gens=[("g", 5, 1)]).validate_grading().ok  # zero differential

    flagged = Dga.build(2, gens=[("y", -1, 3), ("x", 1, 1)],
                        diffs={"y": [(1, ("x",))]})
    report = flagged.validate_grading()
    assert not report.ok and report.violations[0].subject == "y"


def test_action_validator():
    assert Dga.build(2, gens=[("y", -1, Fraction(3, 2))],
                     diffs={"y": [(1, ())]}).validate_action().ok

    flagged = Dga.build(2, gens=[("y", -1, 1), ("x", 0, 2)],
                        diffs={"y": [(1, ("x",))]})
    assert not flagged.validate_action().ok

    # tiny connector-style actions: 1/100 + 1 < 102/100
    close = Dga.build(2, gens=[("b", -1, Fraction(102, 100)),
                               ("a", 0, Fraction(1, 100)), ("c", 0, 1)],
                      diffs={"b": [(1, ("a", "c"))]})
    assert close.validate_action().ok


def _random_law_dga(rng, p):
    """Closed core plus one graded layer mapping into it: d^2 = 0 by
    construction, the differential is degree-homogeneous (required for the
    Koszul cross-terms to cancel in odd characteristic), and actions strictly
    decrease into the core."""
    degrees = [rng.choice((-1, 0, 1, 2)) for _ in range(4)]
    core = [(f"c{i}", degrees[i], Fraction(i + 1, 10)) for i in range(4)]
    gens = list(core)
    diffs = {}
    for i in range(2):
        name = f"g{i}"
        first = [rng.randrange(4) for _ in range(rng.randint(0, 2))]
        target_degree = sum(degrees[t] for t in first)
        words = [(rng.randint(1, p - 1), tuple(f"c{t}" for t in first))]
        for _ in range(rng.randint(0, 1)):
            for _attempt in range(8):
                cand = [rng.randrange(4) for _ in range(rng.randint(0, 3))]
                if sum(degrees[t] for t in cand) == target_degree:
                    words.append((rng.randint(1, p - 1),
                                  tuple(f"c{t}" for t in cand)))
                    break
        gens.append((name, target_degree - 1, Fraction(3 + i, 1)))
        diffs[name] = words
    return Dga.build(p, gens=gens, diffs=diffs)


def _random_poly(rng, dga, max_terms=3, max_len=3):
    names = list(dga.generators)
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        word = tuple(rng.choice(names) for _ in range(rng.randint(0, max_len)))
        terms[word] = rng.randint(1, dga.p - 1)
    return NcPoly(dga.p, terms)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_differential_linear_and_leibniz(p):
    rng = random.Random(p)
    for _ in range(200):
        dga = _random_law_dga(rng, p)
        q = _random_poly(rng, dga)
        r = _random_poly(rng, dga)
        assert dga.apply_differential(q + r) == \
            dga.apply_differential(q) + dga.apply_differential(r)
        # graded Leibniz with homogeneous left factor (a scaled word)
        word = tuple(rng.choice(list(dga.generators))
                     for _ in range(rng.randint(0, 3)))
        mono = NcPoly.monomial(p, word, rng.randint(1, p - 1))
        sign = -1 if (p != 2 and dga.word_degree(word) % 2) else 1
        lhs = dga.apply_differential(mono * r)
        rhs = dga.apply_differential(mono) * r + sign * (mono * dga.apply_differential(r))
        assert lhs == rhs


@pytest.mark.parametrize("p", [2, 3])
def test_d_squared_consequence_on_polys(p):
    rng = random.Random(10 + p)
    for _ in range(200):
        dga = _random_law_dga(rng, p)
        assert dga.validate_d_squared().ok
        assert dga.validate_grading().ok
        q = _random_poly(rng, dga)
        assert dga.apply_differential(dga.apply_differential(q)).is_zero


def test_action_filtration_lowering():
    rng = random.Random(7)
    for _ in range(200):
        dga = _random_law_dga(rng, 2)
        if not dga.validate_action().ok:
            continue
        q = _random_poly(rng, dga)
        dq = dga.apply_differential(q)
        if q.is_zero or dq.is_zero:
            continue
        assert dga.max_action(dq) < dga.max_action(q)


def _fraction_word_action(dga, word):
    return sum((dga.generator(name).action for name in word), Fraction(0))


def _fraction_max_action(dga, poly):
    if poly.is_zero:
        return None
    return max(_fraction_word_action(dga, word) for word in poly.terms)


def _fraction_validate_action(dga):
    report = ValidationReport()
    for name, poly in dga.nonzero_differentials().items():
        bound = dga.generator(name).action
        for word in poly.words():
            got = _fraction_word_action(dga, word)
            if got >= bound:
                report.add("action", name, f"monomial {' '.join(word) or '1'} has action {got}, "
                                           f"not below {bound}")
    return report


# thirds, 101sts and large coprime primes, so the common scale is huge
DENOMINATORS = (1, 2, 3, 6, 101, 1_000_003, 998_244_353, 2 ** 61 - 1)


def _mixed_action_dga(rng):
    """A Dga whose actions mix the denominators above, spell equal actions
    apart (``1/3`` and ``2/6``), are negative on some morse, reeb and dp-
    generators, and often tie, so that ``>=`` decides at equality."""
    pool = [Fraction(n, rng.choice(DENOMINATORS)) for n in range(-4, 9)]
    gens = []
    for i in range(rng.randint(3, 7)):
        kind = rng.choice(("morse", "reeb", "dp+", "dp-", "mixed"))
        action = rng.choice([a for a in pool if a != 0] if kind[:2] == "dp" else pool)
        if kind[:2] == "dp" and (action > 0) != (kind == "dp+"):
            action = -action
        spelled = rng.choice((action, str(action),
                              f"{2 * action.numerator}/{2 * action.denominator}"))
        gens.append((f"g{i}", 0, spelled, kind))
    names = [g[0] for g in gens]
    diffs = {name: [(1, tuple(rng.choice(names) for _ in range(rng.randint(0, 3))))
                    for _ in range(rng.randint(1, 3))]
             for name in rng.sample(names, rng.randint(1, len(names)))}
    return Dga.build(rng.choice((2, 3)), gens, diffs)


def test_integer_actions_agree_with_fraction_sums():
    rng = random.Random(29)
    violations = ties = 0
    for _ in range(300):
        dga = _mixed_action_dga(rng)
        names = list(dga.generators)
        for _ in range(5):
            word = tuple(rng.choice(names) for _ in range(rng.randint(0, 4)))
            got = dga.word_action(word)
            assert type(got) is Fraction and got == _fraction_word_action(dga, word)
            poly = _random_poly(rng, dga)
            got = dga.max_action(poly)
            assert got == _fraction_max_action(dga, poly)
            assert got is None if poly.is_zero else type(got) is Fraction
        report = dga.validate_action()
        assert report.as_dicts() == _fraction_validate_action(dga).as_dicts()
        violations += len(report)
        ties += sum(_fraction_word_action(dga, word) == dga.generator(name).action
                    for name, poly in dga.nonzero_differentials().items() for word in poly.terms)
        with pytest.raises(UndeclaredGeneratorError, match="ghost"):
            dga.word_action((names[0], "ghost"))
        with pytest.raises(UndeclaredGeneratorError, match="ghost"):
            dga.max_action(NcPoly.generator(dga.p, "ghost"))
    assert violations > 100 and ties > 20


@given(st.integers(0, 7))
def test_build_round_trips_kinds(seed):
    kind = list(GeneratorKind)[seed]
    action = 1 if kind is not GeneratorKind.DOUBLE_POINT_NEG else -1
    dga = Dga.build(2, gens=[("g", 0, action, kind.value)])
    assert dga.generator("g").kind is kind


def test_differential_of_builds_zero_only_when_missing(monkeypatch):
    dga = Dga.build(3, gens=[("y", -1, 2), ("x", 0, 1)], diffs={"y": [(1, ("x",))]})
    zeros = []
    real = NcPoly.zero.__func__

    def counting(cls, p):
        zeros.append(p)
        return real(cls, p)

    monkeypatch.setattr(NcPoly, "zero", classmethod(counting))
    assert dga.differential_of("y") is dga.differential_of("y")
    assert zeros == []
    assert dga.differential_of("x").is_zero and zeros == [3]
    with pytest.raises(UndeclaredGeneratorError):
        dga.differential_of("w")
    with pytest.raises(TypeError):
        dga.nonzero_differentials()["x"] = NcPoly.zero(3)


def test_undeclared_letter_named_whatever_the_hash_seed():
    # the least undeclared letter is named, and the corpus report bytes do not
    # depend on the string hash seed either
    import os
    import subprocess
    import sys

    from test_stdlib_only import PACKAGE
    build = ("from cedga import Dga, UndeclaredGeneratorError\n"
             "try:\n"
             "    Dga.build(2, gens=[('y', -1, 1)], diffs={'y': [(1, ('q', 'r', 's', 't'))]})\n"
             "except UndeclaredGeneratorError as exc:\n"
             "    print(exc)\n")
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
        runs.append([subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                                    check=True).stdout
                     for argv in (["-c", build], ["-m", "cedga.cli", "corpus", "--json", "-"])])
    assert runs[0][0] == b"'q'\n"
    assert runs[0] == runs[1]

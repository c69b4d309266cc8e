"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every check is exact
(no tolerances); the stated runtime budgets are asserted with wall clocks.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from cedga import (Augmentation, BoundingCochain, Dga, DiskCountTable,
                   Generator, GeneratorKind, NcPoly, TrajectorySearchBounds,
                   TreeSearchBounds, b_from_eps, check_augmentation,
                   construct_surgery_augmentation, derive_ce,
                   enumerate_augmentations, eps_from_b, exhaustive_search,
                   mc_residual, random_surgery_instance, validate_surgery_shape,
                   verify_certificate, verify_mc_aug_identity)
from cedga.cli import run_corpus
from cedga.corpus import CASES, ROUND_TRIP, corpus_text
from cedga.textio import (parse_disk_counts, parse_dga, parse_strip_counts,
                          parse_traj_config, parse_tree_config, parse_values,
                          serialize_dga, serialize_disk_counts,
                          serialize_strip_counts, serialize_traj_config,
                          serialize_tree_config, serialize_values)

DP = GeneratorKind.DOUBLE_POINT_POS


def _line(num: int, description: str, ok: bool) -> None:
    print(f"[criterion {num}] {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed"


# -- criteria 1 and 2: the cochain/augmentation bridge -------------------------


def _exhaustive_tables():
    """Every F_2 disk-count table on <= 3 double points with degrees in
    {1, 2} and words of length <= 3: the degree patterns carrying cochain
    support (degree 1) and obstruction outputs (degree 2).  The rigidity
    filter admits exactly the (degree-2 output, degree-1 inputs) entries, so
    tables are all subsets of that entry universe."""
    patterns = [(1,), (2,), (1, 1), (1, 2), (2, 2),
                (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]
    for pattern in patterns:
        names = [f"p{t}" for t in range(len(pattern))]
        gens = [Generator(n, d, Fraction(1) if d == 2 else Fraction(t + 1, 100), DP)
                for t, (n, d) in enumerate(zip(names, pattern))]
        deg1 = tuple(n for n, d in zip(names, pattern) if d == 1)
        deg2 = [n for n, d in zip(names, pattern) if d == 2]
        universe = [(out, word) for out in deg2
                    for length in range(4)
                    for word in itertools.product(deg1, repeat=length)]
        for bits in range(2 ** len(universe)):
            entries = [(out, word, 1) for idx, (out, word) in enumerate(universe)
                       if bits >> idx & 1]
            yield DiskCountTable.build(2, gens, entries), deg1


@pytest.fixture(scope="module")
def exhaustive_family():
    return list(_exhaustive_tables())


def _random_tables(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 6)
        gens = []
        for i in range(n):
            degree = rng.choice((0, 1, 1, 2, 2, 3))
            action = Fraction(rng.randint(60, 200), 59) if degree == 2 \
                else Fraction(rng.randint(1, 40), 41)
            gens.append(Generator(f"g{i}", degree, action, DP))
        names = [g.name for g in gens]
        entries = []
        for _ in range(rng.randint(0, 20)):
            out = rng.choice(names)
            word = tuple(rng.choice(names) for _ in range(rng.randint(0, 3)))
            entries.append((out, word, 1))
        table = DiskCountTable.build(2, gens, entries)
        b = BoundingCochain(2, {name: rng.randrange(2) for name, g in
                                sorted(table.double_points.items()) if g.degree == 1})
        yield table, b


def test_criterion_1_bridge_identity(exhaustive_family):
    start = time.monotonic()
    checks = 0
    for table, deg1 in exhaustive_family:
        for values in itertools.product((0, 1), repeat=len(deg1)):
            b = BoundingCochain(2, dict(zip(deg1, values)))
            assert verify_mc_aug_identity(table, b)
            checks += 1
    randomized = 0
    for table, b in _random_tables(1000, seed=20260810):
        assert verify_mc_aug_identity(table, b)
        randomized += 1
    elapsed = time.monotonic() - start
    assert checks >= 130_000 and randomized >= 1000
    _line(1, f"bridge identity on {checks} exhaustive + {randomized} random "
             f"checks in {elapsed:.1f}s", elapsed < 60)


def test_criterion_2_bridge_bijection(exhaustive_family):
    start = time.monotonic()
    tables = 0
    for table, deg1 in exhaustive_family:
        ce = derive_ce(table)
        solving = []
        for values in itertools.product((0, 1), repeat=len(deg1)):
            b = BoundingCochain(2, dict(zip(deg1, values)))
            if not any(mc_residual(table, b).values()):
                solving.append(b)
        augmented = enumerate_augmentations(ce)
        # forward: each solving cochain transcribes to an augmentation
        images = []
        for b in solving:
            eps = eps_from_b(b)
            assert check_augmentation(ce, eps).ok
            assert b_from_eps(table, eps) == b  # round trip
            images.append(tuple(sorted(eps.values.items())))
        # backward: each augmentation comes from a solving cochain
        for eps in augmented:
            b = b_from_eps(table, eps)
            assert not any(mc_residual(table, b).values())
            assert eps_from_b(b) == eps  # round trip
        assert sorted(images) == sorted(tuple(sorted(e.values.items()))
                                        for e in augmented)
        assert len(solving) == len(augmented)
        tables += 1
    elapsed = time.monotonic() - start
    _line(2, f"bijection and round trips over {tables} tables "
             f"in {elapsed:.1f}s", elapsed < 60)


# -- criterion 3: the surgery extension ----------------------------------------


def test_criterion_3_surgery_induction():
    start = time.monotonic()
    instances = 0
    certificates = 0
    seed = 0
    while instances < 200:
        k = instances % 3 + 1
        S = random_surgery_instance(k, max_chords_per_pair=4, seed=seed)
        seed += 1
        assert validate_surgery_shape(S).ok
        assert S.dga.validate_d_squared().ok
        base = S.base_ce()
        augmentations = enumerate_augmentations(base)
        assert augmentations
        for eb in augmentations:
            cert = construct_surgery_augmentation(S, eb)
            assert cert.verification.ok and cert.conditions.ok and not cert.flags
            assert verify_certificate(S, cert, eb).ok
            certificates += 1
        instances += 1
    elapsed = time.monotonic() - start
    _line(3, f"{instances} instances, {certificates} verified extension "
             f"certificates in {elapsed:.1f}s", elapsed < 300)


# -- criteria 4 and 5: degeneration arithmetic ---------------------------------


def test_criterion_4_tree_search():
    start = time.monotonic()
    report = exhaustive_search(TreeSearchBounds(
        max_disks=4, max_inputs_per_disk=3, degree_range=(-3, 4)))
    elapsed = time.monotonic() - start
    assert report.enumerated == report.estimated_configs
    # counts agreed with the brute-force walk over every sum tuple
    assert (report.enumerated, report.in_window, report.materialized) == (
        2_608_154, 313_228, 15)
    assert report.telescope_failures == 0
    assert report.materialized > 0
    _line(4, f"tree search: {report.enumerated} sum tuples, "
             f"{report.in_window} in window, "
             f"{len(report.counterexamples)} counterexamples, "
             f"telescoping exact, in {elapsed:.1f}s",
          not report.counterexamples and elapsed < 120)


def test_criterion_5_trajectory_search():
    start = time.monotonic()
    report = exhaustive_search(TrajectorySearchBounds(
        max_strips=3, max_attached_disks=2, degree_range=(-3, 4)))
    elapsed = time.monotonic() - start
    assert report.enumerated == report.estimated_configs
    assert (report.enumerated, report.in_window, report.materialized) == (
        4_211_384, 1_995_121, 79)
    assert report.telescope_failures == 0
    assert report.materialized > 0
    _line(5, f"trajectory search: {report.enumerated} sum tuples, "
             f"{report.in_window} in window, "
             f"{len(report.counterexamples)} counterexamples, "
             f"telescoping exact, in {elapsed:.1f}s",
          not report.counterexamples and elapsed < 120)


# -- criterion 6: algebra laws --------------------------------------------------


def _law_dga(rng, p):
    degrees = [rng.choice((-1, 0, 1, 2)) for _ in range(4)]
    gens = [(f"c{i}", degrees[i], Fraction(i + 1, 10)) for i in range(4)]
    diffs = {}
    for i in range(2):
        first = [rng.randrange(4) for _ in range(rng.randint(0, 2))]
        target = sum(degrees[t] for t in first)
        words = [(rng.randint(1, p - 1), tuple(f"c{t}" for t in first))]
        for _attempt in range(8):
            cand = [rng.randrange(4) for _ in range(rng.randint(0, 3))]
            if sum(degrees[t] for t in cand) == target:
                words.append((rng.randint(1, p - 1), tuple(f"c{t}" for t in cand)))
                break
        gens.append((f"g{i}", target - 1, Fraction(3 + i, 1)))
        diffs[f"g{i}"] = words
    return Dga.build(p, gens=gens, diffs=diffs)


def _poly(rng, dga, max_terms=3, max_len=3):
    names = list(dga.generators)
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        word = tuple(rng.choice(names) for _ in range(rng.randint(0, max_len)))
        terms[word] = rng.randint(1, dga.p - 1)
    return NcPoly(dga.p, terms)


def test_criterion_6_algebra_laws():
    start = time.monotonic()
    rng = random.Random(6)
    cases = 0
    for _ in range(10_000):
        p = rng.choice((2, 2, 3, 5))
        dga = _law_dga(rng, p)
        a, b, c = _poly(rng, dga), _poly(rng, dga), _poly(rng, dga)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert dga.apply_differential(a + b) == \
            dga.apply_differential(a) + dga.apply_differential(b)
        word = tuple(rng.choice(list(dga.generators))
                     for _ in range(rng.randint(0, 3)))
        mono = NcPoly.monomial(p, word, rng.randint(1, p - 1))
        sign = -1 if (p != 2 and dga.word_degree(word) % 2) else 1
        assert dga.apply_differential(mono * b) == \
            dga.apply_differential(mono) * b + sign * (mono * dga.apply_differential(b))
        assert dga.apply_differential(dga.apply_differential(a)).is_zero
        da = dga.apply_differential(a)
        if not a.is_zero and not da.is_zero:
            assert dga.max_action(da) < dga.max_action(a)
        cases += 1
    elapsed = time.monotonic() - start
    _line(6, f"{cases} randomized law cases (associativity, distributivity, "
             f"linearity, graded Leibniz, d^2, filtration) in {elapsed:.1f}s",
          cases >= 10_000)


# -- criterion 7: enumeration performance ---------------------------------------


def _constraint_dga(n_vars, n_constraints):
    gens = [(f"x{i:02d}", 0, Fraction(i + 1, 100)) for i in range(1, n_vars + 1)]
    diffs = {}
    for i in range(1, n_constraints + 1):
        gens.append((f"y{i:02d}", -1, Fraction(i, 1)))
        diffs[f"y{i:02d}"] = [(1, (f"x{i:02d}", f"x{i + 1:02d}")),
                              (1, (f"x{i + 2:02d}",))]
    return Dga.build(2, gens=gens, diffs=diffs)


def test_criterion_7_enumeration_performance():
    dga = _constraint_dga(20, 10)
    assert dga.validate_all().ok
    start = time.monotonic()
    found = enumerate_augmentations(dga)
    elapsed = time.monotonic() - start
    # 10 independent constraints on 20 F_2 variables leave 2^10 solutions
    assert len(found) == 1024

    small = _constraint_dga(12, 6)
    fast = enumerate_augmentations(small)
    names = sorted(small.degree_zero_names())
    slow = []
    for values in itertools.product((0, 1), repeat=len(names)):
        candidate = Augmentation(2, dict(zip(names, values)))
        if check_augmentation(small, candidate).ok:
            slow.append(candidate)
    assert fast == slow
    _line(7, f"pruned enumeration: 20 generators, 10 constraints, "
             f"{len(found)} augmentations in {elapsed:.2f}s; oracle match on "
             f"12 generators", elapsed < 60)


# -- criterion 8: text formats ---------------------------------------------------


def test_criterion_8_io_round_trip_and_faults():
    parsers = {
        "dga": (parse_dga, serialize_dga),
        "counts": (parse_disk_counts, serialize_disk_counts),
        "strips": (parse_strip_counts, serialize_strip_counts),
        "values": (lambda text: parse_values(text, 2),
                   lambda values: serialize_values(2, values)),
        "tree": (parse_tree_config, serialize_tree_config),
        "traj": (parse_traj_config, serialize_traj_config),
    }
    for fmt, name in ROUND_TRIP:
        parse, serialize = parsers[fmt]
        text = corpus_text(name)
        assert serialize(parse(text)) == text, name
    results = run_corpus()
    assert len(results) == len(CASES)
    failures = [r["name"] for r in results if not r["passed"]]
    assert failures == []
    faults = [r for r in results if r["name"].startswith("fault-")]
    assert len(faults) >= 7
    _line(8, f"round trip identity on {len(ROUND_TRIP)} corpus files; "
             f"{len(results)} corpus cases ({len(faults)} fault-injected) "
             f"behaved as expected", True)

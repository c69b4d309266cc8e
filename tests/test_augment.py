"""Augmentations: evaluation, checking, and exhaustive enumeration."""

import gc
import itertools
import random
from fractions import Fraction

import pytest

from cedga import (Augmentation, Dga, EnumerationBoundError, InputError, NcPoly,
                   check_augmentation, enumerate_augmentations)


def brute_force_augmentations(dga):
    """Unpruned oracle: try every assignment on the degree-0 generators."""
    names = sorted(dga.degree_zero_names())
    found = []
    for values in itertools.product(range(dga.p), repeat=len(names)):
        candidate = Augmentation(dga.p, dict(zip(names, values)))
        if check_augmentation(dga, candidate).ok:
            found.append(candidate)
    return found


def test_evaluate_examples():
    e = Augmentation(2, {"x": 1})
    q = NcPoly.from_pairs(2, [(1, ("x", "x")), (1, ())])
    assert e.evaluate(q) == 0  # 1*1 + 1 over F_2
    assert Augmentation(2).evaluate(NcPoly.unit(2)) == 1
    e2 = Augmentation(2, {"x1": 1, "x2": 0})
    q2 = NcPoly.from_pairs(2, [(1, ("x1", "x2")), (1, ("x1",))])
    assert e2.evaluate(q2) == 1


def test_non_int_value_rejected():
    with pytest.raises(TypeError):
        Augmentation(2, {"x": Fraction(1, 2)})


def test_check_augmentation_closed_generators():
    dga = Dga.build(2, gens=[("x1", 0, 1), ("x2", 0, 2)])
    for values in itertools.product((0, 1), repeat=2):
        e = Augmentation(2, {"x1": values[0], "x2": values[1]})
        assert check_augmentation(dga, e).ok


def test_check_augmentation_obstructed_unit():
    dga = Dga.build(2, gens=[("y", -1, 1)], diffs={"y": [(1, ())]})
    assert not check_augmentation(dga, Augmentation(2)).ok
    assert enumerate_augmentations(dga) == []


def test_check_augmentation_support_violation_reported_distinctly():
    dga = Dga.build(2, gens=[("y", -1, 1)])
    report = check_augmentation(dga, Augmentation(2, {"y": 1}))
    kinds = {v.kind for v in report}
    assert kinds == {"augmentation.support"}


def test_check_augmentation_example():
    dga = Dga.build(2, gens=[("y", -1, 2), ("x1", 0, 1), ("x2", 0, 1)],
                    diffs={"y": [(1, ("x1",)), (1, ("x1", "x2"))]})
    assert check_augmentation(dga, Augmentation(2, {"x1": 0})).ok
    assert not check_augmentation(dga, Augmentation(2, {"x1": 1, "x2": 0})).ok


def test_enumerate_trivial_cases():
    empty = Dga.build(2)
    assert enumerate_augmentations(empty) == [Augmentation(2)]
    one = Dga.build(2, gens=[("x", 0, 1)])
    assert len(enumerate_augmentations(one)) == 2


def test_enumerate_forced_value():
    dga = Dga.build(2, gens=[("y", -1, 2), ("x1", 0, 1), ("x2", 0, 1)],
                    diffs={"y": [(1, ("x1", "x2")), (1, ())]})
    found = enumerate_augmentations(dga)
    assert found == [Augmentation(2, {"x1": 1, "x2": 1})]


def test_enumeration_matches_brute_force():
    rng = random.Random(3)
    for p in (2, 3):
        for _ in range(40):
            gens = [(f"x{i}", 0, i + 1) for i in range(rng.randint(0, 4))]
            gens.append(("y", -1, 100))
            n = len(gens) - 1
            words = []
            for _ in range(rng.randint(0, 3)):
                word = tuple(f"x{rng.randrange(n)}" for _ in range(rng.randint(0, 2))) \
                    if n else ()
                words.append((rng.randint(1, p - 1), word))
            dga = Dga.build(p, gens=gens, diffs={"y": words} if words else None)
            fast = enumerate_augmentations(dga)
            slow = brute_force_augmentations(dga)
            assert fast == slow


def test_enumeration_order_is_lexicographic():
    dga = Dga.build(3, gens=[("a", 0, 1), ("b", 0, 2)])
    found = enumerate_augmentations(dga)
    listed = [tuple(e.value(n) for n in ("a", "b")) for e in found]
    assert listed == sorted(itertools.product(range(3), repeat=2))


def test_enumeration_leaves_no_reference_cycles():
    # a self-referencing walk closure left a cycle per call for the cyclic GC
    dga = Dga.build(3, gens=[("y", -1, 3), ("a", 0, 1), ("b", 0, 2)],
                    diffs={"y": [(1, ("a", "b")), (2, ())]})
    assert len(enumerate_augmentations(dga)) == 2
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            enumerate_augmentations(dga)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumeration_invariant_under_renaming_and_order():
    diffs = {"y": [(1, ("u", "v")), (1, ("u",))]}
    base = Dga.build(2, gens=[("y", -1, 5), ("u", 0, 1), ("v", 0, 2)], diffs=diffs)
    renamed = Dga.build(2, gens=[("y", -1, 5), ("p", 0, 1), ("q", 0, 2)],
                        diffs={"y": [(1, ("p", "q")), (1, ("p",))]})
    reordered = Dga.build(2, gens=[("v", 0, 2), ("y", -1, 5), ("u", 0, 1)], diffs=diffs)
    counts = {len(enumerate_augmentations(d)) for d in (base, renamed, reordered)}
    assert len(counts) == 1


def test_free_product_multiplies_counts():
    left = Dga.build(2, gens=[("y", -1, 4), ("x1", 0, 1), ("x2", 0, 2)],
                     diffs={"y": [(1, ("x1", "x2")), (1, ("x1",))]})
    right = Dga.build(2, gens=[("z", -1, 4), ("w", 0, 1)],
                      diffs={"z": [(1, ("w",))]})
    merged = Dga.build(2,
                       gens=[("y", -1, 4), ("x1", 0, 1), ("x2", 0, 2),
                             ("z", -1, 4), ("w", 0, 1)],
                       diffs={"y": [(1, ("x1", "x2")), (1, ("x1",))],
                              "z": [(1, ("w",))]})
    assert (len(enumerate_augmentations(merged))
            == len(enumerate_augmentations(left)) * len(enumerate_augmentations(right)))


def test_enumeration_bound_refusal():
    gens = [(f"x{i}", 0, i + 1) for i in range(6)]
    dga = Dga.build(2, gens=gens)
    with pytest.raises(EnumerationBoundError):
        enumerate_augmentations(dga, max_degree_zero=5)
    # exactly at the bound the enumeration runs: six free degree-0 generators
    assert len(enumerate_augmentations(dga, max_degree_zero=6)) == 2 ** 6
    # the default bound is 24
    wide = Dga.build(2, gens=[(f"x{i}", 0, i + 1) for i in range(25)])
    with pytest.raises(EnumerationBoundError,
                       match=r"\A25 degree-0 generators exceed the bound 24\Z"):
        enumerate_augmentations(wide)
    # a negative bound is vacuous, with or without degree-0 generators
    for algebra in (dga, Dga.build(2, gens=[("y", 1, 1)])):
        with pytest.raises(InputError,
                           match=r"\Amax_degree_zero must be nonnegative, got -1\Z"):
            enumerate_augmentations(algebra, max_degree_zero=-1)

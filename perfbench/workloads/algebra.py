"""``algebra``: the surgery pipeline, algebra-law cases and pruned
constraint enumeration, all seeded.

* Surgery: ``random_surgery_instance`` three times over every (k, chords
  per pair, p) in 1..6 x 1..6 x {2, 3}, then shape and d^2 validation, the base
  augmentations (checked against a brute-force oracle), an extension
  certificate per base augmentation (verified by ``verify_certificate`` and
  again by the oracle), and a ``serialize_dga``/``parse_dga`` round trip that
  must be byte-identical.
* Laws: associativity, distributivity, linearity of d, the graded Leibniz
  rule, d^2 = 0 and the action filtration on random ``NcPoly`` triples.
* Enumeration: constraint algebras whose solution count is p^(free vars),
  at p = 3 and p = 5, plus a small one compared with the oracle in full.

It uses ``poly``, ``dga``, ``augment``, ``surgery`` and ``textio``, and not
``bridge`` or ``pearly``.
"""

from __future__ import annotations

import importlib
import operator
import random
from fractions import Fraction

import oracle
from harness import PassResult, run_op

NAME = "algebra"
MIN_PASSES = 3
CHUNK = 18  # surgery instances per timed chunk; law cases per chunk: 5 x CHUNK
POOLED_CHUNKS = False
CHILD_PROCESSES = False
SURGERY_REPEATS = 3  # instances per (k, chords per pair, p)
LAW_CASES = 1500
# (variables, constraints, p, compare with the oracle in full)
ENUMERATIONS = [(20, 10, 3, False), (12, 6, 5, False), (8, 4, 3, True)]
SAMPLE_STRIDE = 61  # large enumerations: every 61st solution is re-evaluated


def _law_case(rng: random.Random):
    """Raw inputs of one law case: a small Dga spec over F_p and three
    polynomials plus a monomial, as plain tuples and dicts."""
    p = rng.choice((2, 2, 3, 5))
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
    names = [g[0] for g in gens]
    polys = []
    for _ in range(3):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            terms[tuple(rng.choice(names) for _ in range(rng.randint(0, 3)))] = \
                rng.randint(1, p - 1)
        polys.append(terms)
    word = tuple(rng.choice(names) for _ in range(rng.randint(0, 3)))
    degree = {g[0]: g[1] for g in gens}
    sign = -1 if (p != 2 and sum(degree[n] for n in word) % 2) else 1
    return p, gens, diffs, polys, word, rng.randint(1, p - 1), sign


def _constraint_spec(rng: random.Random, n: int, m: int, p: int):
    """d y_i = c0 + c1 x_i x_{i+1} + c2 x_{i+2} with seeded coefficients,
    c1, c2 != 0: each constraint fixes x_{i+2}, so there are exactly
    p^(n - m) solutions."""
    gens = [(f"x{i:02d}", 0, Fraction(i, 100)) for i in range(1, n + 1)]
    diffs = {}
    for i in range(1, m + 1):
        gens.append((f"y{i:02d}", -1, Fraction(i, 1)))
        diffs[f"y{i:02d}"] = [(rng.randrange(p), ()),
                              (rng.randint(1, p - 1), (f"x{i:02d}", f"x{i + 1:02d}")),
                              (rng.randint(1, p - 1), (f"x{i + 2:02d}",))]
    return p, gens, diffs, p ** (n - m)


def make_inputs(cedga, seed: int, workdir: str):
    rng = random.Random(seed)
    surgery = [(k, chords, p, rng.randrange(2 ** 31))
               for k in range(1, 7) for chords in range(1, 7) for p in (2, 3)
               for _ in range(SURGERY_REPEATS)]
    laws = [_law_case(rng) for _ in range(LAW_CASES)]
    enumerations = [_constraint_spec(rng, n, m, p) + (full,)
                    for n, m, p, full in ENUMERATIONS]
    return {"surgery": surgery, "laws": laws, "enumerations": enumerations,
            "textio": importlib.import_module("cedga.textio")}


def _check_surgery(cedga, textio, tr, k, chords, p, seed, counters):
    S = tr.call("surgery.generate", cedga.random_surgery_instance, k, chords, seed, p)
    ok = tr.call("surgery.shape", cedga.validate_surgery_shape, S).ok
    ok &= tr.call("dga.validate", S.dga.validate_d_squared).ok
    base = tr.call("surgery.base_ce", S.base_ce)
    augs = tr.call("augment.enumerate", cedga.enumerate_augmentations, base)
    counters["solutions"] += len(augs)
    expected = oracle.brute_force_augmentations(base)
    ok &= bool(augs) and sorted(oracle.key(e.values) for e in augs) == \
        sorted(oracle.key(v) for v in expected)
    connectors = [n for n, role in S.roles.items() if role.type == "a"]
    for eb in augs:
        cert = tr.call("surgery.extend", cedga.construct_surgery_augmentation, S, eb)
        ok &= cert.ok
        ok &= tr.call("surgery.verify", cedga.verify_certificate, S, cert, eb).ok
        values = cert.augmentation.values
        ok &= oracle.vanishes(S.dga, values)
        ok &= all(values.get(n, 0) == 1 for n in connectors)
        ok &= all(values.get(n, 0) == eb.values.get(n, 0) for n in S.base_names)
        counters["certificates"] += 1
    doc = tr.call("textio.document", textio.DgaDocument, S.dga, (), dict(S.roles))
    text = tr.call("textio.serialize", textio.serialize_dga, doc)
    back = tr.call("textio.parse", textio.parse_dga, text)
    ok &= tr.call("textio.serialize", textio.serialize_dga, back) == text
    counters["textio.bytes"] += 2 * len(text.encode("utf-8"))
    return ok


def _check_laws(cedga, tr, p, gens, diffs, polys, word, coeff, sign):
    arith, mul, add = "poly.arith", operator.mul, operator.add
    d_name = "dga.apply_differential"
    eq = operator.eq
    dga = tr.call("dga.build", cedga.Dga.build, p, gens, diffs)
    d = dga.apply_differential
    a, b, c = (tr.call("poly.new", cedga.NcPoly, p, terms) for terms in polys)
    mono = tr.call("poly.new", cedga.NcPoly.monomial, p, word, coeff)
    ok = tr.call("poly.eq", eq,
                 tr.call(arith, mul, tr.call(arith, mul, a, b), c),
                 tr.call(arith, mul, a, tr.call(arith, mul, b, c)))
    ok &= tr.call("poly.eq", eq,
                  tr.call(arith, mul, a, tr.call(arith, add, b, c)),
                  tr.call(arith, add, tr.call(arith, mul, a, b), tr.call(arith, mul, a, c)))
    ok &= tr.call("poly.eq", eq,
                  tr.call(d_name, d, tr.call(arith, add, a, b)),
                  tr.call(arith, add, tr.call(d_name, d, a), tr.call(d_name, d, b)))
    db = tr.call(d_name, d, b)
    leibniz = tr.call(arith, add,
                      tr.call(arith, mul, tr.call(d_name, d, mono), b),
                      tr.call(arith, mul, tr.call(arith, mul, mono, db), sign))
    ok &= tr.call("poly.eq", eq, tr.call(d_name, d, tr.call(arith, mul, mono, b)), leibniz)
    da = tr.call(d_name, d, a)
    ok &= not tr.call(d_name, d, da).terms
    if a.terms and da.terms:
        ok &= (tr.call("dga.max_action", dga.max_action, da)
               < tr.call("dga.max_action", dga.max_action, a))
    return ok


def _check_enumeration(cedga, tr, p, gens, diffs, count, full, counters):
    dga = tr.call("dga.build", cedga.Dga.build, p, gens, diffs)
    ok = tr.call("dga.validate", dga.validate_all).ok
    found = tr.call("augment.enumerate", cedga.enumerate_augmentations, dga)
    counters["solutions"] += len(found)
    # value vectors in name order: small, so the check barely adds to peak RSS
    names = [name for name, degree, _ in gens if degree == 0]
    keys = {tuple(e.values.get(n, 0) for n in names) for e in found}
    ok &= len(found) == len(keys) == count
    if full:
        ok &= keys == {tuple(v.get(n, 0) for n in names)
                       for v in oracle.brute_force_augmentations(dga)}
    else:
        ok &= all(oracle.vanishes(dga, e.values) for e in found[::SAMPLE_STRIDE])
    return ok


def run_pass(cedga, inputs, tr) -> PassResult:
    result = PassResult()
    counters = result.counters
    for key in ("solutions", "certificates", "textio.bytes"):
        counters[key] = 0
    for idx, (k, chords, p, seed) in enumerate(inputs["surgery"]):
        run_op(result, tr, "algebra.surgery",
               f"surgery k={k} chords={chords} p={p} seed={seed}",
               _check_surgery, cedga, inputs["textio"], tr, k, chords, p, seed, counters)
        if idx % CHUNK == CHUNK - 1:
            result.lap()
    for idx, case in enumerate(inputs["laws"]):
        run_op(result, tr, "algebra.laws", f"law case {idx}", _check_laws,
               cedga, tr, *case)
        if idx % (5 * CHUNK) == 5 * CHUNK - 1:
            result.lap()
    for p, gens, diffs, count, full in inputs["enumerations"]:
        run_op(result, tr, "algebra.enumerate", f"enumeration p={p} count={count}",
               _check_enumeration, cedga, tr, p, gens, diffs, count, full, counters)
        result.lap()
    return result


def layer_metrics(calls, self_s, result) -> dict:
    enumerate_s = self_s.get("augment.enumerate", 0.0)
    return {
        "surgery.generate.self_s": self_s.get("surgery.generate", 0.0),
        "surgery.shape.self_s": self_s.get("surgery.shape", 0.0),
        "dga.validate.self_s": self_s.get("dga.validate", 0.0),
        "surgery.extend.calls": calls.get("surgery.extend", 0),
        "surgery.extend.self_s": self_s.get("surgery.extend", 0.0),
        "surgery.verify.self_s": self_s.get("surgery.verify", 0.0),
        "augment.enumerate.calls": calls.get("augment.enumerate", 0),
        "augment.enumerate.self_s": enumerate_s,
        "augment.enumerate.solutions": result.counters["solutions"],
        "augment.enumerate.solutions_per_s":
            result.counters["solutions"] / enumerate_s if enumerate_s else 0.0,
        "poly.arith.calls": calls.get("poly.arith", 0),
        "poly.arith.self_s": self_s.get("poly.arith", 0.0),
        "dga.apply_differential.calls": calls.get("dga.apply_differential", 0),
        "dga.apply_differential.self_s": self_s.get("dga.apply_differential", 0.0),
        "textio.serialize.self_s": self_s.get("textio.serialize", 0.0),
        "textio.parse.self_s": self_s.get("textio.parse", 0.0),
        "textio.bytes": result.counters["textio.bytes"],
    }

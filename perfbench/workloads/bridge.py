"""``bridge``: the cochain/augmentation bridge over the whole exhaustive
disk-count family (kept in memory) plus seeded random tables.

Per table: ``DiskCountTable.build``, ``derive_ce``, ``verify_mc_aug_identity``
and ``mc_residual`` on every cochain, then ``enumerate_augmentations``,
``check_augmentation`` and ``eps_from_b``/``b_from_eps`` round trips both
ways (the criterion-1/2 checks).  Random tables check the identity on their
seeded cochain and the bijection on every cochain.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import oracle
from harness import PassResult, load_json, run_op

NAME = "bridge"
MIN_PASSES = 2
POOLED_CHUNKS = True
CHUNK = 1000  # tables per timed chunk
CHILD_PROCESSES = False
RANDOM_TABLES = 1000
EXPECTED = load_json("expected.json")["bridge"]

# degree patterns of <= 3 double points: degree-1 cochain support and
# degree-2 obstruction outputs, words of length <= 3
PATTERNS = [(1,), (2,), (1, 1), (1, 2), (2, 2),
            (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]


def _family(cedga):
    """Raw inputs of every F_2 table on the entry universe of each pattern:
    (generators, entries, degree-1 names)."""
    dp = cedga.GeneratorKind.DOUBLE_POINT_POS
    family = []
    for pattern in PATTERNS:
        names = [f"p{t}" for t in range(len(pattern))]
        gens = [cedga.Generator(n, d, Fraction(1) if d == 2 else Fraction(t + 1, 100), dp)
                for t, (n, d) in enumerate(zip(names, pattern))]
        deg1 = tuple(n for n, d in zip(names, pattern) if d == 1)
        universe = [(out, word, 1)
                    for out in (n for n, d in zip(names, pattern) if d == 2)
                    for length in range(4)
                    for word in itertools.product(deg1, repeat=length)]
        for bits in range(2 ** len(universe)):
            entries = [e for i, e in enumerate(universe) if bits >> i & 1]
            family.append((gens, entries, deg1))
    return family


def _random_tables(cedga, rng: random.Random):
    """Seeded tables of 4-6 double points with degrees in 0..3 and up to 20
    entries, many of them rejected by the load filters, each with one
    seeded cochain: (generators, entries, degree-1 names, cochain values)."""
    dp = cedga.GeneratorKind.DOUBLE_POINT_POS
    tables = []
    for _ in range(RANDOM_TABLES):
        gens = []
        for i in range(rng.randint(4, 6)):
            degree = rng.choice((0, 1, 1, 2, 2, 3))
            action = (Fraction(rng.randint(60, 200), 59) if degree == 2
                      else Fraction(rng.randint(1, 40), 41))
            gens.append(cedga.Generator(f"g{i}", degree, action, dp))
        names = [g.name for g in gens]
        entries = [(rng.choice(names),
                    tuple(rng.choice(names) for _ in range(rng.randint(0, 3))), 1)
                   for _ in range(rng.randint(0, 20))]
        deg1 = tuple(sorted(g.name for g in gens if g.degree == 1))
        values = {name: rng.randrange(2) for name in deg1}
        tables.append((gens, entries, deg1, values))
    return tables


def make_inputs(cedga, seed: int, workdir: str):
    """Family and random tables in one seeded order, so that every chunk of
    CHUNK tables is a like sample of the work."""
    rng = random.Random(seed)
    tables = [(f"family table {i}", gens, entries, deg1, None)
              for i, (gens, entries, deg1) in enumerate(_family(cedga))]
    tables += [(f"random table {i}", gens, entries, deg1, values)
               for i, (gens, entries, deg1, values) in enumerate(_random_tables(cedga, rng))]
    rng.shuffle(tables)
    return {"tables": tables}


def _check_table(cedga, tr, gens, entries, deg1, identity_values, counters, kept):
    """One table through the whole bridge; True when every check holds.
    ``identity_values`` None (a family table) checks the identity on every
    cochain, else only on that one."""
    family = identity_values is None
    table = tr.call("bridge.build", cedga.DiskCountTable.build, 2, gens, entries)
    kept.append(table)
    counters["family_tables"] += family
    counters["entries_given"] += len(entries)
    counters["entries_rejected"] += len(table.rejected)
    ce = tr.call("bridge.derive_ce", cedga.derive_ce, table)
    ok = True
    solving = []
    for values in itertools.product((0, 1), repeat=len(deg1)):
        b = tr.call("bridge.cochain", cedga.BoundingCochain, 2, dict(zip(deg1, values)))
        if family:
            ok &= tr.call("bridge.identity", cedga.verify_mc_aug_identity, table, b)
            counters["identity_checks"] += 1
            counters["family_cochains"] += 1
        residual = tr.call("bridge.mc_residual", cedga.mc_residual, table, b)
        if not any(residual.values()):
            solving.append(b)
    if not family:
        b = tr.call("bridge.cochain", cedga.BoundingCochain, 2, identity_values)
        ok &= tr.call("bridge.identity", cedga.verify_mc_aug_identity, table, b)
        counters["identity_checks"] += 1
    augmented = tr.call("augment.enumerate", cedga.enumerate_augmentations, ce)
    counters["solutions"] += len(augmented)
    if family:
        counters["family_solutions"] += len(augmented)
    ok &= len(solving) == len(augmented)
    images = []
    for b in solving:  # forward: each solving cochain is an augmentation
        eps = tr.call("bridge.transcribe", cedga.eps_from_b, b)
        ok &= tr.call("augment.check", cedga.check_augmentation, ce, eps).ok
        ok &= tr.call("bridge.transcribe", cedga.b_from_eps, table, eps) == b
        images.append(oracle.key(eps.values))
    for eps in augmented:  # backward: each augmentation solves the equation
        b = tr.call("bridge.transcribe", cedga.b_from_eps, table, eps)
        ok &= not any(tr.call("bridge.mc_residual", cedga.mc_residual, table, b).values())
        ok &= tr.call("bridge.transcribe", cedga.eps_from_b, b) == eps
    ok &= sorted(images) == sorted(oracle.key(e.values) for e in augmented)
    return ok


def run_pass(cedga, inputs, tr) -> PassResult:
    result = PassResult()
    counters = result.counters
    for key in ("tables", "family_tables", "entries_given", "entries_rejected",
                "identity_checks", "family_cochains", "solutions", "family_solutions"):
        counters[key] = 0
    kept = []  # the whole family stays in memory, as the fixture keeps it
    tables = inputs["tables"]
    for idx, (what, gens, entries, deg1, values) in enumerate(tables):
        run_op(result, tr, "bridge.table", what, _check_table,
               cedga, tr, gens, entries, deg1, values, counters, kept)
        if idx % CHUNK == CHUNK - 1 or idx == len(tables) - 1:
            result.lap(idx % CHUNK + 1)
    counters["tables"] = len(kept)
    result.check(counters["family_tables"] == EXPECTED["family_tables"]
                 and counters["family_cochains"] == EXPECTED["family_cochains"]
                 and counters["family_solutions"] == EXPECTED["family_solutions"]
                 and counters["identity_checks"]
                 == EXPECTED["family_cochains"] + RANDOM_TABLES
                 and counters["tables"] == EXPECTED["family_tables"] + RANDOM_TABLES,
                 f"bridge totals {counters} differ from {EXPECTED}")
    return result


def layer_metrics(calls, self_s, result) -> dict:
    c = result.counters
    busy = sum(v for k, v in self_s.items()
               if k.startswith("bridge.") and k != "bridge.table" or k.startswith("augment."))
    return {
        "bridge.build.calls": calls.get("bridge.build", 0),
        "bridge.build.self_s": self_s.get("bridge.build", 0.0),
        "bridge.build.rejected_frac": c["entries_rejected"] / c["entries_given"],
        "bridge.derive_ce.self_s": self_s.get("bridge.derive_ce", 0.0),
        "bridge.cochain.self_s": self_s.get("bridge.cochain", 0.0),
        "bridge.identity.calls": calls.get("bridge.identity", 0),
        "bridge.identity.self_s": self_s.get("bridge.identity", 0.0),
        "bridge.mc_residual.self_s": self_s.get("bridge.mc_residual", 0.0),
        "bridge.transcribe.self_s": self_s.get("bridge.transcribe", 0.0),
        "bridge.tables_per_s": c["tables"] / busy,
        "augment.enumerate.calls": calls.get("augment.enumerate", 0),
        "augment.enumerate.self_s": self_s.get("augment.enumerate", 0.0),
        "augment.enumerate.solutions": c["solutions"],
        "augment.enumerate.solutions_per_s":
            c["solutions"] / self_s.get("augment.enumerate", 0.0),
        "augment.check.self_s": self_s.get("augment.check", 0.0),
    }

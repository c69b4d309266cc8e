"""Seeded digests: a one-character change to any parser outcome or to a
count table's repr, counts, rejections or derived algebra fails one of these.

Each test hashes every outcome of a fixed, seeded workload.  A change that
moves a digest on purpose names the behaviour change in CHANGES.md."""

import hashlib
import random
from fractions import Fraction
from importlib import resources

from cedga import (BoundingCochain, DiskCountTable, Generator, GeneratorKind, InputError,
                   StripCountTable, deformed_differential, derive_ce)
from cedga.corpus import FILES
from cedga.textio import (parse_dga, parse_disk_counts, parse_strip_counts,
                          parse_traj_config, parse_tree_config, parse_values, serialize_dga,
                          serialize_disk_counts, serialize_strip_counts, serialize_traj_config,
                          serialize_tree_config, serialize_values)

PARSERS = [
    ("dga", parse_dga, serialize_dga),
    ("dga-field-3", lambda text: parse_dga(text, field_override=3), serialize_dga),
    ("disk", parse_disk_counts, serialize_disk_counts),
    ("strip", parse_strip_counts, serialize_strip_counts),
    ("values", lambda text: parse_values(text, 2), lambda values: serialize_values(2, values)),
    ("tree", parse_tree_config, serialize_tree_config),
    ("traj", parse_traj_config, serialize_traj_config),
]
# tokens a mutated line may take: edge values for every field of every directive
ODD_TOKENS = ["0", "-1", "3", "1/0", "2/4", "-1/2", "x", "x1", "=", ":", "dp+", "mixed",
              "bottom:", "top:", "9" * 5000, "#", "field", "gen", "d", "count", "strip"]
PARSER_DIGEST = "71d27f68c3cb4ca7f765f2aa0d7dfc0b36a36dba1ce17bd61a651b36546de580"
TABLE_DIGEST = "b0875c068018afbcd910d10fbe36e3d40e449212b26087ac853ad3138b7aca75"


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _mutants(text: str, rng: random.Random):
    """Each line deleted, duplicated, and with one token dropped, replaced
    and swapped with its neighbour."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        before, after = lines[:i], lines[i + 1:]
        tokens = line.split()
        variants = [[], [line, line]]
        if tokens:
            j = rng.randrange(len(tokens))
            variants.append([" ".join(tokens[:j] + tokens[j + 1:])])
            variants.append([" ".join(tokens[:j] + [rng.choice(ODD_TOKENS)] + tokens[j + 1:])])
            if j + 1 < len(tokens):
                tokens[j], tokens[j + 1] = tokens[j + 1], tokens[j]
                variants.append([" ".join(tokens)])
        for variant in variants:
            yield "\n".join(before + variant + after) + "\n"


def parser_outcomes():
    rng = random.Random(19)
    texts = [resources.files("cedga.corpus").joinpath(name).read_text() for name in FILES]
    out = []
    for name, text in zip(FILES, texts):
        for index, mutant in enumerate([text, *_mutants(text, rng)]):
            for label, parse, serialize in PARSERS:
                try:
                    outcome = serialize(parse(mutant))
                except InputError as exc:
                    outcome = f"{type(exc).__name__}: {exc}"
                out.append(f"{name} #{index} {label}\n{outcome}")
    return out


def test_parser_outcomes_on_corpus_mutants_pinned():
    outcomes = parser_outcomes()
    assert len(outcomes) > 3000
    accepted = sum(not o.split("\n", 1)[1].startswith("DocumentError") for o in outcomes)
    assert 150 < accepted < len(outcomes) - 3000
    assert _digest(outcomes) == PARSER_DIGEST


def _points(rng, prefix, kind, count):
    return [Generator(f"{prefix}{i}", rng.choice((-1, 0, 1, 1, 2, 3)),
                      Fraction(rng.randint(1, 60), rng.choice((1, 7, 37))) * (
                          -1 if kind is GeneratorKind.MIXED_CHORD else 1), kind)
            for i in range(count)]


def _word(rng, names, longest):
    return tuple(rng.choice(names) for _ in range(rng.randint(0, longest))) if names else ()


def random_tables():
    """400 seeded disk tables, then 400 seeded strip tables, each strip table
    with a cochain per side (None for a disk table)."""
    rng = random.Random(23)
    for _ in range(400):
        p = rng.choice((2, 3, 5))
        points = _points(rng, "g", GeneratorKind.DOUBLE_POINT_POS, rng.randint(1, 5))
        names = [g.name for g in points]
        yield DiskCountTable.build(p, points, [
            (rng.choice(names), _word(rng, names, 3), rng.randint(-1, p))
            for _ in range(rng.randint(0, 12))]), None
    for _ in range(400):
        p = rng.choice((2, 3))
        chords = _points(rng, "c", GeneratorKind.MIXED_CHORD, rng.randint(1, 4))
        bottom = _points(rng, "b", GeneratorKind.DOUBLE_POINT_POS, rng.randint(0, 3))
        top = _points(rng, "t", GeneratorKind.DOUBLE_POINT_POS, rng.randint(0, 3))
        chord_names = [g.name for g in chords]
        table = StripCountTable.build(p, chords, bottom, top, [
            (rng.choice(chord_names), rng.choice(chord_names),
             _word(rng, [g.name for g in bottom], 2), _word(rng, [g.name for g in top], 2),
             rng.randint(-1, p))
            for _ in range(rng.randint(0, 10))])
        yield table, [BoundingCochain(p, {g.name: rng.randrange(p) for g in side})
                      for side in (bottom, top)]


def table_outcomes():
    out = []
    for table, cochains in random_tables():
        out += [repr(table), repr(table.counts), repr(table.rejected),
                serialize_dga(derive_ce(table)) if cochains is None
                else repr(deformed_differential(table, *cochains))]
    return out


def test_random_count_tables_pinned():
    outcomes = table_outcomes()
    assert sum(o != "()" for o in outcomes[2::4]) > 200  # tables with rejections
    assert _digest(outcomes) == TABLE_DIGEST


def test_strip_tables_parse_back_from_their_text():
    strips = [table for table, cochains in random_tables() if cochains is not None]
    # 97 of them keep at least one count
    assert len(strips) == 400 and sum(bool(table.counts) for table in strips) == 97
    for table in strips:
        assert parse_strip_counts(serialize_strip_counts(table)).counts == table.counts

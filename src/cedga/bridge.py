"""Disk and strip count tables, bounding cochains, and the bridge between
cochains on double points and augmentations of the chord algebra.

Counts are input data.  Tables apply two admissibility filters at load time:
the rigidity degree identity and the strict energy inequality.  Entries that
fail a filter are kept on the table's ``rejected`` list with a reason instead
of aborting the load.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Container, Iterable, NamedTuple

from .augment import Augmentation
from .dga import Dga, Generator, GeneratorKind, ValidationReport, scale_actions
from .field import InputError, SparseValues, check_characteristic, require_same_field
from .poly import NcPoly, evaluate_terms, weighted_series


class SupportError(InputError):
    """A cochain or augmentation is supported outside its allowed domain."""


class RejectedEntry(NamedTuple):
    entry: str
    reason: str


def _entry_text(output: str, inputs: tuple[str, ...]) -> str:
    return f"({output}; {', '.join(inputs) if inputs else ''})"


def _declare(gens: Iterable[Generator], kind: GeneratorKind, wrong_kind: str,
             duplicate: str, taken: Container[str] = ()) -> dict[str, Generator]:
    """Declared generators by name.  A generator of another kind raises
    ValueError with ``wrong_kind`` formatted on it; a name seen before or in
    ``taken`` raises ValueError with ``duplicate`` formatted on the name."""
    declared: dict[str, Generator] = {}
    for gen in gens:
        if gen.kind is not kind:
            raise ValueError(wrong_kind.format(gen))
        if gen.name in declared or gen.name in taken:
            raise ValueError(duplicate.format(gen.name))
        declared[gen.name] = gen
    return declared


class DiskCountTable(NamedTuple):
    """Rigid-disk counts, stored by output: ``counts[output][word]`` is the
    nonzero count of disks with that output double point and ordered input
    word; outputs without a count are absent, the rest sorted.

    Every named generator must be a declared positive-action double point.
    Entries violating the degree identity deg(out) - sum deg(in) = 2 - #in
    or the energy inequality a(out) > sum a(in) are rejected at load; the
    energy inequality is decided exactly on integer action numerators over
    the table's common denominator, and a reason prints both sides reduced.
    """

    p: int
    double_points: dict[str, Generator]
    counts: dict[str, dict[tuple[str, ...], int]]
    rejected: tuple[RejectedEntry, ...] = ()

    @classmethod
    def build(cls, p: int, double_points: Iterable[Generator],
              entries: Iterable[tuple[str, Iterable[str], int]]) -> "DiskCountTable":
        check_characteristic(p)
        points = _declare(double_points, GeneratorKind.DOUBLE_POINT_POS,
                          "{0.name!r} must be a positive double point, got {0.kind}",
                          "duplicate double point {!r}")
        # each point's degree and action numerator over the common denominator
        scale, numerators = scale_actions(points)
        scaled = {n: (g.degree, numerators[n]) for n, g in points.items()}
        counts: dict[str, dict[tuple[str, ...], int]] = {}
        rejected: list[RejectedEntry] = []
        for output, inputs, coeff in entries:
            word = tuple(inputs)
            for name in (output,) + word:
                if name not in points:
                    raise ValueError(f"count entry references undeclared double point {name!r}")
            if not isinstance(coeff, int):
                raise TypeError(f"count of {_entry_text(output, word)} must be an int, "
                                f"got {type(coeff).__name__}")
            coeff %= p
            if not coeff:
                continue
            out_degree, out_num = scaled[output]
            in_degree = in_num = 0
            for name in word:
                degree, num = scaled[name]
                in_degree += degree
                in_num += num
            if out_degree - in_degree != 2 - len(word):
                rejected.append(RejectedEntry(
                    _entry_text(output, word),
                    f"degree {out_degree} - {in_degree} != 2 - {len(word)}"))
                continue
            if out_num <= in_num:
                rejected.append(RejectedEntry(
                    _entry_text(output, word),
                    f"action {points[output].action} not above input total "
                    f"{Fraction(in_num, scale)}"))
                continue
            words = counts.setdefault(output, {})
            words[word] = (words.get(word, 0) + coeff) % p
            if not words[word]:
                del words[word]
                if not words:
                    del counts[output]
        return cls(p, points, dict(sorted(counts.items())), tuple(rejected))

    def __repr__(self) -> str:
        return (f"DiskCountTable(p={self.p}, points={len(self.double_points)}, "
                f"entries={sum(map(len, self.counts.values()))}, "
                f"rejected={len(self.rejected)})")


class BoundingCochain(SparseValues):
    """Finitely supported coefficients on positive-action double points."""

    __slots__ = ("p", "coefficients")
    _values = "coefficients"
    _label = "coefficient of {!r}"


def _require_degree_one(table: DiskCountTable, p: int, support: Iterable[str],
                        message: str = "cochain supported on {!r}, which is not a "
                                       "degree-1 double point") -> None:
    """Raise FieldMismatchError unless p is the table's characteristic, then
    SupportError, with ``message`` formatted on the name, at the first name of
    ``support`` in sorted order that is not a degree-1 double point of ``table``."""
    require_same_field(table.p, p)
    points, first = table.double_points, None
    for name in support:
        g = points.get(name)
        if (g is None or g.degree != 1) and (first is None or name < first):
            first = name
    if first is not None:
        raise SupportError(message.format(first))


def _derived_differential(table: DiskCountTable, output: str) -> NcPoly:
    """Differential of the chord at ``output`` in the derived algebra: the
    stored counts at that output, inputs kept in written order, held as is."""
    return NcPoly._trusted(table.p, table.counts[output])


def derive_ce(table: DiskCountTable) -> Dga:
    """Chord algebra read off a disk-count table: one chord per double point
    with degree 1 - deg and the same (positive) action, differential given by
    ``_derived_differential``."""
    gens = [Generator(name, 1 - g.degree, g.action, GeneratorKind.REEB_CHORD)
            for name, g in table.double_points.items()]
    diff = {output: _derived_differential(table, output) for output in table.counts}
    return Dga(table.p, gens, diff, d_degree=1)


def mc_residual(table: DiskCountTable, b: BoundingCochain) -> dict[str, int]:
    """Obstruction series evaluated at every degree-2 output present in the
    table; b solves the deformation equation iff the residual is identically
    zero.  Outputs absent from the table are implicitly unobstructed."""
    _require_degree_one(table, b.p, b.coefficients)
    out: dict[str, int] = {}
    for output, words in table.counts.items():
        if table.double_points[output].degree == 2:
            out[output] = weighted_series(words, b.coefficients, table.p)
    return out


def eps_from_b(b: BoundingCochain) -> Augmentation:
    """Coefficientwise transcription onto the corresponding chords."""
    return Augmentation._trusted(b.p, dict(b.coefficients))


def b_from_eps(table: DiskCountTable, e: Augmentation) -> BoundingCochain:
    """Inverse transcription; rejects augmentations supported on chords whose
    underlying double point does not have degree 1 (those chords have nonzero
    degree in the chord algebra)."""
    _require_degree_one(table, e.p, e.values, "augmentation value on {!r}, which is not a "
                                              "degree-0 chord of this table")
    return BoundingCochain._trusted(table.p, dict(e.values))


def verify_mc_aug_identity(table: DiskCountTable, b: BoundingCochain) -> bool:
    """Formal identity behind the bridge: at every output in the table, the
    weighted obstruction series equals the transcribed augmentation applied
    to the derived differential.  Holds for every table and cochain; the two
    sides are computed along independent code paths.  Only the differentials
    read are derived: no chord algebra is built."""
    _require_degree_one(table, b.p, b.coefficients)
    eps = eps_from_b(b)
    for output, words in table.counts.items():
        lhs = weighted_series(words, b.coefficients, table.p)
        rhs = eps.evaluate(_derived_differential(table, output))
        if lhs != rhs:
            return False
    return True


class StripCountTable(NamedTuple):
    """Decorated-strip counts for a pair of Lagrangians: entries are
    (output chord, input chord, bottom word, top word) -> count, filtered by
    the per-strip degree identity
    deg(out) - deg(in) - sum deg(marked) = 1 - #marked."""

    p: int
    chords: dict[str, Generator]
    dp_bottom: dict[str, Generator]
    dp_top: dict[str, Generator]
    counts: dict[tuple[str, str, tuple[str, ...], tuple[str, ...]], int]
    rejected: tuple[RejectedEntry, ...] = ()

    @classmethod
    def build(cls, p: int, chords: Iterable[Generator],
              dp_bottom: Iterable[Generator], dp_top: Iterable[Generator],
              entries: Iterable[tuple[str, str, Iterable[str], Iterable[str], int]]
              ) -> "StripCountTable":
        check_characteristic(p)
        chord_map = _declare(chords, GeneratorKind.MIXED_CHORD,
                             "chord {0.name!r} must have the mixed kind", "duplicate chord {!r}")
        # a name is one chord or one double point, on one side
        dp = (GeneratorKind.DOUBLE_POINT_POS, "{0.name!r} must be a positive double point",
              "duplicate generator {!r}")
        bottom = _declare(dp_bottom, *dp, chord_map)
        top = _declare(dp_top, *dp, chord_map.keys() | bottom.keys())
        counts: dict[tuple[str, str, tuple[str, ...], tuple[str, ...]], int] = {}
        rejected: list[RejectedEntry] = []
        for c_out, c_in, b_word, t_word, coeff in entries:
            bw, tw = tuple(b_word), tuple(t_word)
            for name in (c_out, c_in):
                if name not in chord_map:
                    raise ValueError(f"strip entry references undeclared chord {name!r}")
            for name in bw:
                if name not in bottom:
                    raise ValueError(f"strip entry references {name!r}, not a bottom double point")
            for name in tw:
                if name not in top:
                    raise ValueError(f"strip entry references {name!r}, not a top double point")
            if not isinstance(coeff, int):
                raise TypeError(f"count of strip ({c_out} <- {c_in}) must be an int, "
                                f"got {type(coeff).__name__}")
            coeff %= p
            if not coeff:
                continue
            marked = [bottom[n] for n in bw] + [top[n] for n in tw]
            lhs = (chord_map[c_out].degree - chord_map[c_in].degree
                   - sum(g.degree for g in marked))
            if lhs != 1 - len(marked):
                rejected.append(RejectedEntry(
                    f"({c_out} <- {c_in}; bottom {list(bw)}, top {list(tw)})",
                    f"degree balance {lhs} != 1 - {len(marked)}"))
                continue
            key = (c_out, c_in, bw, tw)
            counts[key] = (counts.get(key, 0) + coeff) % p
            if not counts[key]:
                del counts[key]
        return cls(p, chord_map, bottom, top, counts, tuple(rejected))

    def __repr__(self) -> str:
        return (f"StripCountTable(p={self.p}, chords={len(self.chords)}, "
                f"entries={len(self.counts)}, rejected={len(self.rejected)})")


class ChordMap(SparseValues):
    """Linear endomorphism of the chord module, stored as a sparse matrix
    keyed by (output chord, input chord)."""

    __slots__ = ("p", "entries")
    _values = "entries"
    _label = "entry {!r}"

    def nonzero_entries(self) -> list[tuple[str, str, int]]:
        return sorted((out, inp, c) for (out, inp), c in self.entries.items())

    def __repr__(self) -> str:
        return f"ChordMap(p={self.p}, entries={self.nonzero_entries()!r})"


def deformed_differential(table: StripCountTable, b0: BoundingCochain,
                          b1: BoundingCochain) -> ChordMap:
    """Differential twisted by a cochain on each Lagrangian: the (out, in)
    entry is the sum over stored decorated strips of
    count * product of bottom weights * product of top weights."""
    require_same_field(table.p, b0.p)
    require_same_field(table.p, b1.p)
    for name in sorted(b0.coefficients):
        if name not in table.dp_bottom:
            raise SupportError(f"bottom cochain supported on {name!r}, "
                               "not a bottom double point")
    for name in sorted(b1.coefficients):
        if name not in table.dp_top:
            raise SupportError(f"top cochain supported on {name!r}, "
                               "not a top double point")
    p, weights = table.p, {**b0.coefficients, **b1.coefficients}  # the sides share no name
    acc: dict[tuple[str, str], int] = {}
    for (c_out, c_in, bw, tw), coeff in table.counts.items():
        weight = evaluate_terms(((bw + tw, coeff),), weights, p)
        if weight:
            key = (c_out, c_in)
            acc[key] = acc.get(key, 0) + weight
    return ChordMap(p, acc)


def check_squared_zero(matrix: ChordMap) -> ValidationReport:
    """Diagnostic: does a twisted differential square to zero?  This is a
    consequence of geometric consistency, not an invariant of arbitrary
    user-supplied tables."""
    by_input: dict[str, list[tuple[str, int]]] = {}
    for (out, mid), c in matrix.entries.items():
        by_input.setdefault(mid, []).append((out, c))
    square: dict[tuple[str, str], int] = {}
    for (mid, inp), c2 in matrix.entries.items():
        for out, c1 in by_input.get(mid, ()):
            square[out, inp] = square.get((out, inp), 0) + c1 * c2
    report = ValidationReport()
    for out, inp, coeff in ChordMap(matrix.p, square).nonzero_entries():
        report.add("squared", f"({out}, {inp})",
                   f"square of the twisted differential has entry {coeff}")
    return report

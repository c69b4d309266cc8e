"""Graded generators and validated filtered DGAs.

A ``Dga`` bundles a generator table (name, integer degree, exact rational
action, kind tag) with a differential assignment per generator.  Validators
never raise on bad algebra: they return a ``ValidationReport`` listing every
violation, so whole corpora can be checked in one pass.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .field import InputError, check_characteristic, require_same_field
from .poly import NcPoly, Word, format_poly


class UndeclaredGeneratorError(InputError, KeyError):
    """A polynomial references a generator the algebra does not declare."""


class GeneratorKind(enum.Enum):
    MORSE = "morse"
    DOUBLE_POINT_POS = "dp+"
    DOUBLE_POINT_NEG = "dp-"
    REEB_CHORD = "reeb"
    MIXED_CHORD = "mixed"
    SURGERY_A = "a"
    SURGERY_B = "b"
    SURGERY_C = "c"

    @classmethod
    def from_token(cls, token: str) -> "GeneratorKind":
        try:
            return cls(token)
        except ValueError:
            raise ValueError(f"unknown generator kind {token!r}") from None


class _GeneratorFields(NamedTuple):
    name: str
    degree: int
    action: Fraction
    kind: GeneratorKind


class Generator(_GeneratorFields):
    """A named symbol with degree, exact action, and a kind tag."""

    __slots__ = ()

    def __new__(cls, name: str, degree: int, action: Fraction | int | str,
                kind: GeneratorKind = GeneratorKind.REEB_CHORD) -> "Generator":
        if type(action) is not Fraction:
            action = Fraction(action)
        # a Fraction's denominator is positive, so its numerator carries the sign
        if kind is GeneratorKind.DOUBLE_POINT_POS and action.numerator <= 0:
            raise ValueError(f"double point {name!r} tagged positive must have action > 0")
        if kind is GeneratorKind.DOUBLE_POINT_NEG and action.numerator >= 0:
            raise ValueError(f"double point {name!r} tagged negative must have action < 0")
        return super().__new__(cls, name, degree, action, kind)


def scale_actions(generators: Mapping[str, Generator]) -> tuple[int, dict[str, int]]:
    """``(scale, {name: action * scale})`` with ``scale`` the lcm of the action
    denominators, so that action sums and comparisons are integer ones."""
    scale = math.lcm(*(g.action.denominator for g in generators.values()))
    return scale, {n: g.action.numerator * (scale // g.action.denominator)
                   for n, g in generators.items()}


class _ChordRoleFields(NamedTuple):
    type: str
    i: int
    j: int | None
    m: int | None


class ChordRole(_ChordRoleFields):
    """Surgery role of a chord: type 'a' (connector), 'b' (hook) or
    'c' (transit), with source cocore i and, for b/c, target j and index m."""

    __slots__ = ()

    def __new__(cls, type: str, i: int, j: int | None = None,
                m: int | None = None) -> "ChordRole":
        if type not in ("a", "b", "c"):
            raise ValueError(f"role type must be a, b or c, got {type!r}")
        if type == "a":
            if j is not None or m is not None:
                raise ValueError("connector roles take only a source index")
        elif j is None or m is None:
            raise ValueError(f"{type!r} roles need target and multiplicity indices")
        return super().__new__(cls, type, i, j, m)


class Violation(NamedTuple):
    kind: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.subject}: {self.detail}"


class ValidationReport:
    """A value-carrying list of violations; empty means valid."""

    def __init__(self, violations: Iterable[Violation] = ()):
        self.violations: list[Violation] = list(violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, subject: str, detail: str) -> None:
        self.violations.append(Violation(kind, subject, detail))

    def extend(self, other: "ValidationReport") -> None:
        self.violations.extend(other.violations)

    def __iter__(self):
        return iter(self.violations)

    def __len__(self) -> int:
        return len(self.violations)

    def summary(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)

    def as_dicts(self) -> list[dict]:
        return [{"kind": v.kind, "subject": v.subject, "detail": v.detail}
                for v in self.violations]


class Dga:
    """Generator set plus differential, over a fixed prime field.

    ``generators`` is a read-only view and the polynomials are immutable by
    convention.  The differential degree defaults to +1 (cohomological); pass
    ``d_degree=-1`` for the homological convention.
    """

    def __init__(self, p: int, generators: Iterable[Generator],
                 differential: Mapping[str, NcPoly] | None = None,
                 d_degree: int = 1):
        check_characteristic(p)
        self.p = p
        self.d_degree = int(d_degree)
        gens: dict[str, Generator] = {}
        for gen in generators:
            if gen.name in gens:
                raise ValueError(f"duplicate generator name {gen.name!r}")
            gens[gen.name] = gen
        self.generators: Mapping[str, Generator] = MappingProxyType(gens)
        self._diff: dict[str, NcPoly] = {}
        for name, poly in (differential or {}).items():
            if name not in gens:
                raise UndeclaredGeneratorError(name)
            require_same_field(self.p, poly.p)
            for letter in poly.letters():
                if letter not in gens:  # name the least, whatever the set order
                    raise UndeclaredGeneratorError(min(poly.letters() - gens.keys()))
            if not poly.is_zero:
                self._diff[name] = poly

    # -- lookups -------------------------------------------------------

    def names(self) -> list[str]:
        return list(self.generators)

    def generator(self, name: str) -> Generator:
        try:
            return self.generators[name]
        except KeyError:
            raise UndeclaredGeneratorError(name) from None

    def degree_zero_names(self) -> list[str]:
        return [n for n, g in self.generators.items() if g.degree == 0]

    def differential_of(self, name: str) -> NcPoly:
        if name not in self._diff:
            self.generator(name)  # an undeclared name raises
        return self._diff.get(name) or NcPoly.zero(self.p)

    def nonzero_differentials(self) -> Mapping[str, NcPoly]:
        return MappingProxyType(self._diff)

    # -- word bookkeeping -----------------------------------------------

    def word_degree(self, word: Word) -> int:
        return sum(self.generator(name).degree for name in word)

    @cached_property
    def scaled_actions(self) -> tuple[int, dict[str, int]]:
        """``scale_actions(self.generators)``, derived once."""
        return scale_actions(self.generators)

    def _scaled_word_action(self, word: Word) -> int:
        try:
            return sum(map(self.scaled_actions[1].__getitem__, word))
        except KeyError as exc:
            raise UndeclaredGeneratorError(exc.args[0]) from None

    def word_action(self, word: Word) -> Fraction:
        return Fraction(self._scaled_word_action(word), self.scaled_actions[0])

    def max_action(self, poly: NcPoly) -> Fraction | None:
        """Largest monomial action of a polynomial, or None if zero."""
        if poly.is_zero:
            return None
        return Fraction(max(map(self._scaled_word_action, poly.terms)), self.scaled_actions[0])

    # -- the differential -------------------------------------------------

    def apply_differential(self, q: NcPoly) -> NcPoly:
        """Linear extension of d with the graded Leibniz rule
        d(ab) = (da) b + (-1)^{deg a} a (db); over F_2 the sign is immaterial.
        """
        require_same_field(self.p, q.p)
        p = self.p
        acc: dict[Word, int] = {}
        for word, coeff in q.terms.items():
            prefix_degree = 0
            for pos, letter in enumerate(word):
                dg = self._diff.get(letter)
                if dg is None:
                    self.generator(letter)  # raises if undeclared
                else:
                    sign = -1 if (p != 2 and prefix_degree % 2) else 1
                    head, tail = word[:pos], word[pos + 1:]
                    for dword, dcoeff in dg.terms.items():
                        key = head + dword + tail
                        acc[key] = acc.get(key, 0) + sign * coeff * dcoeff
                prefix_degree += self.generator(letter).degree
        return NcPoly(p, acc)

    # -- validators -------------------------------------------------------

    def validate_d_squared(self) -> ValidationReport:
        """List every generator g with d(d(g)) != 0, with the residual."""
        report = ValidationReport()
        for name, poly in self._diff.items():
            residual = self.apply_differential(poly)
            if not residual.is_zero:
                report.add("d_squared", name, f"d(d({name})) = {format_poly(residual)}")
        return report

    def validate_grading(self) -> ValidationReport:
        """Flag every monomial of d(g) whose degree is not deg(g) + d_degree."""
        report = ValidationReport()
        for name, poly in self._diff.items():
            expected = self.generator(name).degree + self.d_degree
            for word in poly.words():
                got = self.word_degree(word)
                if got != expected:
                    report.add("grading", name,
                               f"monomial {' '.join(word) or '1'} has degree {got}, "
                               f"expected {expected}")
        return report

    def validate_action(self) -> ValidationReport:
        """Flag every monomial of d(g) whose action is >= action(g).

        The empty word counts as action 0, so the strict decrease is exactly
        the energy inequality for the filtration.
        """
        report = ValidationReport()
        for name, poly in self._diff.items():
            bound = self.scaled_actions[1][name]
            for word in poly.words():
                if self._scaled_word_action(word) >= bound:
                    got, expected = self.word_action(word), self.generator(name).action
                    report.add("action", name, f"monomial {' '.join(word) or '1'} has action "
                               f"{got}, not below {expected}")
        return report

    def validate_all(self) -> ValidationReport:
        report = self.validate_d_squared()
        report.extend(self.validate_grading())
        report.extend(self.validate_action())
        return report

    # -- convenience -------------------------------------------------------

    @classmethod
    def build(cls, p: int = 2, gens: Iterable[tuple] = (), diffs: Mapping | None = None,
              d_degree: int = 1) -> "Dga":
        """Compact constructor for tests and instance generators.

        ``gens`` items are ``(name, degree, action[, kind])`` with kind given
        as a GeneratorKind or its token; ``diffs`` maps a name to a list of
        ``(coeff, word)`` pairs.
        """
        generators = []
        for item in gens:
            name, degree, action = item[0], item[1], item[2]
            kind = item[3] if len(item) > 3 else GeneratorKind.REEB_CHORD
            if isinstance(kind, str):
                kind = GeneratorKind.from_token(kind)
            generators.append(Generator(name, degree, Fraction(action), kind))
        differential = {name: NcPoly.from_pairs(p, value)
                        for name, value in (diffs or {}).items()}
        return cls(p, generators, differential, d_degree)

    def __repr__(self) -> str:
        return (f"Dga(p={self.p}, generators={len(self.generators)}, "
                f"nonzero_differentials={len(self._diff)}, d_degree={self.d_degree})")

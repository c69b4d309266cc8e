"""Free noncommutative polynomials with prime-field coefficients.

A word is a tuple of generator names; the empty tuple is the unit word.
Polynomials are kept in canonical form at all times: coefficients reduced
into ``[1, p)`` and zero terms dropped, so equality is plain term-by-term
comparison.  Instances are treated as immutable; all operations return new
polynomials.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .field import SparseValues, require_same_field

Word = tuple[str, ...]

UNIT_WORD: Word = ()


class NcPoly(SparseValues):
    """Finite formal sum of words with coefficients in F_p."""

    __slots__ = ("p", "terms")
    _values = "terms"
    _label = "coefficient of {!r}"

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "NcPoly":
        return cls(p)

    @classmethod
    def unit(cls, p: int) -> "NcPoly":
        return cls(p, {UNIT_WORD: 1})

    @classmethod
    def generator(cls, p: int, name: str) -> "NcPoly":
        return cls(p, {(name,): 1})

    @classmethod
    def monomial(cls, p: int, word: Iterable[str], coeff: int = 1) -> "NcPoly":
        return cls(p, {tuple(word): coeff})

    @classmethod
    def from_pairs(cls, p: int, pairs: Iterable[tuple[int, Iterable[str]]]) -> "NcPoly":
        """Sum of ``coeff * word`` contributions; repeated words accumulate."""
        acc: dict[Word, int] = {}
        for coeff, word in pairs:
            key = tuple(word)
            acc[key] = acc.get(key, 0) + coeff
        return cls(p, acc)

    # -- queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def words(self) -> list[Word]:
        return sorted(self.terms, key=lambda w: (len(w), w))

    def letters(self) -> set[str]:
        out: set[str] = set()
        for word in self.terms:
            out.update(word)
        return out

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "NcPoly") -> "NcPoly":
        if not isinstance(other, NcPoly):
            return NotImplemented
        require_same_field(self.p, other.p)
        acc = dict(self.terms)
        for word, coeff in other.terms.items():
            acc[word] = acc.get(word, 0) + coeff
        return NcPoly(self.p, acc)

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "NcPoly":
        return NcPoly(self.p, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return NcPoly(self.p, {w: c * other for w, c in self.terms.items()})
        if not isinstance(other, NcPoly):
            return NotImplemented
        require_same_field(self.p, other.p)
        acc: dict[Word, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                key = w1 + w2
                acc[key] = acc.get(key, 0) + c1 * c2
        return NcPoly(self.p, acc)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __repr__(self) -> str:
        return f"NcPoly({self.p}, {format_poly(self)!r})"


def evaluate_terms(terms: Iterable[tuple[Word, int]], values: Mapping[str, int],
                   p: int) -> int:
    """Sum over ``(word, coeff)`` pairs of coeff * product of the letters'
    values, mod p.  A letter with no value counts as 0; the empty word
    contributes its coefficient."""
    total = 0
    for word, coeff in terms:
        for letter in word:
            v = values.get(letter, 0)
            if not v:
                break
            coeff = coeff * v % p
        else:
            total += coeff
    return total % p


def weighted_series(words: Mapping[Word, int], weights: Mapping[str, int], p: int) -> int:
    """The reference evaluator: the finite series sum over the entries
    ``words`` of count * product of letter weights (missing weight = 0).

    This loop deliberately does not call ``evaluate_terms``, the fast kernel
    of construction and search: the bridge identity's series side and every
    surgery residual read it, so they recheck the kernel along an
    independent code path."""
    total = 0
    for word, coeff in words.items():
        prod = coeff
        for name in word:
            v = weights.get(name, 0)
            if not v:
                prod = 0
                break
            prod = prod * v % p
        total += prod
    return total % p


def format_poly(poly: NcPoly) -> str:
    """Canonical text rendering: terms ordered by (length, word), spaces
    between letters, coefficient prefixed only when it is not the implicit 1,
    and a bare integer for multiples of the unit word."""
    if poly.is_zero:
        return "0"
    chunks = []
    for word in poly.words():
        coeff = poly.terms[word]
        if not word:
            chunks.append(str(coeff))
        elif coeff == 1:
            chunks.append(" ".join(word))
        else:
            chunks.append(f"{coeff} " + " ".join(word))
    return " + ".join(chunks)

"""Prime-field coefficient conventions.

Coefficients are plain ints reduced into ``[0, p)``; the object that owns
them (polynomial, algebra, count table, cochain) carries the characteristic.
Mixing values from different characteristics is always an error.
``SparseValues.__init__`` is the one place where the sparse values of a
polynomial, augmentation, cochain or chord map are checked and reduced;
arithmetic hands it raw sums.  Count tables are the exception: each entry is
reduced as it loads, so a zero residue is skipped before the filters run,
not rejected by them.
"""

from __future__ import annotations

from typing import Mapping

_SMALL_PRIMES = frozenset(
    {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
     53, 59, 61, 67, 71, 73, 79, 83, 89, 97}
)

DEFAULT_CHARACTERISTIC = 2


class InputError(ValueError):
    """The input is refused: a malformed document, a value outside its
    domain, or a bound that is vacuous or too large.  ``cedga.cli`` maps
    every InputError, and nothing else, to exit code 2."""


class FieldMismatchError(ValueError):
    """Raised when values from two different prime fields are combined."""


def check_characteristic(p: int) -> int:
    """Validate a session characteristic: a prime not exceeding 97."""
    if not isinstance(p, int) or p not in _SMALL_PRIMES:
        raise InputError(f"field characteristic must be a prime <= 97, got {p!r}")
    return p


def require_same_field(p: int, q: int) -> None:
    if p != q:
        raise FieldMismatchError(f"mixed field characteristics {p} and {q}")


def reduce_mod(p: int, mapping: Mapping, label: str) -> dict:
    """The nonzero residues mod p of ``mapping``'s values, in input order.
    A value that is not an int raises TypeError, naming its key through the
    ``label`` template (``"value of {!r}"``)."""
    reduced = {}
    for key, value in mapping.items():
        if not isinstance(value, int):
            raise TypeError(f"{label.format(key)} must be an int, "
                            f"got {type(value).__name__}")
        value %= p
        if value:
            reduced[key] = value
    return reduced


class SparseValues:
    """Nonzero values mod p by key, held in the dict attribute that
    ``_values`` names (``_label`` names a key in a type error): equal when the
    characteristic and the values are, unhashable (the dict is mutable), and
    shown as ``key=value`` sorted by key.  The dict is immutable by convention,
    not type, so ``_trusted`` holds values canonical for p without ``reduce_mod``."""

    __slots__ = ()
    _values: str
    _label: str

    def __init__(self, p: int, values: Mapping | None = None):
        self.p = check_characteristic(p)
        # the empty check skips a call for the many zero polynomials
        setattr(self, self._values, reduce_mod(p, values, self._label) if values else {})

    @classmethod
    def _trusted(cls, p: int, values: dict):
        obj = cls.__new__(cls)
        obj.p = p
        setattr(obj, cls._values, values)
        return obj

    def __eq__(self, other) -> bool:
        return (isinstance(other, type(self)) and self.p == other.p
                and getattr(self, self._values) == getattr(other, self._values))

    __hash__ = None

    def __repr__(self) -> str:
        values = sorted(getattr(self, self._values).items())
        inside = ", ".join(f"{n}={v}" for n, v in values)
        return f"{type(self).__name__}(p={self.p}, {{{inside}}})"

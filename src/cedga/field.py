"""Prime-field coefficient conventions.

Coefficients are plain ints reduced into ``[0, p)``; the object that owns
them (polynomial, algebra, count table, cochain) carries the characteristic.
Mixing values from different characteristics is always an error.
"""

from __future__ import annotations

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

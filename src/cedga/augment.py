"""Augmentations: unital multiplicative scalar assignments on generators.

An augmentation stores only its nonzero values; every unlisted generator is
implicitly sent to 0 and the empty word always evaluates to 1.  Words are
evaluated by ``poly.evaluate_terms``, the one implementation of "coeff times
the product of the letter values mod p".  Enumeration is a depth-first search
over the degree-0 generators that evaluates each differential with that same
kernel as soon as its last variable is set, pruning the branch when it is
nonzero.
"""

from __future__ import annotations

from typing import Mapping

from .dga import Dga, ValidationReport
from .field import (InputError, SparseValues, check_characteristic, reduce_mod,
                    require_same_field)
from .poly import NcPoly, evaluate_terms, format_poly


class EnumerationBoundError(InputError):
    """The degree-0 generator count exceeds the configured search bound."""


class Augmentation(SparseValues):
    """Finitely supported scalar assignment, extended multiplicatively."""

    __slots__ = ("p", "values")
    _values = "values"

    def __init__(self, p: int, values: Mapping[str, int] | None = None):
        self.p = check_characteristic(p)
        self.values: dict[str, int] = reduce_mod(p, values or {}, "value of {!r}")

    def value(self, name: str) -> int:
        return self.values.get(name, 0)

    def evaluate(self, q: NcPoly) -> int:
        """Sum over terms of coeff * product of letter values; the empty word
        contributes its coefficient."""
        require_same_field(self.p, q.p)
        return evaluate_terms(q.terms.items(), self.values, self.p)


def check_augmentation(dga: Dga, e: Augmentation) -> ValidationReport:
    """List every generator g with e(d(g)) != 0; support violations (nonzero
    value on a generator of nonzero degree, or on an undeclared name) are
    reported distinctly."""
    report = ValidationReport()
    require_same_field(dga.p, e.p)
    for name, value in sorted(e.values.items()):
        if name not in dga.generators:
            report.add("augmentation.support", name,
                       f"value {value} on undeclared generator")
        elif dga.generators[name].degree != 0:
            report.add("augmentation.support", name,
                       f"value {value} on generator of degree "
                       f"{dga.generators[name].degree}")
    for name, poly in sorted(dga.nonzero_differentials().items()):
        residual = e.evaluate(poly)
        if residual:
            report.add("augmentation.residual", name,
                       f"e(d({name})) = {residual} with d({name}) = {format_poly(poly)}")
    return report


def _constraints_by_depth(dga: Dga, names: list[str]):
    """Reduce every differential to a constraint over the degree-0 variables.

    Words containing a nonzero-degree letter evaluate to 0 identically and
    are dropped.  Returns (by_depth, infeasible) where by_depth[d] holds the
    constraints, as (word, coeff) pairs, whose last variable (in the fixed
    ordering) is names[d].
    """
    index = {name: i for i, name in enumerate(names)}
    by_depth: dict[int, list[list[tuple[tuple[str, ...], int]]]] = {}
    for poly in dga.nonzero_differentials().values():
        terms = [(word, coeff) for word, coeff in poly.terms.items()
                 if all(letter in index for letter in word)]
        ready = max((index[letter] for word, _ in terms for letter in word), default=None)
        if ready is None:
            if terms:
                return None, True  # constraint 0 = nonzero constant is unsatisfiable
            continue
        by_depth.setdefault(ready, []).append(terms)
    return by_depth, False


def _walk(depth, names, ready, p, values, found):
    """Set names[depth:] in turn, appending each augmentation to ``found``.
    The state is passed in, not closed over, so a call leaves no cycle."""
    if depth == len(names):
        found.append(Augmentation(p, values))
        return
    name, checks = names[depth], ready[depth]
    for v in range(p):
        values[name] = v
        if not any(evaluate_terms(terms, values, p) for terms in checks):
            _walk(depth + 1, names, ready, p, values, found)


def enumerate_augmentations(dga: Dga, max_degree_zero: int = 24) -> list[Augmentation]:
    """All augmentations of a validated Dga, in lexicographic order by sorted
    generator name then value.  Refuses to run when the degree-0 generator
    count exceeds ``max_degree_zero``."""
    names = sorted(dga.degree_zero_names())
    if len(names) > max_degree_zero:
        raise EnumerationBoundError(
            f"{len(names)} degree-0 generators exceed the bound {max_degree_zero}")
    by_depth, infeasible = _constraints_by_depth(dga, names)
    if infeasible:
        return []
    ready = [by_depth.get(depth, ()) for depth in range(len(names))]
    found: list[Augmentation] = []
    _walk(0, names, ready, dga.p, {}, found)
    return found

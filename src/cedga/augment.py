"""Augmentations: unital multiplicative scalar assignments on generators.

An augmentation stores only its nonzero values; every unlisted generator is
implicitly sent to 0 and the empty word always evaluates to 1.  Words are
evaluated by ``poly.evaluate_terms``, the fast kernel of "coeff times the
product of the letter values mod p".  Enumeration is a depth-first search
over the degree-0 generators that evaluates each differential with that same
kernel as soon as its last variable is set, pruning the branch when it is
nonzero.
"""

from __future__ import annotations

from .dga import Dga, ValidationReport, Violation
from .field import InputError, SparseValues, require_same_field
from .poly import NcPoly, evaluate_terms, format_poly


class EnumerationBoundError(InputError):
    """The degree-0 generator count exceeds the configured search bound."""


class Augmentation(SparseValues):
    """Finitely supported scalar assignment, extended multiplicatively."""

    __slots__ = ("p", "values")
    _values = "values"
    _label = "value of {!r}"

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
    require_same_field(dga.p, e.p)
    support, residuals = [], []
    for name, value in e.values.items():
        g = dga.generators.get(name)
        if g is None or g.degree != 0:
            on = "undeclared generator" if g is None else f"generator of degree {g.degree}"
            support.append(("augmentation.support", name, f"value {value} on {on}"))
    for name, poly in dga.nonzero_differentials().items():
        residual = evaluate_terms(poly.terms.items(), e.values, e.p)
        if residual:
            residuals.append(("augmentation.residual", name, f"e(d({name})) = {residual} "
                              f"with d({name}) = {format_poly(poly)}"))
    return ValidationReport(Violation(*v) for v in sorted(support) + sorted(residuals))


def _constraints_by_depth(dga: Dga, names: list[str]):
    """Reduce every differential to a constraint over the degree-0 variables.

    Words containing a nonzero-degree letter evaluate to 0 identically and
    are dropped.  Returns ready, where ready[d] holds the constraints, as
    (word, coeff) pairs, whose last variable (in the fixed ordering) is
    names[d], or None when some constraint is a nonzero constant.
    """
    index = {name: i for i, name in enumerate(names)}
    ready: list[list[list[tuple[tuple[str, ...], int]]]] = [[] for _ in names]
    for poly in dga.nonzero_differentials().values():
        terms, last = [], -1
        for word, coeff in poly.terms.items():
            try:
                last = max([last, *map(index.__getitem__, word)])
            except KeyError:  # a letter of nonzero degree: the word is 0
                continue
            terms.append((word, coeff))
        if last >= 0:
            ready[last].append(terms)
        elif terms:
            return None  # constraint 0 = nonzero constant is unsatisfiable
    return ready


def _walk(depth, names, ready, p, values, found):
    """Set names[depth:] in turn, appending each augmentation to ``found``.
    The state is passed in, not closed over, so a call leaves no cycle."""
    if depth == len(names):
        found.append(Augmentation._trusted(p, {n: v for n, v in values.items() if v}))
        return
    name, checks = names[depth], ready[depth]
    for v in range(p):
        values[name] = v
        for terms in checks:
            if evaluate_terms(terms, values, p):
                break
        else:
            _walk(depth + 1, names, ready, p, values, found)


def enumerate_augmentations(dga: Dga, max_degree_zero: int = 24) -> list[Augmentation]:
    """All augmentations of a validated Dga, in lexicographic order by sorted
    generator name then value.  Refuses to run when the degree-0 generator
    count exceeds ``max_degree_zero``, or the bound is negative."""
    if max_degree_zero < 0:
        raise InputError(f"max_degree_zero must be nonnegative, got {max_degree_zero}")
    names = sorted(dga.degree_zero_names())
    if len(names) > max_degree_zero:
        raise EnumerationBoundError(
            f"{len(names)} degree-0 generators exceed the bound {max_degree_zero}")
    ready = _constraints_by_depth(dga, names)
    if ready is None:
        return []
    found: list[Augmentation] = []
    _walk(0, names, ready, dga.p, {}, found)
    return found

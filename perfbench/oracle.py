"""Slow, independent reference computations used by the output checks.

These share no evaluation code with ``cedga``: they read polynomials as
plain ``{word: coeff}`` mappings and evaluate them letter by letter."""

from __future__ import annotations

import itertools


def eval_terms(terms, values, p: int) -> int:
    """Sum over words of coeff * product of letter values, mod p (a letter
    without a value counts as 0)."""
    total = 0
    for word, coeff in terms.items():
        prod = coeff
        for letter in word:
            prod *= values.get(letter, 0)
        total += prod
    return total % p


def vanishes(dga, values) -> bool:
    """An assignment on degree-0 generators kills every differential."""
    return all(eval_terms(poly.terms, values, dga.p) == 0
               for poly in dga.nonzero_differentials().values())


def brute_force_augmentations(dga) -> list[dict]:
    """Every assignment of F_p values to the degree-0 generators that
    vanishes on every differential, as sorted-name value dicts with zeros
    dropped."""
    names = sorted(n for n, g in dga.generators.items() if g.degree == 0)
    found = []
    for values in itertools.product(range(dga.p), repeat=len(names)):
        assignment = {n: v for n, v in zip(names, values) if v}
        if vanishes(dga, assignment):
            found.append(assignment)
    return found


def nonzero(values) -> dict:
    return {k: v for k, v in values.items() if v}


def key(values) -> tuple:
    """An assignment as sorted (name, value) pairs with zeros dropped."""
    return tuple(sorted((k, v) for k, v in values.items() if v))

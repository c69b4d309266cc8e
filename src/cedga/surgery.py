"""Filtered surgery-style chord algebras.

The algebra carries three families of cocore chords on top of a base chord
algebra: closed connector chords (one per cocore, common small action),
hook chords, and transit chords, indexed by source/target cocores and a
multiplicity.  Differentials must match a rigid shape: the hook chord
differential contains a distinguished connector*transit term with unit
coefficient, and all other summands point strictly down a total order given
by transit-chord actions.  Under those shapes, any augmentation of the base
extends over the whole algebra by an action-ordered recursion; the resulting
certificate is always re-verified rather than trusted.
"""

from __future__ import annotations

import random
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping

from .augment import Augmentation, check_augmentation
from .dga import ChordRole, Dga, Generator, GeneratorKind, ValidationReport
from .field import InputError
from .poly import NcPoly, evaluate_terms, format_poly


class PreconditionError(ValueError):
    """A construction precondition (validated shapes, d^2 = 0, base
    augmentation) does not hold.  ``headline`` names the failed check and
    ``report`` is a copy of its violations."""

    def __init__(self, headline: str, report: ValidationReport):
        super().__init__(f"{headline}\n{report.summary()}")
        self.headline = headline
        self.report = ValidationReport(report.violations)


class QuotientError(ValueError):
    """The marked set does not generate a differential-closed ideal."""

    def __init__(self, report: ValidationReport):
        super().__init__(report.summary())
        self.report = report


class GenerationBudgetError(RuntimeError):
    """random_surgery_instance built an instance that fails a validator,
    which its construction rules out."""


_ROLE_KINDS = {
    "a": GeneratorKind.SURGERY_A,
    "b": GeneratorKind.SURGERY_B,
    "c": GeneratorKind.SURGERY_C,
}


class SurgeryAlgebra:
    """A Dga together with surgery roles for its cocore chords.

    ``k``, the number of cocores, is the number of connector roles.
    Generators without a role form the base chord algebra.  Construction
    checks structural sanity (indices in range, no index twice, so the
    connectors cover 1..k); the differential shapes are checked by
    ``validate_surgery_shape``.
    """

    def __init__(self, dga: Dga, roles: Mapping[str, ChordRole]):
        self.dga = dga
        self.roles: dict[str, ChordRole] = dict(roles)
        self.k = sum(role.type == "a" for role in self.roles.values())
        if not self.k:
            raise InputError("need at least one cocore")
        a_names: dict[int, str] = {}
        b_names: dict[tuple[int, int, int], str] = {}
        c_names: dict[tuple[int, int, int], str] = {}
        for name, role in self.roles.items():
            dga.generator(name)
            if role.type == "a":
                if not 1 <= role.i <= self.k:
                    raise InputError(f"connector index {role.i} out of range for k={self.k}")
                if role.i in a_names:
                    raise InputError(f"duplicate connector index {role.i}")
                a_names[role.i] = name
            else:
                if not (1 <= role.i < role.j <= self.k):
                    raise InputError(f"chord {name!r} needs 1 <= i < j <= k, "
                                     f"got i={role.i}, j={role.j}")
                if role.m < 1:
                    raise InputError(f"chord {name!r} multiplicity must be >= 1")
                target = b_names if role.type == "b" else c_names
                key = (role.i, role.j, role.m)
                if key in target:
                    raise InputError(f"duplicate {role.type}-chord index {key}")
                target[key] = name
        self._connectors = tuple(a_names[i] for i in range(1, self.k + 1))
        self._b_names = b_names
        self._c_names = c_names
        self.base_names: tuple[str, ...] = tuple(
            n for n in dga.names() if n not in self.roles)

    def level(self, name: str) -> int:
        """Filtration level of a generator: role source for cocore chords,
        k+1 for base generators (they lie in every filtration step)."""
        role = self.roles.get(name)
        return role.i if role is not None else self.k + 1

    def base_ce(self) -> Dga:
        """The base chord algebra as a standalone Dga."""
        gens = [self.dga.generators[n] for n in self.base_names]
        diffs = {n: poly for n, poly in self.dga.nonzero_differentials().items()
                 if n not in self.roles}
        return Dga(self.dga.p, gens, diffs, self.dga.d_degree)

    @cached_property
    def precondition_report(self) -> ValidationReport:
        """Shape then d^2 violations, computed once (the algebra is
        immutable); read-only, since every later call shares it."""
        report = validate_surgery_shape(self)
        report.extend(self.dga.validate_d_squared())
        return report

    @cached_property
    def _hook_splits(self) -> dict[str, tuple]:
        """Every hook chord's ``_split_hook_differential``, split once; read
        only once the hook/transit pairing is known to be complete."""
        return {name: _split_hook_differential(self, name)
                for name in self._b_names.values()}

    @cached_property
    def _extension_plan(self) -> tuple[tuple[str, int, tuple], ...]:
        """The recursion of ``construct_surgery_augmentation``, derived once:
        each transit chord with its degree and its hook's connector and
        lower-transit terms, source by source from the deepest level
        outward and by ascending action within a source.  Read only once
        the shape checks pass."""
        gens = self.dga.generators
        order = sorted(self._c_names,
                       key=lambda key: (-key[0], gens[self._c_names[key]].action))
        return tuple((self._c_names[key], gens[self._c_names[key]].degree,
                      self._hook_splits[self._b_names[key]][0]) for key in order)

    def __repr__(self) -> str:
        return (f"SurgeryAlgebra(k={self.k}, base={len(self.base_names)}, "
                f"b={len(self._b_names)}, c={len(self._c_names)})")


# -- quotient by an order-reversing marking ---------------------------------


def quotient_order_reversing(dga: Dga, marked: Iterable[str]) -> Dga:
    """Quotient by the two-sided ideal generated by the marked generators:
    drop marked generators and delete every differential monomial containing
    a marked letter.  Rejects the marking (with witness monomials) when the
    ideal is not closed under the differential."""
    marked_order = tuple(dict.fromkeys(marked))
    for name in marked_order:
        dga.generator(name)
    marked_set = set(marked_order)
    witness = ValidationReport()
    for name in marked_order:
        for word in dga.differential_of(name).words():
            if not any(letter in marked_set for letter in word):
                witness.add("quotient.ideal", name,
                            f"monomial {' '.join(word) or '1'} of d({name}) "
                            "contains no marked letter")
    if not witness.ok:
        raise QuotientError(witness)
    gens = [g for n, g in dga.generators.items() if n not in marked_set]
    diffs: dict[str, NcPoly] = {}
    for name, poly in dga.nonzero_differentials().items():
        if name in marked_set:
            continue
        kept = {w: c for w, c in poly.terms.items()
                if not any(letter in marked_set for letter in w)}
        if kept:
            diffs[name] = NcPoly(dga.p, kept)
    return Dga(dga.p, gens, diffs, dga.d_degree)


# -- shape validation --------------------------------------------------------


def _is_base_word(S: SurgeryAlgebra, word) -> bool:
    return all(name not in S.roles for name in word)


def _lower_transit_issue(S: SurgeryAlgebra, word, partner: str, subject: str,
                         lead: str) -> str | None:
    """Why ``word``, a summand of d(subject) that ends in a transit chord of
    the source i of the transit chord ``partner``, is not a lower-transit
    summand: its chord must be action-smaller than ``partner`` and its
    coefficient must lie in the level-(i+1) subalgebra.  None if it is one."""
    last, gens = word[-1], S.dga.generators
    if not gens[last].action < gens[partner].action:
        return f"transit summand {last} is not action-smaller than {subject}"
    i = S.roles[last].i
    if any(S.level(name) <= i for name in word[:-1]):
        return (f"{lead} {' '.join(word)} has coefficient outside "
                f"the level-{i + 1} subalgebra")
    return None


def _split_hook_differential(S: SurgeryAlgebra, bname: str):
    """Decompose d(hook chord) by last letter into the four shape groups.

    Returns (terms, issues) where terms are the connector and lower-transit
    summands, the (word, coeff) pairs the extension recursion evaluates,
    and issues lists the shape violations found.  Needs a complete
    hook/transit pairing.
    """
    role = S.roles[bname]
    i, connector = role.i, S._connectors[role.j - 1]
    partner = S._c_names[(i, role.j, role.m)]
    gens = S.dga.generators
    terms: list[tuple] = []
    unit_coeff = None
    issues: list[str] = []
    flag = issues.append

    for word, coeff in S.dga.differential_of(bname).terms.items():
        if not word:
            flag("differential contains the unit word")
            continue
        last, prefix = word[-1], word[:-1]
        lrole = S.roles.get(last)
        if lrole is None:
            flag(f"monomial {' '.join(word)} does not end in a cocore chord")
        elif lrole.type == "a":
            if lrole.i != i:
                flag(f"connector summand ends in index {lrole.i}, expected {i}")
            elif not _is_base_word(S, prefix):
                flag(f"connector summand {' '.join(word)} has non-base coefficient")
            else:
                terms.append((word, coeff))
        elif lrole.i != i:
            flag(f"{'hook' if lrole.type == 'b' else 'transit'} summand targets "
                 f"source {lrole.i}, expected {i}")
        elif lrole.type == "b":
            if not gens[S._c_names[(i, lrole.j, lrole.m)]].action < gens[partner].action:
                flag(f"hook summand {last} is not action-smaller than {bname}")
            elif not _is_base_word(S, prefix):
                flag(f"hook summand {' '.join(word)} has non-base coefficient")
        elif last == partner:
            if prefix != (connector,):
                flag(f"distinguished monomial {' '.join(word)} must be {connector} {last}")
            else:
                unit_coeff = coeff
        else:
            issue = _lower_transit_issue(S, word, partner, bname, "transit summand")
            if issue:
                flag(issue)
            else:
                terms.append((word, coeff))
    if unit_coeff is None:
        flag(f"missing distinguished monomial {connector} {partner}")
    elif unit_coeff != 1:
        flag(f"distinguished monomial has coefficient {unit_coeff}, expected 1")
    return tuple(terms), tuple(issues)


def validate_surgery_shape(S: SurgeryAlgebra) -> ValidationReport:
    """Check every structural invariant: role/kind agreement, connector
    conventions, hook/transit pairing, distinct actions, filtration,
    differential shapes (including the unit coefficient on the distinguished
    term and the action ordering), and the strict action inequality."""
    report = ValidationReport()
    dga = S.dga

    for name in sorted(S.roles):
        role = S.roles[name]
        kind = dga.generator(name).kind
        if kind is not _ROLE_KINDS[role.type]:
            report.add("surgery.kind", name,
                       f"declared kind {kind.value!r} does not match role {role.type!r}")

    # connector chords: degree 0, a single positive action, zero differential
    a_actions = set()
    for name in S._connectors:
        gen = dga.generator(name)
        if gen.degree != 0:
            report.add("surgery.connector", name, f"degree {gen.degree}, expected 0")
        if gen.action <= 0:
            report.add("surgery.connector", name, f"action {gen.action} must be positive")
        a_actions.add(gen.action)
        if name in dga.nonzero_differentials():
            report.add("surgery.connector", name, "connector chords must be closed")
    if len(a_actions) > 1:
        report.add("surgery.connector", "*",
                   "connector actions must agree, got "
                   + ", ".join(str(action) for action in sorted(a_actions)))

    # hook/transit pairing: identical (i, j, m) index sets
    b_keys, c_keys = set(S._b_names), set(S._c_names)
    for key in sorted(b_keys - c_keys):
        report.add("surgery.pairing", S._b_names[key],
                   f"hook chord {key} has no transit partner")
    for key in sorted(c_keys - b_keys):
        report.add("surgery.pairing", S._c_names[key],
                   f"transit chord {key} has no hook partner")

    # pairwise distinct actions over all hook and transit chords
    seen: dict[Fraction, str] = {}
    for key in sorted(b_keys | c_keys):
        for table in (S._b_names, S._c_names):
            name = table.get(key)
            if name is None:
                continue
            action = dga.generator(name).action
            if action in seen:
                report.add("surgery.actions", name,
                           f"action {action} repeats that of {seen[action]}")
            else:
                seen[action] = name

    # base closure and filtration
    for name, poly in sorted(dga.nonzero_differentials().items()):
        if name not in S.roles:
            for letter in sorted(poly.letters()):
                if letter in S.roles:
                    report.add("surgery.filtration", name,
                               f"base differential uses cocore chord {letter}")
        else:
            lvl = S.level(name)
            for letter in sorted(poly.letters()):
                if S.level(letter) < lvl:
                    report.add("surgery.filtration", name,
                               f"differential leaves level {lvl} via {letter}")

    # differential shapes
    if not (b_keys - c_keys) and not (c_keys - b_keys):
        for key in sorted(b_keys):
            name = S._b_names[key]
            for detail in S._hook_splits[name][1]:
                report.add("surgery.shape", name, detail)
        for key in sorted(c_keys):
            name, i = S._c_names[key], key[0]
            for word in dga.differential_of(name).words():
                lrole = S.roles.get(word[-1]) if word else None
                if not word:
                    detail = "differential contains the unit word"
                elif lrole is None or lrole.type != "c" or lrole.i != i:
                    detail = (f"monomial {' '.join(word)} does not end in a "
                              f"source-{i} transit chord")
                else:
                    detail = _lower_transit_issue(S, word, name, name, "monomial")
                if detail:
                    report.add("surgery.shape", name, detail)

    report.extend(dga.validate_action())
    return report


# -- the inductive augmentation extension ------------------------------------


class SurgeryCertificate:
    """Extension certificate: the extended augmentation, a re-verified
    vanishing report, the three defining conditions, and any degree
    conflicts hit by the recursion."""

    def __init__(self, augmentation: Augmentation, verification: ValidationReport,
                 conditions: ValidationReport, flags: tuple[str, ...] = (),
                 order_reversing: tuple[str, ...] = ()):
        self.augmentation = augmentation
        self.verification = verification
        self.conditions = conditions
        self.flags = flags
        self.order_reversing = order_reversing

    @property
    def ok(self) -> bool:
        return self.verification.ok and self.conditions.ok and not self.flags


def _check_conditions(S: SurgeryAlgebra, eps: Augmentation, eb: Augmentation,
                      order_reversing: Iterable[str]) -> ValidationReport:
    report = ValidationReport()
    base_set = set(S.base_names)
    for name in S.base_names:
        if eps.value(name) != eb.value(name):
            report.add("surgery.base_restriction", name,
                       f"extension sends {name} to {eps.value(name)}, "
                       f"base augmentation has {eb.value(name)}")
    for name in sorted(eb.values):
        if name not in base_set:
            report.add("surgery.base_restriction", name,
                       "base augmentation supported outside the base algebra")
    for name in S._connectors:
        if eps.value(name) != 1:
            report.add("surgery.connector_value", name,
                       f"connector chord must map to 1, got {eps.value(name)}")
    for name in sorted(set(order_reversing)):
        if eps.value(name) != 0:
            report.add("surgery.order_reversing", name,
                       f"order-reversing chord must map to 0, got {eps.value(name)}")
    return report


def _residuals(S: SurgeryAlgebra, eps: Augmentation):
    """(name, eps(d(name)), d(name)) for each nonzero differential that eps
    does not send to 0, in declaration order: the one residual pass of both
    the certificate and its recheck."""
    diffs = S.dga.nonzero_differentials()
    for name in S.dga.generators:
        poly = diffs.get(name)
        if poly is not None:
            residual = eps.evaluate(poly)
            if residual:
                yield name, residual, poly


def construct_surgery_augmentation(S: SurgeryAlgebra, eb: Augmentation,
                                   order_reversing: Iterable[str] = ()
                                   ) -> SurgeryCertificate:
    """Extend a base augmentation over the whole surgery algebra.

    Connector chords map to 1 and hook chords to 0; transit chord values are
    produced in the order of the algebra's extension plan (source by source,
    from the deepest filtration level outward, and within a source in
    ascending action order) by the recursion
       value(c) = -eval(connector terms + lower-transit terms of d(hook))
    which solves eps(d(hook)) = 0 for c.  The result is re-verified
    generator by generator rather than trusted.
    Shape, d^2 and the extension plan are derived once per algebra, the base
    augmentation on every call; a failed check raises PreconditionError.
    """
    structural = S.precondition_report
    if not structural.ok:
        raise PreconditionError(f"{len(structural)} structural violation(s):", structural)
    base_check = check_augmentation(S.base_ce(), eb)
    if not base_check.ok:
        raise PreconditionError("base augmentation is invalid:", base_check)

    p = S.dga.p
    values: dict[str, int] = dict(eb.values)
    values.update(dict.fromkeys(S._connectors, 1))
    flags: list[str] = []
    for cname, cdeg, terms in S._extension_plan:
        total = -evaluate_terms(terms, values, p) % p
        if total and cdeg != 0:
            flags.append(f"recursion demands {total} on {cname} of degree {cdeg}; "
                         "value forced to 0")
        elif total:
            values[cname] = total

    eps = Augmentation(p, values)
    verification = ValidationReport()
    for name, residual, _ in _residuals(S, eps):
        verification.add("surgery.residual", name, f"extension sends d({name}) to {residual}")
    conditions = _check_conditions(S, eps, eb, order_reversing)
    return SurgeryCertificate(eps, verification, conditions, tuple(flags),
                              tuple(dict.fromkeys(order_reversing)))


def verify_certificate(S: SurgeryAlgebra, certificate: SurgeryCertificate,
                       eb: Augmentation) -> ValidationReport:
    """Independent recheck of a certificate: value support, vanishing on
    every differential, and the three defining conditions, all recomputed
    from scratch against the given algebra."""
    report = ValidationReport()
    eps = certificate.augmentation
    for name, value in sorted(eps.values.items()):
        if name not in S.dga.generators:
            report.add("certificate.support", name,
                       f"value {value} on undeclared generator")
        elif S.dga.generators[name].degree != 0:
            report.add("certificate.support", name,
                       f"value {value} on generator of degree "
                       f"{S.dga.generators[name].degree}")
    for name, residual, poly in _residuals(S, eps):
        report.add("certificate.residual", name,
                   f"certificate augmentation sends d({name}) to {residual}, "
                   f"d({name}) = {format_poly(poly)}")
    report.extend(_check_conditions(S, eps, eb, certificate.order_reversing))
    return report


# -- seeded instance generation ----------------------------------------------


def _poly_action_bound(actions: Mapping[str, Fraction], poly: NcPoly) -> Fraction:
    """Upper bound for the monomial actions of a polynomial.  A letter with
    no action yet is a connector chord, whose action is fixed last, below
    every transit chord's; counting it as 1 keeps the bound an upper one."""
    return max((sum((actions.get(letter, 1) for letter in word), Fraction(0))
                for word in poly.terms), default=Fraction(0))


def _random_base_poly(rng: random.Random, p: int, letters: list[str],
                      allow_unit: bool) -> NcPoly:
    terms: dict = {}
    for _ in range(rng.randint(1, 2)):
        length = rng.randint(0 if allow_unit else 1, 2)
        word = tuple(rng.choice(letters) for _ in range(length))
        coeff = rng.randint(1, p - 1)
        terms[word] = (terms.get(word, 0) + coeff) % p
    return NcPoly(p, terms)


def random_surgery_instance(k: int, max_chords_per_pair: int = 2, seed: int = 0,
                            p: int = 2) -> SurgeryAlgebra:
    """Deterministic pseudo-random surgery algebra passing all validators.

    Differentials are built triangularly (transit targets are closed, deeper
    pieces are built first) with the two engineered cancellation patterns,
    so d^2 = 0 holds by construction.  The instance is still validated once,
    and GenerationBudgetError is raised if it fails."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # the ":0" suffix is part of the seed token: dropping it changes every instance
    rng = random.Random(f"{seed}:0")

    # base chord algebra: a few closed degree-0 chords, optionally one closed
    # degree-1 chord and one degree -1 chord with a nonconstant differential
    gens: list[Generator] = []
    diffs: dict[str, NcPoly] = {}
    actions: dict[str, Fraction] = {}
    n0 = rng.randint(1, 3)
    deg0 = [f"e{t}" for t in range(1, n0 + 1)]
    for t, name in enumerate(deg0, start=1):
        gens.append(Generator(name, 0, Fraction(t, 101), GeneratorKind.REEB_CHORD))
        actions[name] = Fraction(t, 101)
    u_name = None
    if rng.random() < 0.8:
        u_name = "u1"
        gens.append(Generator(u_name, 1, Fraction(n0 + 1, 101), GeneratorKind.REEB_CHORD))
        actions[u_name] = Fraction(n0 + 1, 101)
    y_name = None
    if u_name is not None and rng.random() < 0.7:
        y_name = "y1"
        gens.append(Generator(y_name, -1, Fraction(1, 2), GeneratorKind.REEB_CHORD))
        actions[y_name] = Fraction(1, 2)
        dy = _random_base_poly(rng, p, deg0, allow_unit=False)
        while dy.is_zero:
            dy = _random_base_poly(rng, p, deg0, allow_unit=False)
        diffs[y_name] = dy

    a_names = {i: f"a{i}" for i in range(1, k + 1)}
    roles: dict[str, ChordRole] = {name: ChordRole("a", i) for i, name in a_names.items()}

    last_action = Fraction(1)
    c_closed: set[tuple[int, int, int]] = set()  # keys whose transit chord is closed
    b_bare: set[tuple[int, int, int]] = set()  # keys whose d(hook) is a_j c, c closed
    built_order: list[tuple[int, int, int]] = []
    chord_gens: list[Generator] = []

    def cname(key):
        return f"c{key[2]}_{key[0]}{key[1]}"

    def bname(key):
        return f"b{key[2]}_{key[0]}{key[1]}"

    for i in range(k - 1, 0, -1):
        for j in range(i + 1, k + 1):
            for m in range(1, rng.randint(0, max_chords_per_pair) + 1):
                key = (i, j, m)
                c_key_name, b_key_name = cname(key), bname(key)
                closed_here = [kk for kk in built_order if kk[0] == i and kk in c_closed]
                deeper_keys = [kk for kk in built_order if kk[0] > i]

                # transit chord differential: usually closed; sometimes the
                # engineered pattern through a deeper hook differential, which
                # stays shape-legal and cancels against its w-term in d(d(hook))
                c_diff = NcPoly.zero(p)
                w_term: NcPoly | None = None
                if (u_name is not None and closed_here and deeper_keys
                        and rng.random() < 0.4):
                    target = cname(rng.choice(closed_here))
                    deep = bname(rng.choice(deeper_keys))
                    c_diff = (NcPoly.generator(p, u_name) * diffs[deep]
                              * NcPoly.generator(p, target))
                    w_term = NcPoly.monomial(p, (a_names[j], u_name, deep, target), 1)
                last_action = max(last_action, _poly_action_bound(actions, c_diff)) + 1
                actions[c_key_name] = last_action
                chord_gens.append(Generator(c_key_name, 0, last_action, GeneratorKind.SURGERY_C))
                roles[c_key_name] = ChordRole("c", i, j, m)
                if c_diff.is_zero:
                    c_closed.add(key)
                else:
                    diffs[c_key_name] = c_diff

                # hook chord differential: distinguished term, optional base
                # coefficient on the connector, optional plain w-terms on
                # closed transit targets, optional beta pattern through a
                # bare hook of the same source
                b_diff = NcPoly.generator(p, a_names[j]) * NcPoly.generator(p, c_key_name)
                bare = c_diff.is_zero
                if rng.random() < 0.75:
                    alpha = _random_base_poly(rng, p, deg0, allow_unit=True)
                    if not alpha.is_zero:
                        b_diff = b_diff + alpha * NcPoly.generator(p, a_names[i])
                        bare = False
                if w_term is not None:
                    b_diff = b_diff + w_term
                    bare = False
                if closed_here and rng.random() < 0.5:
                    pool = deg0 + [a_names[s] for s in range(i + 1, k + 1)]
                    pool += [cname(kk) for kk in deeper_keys if kk in c_closed]
                    for _ in range(rng.randint(1, 2)):
                        target = cname(rng.choice(closed_here))
                        length = rng.randint(0, 2)
                        word = tuple(rng.choice(pool) for _ in range(length))
                        coeff = rng.randint(1, p - 1)
                        b_diff = b_diff + (NcPoly.monomial(p, word, coeff)
                                           * NcPoly.generator(p, target))
                    bare = False
                bare_here = [kk for kk in built_order if kk[0] == i and kk in b_bare]
                if (y_name is not None and bare_here and rng.random() < 0.45):
                    kk = rng.choice(bare_here)
                    q_poly = NcPoly.generator(p, u_name) * NcPoly.generator(p, y_name)
                    beta = -(NcPoly.generator(p, u_name) * diffs[y_name])
                    b_diff = (b_diff
                              + beta * NcPoly.generator(p, bname(kk))
                              + (q_poly * NcPoly.generator(p, a_names[kk[1]]))
                              * NcPoly.generator(p, cname(kk)))
                    bare = False

                last_action = max(last_action, _poly_action_bound(actions, b_diff)) + 1
                actions[b_key_name] = last_action
                chord_gens.append(Generator(b_key_name, -1, last_action, GeneratorKind.SURGERY_B))
                roles[b_key_name] = ChordRole("b", i, j, m)
                diffs[b_key_name] = b_diff
                if bare:
                    b_bare.add(key)
                built_order.append(key)

    eps_a = min((actions[cname(key)] for key in built_order), default=Fraction(1)) / 1000
    for i in range(1, k + 1):
        gens.append(Generator(a_names[i], 0, eps_a, GeneratorKind.SURGERY_A))
    gens.extend(chord_gens)
    instance = SurgeryAlgebra(Dga(p, gens, diffs, d_degree=1), roles)
    if not (instance.precondition_report.ok and instance.dga.validate_grading().ok):
        raise GenerationBudgetError(f"invalid instance for k={k}, seed={seed}")
    return instance

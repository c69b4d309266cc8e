"""Command-line interface.

Exit codes: 0 when every check passes (a successful computation with an
empty result still exits 0), 1 when violations or counterexamples were
found, 2 on input errors, 3 on an internal error (any other exception,
reported as one ``internal error:`` line on stderr).

An input error is any ``cedga.InputError``, and ``_run``, behind ``main``
and every corpus case, is the one place that maps it to exit 2: an
unreadable or non-UTF-8 file, an output path that cannot be written, a
parse fault (``DocumentError``), an invalid characteristic, an undeclared
generator (``UndeclaredGeneratorError``), a malformed surgery role set, a
cochain outside its support (``SupportError``), a malformed configuration
(``ConfigError``), vacuous search bounds, and refused work estimates
(``EnumerationBoundError``, ``BoundsTooLargeError``); only a ``--json``
path that cannot be written is reported by ``_Runner.finish`` itself.  A
report's ``status`` follows its exit code.

Each subcommand imports the modules it calls, so a process loads only what
its subcommand uses: ``search`` loads no text parser, and no subcommand
loads ``dataclasses``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from .field import InputError
from .report import input_digest, make_report, report_json

if TYPE_CHECKING:
    from .dga import ValidationReport

OK, VIOLATIONS, INPUT_ERROR, INTERNAL_ERROR = 0, 1, 2, 3
_STATUS = {OK: "ok", VIOLATIONS: "violations", INPUT_ERROR: "error"}


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written raises InputError."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


class _Runner:
    """Collects human-readable lines and the machine report for one command."""

    def __init__(self, command: str, json_path: str | None):
        self.command = command
        self.json_path = json_path
        self.lines: list[str] = []
        self.texts: list[str] = []

    def say(self, line: str) -> None:
        self.lines.append(line)

    def emit(self, text: str, path: str | None) -> None:
        """Write a document to ``path``, or show it when no path is given."""
        if path:
            _write(path, text)
            self.say(f"wrote {path}")
        else:
            self.say(text.rstrip("\n"))

    def load(self, path: str, parse, *args):
        """Read ``path`` and return ``parse(text, *args)``; a file that cannot
        be read raises InputError, and one that cannot be parsed raises the
        parser's DocumentError."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except UnicodeDecodeError as exc:
            from .textio import ParseIssue
            # read() decodes the whole file at once, so exc.start is a file offset
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise InputError(str(ParseIssue(
                line, f"invalid UTF-8 byte 0x{exc.object[exc.start]:02x}"))) from None
        except OSError as exc:
            raise InputError(str(exc)) from exc
        self.texts.append(text)
        return parse(text, *args)

    def finish(self, payload: dict, code: int) -> int:
        report = make_report(self.command, input_digest(*self.texts), _STATUS[code], payload)
        out = "\n".join(self.lines)
        if out:
            print(out)
        if self.json_path == "-":
            print(report_json(report), end="")
        elif self.json_path:
            try:
                _write(self.json_path, report_json(report))
            except InputError as exc:  # reported here: input_error would finish again
                print(f"error: {exc}")
                return INPUT_ERROR
        return code

    def input_error(self, message: str) -> int:
        self.say(f"error: {message}")
        return self.finish({"error": message}, INPUT_ERROR)


def _violation_lines(runner: _Runner, report: ValidationReport) -> None:
    for violation in report.violations:
        runner.say(f"  {violation}")


def _violations_found(runner: _Runner, headline: str, report: ValidationReport) -> int:
    """Print the headline and the violations; report them with exit 1."""
    runner.say(headline)
    _violation_lines(runner, report)
    return runner.finish({"violations": report.as_dicts()}, VIOLATIONS)


def _rejected(runner: _Runner, table) -> list[dict]:
    """Print the count entries the table rejected; return them for the payload."""
    for rej in table.rejected:
        runner.say(f"rejected {rej.entry}: {rej.reason}")
    return [{"entry": r.entry, "reason": r.reason} for r in table.rejected]


_NOT_RIGID = "configuration cannot satisfy the rigid global degree constraint"


def _finish_verdict(runner: _Runner, ledger, verdict, fields: tuple[str, ...],
                    conclusions: list[str]) -> int:
    """Report a ledger and its verdict.  ``fields`` name the verdict's
    conclusions that join the payload, and ``conclusions`` states them once
    the hypotheses hold.  Exit 1 on a violated hypothesis or a ledger that
    does not telescope."""
    payload = {"ledger": ledger._asdict(), "hypotheses_ok": verdict.hypotheses_ok,
               "hypothesis_violations": list(verdict.hypothesis_violations)}
    payload.update((name, getattr(verdict, name)) for name in fields)
    code = OK if ledger.telescoped else VIOLATIONS
    if not verdict.hypotheses_ok:
        conclusions = ["hypothesis violations:",
                       *(f"  {violation}" for violation in verdict.hypothesis_violations)]
        code = VIOLATIONS
    for line in conclusions:
        runner.say(line)
    return runner.finish(payload, code)


# -- subcommands ----------------------------------------------------------


def _cmd_validate(args, runner: _Runner) -> int:
    from .textio import parse_dga
    doc = runner.load(args.file, parse_dga)
    report = doc.dga.validate_all()
    runner.say(f"{args.file}: {len(doc.dga.generators)} generators, "
               f"{len(doc.dga.nonzero_differentials())} nonzero differentials")
    if report.ok:
        runner.say("valid: d^2 = 0, grading and action filtration hold")
        return runner.finish({"violations": []}, OK)
    return _violations_found(runner, f"{len(report)} violation(s):", report)


def _cmd_augment(args, runner: _Runner) -> int:
    from .augment import enumerate_augmentations
    from .field import check_characteristic
    from .textio import parse_dga
    if args.field is not None:  # refuse the flag before reading any file
        check_characteristic(args.field)
    doc = runner.load(args.file, parse_dga, args.field)
    # a --limit that is not given leaves enumerate_augmentations' default bound
    bound = {} if args.limit is None else {"max_degree_zero": args.limit}
    found = enumerate_augmentations(doc.dga, **bound)
    runner.say(f"{len(found)} augmentation(s) over F_{doc.dga.p}")
    payload = {"field": doc.dga.p, "count": len(found)}
    if args.list:
        names = sorted(doc.dga.degree_zero_names())
        listing = [{name: aug.value(name) for name in names} for aug in found]
        for values in listing:
            inside = ", ".join(f"{n}={v}" for n, v in values.items()) or "(trivial)"
            runner.say(f"  {inside}")
        payload["augmentations"] = listing
    return runner.finish(payload, OK)


def _cmd_ce_lift(args, runner: _Runner) -> int:
    from .bridge import derive_ce
    from .textio import parse_disk_counts, serialize_dga
    table = runner.load(args.file, parse_disk_counts)
    dga = derive_ce(table)
    runner.emit(serialize_dga(dga), args.output)
    payload = {"generators": len(dga.generators), "rejected": _rejected(runner, table)}
    return runner.finish(payload, OK)


def _cmd_mc_check(args, runner: _Runner) -> int:
    from .bridge import BoundingCochain, mc_residual, verify_mc_aug_identity
    from .textio import parse_disk_counts, parse_values
    table = runner.load(args.file, parse_disk_counts)
    values = runner.load(args.cochain, parse_values, table.p)
    cochain = BoundingCochain(table.p, values)
    residual = mc_residual(table, cochain)
    identity = verify_mc_aug_identity(table, cochain)
    rejected = _rejected(runner, table)
    for name in sorted(residual):
        runner.say(f"residual at {name}: {residual[name]}")
    runner.say("series/augmentation identity: " + ("holds" if identity else "FAILS"))
    solves = not any(residual.values())
    runner.say("cochain solves the deformation equation" if solves
               else "cochain is obstructed")
    payload = {
        "residual": {n: residual[n] for n in sorted(residual)},
        "identity_holds": identity,
        "solves": solves,
        "rejected": rejected,
    }
    return runner.finish(payload, OK if solves and identity else VIOLATIONS)


def _cmd_deform(args, runner: _Runner) -> int:
    from .bridge import BoundingCochain, check_squared_zero, deformed_differential
    from .textio import parse_strip_counts, parse_values
    table = runner.load(args.file, parse_strip_counts)
    v0 = runner.load(args.cochain0, parse_values, table.p)
    v1 = runner.load(args.cochain1, parse_values, table.p)
    b0 = BoundingCochain(table.p, v0)
    b1 = BoundingCochain(table.p, v1)
    matrix = deformed_differential(table, b0, b1)
    squared = check_squared_zero(table, b0, b1)
    entries = matrix.nonzero_entries()
    runner.say(f"twisted differential has {len(entries)} nonzero entr"
               f"{'y' if len(entries) == 1 else 'ies'}")
    for out, inp, coeff in entries:
        runner.say(f"  d({inp}) += {coeff} {out}")
    payload = {
        "entries": [{"out": o, "in": i, "coeff": c} for o, i, c in entries],
        "squared_zero": squared.ok,
        "violations": squared.as_dicts(),
    }
    if squared.ok:
        runner.say("twisted differential squares to zero")
        return runner.finish(payload, OK)
    runner.say("twisted differential does NOT square to zero:")
    _violation_lines(runner, squared)
    return runner.finish(payload, VIOLATIONS)


def _cmd_surgery(args, runner: _Runner) -> int:
    from .augment import Augmentation
    from .surgery import (PreconditionError, QuotientError, SurgeryAlgebra,
                          construct_surgery_augmentation, quotient_order_reversing,
                          verify_certificate)
    from .textio import parse_dga, parse_values
    doc = runner.load(args.file, parse_dga)
    base_values = runner.load(args.base_aug, parse_values, doc.dga.p)
    dga = doc.dga
    if doc.marked:
        try:
            dga = quotient_order_reversing(dga, doc.marked)
        except QuotientError as exc:
            return _violations_found(
                runner, "order-reversing marking is not differential-closed:", exc.report)
        runner.say(f"quotiented {len(doc.marked)} order-reversing chord(s)")
    algebra = SurgeryAlgebra(dga, doc.roles)
    eb = Augmentation(dga.p, base_values)
    try:
        certificate = construct_surgery_augmentation(algebra, eb,
                                                     order_reversing=doc.marked)
    except PreconditionError as exc:
        return _violations_found(runner, exc.headline, exc.report)
    recheck = verify_certificate(algebra, certificate, eb)
    values = {n: certificate.augmentation.value(n) for n in dga.names()}
    runner.say(f"extended augmentation over k={algebra.k} cocores:")
    for name in dga.names():
        if values[name]:
            runner.say(f"  {name} -> {values[name]}")
    for flag in certificate.flags:
        runner.say(f"flag: {flag}")
    payload = {
        "k": algebra.k,
        "augmentation": {n: v for n, v in sorted(values.items()) if v},
        "flags": list(certificate.flags),
        "violations": recheck.as_dicts(),
    }
    if recheck.ok and not certificate.flags:
        runner.say("certificate verified: all conditions hold and the "
                   "extension vanishes on every differential")
        return runner.finish(payload, OK)
    runner.say("certificate verification FAILED:")
    _violation_lines(runner, recheck)
    return runner.finish(payload, VIOLATIONS)


def _cmd_quotient(args, runner: _Runner) -> int:
    from .surgery import QuotientError, quotient_order_reversing
    from .textio import DgaDocument, parse_dga, serialize_dga
    doc = runner.load(args.file, parse_dga)
    try:
        quotient = quotient_order_reversing(doc.dga, doc.marked)
    except QuotientError as exc:
        return _violations_found(
            runner, "marking does not generate a differential-closed ideal:", exc.report)
    runner.emit(serialize_dga(DgaDocument(quotient, (), dict(doc.roles))), args.output)
    payload = {"removed": list(doc.marked),
               "generators": len(quotient.generators)}
    return runner.finish(payload, OK)


def _cmd_tree_check(args, runner: _Runner) -> int:
    from .pearly import tree_ledger, tree_verdict
    from .textio import parse_tree_config
    tree = runner.load(args.file, parse_tree_config)
    ledger = tree_ledger(tree)
    verdict = tree_verdict(tree, require_global_constraint=not args.no_global)
    runner.say(f"ledger: m={ledger.m} k={ledger.k} lhs={ledger.lhs} "
               f"rhs={ledger.rhs} telescoped={ledger.telescoped}")
    if verdict.global_constraint_satisfied is None:
        constraint = "global degree constraint not applied"
    elif verdict.global_constraint_satisfied:
        constraint = (f"global constraint holds: forced disk count = "
                      f"{verdict.forced_disk_count} (single disk: {verdict.single_disk})")
    else:
        constraint = _NOT_RIGID
    conclusions = [f"positivity propagates: {verdict.positivity_propagates}; "
                   f"output action positive: {verdict.output_action_positive}", constraint]
    return _finish_verdict(runner, ledger, verdict, (
        "positivity_propagates", "output_action_positive", "global_constraint_satisfied",
        "forced_disk_count", "single_disk"), conclusions)


def _cmd_traj_check(args, runner: _Runner) -> int:
    from .pearly import trajectory_ledger, trajectory_verdict
    from .textio import parse_traj_config
    traj = runner.load(args.file, parse_traj_config)
    ledger = trajectory_ledger(traj)
    verdict = trajectory_verdict(traj)
    runner.say(f"ledger: M={ledger.M} (K={ledger.K}, m0={ledger.m0}, m1={ledger.m1}) "
               f"k={ledger.k} l={ledger.l} lhs={ledger.lhs} rhs={ledger.rhs} "
               f"telescoped={ledger.telescoped}")
    if verdict.global_constraint_satisfied:
        constraint = (f"global constraint holds: forced component count = "
                      f"{verdict.forced_component_count} (unbroken: {verdict.unbroken})")
    else:
        constraint = _NOT_RIGID
    return _finish_verdict(runner, ledger, verdict, (
        "global_constraint_satisfied", "forced_component_count", "unbroken",
        "no_attached_disks"), [constraint])


def _cmd_search(args, runner: _Runner) -> int:
    from .pearly import TrajectorySearchBounds, TreeSearchBounds, exhaustive_search
    # a bound flag that is not given leaves the bounds type's default in place
    bounds_type, count, other = (
        (TreeSearchBounds, "max_disks", "max_strips") if args.mode == "trees"
        else (TrajectorySearchBounds, "max_strips", "max_disks"))
    if getattr(args, other) is not None:
        raise InputError(f"--{other.replace('_', '-')} does not apply to "
                         f"--mode {args.mode}")
    lo, hi = bounds_type._field_defaults["degree_range"]
    given = {count: getattr(args, count), "max_inputs_per_disk": args.max_inputs,
             "max_configs": args.max_configs}
    bounds = bounds_type(
        degree_range=(lo if args.degree_lo is None else args.degree_lo,
                      hi if args.degree_hi is None else args.degree_hi),
        **{name: value for name, value in given.items() if value is not None})
    result = exhaustive_search(bounds)
    runner.say(f"mode {result.mode}: estimated {result.estimated_configs} "
               f"sum tuples, enumerated {result.enumerated}, "
               f"{result.in_window} in degree window")
    runner.say(f"telescope failures: {result.telescope_failures}; "
               f"materialized cross-checks: {result.materialized}")
    runner.say(f"counterexamples: {len(result.counterexamples)}")
    payload = result._asdict()
    del payload["in_window"]  # reported in the text only
    return runner.finish(payload, OK if result.ok else VIOLATIONS)


def run_corpus() -> list[dict]:
    """Run every corpus case through the CLI, capturing stdout, and compare
    the exit code and a diagnostic fragment against expectations."""
    import contextlib
    import io
    import tempfile

    from .corpus import CASES, FILES, corpus_text

    parser = build_parser()
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in FILES:
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as handle:
                handle.write(corpus_text(name))
        for name, argv, expected_exit, fragment in CASES:
            resolved = [os.path.join(tmp, a) if a in FILES else a for a in argv]
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = _run(parser, resolved)
            text = buffer.getvalue()
            passed = code == expected_exit and fragment in text
            entry = {
                "name": name,
                "exit": code,
                "expected_exit": expected_exit,
                "fragment": fragment,
                "passed": passed,
            }
            if not passed:
                entry["detail"] = text.strip().splitlines()[-1] if text.strip() else ""
            results.append(entry)
    return results


def _cmd_corpus(args, runner: _Runner) -> int:
    results = run_corpus()
    failures = sum(not case["passed"] for case in results)
    for case in results:
        status = "PASS" if case["passed"] else "FAIL"
        runner.say(f"{status} {case['name']}: exit {case['exit']} "
                   f"(expected {case['expected_exit']})")
        if not case["passed"] and case.get("detail"):
            runner.say(f"     {case['detail']}")
    runner.say(f"{len(results) - failures}/{len(results)} corpus cases behaved as expected")
    payload = {"cases": results, "failures": failures}
    return runner.finish(payload, VIOLATIONS if failures else OK)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cedga",
        description="Symbolic checks for filtered noncommutative chord algebras: "
                    "validation, augmentation search, count-table bridges, surgery "
                    "extensions, and degeneration ledgers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", metavar="PATH",
                       help="write the machine-readable report to PATH ('-' for stdout)")
        p.set_defaults(func=func)
        return p

    p = add("validate", _cmd_validate, "check d^2, grading, and the action filtration")
    p.add_argument("file")

    p = add("augment", _cmd_augment, "enumerate augmentations")
    p.add_argument("file")
    p.add_argument("--field", type=int, default=None,
                   help="override the document's field characteristic")
    p.add_argument("--limit", type=int, default=None,
                   help="refuse when there are more degree-0 generators than this")
    p.add_argument("--list", action="store_true", help="list every augmentation")

    p = add("ce-lift", _cmd_ce_lift, "derive the chord algebra from a disk-count table")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write the derived algebra here")

    p = add("mc-check", _cmd_mc_check,
            "evaluate the obstruction series and the bridge identity")
    p.add_argument("file")
    p.add_argument("--cochain", required=True)

    p = add("deform", _cmd_deform,
            "twisted differential from a strip table plus two cochains")
    p.add_argument("file")
    p.add_argument("--cochain0", required=True)
    p.add_argument("--cochain1", required=True)

    p = add("surgery", _cmd_surgery,
            "validate a surgery algebra and extend a base augmentation")
    p.add_argument("file")
    p.add_argument("--base-aug", required=True, dest="base_aug")

    p = add("quotient", _cmd_quotient, "quotient by the marked order-reversing chords")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    p = add("tree-check", _cmd_tree_check, "ledger and verdict for a disk tree")
    p.add_argument("file")
    p.add_argument("--no-global", action="store_true",
                   help="do not impose the global rigid degree constraint")

    p = add("traj-check", _cmd_traj_check, "ledger and verdict for a broken trajectory")
    p.add_argument("file")

    p = add("search", _cmd_search, "exhaustive counterexample search")
    p.add_argument("--mode", choices=("trees", "trajectories"), required=True)
    for flag in ("--max-disks", "--max-strips", "--max-inputs", "--degree-lo",
                 "--degree-hi", "--max-configs"):
        p.add_argument(flag, type=int)

    add("corpus", _cmd_corpus, "run the bundled example corpus")
    return parser


def _run(parser: argparse.ArgumentParser, argv) -> int:
    """Run the subcommand that ``parser`` reads from ``argv``."""
    args = parser.parse_args(argv)
    runner = _Runner(args.command, args.json)
    try:
        return args.func(args, runner)
    except InputError as exc:  # the one place an exception becomes exit 2
        return runner.input_error(str(exc))
    except Exception as exc:  # anything else is a fault of cedga, not of the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def main(argv=None) -> int:
    return _run(build_parser(), argv)


if __name__ == "__main__":
    sys.exit(main())

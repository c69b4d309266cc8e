"""Line-oriented text formats.

One declaration per line, ``#`` starts a comment.  Algebra documents use
``field``, ``ddeg``, ``gen``, ``d``, ``mark`` and ``surgery`` lines; count
tables use ``count`` / ``strip`` entry lines; value files use ``set`` lines;
configuration files use ``disk`` / ``edge`` / ``strip`` / ``attach`` lines.
Rationals are written ``p/q`` with the sign on p and gcd(p, q) = 1.

Parsers collect every diagnostic (line-addressed) before failing, and
``parse . serialize`` is the identity on canonical documents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .dga import ChordRole, Dga, Generator, GeneratorKind
from .field import InputError, check_characteristic
from .poly import NcPoly, format_poly

if TYPE_CHECKING:  # the parsers import these on use, so each format loads only its own
    from .bridge import DiskCountTable, StripCountTable
    from .pearly import BrokenTrajectoryConfig, PearlyTreeConfig

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"[+-]?\d+\Z")
_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?\Z")


@dataclass(frozen=True)
class ParseIssue:
    line: int  # 1-based, 0 for document-level problems
    message: str

    def __str__(self) -> str:
        where = f"line {self.line}" if self.line else "document"
        return f"{where}: {self.message}"


class DocumentError(InputError):
    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("\n".join(str(i) for i in self.issues))


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield lineno, stripped.split()


def _parse_rational(token: str):
    match = _RATIONAL_RE.match(token)
    if not match:
        return None
    num = int(match.group(1))
    den = int(match.group(2)) if match.group(2) else 1
    if den == 0:
        return None
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def _gen_line(gen: Generator) -> str:
    return f"gen {gen.name} {gen.degree} {format_rational(gen.action)} {gen.kind.value}"


class _DocReader:
    """Shared bookkeeping: header lines, generator lines, issue collection."""

    def __init__(self, allowed_kinds=None):
        self.issues: list[ParseIssue] = []
        self.p: int | None = None
        self.d_degree: int | None = None
        self.gens: list[Generator] = []
        self.gen_lines: dict[str, int] = {}
        self.allowed_kinds = allowed_kinds

    def issue(self, lineno: int, message: str) -> None:
        self.issues.append(ParseIssue(lineno, message))

    def read_field(self, lineno, args) -> bool:
        if args and args[0] == "field":
            if self.p is not None:
                self.issue(lineno, "duplicate field declaration")
            elif len(args) != 2 or not _INT_RE.match(args[1]):
                self.issue(lineno, "usage: field <prime>")
            else:
                try:
                    self.p = check_characteristic(int(args[1]))
                except ValueError as exc:
                    self.issue(lineno, str(exc))
            return True
        return False

    def read_ddeg(self, lineno, args) -> bool:
        if args and args[0] == "ddeg":
            if self.d_degree is not None:
                self.issue(lineno, "duplicate ddeg declaration")
            elif len(args) != 2 or not _INT_RE.match(args[1]):
                self.issue(lineno, "usage: ddeg <integer>")
            else:
                self.d_degree = int(args[1])
            return True
        return False

    def read_gen(self, lineno, args) -> bool:
        if not args or args[0] != "gen":
            return False
        if len(args) != 5:
            self.issue(lineno, "usage: gen <name> <degree> <p/q> <kind>")
            return True
        _, name, degree_tok, action_tok, kind_tok = args
        ok = True
        if not _NAME_RE.match(name):
            self.issue(lineno, f"invalid generator name {name!r}")
            ok = False
        elif name in self.gen_lines:
            self.issue(lineno, f"duplicate generator {name!r} "
                               f"(first declared on line {self.gen_lines[name]})")
            ok = False
        if not _INT_RE.match(degree_tok):
            self.issue(lineno, f"invalid degree {degree_tok!r}")
            ok = False
        action = _parse_rational(action_tok)
        if action is None:
            self.issue(lineno, f"invalid rational {action_tok!r}")
            ok = False
        try:
            kind = GeneratorKind.from_token(kind_tok)
        except ValueError as exc:
            self.issue(lineno, str(exc))
            ok = False
        else:
            if self.allowed_kinds is not None and kind not in self.allowed_kinds:
                self.issue(lineno, f"kind {kind_tok!r} not allowed in this document")
                ok = False
        if ok:
            try:
                self.gens.append(Generator(name, int(degree_tok), action, kind))
                self.gen_lines[name] = lineno
            except ValueError as exc:
                self.issue(lineno, str(exc))
        return True

    def gen_names(self) -> set[str]:
        return set(self.gen_lines)

    def characteristic(self, override: int | None) -> int:
        if override is not None:
            return check_characteristic(override)
        return self.p if self.p is not None else 2

    def finish(self) -> None:
        if self.issues:
            raise DocumentError(self.issues)


def _parse_poly_tokens(tokens, declared, lineno, reader):
    """`+`-separated monomials; each monomial is an optional integer
    coefficient followed by generator names; a bare integer multiplies the
    unit word."""
    groups: list[list[str]] = [[]]
    for token in tokens:
        if token == "+":
            groups.append([])
        else:
            groups[-1].append(token)
    pairs: list[tuple[int, tuple[str, ...]]] = []
    for group in groups:
        if not group:
            reader.issue(lineno, "empty monomial in polynomial")
            continue
        coeff = 1
        names = group
        if _INT_RE.match(group[0]):
            coeff = int(group[0])
            names = group[1:]
        word = []
        ok = True
        for name in names:
            if not _NAME_RE.match(name):
                reader.issue(lineno, f"invalid generator name {name!r} in polynomial")
                ok = False
            elif name not in declared:
                reader.issue(lineno, f"undeclared generator {name!r} in polynomial")
                ok = False
            else:
                word.append(name)
        if ok:
            pairs.append((coeff, tuple(word)))
    return pairs


# -- algebra documents --------------------------------------------------------


@dataclass
class DgaDocument:
    dga: Dga
    marked: tuple[str, ...] = ()
    roles: dict[str, ChordRole] | None = None

    def __post_init__(self):
        if self.roles is None:
            self.roles = {}


def parse_dga(text: str, field_override: int | None = None) -> DgaDocument:
    reader = _DocReader()
    d_lines: list[tuple[int, str, list[str]]] = []
    mark_lines: list[tuple[int, str]] = []
    role_lines: list[tuple[int, str, ChordRole]] = []
    seen_roles: dict[str, int] = {}
    for lineno, args in _lines(text):
        if reader.read_field(lineno, args) or reader.read_ddeg(lineno, args) \
                or reader.read_gen(lineno, args):
            continue
        if args[0] == "d":
            if len(args) < 4 or args[2] != "=":
                reader.issue(lineno, "usage: d <name> = <poly>")
            else:
                d_lines.append((lineno, args[1], args[3:]))
        elif args[0] == "mark":
            if len(args) != 2:
                reader.issue(lineno, "usage: mark <name>")
            else:
                mark_lines.append((lineno, args[1]))
        elif args[0] == "surgery":
            if len(args) not in (4, 6) or args[2] not in ("a", "b", "c"):
                reader.issue(lineno, "usage: surgery <name> <a|b|c> <i> [<j> <m>]")
            elif not all(_INT_RE.match(t) for t in args[3:]):
                reader.issue(lineno, "surgery indices must be integers")
            elif args[2] == "a" and len(args) != 4:
                reader.issue(lineno, "connector roles take a single index")
            elif args[2] in ("b", "c") and len(args) != 6:
                reader.issue(lineno, "hook/transit roles take three indices")
            else:
                name = args[1]
                if name in seen_roles:
                    reader.issue(lineno, f"duplicate surgery role for {name!r}")
                else:
                    seen_roles[name] = lineno
                    if args[2] == "a":
                        role = ChordRole("a", int(args[3]))
                    else:
                        role = ChordRole(args[2], int(args[3]), int(args[4]),
                                         int(args[5]))
                    role_lines.append((lineno, name, role))
        else:
            reader.issue(lineno, f"unknown directive {args[0]!r}")

    declared = reader.gen_names()
    p = reader.characteristic(field_override)
    diff_pairs: dict[str, list] = {}
    d_seen: dict[str, int] = {}
    for lineno, name, tokens in d_lines:
        if name not in declared:
            reader.issue(lineno, f"differential for undeclared generator {name!r}")
            continue
        if name in d_seen:
            reader.issue(lineno, f"duplicate differential for {name!r} "
                                 f"(first on line {d_seen[name]})")
            continue
        d_seen[name] = lineno
        diff_pairs[name] = _parse_poly_tokens(tokens, declared, lineno, reader)
    marked: list[str] = []
    for lineno, name in mark_lines:
        if name not in declared:
            reader.issue(lineno, f"mark on undeclared generator {name!r}")
        elif name in marked:
            reader.issue(lineno, f"duplicate mark on {name!r}")
        else:
            marked.append(name)
    roles: dict[str, ChordRole] = {}
    for lineno, name, role in role_lines:
        if name not in declared:
            reader.issue(lineno, f"surgery role on undeclared generator {name!r}")
        else:
            roles[name] = role
    reader.finish()
    differential = {name: NcPoly.from_pairs(p, pairs)
                    for name, pairs in diff_pairs.items()}
    dga = Dga(p, reader.gens, differential, reader.d_degree if reader.d_degree is not None else 1)
    return DgaDocument(dga, tuple(marked), roles)


def serialize_dga(doc: DgaDocument | Dga) -> str:
    if isinstance(doc, Dga):
        doc = DgaDocument(doc)
    dga = doc.dga
    lines = [f"field {dga.p}", f"ddeg {dga.d_degree}"]
    lines.extend(_gen_line(gen) for gen in dga.generators.values())
    for name in dga.generators:
        role = doc.roles.get(name)
        if role is not None:
            if role.type == "a":
                lines.append(f"surgery {name} a {role.i}")
            else:
                lines.append(f"surgery {name} {role.type} {role.i} {role.j} {role.m}")
    for name in dga.generators:
        poly = dga.differential_of(name)
        if not poly.is_zero:
            lines.append(f"d {name} = {format_poly(poly)}")
    for name in sorted(doc.marked):
        lines.append(f"mark {name}")
    return "\n".join(lines) + "\n"


# -- count tables -------------------------------------------------------------


def parse_disk_counts(text: str, field_override: int | None = None) -> DiskCountTable:
    from .bridge import DiskCountTable
    reader = _DocReader(allowed_kinds={GeneratorKind.DOUBLE_POINT_POS})
    entries: list[tuple[int, str, tuple[str, ...], int]] = []
    for lineno, args in _lines(text):
        if reader.read_field(lineno, args) or reader.read_gen(lineno, args):
            continue
        if args[0] == "count":
            if len(args) < 4 or args[-2] != "=" or not _INT_RE.match(args[-1]):
                reader.issue(lineno, "usage: count <out> [<in>*] = <coeff>")
            else:
                entries.append((lineno, args[1], tuple(args[2:-2]), int(args[-1])))
        else:
            reader.issue(lineno, f"unknown directive {args[0]!r}")
    declared = reader.gen_names()
    for lineno, out, inputs, _ in entries:
        for name in (out,) + inputs:
            if name not in declared:
                reader.issue(lineno, f"undeclared double point {name!r}")
    reader.finish()
    return DiskCountTable.build(reader.characteristic(field_override), reader.gens,
                                [(out, inputs, coeff) for _, out, inputs, coeff in entries])


def serialize_disk_counts(table: DiskCountTable) -> str:
    lines = [f"field {table.p}"]
    lines.extend(_gen_line(gen) for gen in table.double_points.values())
    for out, words in sorted(table.counts.items()):
        for inputs, coeff in sorted(words.items()):
            middle = (" " + " ".join(inputs)) if inputs else ""
            lines.append(f"count {out}{middle} = {coeff}")
    return "\n".join(lines) + "\n"


def _split_marked_groups(tokens):
    """Split `... [bottom: names] [top: names]` into (head, bottom, top)."""
    head: list[str] = []
    bottom: list[str] = []
    top: list[str] = []
    current = head
    for token in tokens:
        if token == "bottom:":
            current = bottom
        elif token == "top:":
            current = top
        else:
            current.append(token)
    return head, bottom, top


def parse_strip_counts(text: str, field_override: int | None = None) -> StripCountTable:
    from .bridge import StripCountTable
    reader = _DocReader(allowed_kinds={GeneratorKind.MIXED_CHORD,
                                       GeneratorKind.DOUBLE_POINT_POS})
    entries = []
    for lineno, args in _lines(text):
        if reader.read_field(lineno, args) or reader.read_gen(lineno, args):
            continue
        if args[0] == "strip":
            body = args[1:]
            if len(body) < 4 or body[-2] != "=" or not _INT_RE.match(body[-1]):
                reader.issue(lineno, "usage: strip <out> <in> [bottom: <names>] "
                                     "[top: <names>] = <coeff>")
                continue
            coeff = int(body[-1])
            head, bottom, top = _split_marked_groups(body[:-2])
            if len(head) != 2:
                reader.issue(lineno, "strip entries need exactly two chords")
                continue
            entries.append((lineno, head[0], head[1], tuple(bottom), tuple(top), coeff))
        else:
            reader.issue(lineno, f"unknown directive {args[0]!r}")

    chords = [g for g in reader.gens if g.kind is GeneratorKind.MIXED_CHORD]
    points = {g.name: g for g in reader.gens
              if g.kind is GeneratorKind.DOUBLE_POINT_POS}
    chord_names = {g.name for g in chords}
    used_bottom: set[str] = set()
    used_top: set[str] = set()
    for lineno, c_out, c_in, bottom, top, _ in entries:
        for name in (c_out, c_in):
            if name not in chord_names:
                reader.issue(lineno, f"undeclared chord {name!r}")
        for name in bottom:
            if name not in points:
                reader.issue(lineno, f"undeclared double point {name!r}")
            else:
                used_bottom.add(name)
        for name in top:
            if name not in points:
                reader.issue(lineno, f"undeclared double point {name!r}")
            else:
                used_top.add(name)
    for name in sorted(used_bottom & used_top):
        reader.issue(0, f"double point {name!r} appears on both boundary sides")
    reader.finish()
    # double points never used in an entry default to the bottom side
    dp_bottom = [g for n, g in points.items() if n not in used_top]
    dp_top = [g for n, g in points.items() if n in used_top]
    return StripCountTable.build(
        reader.characteristic(field_override), chords, dp_bottom, dp_top,
        [(c_out, c_in, bottom, top, coeff)
         for _, c_out, c_in, bottom, top, coeff in entries])


def serialize_strip_counts(table: StripCountTable) -> str:
    lines = [f"field {table.p}"]
    for group in (table.chords, table.dp_bottom, table.dp_top):
        lines.extend(_gen_line(gen) for gen in group.values())
    for (c_out, c_in, bottom, top), coeff in sorted(table.counts.items()):
        parts = [f"strip {c_out} {c_in}"]
        if bottom:
            parts.append("bottom: " + " ".join(bottom))
        if top:
            parts.append("top: " + " ".join(top))
        parts.append(f"= {coeff}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# -- value files (cochains and augmentations) ---------------------------------


def parse_values(text: str, p: int) -> dict[str, int]:
    reader = _DocReader()
    values: dict[str, int] = {}
    seen: dict[str, int] = {}
    for lineno, args in _lines(text):
        if reader.read_field(lineno, args):
            continue
        if args[0] == "set":
            if len(args) != 4 or args[2] != "=" or not _INT_RE.match(args[3]):
                reader.issue(lineno, "usage: set <name> = <value>")
            elif not _NAME_RE.match(args[1]):
                reader.issue(lineno, f"invalid generator name {args[1]!r}")
            elif args[1] in seen:
                reader.issue(lineno, f"duplicate assignment for {args[1]!r}")
            else:
                seen[args[1]] = lineno
                values[args[1]] = int(args[3]) % p
        else:
            reader.issue(lineno, f"unknown directive {args[0]!r}")
    if reader.p is not None and reader.p != p:
        reader.issue(0, f"value file declares field {reader.p}, expected {p}")
    reader.finish()
    return values


def serialize_values(p: int, values: dict[str, int]) -> str:
    lines = [f"field {p}"]
    for name in sorted(values):
        if values[name] % p:
            lines.append(f"set {name} = {values[name] % p}")
    return "\n".join(lines) + "\n"


# -- configuration files ------------------------------------------------------


def parse_tree_config(text: str) -> PearlyTreeConfig:
    from .pearly import ConfigError, DiskComponent, PearlyTreeConfig
    reader = _DocReader()
    disk_lines: list[tuple[int, list[str]]] = []
    edge_lines: list[tuple[int, list[str]]] = []
    for lineno, args in _lines(text):
        if reader.read_field(lineno, args) or reader.read_gen(lineno, args):
            continue
        if args[0] == "disk":
            if len(args) < 2:
                reader.issue(lineno, "usage: disk <output> [<inputs>*]")
            else:
                disk_lines.append((lineno, args[1:]))
        elif args[0] == "edge":
            if len(args) != 4 or not all(_INT_RE.match(t) for t in args[1:]):
                reader.issue(lineno, "usage: edge <srcDisk> <dstDisk> <slot>")
            else:
                edge_lines.append((lineno, args[1:]))
        else:
            reader.issue(lineno, f"unknown directive {args[0]!r}")
    table = {g.name: g for g in reader.gens}
    disks = []
    for lineno, names in disk_lines:
        missing = [n for n in names if n not in table]
        for name in missing:
            reader.issue(lineno, f"undeclared generator {name!r}")
        if not missing:
            disks.append(DiskComponent(table[names[0]],
                                       tuple(table[n] for n in names[1:])))
    edges = [(int(a), int(b), int(c)) for _, (a, b, c) in edge_lines]
    reader.finish()
    try:
        return PearlyTreeConfig(tuple(disks), tuple(edges))
    except ConfigError as exc:
        raise DocumentError([ParseIssue(0, str(exc))]) from exc


def serialize_tree_config(tree: PearlyTreeConfig) -> str:
    lines = []
    seen: dict[str, Generator] = {}
    for gen in tree.all_generators():
        if gen.name not in seen:
            seen[gen.name] = gen
            lines.append(_gen_line(gen))
    for disk in tree.disks:
        names = " ".join(g.name for g in (disk.output,) + disk.inputs)
        lines.append(f"disk {names}")
    for src, dst, slot in tree.edges:
        lines.append(f"edge {src} {dst} {slot}")
    return "\n".join(lines) + "\n"


def parse_traj_config(text: str) -> BrokenTrajectoryConfig:
    from .pearly import (BrokenTrajectoryConfig, ConfigError, DiskComponent,
                         StripComponent)
    reader = _DocReader()
    strip_lines = []
    disk_lines: list[tuple[int, list[str]]] = []
    attach_lines = []
    for lineno, args in _lines(text):
        if reader.read_field(lineno, args) or reader.read_gen(lineno, args):
            continue
        if args[0] == "strip":
            head, bottom, top = _split_marked_groups(args[1:])
            if len(head) != 2:
                reader.issue(lineno, "usage: strip <out> <in> [bottom: <names>] "
                                     "[top: <names>]")
            else:
                strip_lines.append((lineno, head[0], head[1],
                                    tuple(bottom), tuple(top)))
        elif args[0] == "disk":
            if len(args) < 2:
                reader.issue(lineno, "usage: disk <output> [<inputs>*]")
            else:
                disk_lines.append((lineno, args[1:]))
        elif args[0] == "attach":
            if (len(args) != 5 or args[2] not in ("bottom", "top")
                    or not _INT_RE.match(args[1]) or not _INT_RE.match(args[3])
                    or not _INT_RE.match(args[4])):
                reader.issue(lineno, "usage: attach <strip> <bottom|top> <pos> <disk>")
            else:
                attach_lines.append((lineno, int(args[1]), args[2],
                                     int(args[3]), int(args[4])))
        else:
            reader.issue(lineno, f"unknown directive {args[0]!r}")
    table = {g.name: g for g in reader.gens}

    def resolve(lineno, names):
        out = []
        for name in names:
            if name not in table:
                reader.issue(lineno, f"undeclared generator {name!r}")
            else:
                out.append(table[name])
        return out

    strips = []
    for lineno, out, inp, bottom, top in strip_lines:
        gens = resolve(lineno, (out, inp) + bottom + top)
        if len(gens) == 2 + len(bottom) + len(top):
            strips.append(StripComponent(gens[0], gens[1],
                                         tuple(gens[2:2 + len(bottom)]),
                                         tuple(gens[2 + len(bottom):])))
    disks = []
    for lineno, names in disk_lines:
        gens = resolve(lineno, names)
        if len(gens) == len(names):
            disks.append(DiskComponent(gens[0], tuple(gens[1:])))
    bottom_attach = []
    top_attach = []
    for lineno, strip_idx, side, pos, disk_idx in attach_lines:
        if not 0 <= disk_idx < len(disks):
            reader.issue(lineno, f"attach references missing disk {disk_idx}")
            continue
        target = bottom_attach if side == "bottom" else top_attach
        target.append((strip_idx, pos, disks[disk_idx]))
    reader.finish()
    try:
        return BrokenTrajectoryConfig(tuple(strips), tuple(bottom_attach),
                                      tuple(top_attach))
    except ConfigError as exc:
        raise DocumentError([ParseIssue(0, str(exc))]) from exc


def serialize_traj_config(traj: BrokenTrajectoryConfig) -> str:
    lines = []
    seen: dict[str, Generator] = {}

    def declare(gen: Generator):
        if gen.name not in seen:
            seen[gen.name] = gen
            lines.append(_gen_line(gen))

    disks = [d for _, _, d in traj.bottom_disks + traj.top_disks]
    for strip in traj.strips:
        for gen in (strip.output_chord, strip.input_chord) + strip.marked():
            declare(gen)
    for disk in disks:
        for gen in (disk.output,) + disk.inputs:
            declare(gen)
    for strip in traj.strips:
        parts = [f"strip {strip.output_chord.name} {strip.input_chord.name}"]
        if strip.bottom_marked:
            parts.append("bottom: " + " ".join(g.name for g in strip.bottom_marked))
        if strip.top_marked:
            parts.append("top: " + " ".join(g.name for g in strip.top_marked))
        lines.append(" ".join(parts))
    for disk in disks:
        lines.append("disk " + " ".join(g.name
                                        for g in (disk.output,) + disk.inputs))
    index = {id(d): i for i, d in enumerate(disks)}
    for side, attachments in (("bottom", traj.bottom_disks),
                              ("top", traj.top_disks)):
        for strip_idx, pos, disk in attachments:
            lines.append(f"attach {strip_idx} {side} {pos} {index[id(disk)]}")
    return "\n".join(lines) + "\n"

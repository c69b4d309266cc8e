"""Line-oriented text formats.

One declaration per line, ``#`` starts a comment.  Every format accepts a
``field`` line; each names the rest of its directives once, its grammar:
algebra documents ``ddeg``, ``gen``, ``d``, ``mark`` and ``surgery``; disk
count tables ``gen`` and ``count``; strip count tables ``gen`` and
``strip``; value files ``set``; tree configurations ``gen``, ``disk`` and
``edge``; trajectory configurations ``gen``, ``strip``, ``disk`` and
``attach``.  Configuration files check a ``field`` line but ignore its value.
Rationals are written ``p/q`` with the sign on p and gcd(p, q) = 1.

Parsers collect every diagnostic (line-addressed) before failing, and
``parse . serialize`` is the identity on canonical documents.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .dga import ChordRole, Dga, Generator, GeneratorKind
from .field import DEFAULT_CHARACTERISTIC, InputError, check_characteristic
from .poly import NcPoly, format_poly

if TYPE_CHECKING:  # the parsers import these on use, so each format loads only its own
    from .bridge import DiskCountTable, StripCountTable
    from .pearly import BrokenTrajectoryConfig, DiskComponent, PearlyTreeConfig

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# no more digits than int() converts (a limit of 0 means none), so a longer
# integer token is refused with the diagnostic of its line
_DIGITS = rf"\d{{1,{getattr(sys, 'get_int_max_str_digits', lambda: 0)() or ''}}}"
_INT_RE = re.compile(rf"[+-]?{_DIGITS}\Z")
_RATIONAL_RE = re.compile(rf"([+-]?{_DIGITS})(?:/({_DIGITS}))?\Z")
_HEADER_USAGE = {"field": "field <prime>", "ddeg": "ddeg <integer>"}


class ParseIssue(NamedTuple):
    line: int  # 1-based, 0 for document-level problems
    message: str

    def __str__(self) -> str:
        where = f"line {self.line}" if self.line else "document"
        return f"{where}: {self.message}"


class DocumentError(InputError):
    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("\n".join(str(i) for i in self.issues))


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


class _DocReader:
    """The one read loop of every format.  ``lines`` strips comments, reads
    ``field`` lines and, where the grammar lists them, ``ddeg`` and ``gen``
    lines, reports any directive outside the grammar, and yields the other
    lines to the parser.  Issues are collected in line order."""

    def __init__(self, grammar: str, allowed_kinds=None):
        self.grammar = {"field", *grammar.split()}
        self.allowed_kinds = allowed_kinds
        self.issues: list[ParseIssue] = []
        self.header: dict[str, int] = {}  # "field" and "ddeg" values as declared
        self.gens: dict[str, Generator] = {}
        self.gen_lines: dict[str, int] = {}

    def issue(self, lineno: int, message: str) -> None:
        self.issues.append(ParseIssue(lineno, message))

    def lines(self, text: str):
        # not splitlines(): \f, U+0085, U+2028 and the like do not end a line
        for lineno, raw in enumerate(text.split("\n"), start=1):
            args = raw.split("#", 1)[0].split()
            if not args:
                continue
            if args[0] not in self.grammar:
                self.issue(lineno, f"unknown directive {args[0]!r}")
            elif args[0] in _HEADER_USAGE:
                self._read_header(lineno, args)
            elif args[0] == "gen":
                self._read_gen(lineno, args)
            else:
                yield lineno, args

    def _read_header(self, lineno, args) -> None:
        key = args[0]
        if key in self.header:
            self.issue(lineno, f"duplicate {key} declaration")
        elif len(args) != 2 or not _INT_RE.match(args[1]):
            self.issue(lineno, f"usage: {_HEADER_USAGE[key]}")
        else:
            try:
                value = int(args[1])
                self.header[key] = check_characteristic(value) if key == "field" else value
            except ValueError as exc:
                self.issue(lineno, str(exc))

    def _read_gen(self, lineno, args) -> None:
        if len(args) != 5:
            self.issue(lineno, "usage: gen <name> <degree> <p/q> <kind>")
            return
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
                self.gens[name] = Generator(name, int(degree_tok), action, kind)
                self.gen_lines[name] = lineno
            except ValueError as exc:
                self.issue(lineno, str(exc))

    def characteristic(self) -> int:
        return self.header.get("field", DEFAULT_CHARACTERISTIC)

    def resolve(self, lineno: int, names) -> list[Generator] | None:
        """The declared generators named, or None after reporting each
        undeclared name."""
        missing = [name for name in names if name not in self.gens]
        for name in missing:
            self.issue(lineno, f"undeclared generator {name!r}")
        return None if missing else [self.gens[name] for name in names]

    def finish(self) -> None:
        if self.issues:
            raise DocumentError(self.issues)


def _gen_lines(gens) -> list[str]:
    """One ``gen`` line for the first generator seen under each name, in
    first-seen order."""
    first: dict[str, Generator] = {}
    for gen in gens:
        first.setdefault(gen.name, gen)
    return [f"gen {g.name} {g.degree} {format_rational(g.action)} {g.kind.value}"
            for g in first.values()]


def _entry_coeff(args, heads: int) -> int | None:
    """The coefficient of an entry line ``<directive> <heads>... = <coeff>``,
    or None when the ``= <coeff>`` tail is malformed."""
    if len(args) < heads + 3 or args[-2] != "=" or not _INT_RE.match(args[-1]):
        return None
    return int(args[-1])


def _parse_poly_tokens(tokens, lineno, reader):
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
            elif name not in reader.gens:
                reader.issue(lineno, f"undeclared generator {name!r} in polynomial")
                ok = False
            else:
                word.append(name)
        if ok:
            pairs.append((coeff, tuple(word)))
    return pairs


# -- algebra documents --------------------------------------------------------


class DgaDocument(NamedTuple):
    """A parsed algebra with its marked chords and a read-only view of its roles by name."""

    dga: Dga
    marked: tuple[str, ...] = ()
    roles: Mapping[str, ChordRole] = MappingProxyType({})


def parse_dga(text: str, field_override: int | None = None) -> DgaDocument:
    reader = _DocReader("ddeg gen d mark surgery")
    d_lines: list[tuple[int, str, list[str]]] = []
    mark_lines: list[tuple[int, str]] = []
    role_lines: dict[str, tuple[int, ChordRole]] = {}
    for lineno, args in reader.lines(text):
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
        elif len(args) not in (4, 6) or args[2] not in ("a", "b", "c"):  # surgery
            reader.issue(lineno, "usage: surgery <name> <a|b|c> <i> [<j> <m>]")
        elif not all(_INT_RE.match(t) for t in args[3:]):
            reader.issue(lineno, "surgery indices must be integers")
        elif args[2] == "a" and len(args) != 4:
            reader.issue(lineno, "connector roles take a single index")
        elif args[2] in ("b", "c") and len(args) != 6:
            reader.issue(lineno, "hook/transit roles take three indices")
        elif args[1] in role_lines:
            reader.issue(lineno, f"duplicate surgery role for {args[1]!r}")
        else:
            role_lines[args[1]] = (lineno, ChordRole(args[2], *map(int, args[3:])))

    declared = reader.gens
    p = (reader.characteristic() if field_override is None
         else check_characteristic(field_override))
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
        diff_pairs[name] = _parse_poly_tokens(tokens, lineno, reader)
    marked: list[str] = []
    for lineno, name in mark_lines:
        if name not in declared:
            reader.issue(lineno, f"mark on undeclared generator {name!r}")
        elif name in marked:
            reader.issue(lineno, f"duplicate mark on {name!r}")
        else:
            marked.append(name)
    roles: dict[str, ChordRole] = {}
    for name, (lineno, role) in role_lines.items():
        if name not in declared:
            reader.issue(lineno, f"surgery role on undeclared generator {name!r}")
        else:
            roles[name] = role
    reader.finish()
    differential = {name: NcPoly.from_pairs(p, pairs)
                    for name, pairs in diff_pairs.items()}
    dga = Dga(p, declared.values(), differential, reader.header.get("ddeg", 1))
    return DgaDocument(dga, tuple(marked), MappingProxyType(roles))


def serialize_dga(doc: DgaDocument | Dga) -> str:
    if isinstance(doc, Dga):
        doc = DgaDocument(doc)
    dga = doc.dga
    lines = [f"field {dga.p}", f"ddeg {dga.d_degree}", *_gen_lines(dga.generators.values())]
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


def parse_disk_counts(text: str) -> DiskCountTable:
    from .bridge import DiskCountTable
    reader = _DocReader("gen count", allowed_kinds={GeneratorKind.DOUBLE_POINT_POS})
    entries: list[tuple[int, str, tuple[str, ...], int]] = []
    for lineno, args in reader.lines(text):
        coeff = _entry_coeff(args, 1)
        if coeff is None:
            reader.issue(lineno, "usage: count <out> [<in>*] = <coeff>")
        else:
            entries.append((lineno, args[1], tuple(args[2:-2]), coeff))
    for lineno, out, inputs, _ in entries:
        for name in (out,) + inputs:
            if name not in reader.gens:
                reader.issue(lineno, f"undeclared double point {name!r}")
    reader.finish()
    return DiskCountTable.build(reader.characteristic(), reader.gens.values(),
                                [(out, inputs, coeff) for _, out, inputs, coeff in entries])


def serialize_disk_counts(table: DiskCountTable) -> str:
    lines = [f"field {table.p}", *_gen_lines(table.double_points.values())]
    for out, words in sorted(table.counts.items()):
        for inputs, coeff in sorted(words.items()):
            lines.append(" ".join(["count", out, *inputs, "=", str(coeff)]))
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


def _strip_line(c_out: str, c_in: str, bottom, top) -> str:
    parts = ["strip", c_out, c_in]
    if bottom:
        parts += ["bottom:", *bottom]
    if top:
        parts += ["top:", *top]
    return " ".join(parts)


def parse_strip_counts(text: str) -> StripCountTable:
    from .bridge import StripCountTable
    reader = _DocReader("gen strip", allowed_kinds={GeneratorKind.MIXED_CHORD,
                                                    GeneratorKind.DOUBLE_POINT_POS})
    entries = []
    for lineno, args in reader.lines(text):
        coeff = _entry_coeff(args, 2)
        if coeff is None:
            reader.issue(lineno, "usage: strip <out> <in> [bottom: <names>] "
                                 "[top: <names>] = <coeff>")
            continue
        head, bottom, top = _split_marked_groups(args[1:-2])
        if len(head) != 2:
            reader.issue(lineno, "strip entries need exactly two chords")
        else:
            entries.append((lineno, head[0], head[1], tuple(bottom), tuple(top), coeff))

    kinds = {name: gen.kind for name, gen in reader.gens.items()}
    used: dict[str, set[str]] = {"bottom": set(), "top": set()}
    for lineno, c_out, c_in, bottom, top, _ in entries:
        for name in (c_out, c_in):
            if kinds.get(name) is not GeneratorKind.MIXED_CHORD:
                reader.issue(lineno, f"undeclared chord {name!r}")
        for side, names in (("bottom", bottom), ("top", top)):
            for name in names:
                if kinds.get(name) is not GeneratorKind.DOUBLE_POINT_POS:
                    reader.issue(lineno, f"undeclared double point {name!r}")
                else:
                    used[side].add(name)
    for name in sorted(used["bottom"] & used["top"]):
        reader.issue(0, f"double point {name!r} appears on both boundary sides")
    reader.finish()
    chords = [g for g in reader.gens.values() if g.kind is GeneratorKind.MIXED_CHORD]
    points = [g for g in reader.gens.values() if g.kind is GeneratorKind.DOUBLE_POINT_POS]
    # double points never used in an entry default to the bottom side
    return StripCountTable.build(
        reader.characteristic(), chords, [g for g in points if g.name not in used["top"]],
        [g for g in points if g.name in used["top"]],
        [(c_out, c_in, bottom, top, coeff)
         for _, c_out, c_in, bottom, top, coeff in entries])


def serialize_strip_counts(table: StripCountTable) -> str:
    lines = [f"field {table.p}", *_gen_lines(
        [*table.chords.values(), *table.dp_bottom.values(), *table.dp_top.values()])]
    for (c_out, c_in, bottom, top), coeff in sorted(table.counts.items()):
        lines.append(f"{_strip_line(c_out, c_in, bottom, top)} = {coeff}")
    return "\n".join(lines) + "\n"


# -- value files (cochains and augmentations) ---------------------------------


def parse_values(text: str, p: int) -> dict[str, int]:
    reader = _DocReader("set")
    values: dict[str, int] = {}
    for lineno, args in reader.lines(text):
        if len(args) != 4 or args[2] != "=" or not _INT_RE.match(args[3]):
            reader.issue(lineno, "usage: set <name> = <value>")
        elif not _NAME_RE.match(args[1]):
            reader.issue(lineno, f"invalid generator name {args[1]!r}")
        elif args[1] in values:
            reader.issue(lineno, f"duplicate assignment for {args[1]!r}")
        else:
            values[args[1]] = int(args[3]) % p
    if reader.header.get("field", p) != p:
        reader.issue(0, f"value file declares field {reader.header['field']}, expected {p}")
    reader.finish()
    return values


def serialize_values(p: int, values: dict[str, int]) -> str:
    lines = [f"field {p}"]
    for name in sorted(values):
        if values[name] % p:
            lines.append(f"set {name} = {values[name] % p}")
    return "\n".join(lines) + "\n"


# -- configuration files ------------------------------------------------------


def _read_disk(reader: _DocReader, lineno: int, args, disk_lines: list) -> None:
    if len(args) < 2:
        reader.issue(lineno, "usage: disk <output> [<inputs>*]")
    else:
        disk_lines.append((lineno, args[1:]))


def _resolve_disks(reader: _DocReader, disk_lines) -> list[DiskComponent | None]:
    """One entry per disk line, None where a name is undeclared."""
    from .pearly import DiskComponent
    disks = []
    for lineno, names in disk_lines:
        gens = reader.resolve(lineno, names)
        disks.append(gens and DiskComponent(gens[0], tuple(gens[1:])))
    return disks


def _build_config(reader: _DocReader, build, *parts):
    """Refuse on the collected issues, then build the configuration with a
    ConfigError reported as a document-level issue."""
    from .pearly import ConfigError
    reader.finish()
    try:
        return build(*parts)
    except ConfigError as exc:
        raise DocumentError([ParseIssue(0, str(exc))]) from exc


def _disk_line(disk: DiskComponent) -> str:
    return " ".join(["disk", disk.output.name, *(g.name for g in disk.inputs)])


def parse_tree_config(text: str) -> PearlyTreeConfig:
    from .pearly import PearlyTreeConfig
    reader = _DocReader("gen disk edge")
    disk_lines: list[tuple[int, list[str]]] = []
    edges: list[tuple[int, int, int]] = []
    for lineno, args in reader.lines(text):
        if args[0] == "disk":
            _read_disk(reader, lineno, args, disk_lines)
        elif len(args) != 4 or not all(_INT_RE.match(t) for t in args[1:]):  # edge
            reader.issue(lineno, "usage: edge <srcDisk> <dstDisk> <slot>")
        else:
            edges.append((int(args[1]), int(args[2]), int(args[3])))
    if not (disk_lines or edges or reader.issues):  # no line can name an edge generator
        reader.issue(0, "a tree needs at least one disk line")
    disks = _resolve_disks(reader, disk_lines)
    return _build_config(reader, PearlyTreeConfig, tuple(disks), tuple(edges))


def serialize_tree_config(tree: PearlyTreeConfig) -> str:
    from .pearly import ConfigError
    if not tree.disks:  # parse_tree_config reads no edge generator
        raise ConfigError("the tree format has no text form for a diskless tree")
    lines = _gen_lines(tree.all_generators())
    lines.extend(_disk_line(disk) for disk in tree.disks)
    lines.extend(f"edge {src} {dst} {slot}" for src, dst, slot in tree.edges)
    return "\n".join(lines) + "\n"


def parse_traj_config(text: str) -> BrokenTrajectoryConfig:
    from .pearly import BrokenTrajectoryConfig, StripComponent
    reader = _DocReader("gen strip disk attach")
    strip_lines: list[tuple[int, list[str], int]] = []
    disk_lines: list[tuple[int, list[str]]] = []
    attach_lines: list[tuple[int, int, str, int, int]] = []
    for lineno, args in reader.lines(text):
        if args[0] == "strip":
            head, bottom, top = _split_marked_groups(args[1:])
            if len(head) != 2:
                reader.issue(lineno, "usage: strip <out> <in> [bottom: <names>] "
                                     "[top: <names>]")
            else:
                strip_lines.append((lineno, head + bottom + top, len(bottom)))
        elif args[0] == "disk":
            _read_disk(reader, lineno, args, disk_lines)
        elif (len(args) != 5 or args[2] not in ("bottom", "top")  # attach
                or not all(_INT_RE.match(args[i]) for i in (1, 3, 4))):
            reader.issue(lineno, "usage: attach <strip> <bottom|top> <pos> <disk>")
        else:
            attach_lines.append((lineno, int(args[1]), args[2], int(args[3]), int(args[4])))
    strips = []
    for lineno, names, n_bottom in strip_lines:
        gens = reader.resolve(lineno, names)
        if gens:
            strips.append(StripComponent(gens[0], gens[1], tuple(gens[2:2 + n_bottom]),
                                         tuple(gens[2 + n_bottom:])))
    disks = _resolve_disks(reader, disk_lines)
    attached: dict[str, list] = {"bottom": [], "top": []}
    for lineno, strip_idx, side, pos, disk_idx in attach_lines:
        # indexed by disk line, so an unresolved disk does not shift later ones
        if 0 <= disk_idx < len(disks):
            attached[side].append((strip_idx, pos, disks[disk_idx]))
        else:
            reader.issue(lineno, f"attach references missing disk {disk_idx}")
    return _build_config(reader, BrokenTrajectoryConfig, tuple(strips),
                         tuple(attached["bottom"]), tuple(attached["top"]))


def serialize_traj_config(traj: BrokenTrajectoryConfig) -> str:
    disks = [d for _, _, d in traj.bottom_disks + traj.top_disks]
    lines = _gen_lines(
        [g for s in traj.strips for g in (s.output_chord, s.input_chord) + s.marked()]
        + [g for d in disks for g in (d.output,) + d.inputs])
    lines.extend(_strip_line(s.output_chord.name, s.input_chord.name,
                             [g.name for g in s.bottom_marked],
                             [g.name for g in s.top_marked]) for s in traj.strips)
    lines.extend(_disk_line(disk) for disk in disks)
    index = {id(d): i for i, d in enumerate(disks)}
    for side, attachments in (("bottom", traj.bottom_disks), ("top", traj.top_disks)):
        for strip_idx, pos, disk in attachments:
            lines.append(f"attach {strip_idx} {side} {pos} {index[id(disk)]}")
    return "\n".join(lines) + "\n"

"""Combinatorial models of disk trees and broken strip trajectories.

Configurations carry only degrees, actions, and incidence.  Edges joining
disk components are constant: the two endpoints of a matched edge carry the
same generator.  "Rigid" is purely the per-component degree identity
(2 - n for a disk with n inputs, 1 - n for a strip with n marked points).
The ledgers verify the telescoping identities obtained by summing the
per-component identities; the verdicts derive the forced single-component
conclusions from the ledger arithmetic and report the positivity of actions
that their hypotheses force; and the exhaustive searches look for
counterexamples inside stated bounds.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from functools import reduce
from operator import itemgetter
from typing import NamedTuple

from .dga import Generator, GeneratorKind
from .field import InputError


class ConfigError(InputError):
    """Malformed configuration: bad incidence, mismatched generators, or a
    component that is not rigid where rigidity is required."""


class BoundsTooLargeError(InputError):
    def __init__(self, estimate: int, limit: int):
        super().__init__(f"at least {estimate} configurations exceed the limit {limit}")
        self.estimate = estimate
        self.limit = limit


# -- disk trees ---------------------------------------------------------------


class DiskComponent(NamedTuple):
    """One disk: an output generator and an ordered tuple of inputs."""

    output: Generator
    inputs: tuple[Generator, ...] = ()

    def energy(self) -> Fraction:
        return self.output.action - sum((g.action for g in self.inputs), Fraction(0))

    def is_rigid(self) -> bool:
        return (self.output.degree - sum(g.degree for g in self.inputs)
                == 2 - len(self.inputs))


class _PearlyTreeFields(NamedTuple):
    disks: tuple[DiskComponent, ...] = ()
    edges: tuple[tuple[int, int, int], ...] = ()
    edge_generator: Generator | None = None


def _root(m: int, edges) -> int:
    """The one disk whose output is matched by no edge: m - 1 edges with
    pairwise distinct sources leave exactly one."""
    sources = {src for src, _, _ in edges}
    return next(i for i in range(m) if i not in sources)


class PearlyTreeConfig(_PearlyTreeFields):
    """Rooted tree of disks.  An edge (src, dst, slot) plugs the output of
    disk ``src`` into input slot ``slot`` of disk ``dst``; matched ends carry
    the same generator.  With no disks at all the configuration is a single
    constant edge at ``edge_generator``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "PearlyTreeConfig":
        self = super().__new__(cls, *args, **kwargs)
        disks, edges = self.disks, self.edges
        m = len(disks)
        if m == 0:
            if edges:
                raise ConfigError("edges given without disks")
            if self.edge_generator is None:
                raise ConfigError("a diskless tree needs its edge generator")
            return self
        if len(edges) != m - 1:
            raise ConfigError(f"{m} disks require {m - 1} edges, got {len(edges)}")
        sources, slots = set(), set()
        for src, dst, slot in edges:
            if not (0 <= src < m and 0 <= dst < m) or src == dst:
                raise ConfigError(f"edge ({src}, {dst}, {slot}) out of range")
            if not 0 <= slot < len(disks[dst].inputs):
                raise ConfigError(f"edge into disk {dst} uses missing slot {slot}")
            if src in sources:
                raise ConfigError(f"disk {src} output matched twice")
            if (dst, slot) in slots:
                raise ConfigError(f"input slot ({dst}, {slot}) matched twice")
            sources.add(src)
            slots.add((dst, slot))
            if disks[src].output != disks[dst].inputs[slot]:
                raise ConfigError(
                    f"edge ({src}, {dst}, {slot}) joins distinct generators "
                    f"{disks[src].output.name!r} and {disks[dst].inputs[slot].name!r}")
        children: dict[int, list[int]] = {}
        for src, dst, _ in edges:
            children.setdefault(dst, []).append(src)
        reached = [_root(m, edges)]  # every other disk has one parent: none is reached twice
        for node in reached:
            reached.extend(children.get(node, ()))
        if len(reached) != m:
            raise ConfigError("tree incidence is not connected")
        return self

    @property
    def disk_count(self) -> int:
        return len(self.disks)

    def root_output(self) -> Generator:
        if not self.disks:
            return self.edge_generator
        return self.disks[_root(len(self.disks), self.edges)].output

    def external_inputs(self) -> list[Generator]:
        if not self.disks:
            return [self.edge_generator]
        matched = {(dst, slot) for _, dst, slot in self.edges}
        return [gen for i, disk in enumerate(self.disks)
                for s, gen in enumerate(disk.inputs) if (i, s) not in matched]

    def all_generators(self) -> list[Generator]:
        if not self.disks:
            return [self.edge_generator]
        return [gen for disk in self.disks for gen in (disk.output, *disk.inputs)]


class TreeLedger(NamedTuple):
    m: int
    k: int
    lhs: int
    rhs: int
    telescoped: bool


def tree_ledger(tree: PearlyTreeConfig) -> TreeLedger:
    """Degree ledger: lhs = deg(root) - sum deg(external inputs) against
    rhs = m + 1 - k.  An exact combinatorial identity whenever every disk is
    rigid and matched edges agree (the internal generators cancel)."""
    for i, disk in enumerate(tree.disks):
        if not disk.is_rigid():
            raise ConfigError(f"disk {i} is not rigid")
    externals = tree.external_inputs()
    lhs = tree.root_output().degree - sum(g.degree for g in externals)
    m, k = tree.disk_count, len(externals)
    rhs = m + 1 - k
    return TreeLedger(m, k, lhs, rhs, lhs == rhs)


class TreeVerdict(NamedTuple):
    hypotheses_ok: bool
    hypothesis_violations: tuple[str, ...]
    positivity_propagates: bool | None = None
    output_action_positive: bool | None = None
    ledger: TreeLedger | None = None
    global_constraint_satisfied: bool | None = None
    forced_disk_count: int | None = None
    single_disk: bool | None = None


def tree_verdict(tree: PearlyTreeConfig, require_global_constraint: bool = True
                 ) -> TreeVerdict:
    """Run the degeneration argument on one configuration.

    Hypotheses: positive-action double-point external inputs, every disk
    rigid and nonconstant with strictly positive energy, at least one disk.
    ``positivity_propagates`` (every disk's output and inputs have positive
    action) and ``output_action_positive`` follow from the hypotheses; under
    the global degree constraint (lhs = 2 - k) the ledger forces a single
    disk component.
    """
    violations: list[str] = []
    for gen in tree.external_inputs():
        if gen.kind is not GeneratorKind.DOUBLE_POINT_POS:  # a dp+ has action > 0
            violations.append(
                f"external input {gen.name!r} is not a positive-action double point")
    if tree.disk_count == 0:
        violations.append("no disk components (single constant edge)")
    for i, disk in enumerate(tree.disks):
        if not disk.is_rigid():
            violations.append(f"disk {i} is not rigid")
        if disk.energy() <= 0:
            violations.append(f"disk {i} has nonpositive energy {disk.energy()}")
    if violations:
        return TreeVerdict(False, tuple(violations))

    # Positivity holds by construction.  Each input of a disk is an external
    # input (action > 0) or a child disk's output, and positive energy makes
    # a disk's output action exceed the sum of its input actions; so by
    # induction from the leaves every output, and hence every input, has
    # positive action, the root's output included.
    ledger = tree_ledger(tree)
    satisfied = forced = single = None
    if require_global_constraint:
        satisfied = ledger.lhs == 2 - ledger.k
        if satisfied:
            forced = ledger.lhs - 1 + ledger.k  # = m by the ledger identity
            single = forced == 1 and ledger.m == forced
    return TreeVerdict(True, (), True, True, ledger, satisfied, forced, single)


# -- broken trajectories ------------------------------------------------------


class StripComponent(NamedTuple):
    """One strip: input and output chords plus ordered boundary marked
    generators on the bottom and top sides."""

    output_chord: Generator
    input_chord: Generator
    bottom_marked: tuple[Generator, ...] = ()
    top_marked: tuple[Generator, ...] = ()

    def marked(self) -> tuple[Generator, ...]:
        return self.bottom_marked + self.top_marked

    def is_rigid(self) -> bool:
        marked = self.marked()
        return (self.output_chord.degree - self.input_chord.degree
                - sum(g.degree for g in marked) == 1 - len(marked))


class _TrajectoryFields(NamedTuple):
    strips: tuple[StripComponent, ...]
    bottom_disks: tuple[tuple[int, int, DiskComponent], ...] = ()
    top_disks: tuple[tuple[int, int, DiskComponent], ...] = ()


class BrokenTrajectoryConfig(_TrajectoryFields):
    """A chain of strips with matching break chords, optionally decorated by
    single disks attached at marked points: (strip index, position, disk),
    with the disk output equal to the marked generator."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "BrokenTrajectoryConfig":
        self = super().__new__(cls, *args, **kwargs)
        if not self.strips:
            raise ConfigError("a trajectory needs at least one strip")
        for nu in range(len(self.strips) - 1):
            left, right = self.strips[nu], self.strips[nu + 1]
            if left.output_chord != right.input_chord:
                raise ConfigError(
                    f"break mismatch between strips {nu} and {nu + 1}: "
                    f"{left.output_chord.name!r} vs {right.input_chord.name!r}")
        for side, attachments in (("bottom", self.bottom_disks),
                                  ("top", self.top_disks)):
            used = set()
            for strip_idx, pos, disk in attachments:
                if not 0 <= strip_idx < len(self.strips):
                    raise ConfigError(f"attachment on missing strip {strip_idx}")
                marked = (self.strips[strip_idx].bottom_marked if side == "bottom"
                          else self.strips[strip_idx].top_marked)
                if not 0 <= pos < len(marked):
                    raise ConfigError(
                        f"attachment at missing {side} position {pos} of strip {strip_idx}")
                if (strip_idx, pos) in used:
                    raise ConfigError(
                        f"{side} position {pos} of strip {strip_idx} attached twice")
                used.add((strip_idx, pos))
                if disk.output != marked[pos]:
                    raise ConfigError(
                        f"disk output {disk.output.name!r} does not match marked "
                        f"generator {marked[pos].name!r}")
        return self

    @property
    def strip_count(self) -> int:
        return len(self.strips)

    def input_chord(self) -> Generator:
        return self.strips[0].input_chord

    def output_chord(self) -> Generator:
        return self.strips[-1].output_chord

    def _externals(self, side: str) -> list[Generator]:
        attachments = {(s, p): d for s, p, d in
                       (self.bottom_disks if side == "bottom" else self.top_disks)}
        out: list[Generator] = []
        for idx, strip in enumerate(self.strips):
            marked = strip.bottom_marked if side == "bottom" else strip.top_marked
            for pos, gen in enumerate(marked):
                disk = attachments.get((idx, pos))
                out.extend((gen,) if disk is None else disk.inputs)
        return out

    def bottom_inputs(self) -> list[Generator]:
        return self._externals("bottom")

    def top_inputs(self) -> list[Generator]:
        return self._externals("top")


class TrajectoryLedger(NamedTuple):
    M: int
    K: int
    m0: int
    m1: int
    k: int
    l: int
    lhs: int
    rhs: int
    telescoped: bool


def trajectory_ledger(traj: BrokenTrajectoryConfig) -> TrajectoryLedger:
    """Degree ledger for a broken trajectory: lhs = deg(out) - deg(in) -
    sum of external degrees against rhs = M - k - l with M the total
    component count.  Exact whenever every component is rigid and the
    matching rules hold."""
    for nu, strip in enumerate(traj.strips):
        if not strip.is_rigid():
            raise ConfigError(f"strip {nu} is not rigid")
    for _, _, disk in traj.bottom_disks + traj.top_disks:
        if not disk.is_rigid():
            raise ConfigError(f"attached disk at {disk.output.name!r} is not rigid")
    bottom = traj.bottom_inputs()
    top = traj.top_inputs()
    K = traj.strip_count
    m0, m1 = len(traj.bottom_disks), len(traj.top_disks)
    M = K + m0 + m1
    k, l = len(bottom), len(top)
    lhs = (traj.output_chord().degree - traj.input_chord().degree
           - sum(g.degree for g in bottom) - sum(g.degree for g in top))
    rhs = M - k - l
    return TrajectoryLedger(M, K, m0, m1, k, l, lhs, rhs, lhs == rhs)


class TrajectoryVerdict(NamedTuple):
    hypotheses_ok: bool
    hypothesis_violations: tuple[str, ...]
    ledger: TrajectoryLedger | None = None
    global_constraint_satisfied: bool | None = None
    forced_component_count: int | None = None
    unbroken: bool | None = None
    no_attached_disks: bool | None = None


def trajectory_verdict(traj: BrokenTrajectoryConfig) -> TrajectoryVerdict:
    """Under the global rigid degree constraint (lhs = 1 - k - l) the ledger
    forces M = 1, hence a single strip and no attached disks; both
    conclusions are derived from the arithmetic, never assumed."""
    violations: list[str] = []
    for gen in traj.bottom_inputs() + traj.top_inputs():
        if gen.kind is not GeneratorKind.DOUBLE_POINT_POS:  # a dp+ has action > 0
            violations.append(
                f"external generator {gen.name!r} is not a positive-action double point")
    for nu, strip in enumerate(traj.strips):
        if not strip.is_rigid():
            violations.append(f"strip {nu} is not rigid")
    for _, _, disk in traj.bottom_disks + traj.top_disks:
        if not disk.is_rigid():
            violations.append(f"attached disk at {disk.output.name!r} is not rigid")
    if violations:
        return TrajectoryVerdict(False, tuple(violations))
    ledger = trajectory_ledger(traj)
    satisfied = ledger.lhs == 1 - ledger.k - ledger.l
    forced = unbroken = bare = None
    if satisfied:
        forced = ledger.lhs + ledger.k + ledger.l  # = M by the ledger identity
        unbroken = forced == 1 and ledger.K == 1
        bare = ledger.m0 == 0 and ledger.m1 == 0
    return TrajectoryVerdict(True, (), ledger, satisfied, forced, unbroken, bare)


# -- exhaustive searches ------------------------------------------------------


def _check_bounds(bounds, positive: tuple[str, ...], nonnegative: tuple[str, ...]):
    """Reject bounds that would search nothing or cannot be searched; return
    them otherwise."""
    for names, least, rule in ((positive, 1, "at least 1"), (nonnegative, 0, "nonnegative")):
        for name in names:
            if getattr(bounds, name) < least:
                raise InputError(f"{name} must be {rule}, got {getattr(bounds, name)}")
    lo, hi = bounds.degree_range
    if lo > hi:
        raise InputError(f"empty degree range [{lo}, {hi}]")
    return bounds


class _TreeSearchFields(NamedTuple):
    max_disks: int = 4
    max_inputs_per_disk: int = 3
    degree_range: tuple[int, int] = (-3, 4)
    max_configs: int = 50_000_000
    materialize_stride: int = 20_000


class TreeSearchBounds(_TreeSearchFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "TreeSearchBounds":
        return _check_bounds(super().__new__(cls, *args, **kwargs),
                             ("max_disks", "max_configs", "materialize_stride"),
                             ("max_inputs_per_disk",))


class _TrajectorySearchFields(NamedTuple):
    max_strips: int = 3
    max_marked_per_strip: int = 2
    max_total_marked: int = 3
    max_attached_disks: int = 2
    max_inputs_per_disk: int = 2
    degree_range: tuple[int, int] = (-3, 4)
    max_configs: int = 50_000_000
    materialize_stride: int = 20_000


class TrajectorySearchBounds(_TrajectorySearchFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "TrajectorySearchBounds":
        return _check_bounds(super().__new__(cls, *args, **kwargs),
                             ("max_strips", "max_configs", "materialize_stride"),
                             ("max_marked_per_strip", "max_total_marked",
                              "max_attached_disks", "max_inputs_per_disk"))


class CounterexampleReport(NamedTuple):
    """What one search found; ``exhaustive_search`` builds it once, at the end.
    ``enumerated`` counts sum tuples; ``in_window`` counts those whose
    derived degrees all lie in the degree range, per shape, not one by
    one.  ``materialized`` counts the sampled tuples re-checked through real
    configurations; each failed re-check adds a telescope failure.  The
    searches prove that no structure is a counterexample."""

    mode: str
    bounds: dict
    estimated_configs: int
    enumerated: int
    in_window: int
    telescope_failures: int
    materialized: int
    counterexamples: list

    @property
    def ok(self) -> bool:
        return not self.counterexamples and self.telescope_failures == 0


def _distribute(total: int, count: int, lo: int, hi: int) -> list[int]:
    """Concrete values in [lo, hi] summing to a feasible total, filled
    greedily from the first."""
    rem = total - lo * count
    return [lo + max(0, min(hi - lo, rem - (hi - lo) * i)) for i in range(count)]


def _convolve(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Tuple counts of x + y for x counted by ``a`` and y by ``b``."""
    out: dict[int, int] = {}
    for x, cx in a.items():
        for y, cy in b.items():
            out[x + y] = out.get(x + y, 0) + cx * cy
    return out


def _uniform(start: int, radix: int) -> dict[int, int]:
    return dict.fromkeys(range(start, start + radix), 1)


def _clip(dist: dict[int, int], lo: int, hi: int) -> dict[int, int]:
    return {d: c for d, c in dist.items() if lo <= d <= hi}


def _degrees(values, derived, lo: int, hi: int):
    """The derived degrees of one tuple of digit values, or None once one
    leaves [lo, hi].  Entry k of ``derived`` (constant, digits, later
    entries) sums them; last one first."""
    degrees = [0] * len(derived)
    for k in range(len(derived) - 1, -1, -1):
        d, own, later = derived[k]
        for i in own:
            d += values[i]
        for c in later:
            d += degrees[c]
        if d < lo or d > hi:
            return None
        degrees[k] = d
    return degrees


def _walk(first: int, digits, derived, lo: int, hi: int, stride: int):
    """(picks, values, degrees) of each tuple of one shape at a 1-based rank
    (``first`` for its first tuple) that is a multiple of ``stride``, with
    every derived degree in [lo, hi].  Structures pick one (start, radix)
    range per entry of ``digits`` in ``itertools.product`` order and run
    through them, first digit most significant.  From each sampled rank the
    walk jumps to its structure, then decodes and tests every sampled rank
    in it."""
    n = len(digits)
    rest = [1] * (n + 1)  # tuples per picks before j
    for j in range(n - 1, -1, -1):
        rest[j] = rest[j + 1] * sum(map(itemgetter(1), digits[j]))
    picks, starts, radices = [0] * n, [0] * n, [0] * n
    rank, end = first + -first % stride, first + rest[0]
    while rank < end:
        at, scale = first, 1  # find the structure holding rank
        for j, alts in enumerate(digits):
            for picks[j], (start, radix) in enumerate(alts):
                size = scale * radix * rest[j + 1]
                if rank < at + size:
                    break
                at += size
            starts[j], radices[j], scale = start, radix, scale * radix
        for offset in range(rank - at, scale, stride):
            values = starts[:]
            for i in range(n - 1, -1, -1):
                offset, d = divmod(offset, radices[i])
                values[i] += d
            degrees = _degrees(values, derived, lo, hi)
            if degrees is not None:
                yield tuple(picks), values, degrees
        rank = at + scale + -(at + scale) % stride


def _bounded_sum(sizes, limit: int) -> int:
    """Sum ``sizes``; once past ``limit``, refuse with the sum so far (a lower bound)."""
    total = 0
    for total in itertools.accumulate(sizes):
        if total > limit:
            raise BoundsTooLargeError(total, limit)
    return total


def _tree_shapes(max_disks: int, max_inputs: int):
    """Rooted-tree shapes (m, parents, child_counts) with at most
    ``max_inputs`` children per disk, parents in lexicographic order.  Disk
    0 is the root and disk i hangs below parents[i - 1] < i, which
    enumerates every shape up to the relabeling the degree assignment
    already quantifies over."""
    level = [((), (0,))]
    for m in range(1, max_disks + 1):
        for parents, counts in level:
            yield m, parents, counts
        level = [(parents + (p,), counts[:p] + (counts[p] + 1,) + counts[p + 1:] + (0,))
                 for parents, counts in level for p in range(m) if counts[p] < max_inputs]


def _estimate_trees(bounds: TreeSearchBounds) -> int:
    """The disks' extras vary independently, so a shape's tuple count is the
    product over its disks of their radices summed over the extras.  A disk
    with c children takes e = 0..E extras, E = cap - c, and the radices
    (hi - lo) * e + 1 sum to (E + 1) + (hi - lo) * E * (E + 1) / 2.  No disk
    has more than max_disks - 1 children."""
    lo, hi = bounds.degree_range
    cap = bounds.max_inputs_per_disk
    per_disk = [(cap - c + 1) + (hi - lo) * (cap - c) * (cap - c + 1) // 2
                for c in range(min(cap, bounds.max_disks - 1) + 1)]
    return _bounded_sum((math.prod(per_disk[c] for c in child_counts)
                         for _, _, child_counts in _tree_shapes(bounds.max_disks, cap)),
                        bounds.max_configs)


def _materialize_tree(m, parents, extras, sums, out_degs, lo, hi) -> PearlyTreeConfig:
    children: list[list[int]] = [[] for _ in range(m)]
    for child, parent in enumerate(parents, start=1):
        children[parent].append(child)
    disks: list[DiskComponent] = [None] * m
    actions, one, dp = [0] * m, Fraction(1), GeneratorKind.DOUBLE_POINT_POS
    for i in range(m - 1, -1, -1):
        inputs = [disks[c].output for c in children[i]] + [
            Generator(f"x{i}_{s}", d, one, dp)
            for s, d in enumerate(_distribute(sums[i], extras[i], lo, hi))]
        actions[i] = 1 + extras[i] + sum(actions[c] for c in children[i])
        disks[i] = DiskComponent(Generator(f"v{i}", out_degs[i], Fraction(actions[i]), dp),
                                 tuple(inputs))
    edges = [(c, i, slot) for i in range(m) for slot, c in enumerate(children[i])]
    return PearlyTreeConfig(tuple(disks), tuple(edges))


def _spread(ranges, lo: int, hi: int) -> dict[int, int]:
    """Counts in [lo, hi] of a digit running through each (start, radix) range."""
    marks = [0] * (hi - lo + 2)
    for start, radix in ranges:
        first, last = max(start, lo), min(start + radix - 1, hi)
        if first <= last:
            marks[first - lo] += 1
            marks[last + 1 - lo] -= 1
    return {d: c for d, c in zip(range(lo, hi + 1), itertools.accumulate(marks)) if c}


def _tree_counts(bounds: TreeSearchBounds):
    """Each tree shape's (tuples, in-window tuples, recheck).  out_degs[i] =
    rigid[i] + sums[i] + the outputs of i's children, with rigid[i] = 2 -
    child_counts[i] - extras[i], so the ledger lhs = out_degs[0] - sum(sums)
    is sum(rigid) for every tuple.  Every disk but the root is one child, so
    sum(rigid) = 2m - (m - 1) - k = m + 1 - k, the rhs, and the
    counterexample test lhs = 2 - k forces m = 1.  Both hold by construction
    and are not tested per structure.

    With each disk's extras summed out, a subtree's clipped output-degree
    counts depend only on its class: the sorted classes of its children.
    Each class is interned as an int and counted once, from the leaves up; a
    shape counts as its root's class.  A disk with k children reaches the
    window only from a digit in [lo - k hi, hi - k lo]; ``recheck`` walks its
    output as that digit plus its children's."""
    lo, hi = bounds.degree_range
    cap, stride = bounds.max_inputs_per_disk, bounds.materialize_stride
    # per child count c, each extras count e's (rigid + lo * e, radix) range
    ranges = [[(2 - c - e + lo * e, (hi - lo) * e + 1) for e in range(cap - c + 1)]
              for c in range(min(cap, bounds.max_disks - 1) + 1)]
    totals = [sum(map(itemgetter(1), per_extras)) for per_extras in ranges]
    class_ids: dict[tuple[int, ...], int] = {}
    classes: list[dict[int, int]] = []  # per class: clipped output-degree counts
    for m, parents, child_counts in _tree_shapes(bounds.max_disks, cap):
        children: list[list[int]] = [[] for _ in range(m)]
        for child, parent in enumerate(parents, start=1):
            children[parent].append(child)
        node = [0] * m
        for i in range(m - 1, -1, -1):
            key = tuple(sorted([node[c] for c in children[i]]))
            if key not in class_ids:
                k, class_ids[key] = len(key), len(classes)
                classes.append(_clip(reduce(_convolve, [classes[c] for c in key], _spread(
                    ranges[k], lo - k * hi, hi - k * lo)), lo, hi))
            node[i] = class_ids[key]

        def recheck(first):
            for extras, values, out_degs in _walk(first, [ranges[c] for c in child_counts], [
                    (0, (i,), kids) for i, kids in enumerate(children)], lo, hi, stride):
                sums = [v - 2 + c + e for v, c, e in zip(values, child_counts, extras)]
                yield tree_ledger(_materialize_tree(
                    m, parents, extras, sums, out_degs, lo, hi)).telescoped
        yield math.prod(totals[c] for c in child_counts), sum(classes[node[0]].values()), recheck


def _traj_shapes(bounds: TrajectorySearchBounds):
    """Every (K, marks, attached): the strip count, the (bottom, top) marked
    counts per strip in ``itertools.product`` order, and the attachment
    points (strip, side, position)."""
    per_strip = [(nb, nt)
                 for nb in range(bounds.max_marked_per_strip + 1)
                 for nt in range(bounds.max_marked_per_strip + 1 - nb)]
    level = [((), 0)]  # marks, marked points used
    for K in range(1, bounds.max_strips + 1):
        level = [(marks + ((nb, nt),), used + nb + nt) for marks, used in level
                 for nb, nt in per_strip if used + nb + nt <= bounds.max_total_marked]
        for marks, _ in level:
            points = [(s, side, pos)
                      for s, (nb, nt) in enumerate(marks)
                      for side, n in (("bottom", nb), ("top", nt))
                      for pos in range(n)]
            for a_count in range(min(bounds.max_attached_disks, len(points)) + 1):
                for attached in itertools.combinations(points, a_count):
                    yield K, marks, attached


def _disk_digit(n: int, lo: int, hi: int) -> tuple[int, int]:
    """Range start and radix of the output degree of a disk with n inputs."""
    start = max(lo, 2 - n + lo * n)
    return start, max(0, min(hi, 2 - n + hi * n) - start + 1)


def _disk_radix_sum(cap: int, lo: int, hi: int) -> int:
    """The disk radices summed over n = 0..cap inputs.  For n >= 2 the output
    degree runs from lo if lo <= 0, else from 2 + (lo - 1) n, to hi if hi >= 1,
    else to 2 + (hi - 1) n.  So from n0 = |lo| + |hi| + 3 on the radix is
    constant: hi - lo + 1 when lo <= 0 < hi, hi - 1 when lo = 1, and 0 when
    lo >= 2 (the start passes hi once n >= hi - 1) or hi <= 0 (the end falls
    below lo once n > 2 - lo).  The head is summed, the tail multiplied."""
    n0 = abs(lo) + abs(hi) + 3
    head = sum(_disk_digit(n, lo, hi)[1] for n in range(min(cap, n0) + 1))
    return head + max(0, cap - n0) * _disk_digit(n0, lo, hi)[1]


def _estimate_trajectories(bounds: TrajectorySearchBounds) -> int:
    """A shape counts its chord radix times, per side with n marked points of
    which j carry a disk, the summed disk radices to the j times the bare
    radix (hi - lo) * (n - j) + 1.  One-strip shapes are added by side pair,
    so large per-strip bounds refuse early; longer strip counts sum at once."""
    (lo, hi), attach = bounds.degree_range, bounds.max_attached_disks
    disks = _disk_radix_sum(bounds.max_inputs_per_disk, lo, hi)
    side = [[(j, math.comb(n, j) * disks ** j * ((hi - lo) * (n - j) + 1))
             for j in range(min(n, attach) + 1)]
            for n in range(min(bounds.max_marked_per_strip, bounds.max_total_marked) + 1)]

    def sizes():
        level: dict[tuple[int, int], int] = defaultdict(int)  # weights by (marked, disks)
        for nb in range(len(side)):
            for nt in range(len(side) - nb):
                for (jb, wb), (jt, wt) in itertools.product(side[nb], side[nt]):
                    if jb + jt <= attach:
                        level[nb + nt, jb + jt] += wb * wt
                        yield (hi - lo + 1) * wb * wt
        step = level
        for _ in range(bounds.max_strips - 1):
            level, last = defaultdict(int), level
            for ((used, a), count), ((n, j), w) in itertools.product(last.items(), step.items()):
                if used + n <= bounds.max_total_marked and a + j <= attach:
                    level[used + n, a + j] += count * w
            yield (hi - lo + 1) * sum(level.values())
    return _bounded_sum(sizes(), bounds.max_configs)


def _materialize_trajectory(marks, attached, disk_inputs, c_in_deg, bare_groups, bare_sums,
                            disk_outs, lo, hi) -> BrokenTrajectoryConfig:
    """bare_groups pairs each bare-sum value with its (strip, side, count)."""
    one, dp, mixed = Fraction(1), GeneratorKind.DOUBLE_POINT_POS, GeneratorKind.MIXED_CHORD
    bare_degs = {(s, side): iter(_distribute(total, bare, lo, hi))
                 for (s, side, bare), total in zip(bare_groups, bare_sums)}
    disks_at: dict[tuple[int, str, int], DiskComponent] = {}
    for (s, side, pos), n, out_deg in zip(attached, disk_inputs, disk_outs):
        inputs = tuple(Generator(f"di{s}_{pos}_{t}", d, one, dp)
                       for t, d in enumerate(_distribute(out_deg - 2 + n, n, lo, hi)))
        disks_at[s, side, pos] = DiskComponent(
            Generator(f"do{s}_{side}_{pos}", out_deg, Fraction(n + 1), dp), inputs)
    strips, bottom, top = [], [], []  # bottom, top: the attachments per side
    chord = Generator("q0", c_in_deg, one, mixed)
    for s, (nb, nt) in enumerate(marks):
        sides, degree = ([], []), chord.degree + 1 - nb - nt  # marked generators per side
        for side, n, marked, attachments in (("bottom", nb, sides[0], bottom),
                                             ("top", nt, sides[1], top)):
            for pos in range(n):
                disk = disks_at.get((s, side, pos))
                if disk is not None:
                    attachments.append((s, pos, disk))
                marked.append(disk.output if disk is not None else Generator(
                    f"m{s}_{side}_{pos}", next(bare_degs[s, side]), one, dp))
                degree += marked[-1].degree
        next_chord = Generator(f"q{s + 1}", degree, one, mixed)
        strips.append(StripComponent(next_chord, chord, tuple(sides[0]), tuple(sides[1])))
        chord = next_chord
    return BrokenTrajectoryConfig(tuple(strips), tuple(bottom), tuple(top))


def _trajectory_counts(bounds: TrajectorySearchBounds):
    """Each trajectory shape's (tuples, in-window tuples, recheck).  Strip s
    moves the chord by 1 - #marked plus its bare sums and attached disk
    outputs, and a disk with n inputs has output 2 - n + its input degrees,
    so the ledger lhs = chord_out - c_in - externals is sum(1 - #marked) +
    sum(2 - n) for every tuple.  With a attached disks, k + l = sum(#marked)
    - a + sum(n), so lhs = M - k - l for M = K + a, the rhs, and the
    counterexample test lhs = 1 - k - l forces M = 1.  Both hold by
    construction and are not tested per structure.

    With each attached disk's input count summed out, a strip's step counts
    depend only on 1 - #marked, its bare counts and its attached disks, and
    the clipped chord counts after a strip only on the steps so far.  Each
    step and each prefix of steps is counted once, a prefix interned as an
    int, ``prefix_ids[prefix, step]`` naming the longer one; a shape counts as
    its last prefix.  ``recheck`` walks the chord after strip s as the chord
    before it plus 1 - #marked and its digits."""
    (lo, hi), stride = bounds.degree_range, bounds.materialize_stride
    n0, cap = abs(lo) + abs(hi) + 3, bounds.max_inputs_per_disk
    if not min(bounds.max_attached_disks, bounds.max_marked_per_strip, bounds.max_total_marked):
        cap = -1  # no shape attaches a disk
    elif not _disk_digit(n0, lo, hi)[1]:
        cap = min(cap, n0)  # the radix is 0 from n0 on (``_disk_radix_sum``)
    disk_digits = [_disk_digit(n, lo, hi) for n in range(cap + 1)]
    while disk_digits and not disk_digits[-1][1]:  # only a tail: a pick's index is its input count
        disk_digits.pop()
    disk_spread = _spread(disk_digits, lo, hi)  # a disk's output degrees over its input counts
    steps: dict[tuple, dict[int, int]] = {}  # degree-change counts
    prefix_ids: dict[tuple[int, tuple], int] = {}
    longer_ids: dict[tuple[int, tuple], int] = {}  # prefix_ids by a strip's side counts
    prefixes, counts = [_uniform(lo, hi - lo + 1)], [hi - lo + 1]  # clipped chords, tuples
    for K, marks, attached in _traj_shapes(bounds):
        sides = [[nb, nt, 0, 0] for nb, nt in marks]  # marked and attached, per side
        for s, side, _ in attached:
            sides[s][2 + (side == "top")] += 1
        prefix = 0
        for side_counts in map(tuple, sides):
            if (prefix, side_counts) not in longer_ids:
                nb, nt, ab, at = side_counts
                bare = sorted(n - a for n, a in ((nb, ab), (nt, at)) if n)
                key = (1 - nb - nt, ab + at, tuple(bare))
                if key not in steps:
                    spreads = [_uniform(lo * n, (hi - lo) * n + 1) for n in bare]
                    steps[key] = reduce(_convolve, spreads + [disk_spread] * (ab + at),
                                        {key[0]: 1})
                if (prefix, key) not in prefix_ids:
                    prefix_ids[prefix, key] = len(prefixes)
                    prefixes.append(_clip(_convolve(prefixes[prefix], steps[key]), lo, hi))
                    counts.append(counts[prefix] * sum(disk_spread.values()) ** (ab + at)
                                  * math.prod((hi - lo) * n + 1 for n in bare))
                longer_ids[prefix, side_counts] = prefix_ids[prefix, key]
            prefix = longer_ids[prefix, side_counts]

        def recheck(first):
            # digits: the input chord, one bare sum per nonempty side, one output per disk
            bare_groups, digits, owned = [], [[(lo, hi - lo + 1)]], [[0]] + [[] for _ in marks[1:]]
            for s, (nb, nt, ab, at) in enumerate(sides):
                for side, n, bare in (("bottom", nb, nb - ab), ("top", nt, nt - at)):
                    if n:
                        owned[s].append(len(digits))
                        bare_groups.append((s, side, bare))
                        digits.append([(lo * bare, (hi - lo) * bare + 1)])
            for s, _, _ in attached:
                owned[s].append(len(digits))
                digits.append(disk_digits)
            derived = [(1 - sum(marks[s]), owned[s], (K - s,) if s else ())  # chords, last first
                       for s in range(K - 1, -1, -1)]
            split = 1 + len(bare_groups)
            for picks, values, _ in _walk(first, digits, derived, lo, hi, stride):
                yield trajectory_ledger(_materialize_trajectory(
                    marks, attached, picks[split:], values[0], bare_groups, values[1:split],
                    values[split:], lo, hi)).telescoped
        yield counts[prefix], sum(prefixes[prefix].values()), recheck


def exhaustive_search(bounds) -> CounterexampleReport:
    """Account for every configuration inside the bounds and report any
    that satisfies all hypotheses with two or more components.

    Degree assignments are enumerated through per-group sums: every checked
    quantity (per-component rigidity, derived degrees, the ledgers, the
    global constraint) depends on external degrees only through those sums,
    and each sum value in range is realizable, so the reduction is complete
    for the counterexample question.

    This is the one sampling loop.  It refuses the estimate past
    ``max_configs`` before any counting.  Each shape then gives its tuple
    count, its in-window count, in work that grows with the window's width,
    not the square of the inputs per disk, and a re-check, run before the
    next shape is drawn, where the shape holds in-window tuples and a rank
    that is a multiple of ``materialize_stride``."""
    if isinstance(bounds, TreeSearchBounds):
        mode, estimate, shapes = "trees", _estimate_trees, _tree_counts
    elif isinstance(bounds, TrajectorySearchBounds):
        mode, estimate, shapes = "trajectories", _estimate_trajectories, _trajectory_counts
    else:
        raise TypeError(f"unsupported bounds {bounds!r}")
    estimated, stride = estimate(bounds), bounds.materialize_stride
    enumerated = in_window = failures = materialized = 0
    for tuples, window, recheck in shapes(bounds):
        before, enumerated = enumerated, enumerated + tuples
        in_window += window
        if window and enumerated // stride > before // stride:
            for telescoped in recheck(before + 1):
                materialized += 1
                failures += not telescoped
    return CounterexampleReport(mode, bounds._asdict(), estimated, enumerated, in_window,
                                failures, materialized, [])

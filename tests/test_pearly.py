"""Disk-tree and broken-trajectory ledgers, verdicts, and searches."""

import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cedga import (BoundsTooLargeError, BrokenTrajectoryConfig, ConfigError,
                   CounterexampleReport, DiskComponent, Generator, GeneratorKind,
                   PearlyTreeConfig, StripComponent, TrajectorySearchBounds,
                   TreeSearchBounds, exhaustive_search, trajectory_ledger,
                   trajectory_verdict, tree_ledger, tree_verdict)
import cedga.pearly as pearly
from cedga.pearly import (_estimate_trajectories, _estimate_trees,
                          _materialize_trajectory, _materialize_tree,
                          _traj_shapes, _tree_shapes)

DP = GeneratorKind.DOUBLE_POINT_POS
MIXED = GeneratorKind.MIXED_CHORD


def _tree_structures(max_disks, max_inputs):
    """The tree search's oracle: every shape with each disk's extra inputs."""
    for m, parents, child_counts in _tree_shapes(max_disks, max_inputs):
        for extras in itertools.product(*[range(max_inputs - c + 1) for c in child_counts]):
            yield m, parents, child_counts, extras


def _traj_structures(bounds):
    """The trajectory search's oracle: every shape with each attached disk's
    input count."""
    for K, marks, attached in _traj_shapes(bounds):
        for disk_inputs in itertools.product(
                range(bounds.max_inputs_per_disk + 1), repeat=len(attached)):
            yield K, marks, attached, disk_inputs


def _traj_digits(marks, attached, disk_inputs, lo, hi):
    """The digits of a trajectory structure's sum tuples in
    ``itertools.product`` order: the input chord degree, one bare sum per
    nonempty side of each strip, one output degree per attached disk.
    Returns the bare groups as (strip, side, bare count) and each digit's
    range start and radix."""
    bare_groups = [(s, side, n - sum(1 for point in attached if point[:2] == (s, side)))
                   for s, (nb, nt) in enumerate(marks)
                   for side, n in (("bottom", nb), ("top", nt)) if n]
    digits = ([(lo, hi - lo + 1)] + [(lo * bare, (hi - lo) * bare + 1)
                                     for _, _, bare in bare_groups]
              + [pearly._disk_digit(n, lo, hi) for n in disk_inputs])
    return bare_groups, [start for start, _ in digits], [radix for _, radix in digits]


def _sample(first_index, radices, stride):
    """Digits of a structure's tuples whose 1-based position in the unpruned
    enumeration (``first_index`` for its first tuple) is a multiple of
    ``stride``, decoded in ``itertools.product`` order: first digit most
    significant."""
    first_sampled = -(-first_index // stride) * stride
    for rank in range(first_sampled - first_index, math.prod(radices), stride):
        digits = [0] * len(radices)
        for j in range(len(radices) - 1, -1, -1):
            rank, digits[j] = divmod(rank, radices[j])
        yield digits


class Tally:
    """A search oracle's running counts, built into one report at the end."""

    def __init__(self):
        self.enumerated = self.in_window = self.telescope_failures = self.materialized = 0
        self.counterexamples = []

    def report(self, mode, bounds, estimated_configs):
        return CounterexampleReport(mode, bounds._asdict(), estimated_configs, self.enumerated,
                                    self.in_window, self.telescope_failures, self.materialized,
                                    self.counterexamples)


def dp(name, degree, action):
    return Generator(name, degree, Fraction(action), DP)


def chord(name, degree, action=-1):
    return Generator(name, degree, Fraction(action), MIXED)


def test_disk_energy():
    disk = DiskComponent(dp("y", 2, 2), (dp("x1", 1, 1), dp("x2", 1, "1/2")))
    assert disk.energy() == Fraction(1, 2)
    constant = DiskComponent(dp("x", 1, 1), (dp("x", 1, 1),))
    assert constant.energy() == 0
    no_inputs = DiskComponent(dp("y", 2, 3))
    assert no_inputs.energy() == 3 and no_inputs.is_rigid()


def test_single_disk_ledger():
    for k in range(4):
        inputs = tuple(dp(f"x{i}", 1, 1) for i in range(k))
        out = dp("y", 2 - k + sum(g.degree for g in inputs), k + 1)
        ledger = tree_ledger(PearlyTreeConfig((DiskComponent(out, inputs),), ()))
        assert ledger.telescoped
        assert ledger.lhs == 2 - k == ledger.rhs


def test_two_disk_ledger():
    # child disk output feeds the parent; rhs = m + 1 - k = 3 - k
    mid = dp("v", 2, 3)  # rigid child: 2 - (1+1) = 2 - 2
    child = DiskComponent(mid, (dp("x1", 1, 1), dp("x2", 1, 1)))
    parent = DiskComponent(dp("y", 3, 5), (mid, dp("x3", 1, 1)))
    tree = PearlyTreeConfig((parent, child), ((1, 0, 0),))
    ledger = tree_ledger(tree)
    assert ledger.m == 2 and ledger.k == 3
    assert ledger.lhs == 0 == ledger.rhs == 3 - ledger.k
    assert ledger.telescoped


def test_tree_validation_errors():
    good = DiskComponent(dp("y", 1, 2), (dp("x", 1, 1),))
    with pytest.raises(ConfigError):
        PearlyTreeConfig((good,), ((0, 0, 0),))  # self edge
    child = DiskComponent(dp("v", 1, 1))
    parent = DiskComponent(dp("y", 1, 2), (dp("w", 1, 1),))
    with pytest.raises(ConfigError):
        # matched generators disagree (v vs w)
        PearlyTreeConfig((parent, child), ((1, 0, 0),))
    nonrigid = DiskComponent(dp("y", 0, 2), (dp("x", 1, 1),))
    with pytest.raises(ConfigError):
        tree_ledger(PearlyTreeConfig((nonrigid,), ()))


def test_diskless_tree():
    gen = dp("x", 1, 1)
    tree = PearlyTreeConfig((), (), edge_generator=gen)
    assert tree.all_generators() == tree.external_inputs() == [gen]
    ledger = tree_ledger(tree)
    assert ledger.m == 0 and ledger.k == 1 and ledger.telescoped
    verdict = tree_verdict(tree)
    assert not verdict.hypotheses_ok  # excluded by the nonconstant-disk hypothesis


def test_single_disk_verdict():
    disk = DiskComponent(dp("y", 2, 3), (dp("x1", 1, 1), dp("x2", 1, 1)))
    verdict = tree_verdict(PearlyTreeConfig((disk,), ()))
    assert verdict.hypotheses_ok
    assert verdict.positivity_propagates and verdict.output_action_positive
    assert verdict.global_constraint_satisfied
    assert verdict.forced_disk_count == 1 and verdict.single_disk


def test_two_disk_verdict_fails_global_constraint():
    mid = dp("v", 2, 3)
    child = DiskComponent(mid, (dp("x1", 1, 1), dp("x2", 1, 1)))
    parent = DiskComponent(dp("y", 3, 5), (mid, dp("x3", 1, 1)))
    verdict = tree_verdict(PearlyTreeConfig((parent, child), ((1, 0, 0),)))
    assert verdict.hypotheses_ok
    assert verdict.ledger.telescoped
    assert verdict.global_constraint_satisfied is False


def test_verdict_hypothesis_violations():
    neg = Generator("x", 1, Fraction(-1), GeneratorKind.REEB_CHORD)
    disk = DiskComponent(dp("y", 2, 3), (neg, dp("x2", 1, 1)))
    verdict = tree_verdict(PearlyTreeConfig((disk,), ()))
    assert not verdict.hypotheses_ok
    assert any("positive-action" in v for v in verdict.hypothesis_violations)


def test_positivity_propagation_property():
    # chains of strictly positive-energy disks keep every action positive
    for depth in range(1, 5):
        disks = []
        edges = []
        prev = None
        for i in range(depth):
            inputs = [dp(f"x{i}", 1, 1)]
            if prev is not None:
                inputs.append(prev)
            out_deg = 2 - len(inputs) + sum(g.degree for g in inputs)
            out = dp(f"v{i}", out_deg,
                     sum((g.action for g in inputs), Fraction(0)) + 1)
            disks.append(DiskComponent(out, tuple(inputs)))
            prev = out
        disks.reverse()  # root first; child of disk i is disk i+1
        for i in range(len(disks) - 1):
            edges.append((i + 1, i, 1))
        tree = PearlyTreeConfig(tuple(disks), tuple(edges)) if depth > 1 \
            else PearlyTreeConfig(tuple(disks), ())
        verdict = tree_verdict(tree)
        assert verdict.hypotheses_ok and verdict.positivity_propagates
        assert all(g.action > 0 for g in tree.all_generators())


def test_positivity_fields_match_scan_on_random_trees():
    # the verdict states positivity from its hypotheses; the scan it replaced
    # is the oracle on seeded random trees that pass them
    import random
    rng = random.Random(2024)
    kinds = [DP, MIXED, GeneratorKind.REEB_CHORD, GeneratorKind.MORSE]
    for _ in range(300):
        m = rng.randint(1, 7)
        parents = [rng.randrange(i) for i in range(1, m)]
        children = {}
        for child, parent in enumerate(parents, start=1):
            children.setdefault(parent, []).append(child)
        outputs, disks, edges = {}, {}, []
        for i in range(m - 1, -1, -1):
            inputs = [outputs[c] for c in children.get(i, [])]
            inputs += [dp(f"x{i}_{s}", rng.randint(-3, 4),
                          Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                       for s in range(rng.randint(0, 3))]
            rng.shuffle(inputs)
            action = (sum((g.action for g in inputs), Fraction(0))
                      + Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            outputs[i] = Generator(f"v{i}", 2 - len(inputs) + sum(g.degree for g in inputs),
                                   action, rng.choice(kinds))
            disks[i] = DiskComponent(outputs[i], tuple(inputs))
            edges += [(c, i, inputs.index(outputs[c])) for c in children.get(i, [])]
        tree = PearlyTreeConfig(tuple(disks[i] for i in range(m)), tuple(edges))
        verdict = tree_verdict(tree)
        assert verdict.hypotheses_ok
        assert verdict.positivity_propagates == all(
            g.action > 0 for disk in tree.disks for g in (disk.output, *disk.inputs))
        assert verdict.output_action_positive == (tree.root_output().action > 0)


def test_single_strip_ledger():
    strip = StripComponent(chord("cL", 1), chord("cR", 0))
    ledger = trajectory_ledger(BrokenTrajectoryConfig((strip,)))
    assert ledger.M == 1 and ledger.telescoped and ledger.lhs == 1


def test_two_strip_ledger_fails_global():
    c0, c1, c2 = chord("c0", 0), chord("c1", 1), chord("c2", 2)
    traj = BrokenTrajectoryConfig((StripComponent(c1, c0), StripComponent(c2, c1)))
    ledger = trajectory_ledger(traj)
    assert ledger.M == 2 and ledger.telescoped and ledger.lhs == 2
    verdict = trajectory_verdict(traj)
    assert verdict.hypotheses_ok
    assert verdict.global_constraint_satisfied is False


def test_decorated_strip_with_attached_disk():
    x = dp("x", 1, 1)
    ext = (dp("e1", 1, 1), dp("e2", 1, 1))
    disk = DiskComponent(x, ext)  # rigid: 1 - 2 = 2 - 2? no: 1-2=-1, 2-2=0
    assert not disk.is_rigid()
    good_out = dp("xo", 0, 3)
    disk = DiskComponent(good_out, ext)  # 0 - 2 = -2 = 2 - 2? no
    assert not disk.is_rigid()
    out = dp("xr", 2, 3)
    disk = DiskComponent(out, ext)  # 2 - 2 = 0 = 2 - 2
    assert disk.is_rigid()
    # strip rigidity with one marked point: out - in - 2 = 1 - 1 = 0
    strip = StripComponent(chord("cL", 3), chord("cR", 1), (out,), ())
    traj = BrokenTrajectoryConfig((strip,), bottom_disks=((0, 0, disk),))
    ledger = trajectory_ledger(traj)
    assert ledger.M == 2 and ledger.k == 2 and ledger.l == 0
    assert ledger.lhs == 0 == ledger.rhs
    assert ledger.telescoped
    assert trajectory_verdict(traj).global_constraint_satisfied is False


def test_trajectory_matching_errors():
    c0, c1, c2 = chord("c0", 0), chord("c1", 1), chord("c2", 2)
    with pytest.raises(ConfigError):
        BrokenTrajectoryConfig((StripComponent(c1, c0), StripComponent(c2, c0)))
    strip = StripComponent(c1, c0, (dp("m", 1, 1),), ())
    wrong = DiskComponent(dp("other", 1, 2), (dp("e", 1, 1),))
    with pytest.raises(ConfigError):
        BrokenTrajectoryConfig((strip,), bottom_disks=((0, 0, wrong),))


def test_exhaustive_small_trees_by_hand():
    # all rigid two-disk trees in a small degree window satisfy the ledger
    lo, hi = -2, 3
    checked = 0
    for e_child in range(3):
        for e_parent in range(3):
            for child_ext in itertools.product(range(lo, hi + 1), repeat=e_child):
                for parent_ext in itertools.product(range(lo, hi + 1), repeat=e_parent):
                    child_out = 2 - (e_child) + sum(child_ext)
                    parent_out = 2 - (e_parent + 1) + sum(parent_ext) + child_out
                    mid = dp("v", child_out, 10) if child_out else dp("v", 0, 10)
                    child_inputs = tuple(dp(f"cx{i}", d, 1)
                                         for i, d in enumerate(child_ext))
                    parent_inputs = (mid,) + tuple(dp(f"px{i}", d, 1)
                                                   for i, d in enumerate(parent_ext))
                    child = DiskComponent(dp("v", child_out, 10), child_inputs)
                    parent = DiskComponent(dp("y", parent_out, 30), parent_inputs)
                    ledger = tree_ledger(PearlyTreeConfig((parent, child), ((1, 0, 0),)))
                    assert ledger.telescoped
                    assert ledger.rhs == 3 - ledger.k
                    checked += 1
    assert checked > 100


def test_search_trees_single_disk_bound():
    report = exhaustive_search(TreeSearchBounds(max_disks=1))
    assert report.counterexamples == [] and report.telescope_failures == 0
    assert report.enumerated == report.estimated_configs


def test_search_trees_small():
    report = exhaustive_search(TreeSearchBounds(max_disks=3, max_inputs_per_disk=2,
                                                degree_range=(-2, 2),
                                                materialize_stride=100))
    assert report.counterexamples == []
    assert report.telescope_failures == 0
    assert report.materialized > 0


def test_search_trajectories_small():
    report = exhaustive_search(TrajectorySearchBounds(max_strips=2,
                                                      max_total_marked=2,
                                                      degree_range=(-2, 2),
                                                      materialize_stride=50))
    assert report.counterexamples == []
    assert report.telescope_failures == 0
    assert report.materialized > 0


def test_search_refuses_oversized_bounds():
    with pytest.raises(BoundsTooLargeError) as exc:
        exhaustive_search(TreeSearchBounds(max_disks=4, max_configs=1000))
    assert exc.value.estimate > 1000


def test_search_refuses_foreign_bounds():
    # the fields of tree bounds in a plain tuple select no search
    with pytest.raises(TypeError, match="unsupported bounds"):
        exhaustive_search(tuple(TreeSearchBounds()))


def test_telescoping_on_randomized_larger_trees():
    import random
    rng = random.Random(99)
    for _ in range(200):
        m = rng.randint(2, 8)
        parents = [rng.randrange(i) for i in range(1, m)]
        children = {}
        for child, parent in enumerate(parents, start=1):
            children.setdefault(parent, []).append(child)
        outputs = {}
        disks = {}
        edges = []
        for i in range(m - 1, -1, -1):
            kids = children.get(i, [])
            ext = [dp(f"x{i}_{s}", rng.randint(-5, 6), 1)
                   for s in range(rng.randint(0, 3))]
            inputs = [outputs[c] for c in kids] + ext
            out_deg = 2 - len(inputs) + sum(g.degree for g in inputs)
            action = sum((g.action for g in inputs), Fraction(0)) + 1
            outputs[i] = dp(f"v{i}", out_deg, action)
            disks[i] = DiskComponent(outputs[i], tuple(inputs))
            for slot, c in enumerate(kids):
                edges.append((c, i, slot))
        tree = PearlyTreeConfig(tuple(disks[i] for i in range(m)), tuple(edges))
        ledger = tree_ledger(tree)
        assert ledger.telescoped and ledger.m == m


def test_telescoping_on_randomized_larger_trajectories():
    import random
    rng = random.Random(17)
    for _ in range(200):
        K = rng.randint(1, 6)
        chords = [chord("q0", rng.randint(-4, 4))]
        strips = []
        bottom_attach = []
        for s in range(K):
            sides = {"bottom": [], "top": []}
            for side in sides:
                for pos in range(rng.randint(0, 2)):
                    if side == "bottom" and rng.random() < 0.4:
                        ext = tuple(dp(f"e{s}_{pos}_{t}", rng.randint(-3, 4), 1)
                                    for t in range(rng.randint(0, 2)))
                        out_deg = 2 - len(ext) + sum(g.degree for g in ext)
                        out = dp(f"o{s}_{pos}", out_deg,
                                 sum((g.action for g in ext), Fraction(0)) + 1)
                        sides[side].append(out)
                        bottom_attach.append((s, pos, DiskComponent(out, ext)))
                    else:
                        sides[side].append(dp(f"m{s}_{side}_{pos}",
                                              rng.randint(-3, 4), 1))
            count = len(sides["bottom"]) + len(sides["top"])
            total = sum(g.degree for g in sides["bottom"] + sides["top"])
            next_deg = chords[-1].degree + 1 - count + total
            chords.append(chord(f"q{s + 1}", next_deg))
            strips.append(StripComponent(chords[-1], chords[-2],
                                         tuple(sides["bottom"]),
                                         tuple(sides["top"])))
        traj = BrokenTrajectoryConfig(tuple(strips), tuple(bottom_attach))
        ledger = trajectory_ledger(traj)
        assert ledger.telescoped and ledger.K == K


# -- brute-force oracle for the pruned searches ---------------------------------
#
# These loops walk every sum tuple in ``itertools.product`` order and test the
# degree window tuple by tuple.  The pruned searches must produce field-for-field
# the same report, including which tuples are materialized.


def brute_force_trees(bounds):
    lo, hi = bounds.degree_range
    estimated_configs, tally = _estimate_trees(bounds), Tally()
    for m, parents, child_counts, extras in _tree_structures(
            bounds.max_disks, bounds.max_inputs_per_disk):
        children = {}
        for child in range(1, m):
            children.setdefault(parents[child - 1], []).append(child)
        sum_ranges = [range(lo * e, hi * e + 1) for e in extras]
        k = sum(extras)
        for sums in itertools.product(*sum_ranges):
            tally.enumerated += 1
            out_degs = [0] * m
            in_range = True
            for i in range(m - 1, -1, -1):
                n_i = child_counts[i] + extras[i]
                out_degs[i] = (2 - n_i + sums[i]
                               + sum(out_degs[c] for c in children.get(i, ())))
                if not lo <= out_degs[i] <= hi:
                    in_range = False
                    break
            if not in_range:
                continue
            tally.in_window += 1
            lhs = out_degs[0] - sum(sums)
            if lhs != m + 1 - k:
                tally.telescope_failures += 1
            if lhs == 2 - k and m >= 2:
                tree = _materialize_tree(m, parents, extras, sums, out_degs, lo, hi)
                tally.counterexamples.append({
                    "disks": m, "externals": k, "lhs": lhs,
                    "ledger": tree_ledger(tree)._asdict()})
            elif tally.enumerated % bounds.materialize_stride == 0:
                tree = _materialize_tree(m, parents, extras, sums, out_degs, lo, hi)
                tally.materialized += 1
                if not tree_ledger(tree).telescoped:
                    tally.telescope_failures += 1
    return tally.report("trees", bounds, estimated_configs)


def brute_force_trajectories(bounds):
    lo, hi = bounds.degree_range
    estimated_configs, tally = _estimate_trajectories(bounds), Tally()
    for K, marks, attached, disk_inputs in _traj_structures(bounds):
        attach_set = set(attached)
        bare_ranges = []
        for s, (nb, nt) in enumerate(marks):
            for side, n in (("bottom", nb), ("top", nt)):
                bare = sum(1 for pos in range(n) if (s, side, pos) not in attach_set)
                if n:
                    bare_ranges.append((s, side, bare, range(lo * bare, hi * bare + 1)))
        bare_groups = [(s, side, bare) for (s, side, bare, _r) in bare_ranges]
        disk_ranges = []
        for n in disk_inputs:
            d_lo, d_hi = 2 - n + lo * n, 2 - n + hi * n
            disk_ranges.append(range(max(lo, d_lo), min(hi, d_hi) + 1))
        marked_counts = [nb + nt for nb, nt in marks]
        a_count = len(attached)
        M = K + a_count
        k_plus_l = (sum(marked_counts) - a_count) + sum(disk_inputs)
        for c_in_deg in range(lo, hi + 1):
            for bare_sums in itertools.product(*[r for (_, _, _, r) in bare_ranges]):
                for disk_outs in itertools.product(*disk_ranges):
                    tally.enumerated += 1
                    per_strip_sum = {}
                    for (s, _side, _bare, _r), value in zip(bare_ranges, bare_sums):
                        per_strip_sum[s] = per_strip_sum.get(s, 0) + value
                    for point, out_deg in zip(attached, disk_outs):
                        per_strip_sum[point[0]] = per_strip_sum.get(point[0], 0) + out_deg
                    chord = c_in_deg
                    in_range = True
                    for s in range(K):
                        chord = chord + 1 - marked_counts[s] + per_strip_sum.get(s, 0)
                        if not lo <= chord <= hi:
                            in_range = False
                            break
                    if not in_range:
                        continue
                    tally.in_window += 1
                    ext_sum = (sum(bare_sums)
                               + sum(out - 2 + n for out, n in zip(disk_outs, disk_inputs)))
                    lhs = chord - c_in_deg - ext_sum
                    if lhs != M - k_plus_l:
                        tally.telescope_failures += 1
                    if lhs == 1 - k_plus_l and M >= 2:
                        traj = _materialize_trajectory(
                            marks, attached, disk_inputs, c_in_deg,
                            bare_groups, bare_sums, disk_outs, lo, hi)
                        tally.counterexamples.append({
                            "strips": K, "attached": a_count,
                            "ledger": trajectory_ledger(traj)._asdict()})
                    elif tally.enumerated % bounds.materialize_stride == 0:
                        traj = _materialize_trajectory(
                            marks, attached, disk_inputs, c_in_deg,
                            bare_groups, bare_sums, disk_outs, lo, hi)
                        tally.materialized += 1
                        if not trajectory_ledger(traj).telescoped:
                            tally.telescope_failures += 1
    return tally.report("trajectories", bounds, estimated_configs)


def assert_matches_oracle(bounds):
    oracle = (brute_force_trees if isinstance(bounds, TreeSearchBounds)
              else brute_force_trajectories)(bounds)
    report = exhaustive_search(bounds)
    assert report._asdict() == oracle._asdict()
    assert report.enumerated == report.estimated_configs
    return report


DEGREE_RANGES = [(0, 0), (2, 2), (3, 3), (-1, 1), (-2, 2), (-1, 3), (1, 4)]


@pytest.mark.parametrize("degree_range", DEGREE_RANGES)
@pytest.mark.parametrize("max_disks,max_inputs", [(1, 3), (2, 2), (3, 1), (3, 2)])
@pytest.mark.parametrize("stride", [1, 7])
def test_tree_search_matches_oracle(max_disks, max_inputs, degree_range, stride):
    assert_matches_oracle(TreeSearchBounds(
        max_disks=max_disks, max_inputs_per_disk=max_inputs,
        degree_range=degree_range, materialize_stride=stride))


@pytest.mark.parametrize("degree_range", DEGREE_RANGES)
@pytest.mark.parametrize("strips,marked,total,attached,inputs",
                         [(1, 2, 2, 2, 2), (2, 1, 2, 1, 2), (2, 2, 3, 1, 1),
                          (3, 1, 2, 2, 1)])
@pytest.mark.parametrize("stride", [1, 5])
def test_trajectory_search_matches_oracle(strips, marked, total, attached, inputs,
                                          degree_range, stride):
    assert_matches_oracle(TrajectorySearchBounds(
        max_strips=strips, max_marked_per_strip=marked, max_total_marked=total,
        max_attached_disks=attached, max_inputs_per_disk=inputs,
        degree_range=degree_range, materialize_stride=stride))


small_range = st.tuples(st.integers(-3, 3), st.integers(0, 3)).map(
    lambda pair: (pair[0], pair[0] + pair[1]))


@settings(max_examples=40, deadline=None)
@given(max_disks=st.integers(1, 3), max_inputs=st.integers(0, 2),
       degree_range=small_range, stride=st.integers(1, 40))
def test_tree_search_matches_oracle_random(max_disks, max_inputs, degree_range, stride):
    assert_matches_oracle(TreeSearchBounds(
        max_disks=max_disks, max_inputs_per_disk=max_inputs,
        degree_range=degree_range, materialize_stride=stride))


@settings(max_examples=40, deadline=None)
@given(strips=st.integers(1, 2), marked=st.integers(0, 2), total=st.integers(0, 3),
       attached=st.integers(0, 2), inputs=st.integers(0, 2),
       degree_range=small_range, stride=st.integers(1, 40))
def test_trajectory_search_matches_oracle_random(strips, marked, total, attached,
                                                 inputs, degree_range, stride):
    assert_matches_oracle(TrajectorySearchBounds(
        max_strips=strips, max_marked_per_strip=marked, max_total_marked=total,
        max_attached_disks=attached, max_inputs_per_disk=inputs,
        degree_range=degree_range, materialize_stride=stride))


@pytest.mark.parametrize("make", [
    lambda stride: TreeSearchBounds(max_disks=2, max_inputs_per_disk=2,
                                    degree_range=(-1, 1), materialize_stride=stride),
    lambda stride: TreeSearchBounds(max_disks=3, max_inputs_per_disk=2,
                                    degree_range=(-2, 2), materialize_stride=stride),
    lambda stride: TreeSearchBounds(max_disks=3, max_inputs_per_disk=1,
                                    degree_range=(1, 4), materialize_stride=stride),
    lambda stride: TrajectorySearchBounds(
        max_strips=2, max_marked_per_strip=1, max_total_marked=2,
        max_attached_disks=1, max_inputs_per_disk=2, degree_range=(-1, 3),
        materialize_stride=stride),
    lambda stride: TrajectorySearchBounds(
        max_strips=2, max_marked_per_strip=2, max_total_marked=3,
        max_attached_disks=1, max_inputs_per_disk=1, degree_range=(-2, 2),
        materialize_stride=stride),
    lambda stride: TrajectorySearchBounds(
        max_strips=3, max_marked_per_strip=1, max_total_marked=2,
        max_attached_disks=2, max_inputs_per_disk=1, degree_range=(0, 1),
        materialize_stride=stride),
])
@pytest.mark.parametrize("stride", [1, 7])
def test_materialized_sample_matches_oracle(monkeypatch, make, stride):
    # record every materializer call, in the search and in the oracle above
    # (which holds its own references to the materializers)
    calls = []
    for name in ("_materialize_tree", "_materialize_trajectory"):
        def wrapper(*args, real=getattr(pearly, name)):
            calls.append(tuple(tuple(a) if isinstance(a, list) else a for a in args))
            return real(*args)
        monkeypatch.setattr(pearly, name, wrapper)
        monkeypatch.setitem(globals(), name, wrapper)
    bounds = make(stride)
    exhaustive_search(bounds)
    searched = list(calls)
    calls.clear()
    (brute_force_trees if isinstance(bounds, TreeSearchBounds)
     else brute_force_trajectories)(bounds)
    assert searched and searched == calls


@pytest.mark.parametrize("make", [
    lambda: TreeSearchBounds(max_disks=0),
    lambda: TreeSearchBounds(max_disks=-1),
    lambda: TreeSearchBounds(max_inputs_per_disk=-1),
    lambda: TreeSearchBounds(materialize_stride=0),
    lambda: TreeSearchBounds(degree_range=(1, 0)),
    lambda: TrajectorySearchBounds(max_strips=0),
    lambda: TrajectorySearchBounds(max_marked_per_strip=-1),
    lambda: TrajectorySearchBounds(max_total_marked=-1),
    lambda: TrajectorySearchBounds(max_attached_disks=-1),
    lambda: TrajectorySearchBounds(max_inputs_per_disk=-1),
    lambda: TrajectorySearchBounds(materialize_stride=0),
    lambda: TrajectorySearchBounds(degree_range=(2, -2)),
    lambda: TreeSearchBounds(max_configs=0),
    lambda: TrajectorySearchBounds(max_configs=-1),
])
def test_search_bounds_reject_vacuous_or_invalid(make):
    with pytest.raises(ValueError):
        make()


# -- per-structure oracle for the memoized counts -------------------------------
#
# The searches count each distinct subtree shape and strip prefix once per call.
# These oracles recount every structure from scratch with the unmemoized loops
# (one convolution per edge, one per strip digit and one per strip), at bounds
# where the brute-force oracle above is too slow and the memo is hit hard.


def per_structure_trees(bounds):
    lo, hi = bounds.degree_range
    estimated_configs, tally = _estimate_trees(bounds), Tally()
    for m, parents, child_counts, extras in _tree_structures(
            bounds.max_disks, bounds.max_inputs_per_disk):
        children = {}
        for child in range(1, m):
            children.setdefault(parents[child - 1], []).append(child)
        rigid = [2 - child_counts[i] - extras[i] for i in range(m)]
        radices = [(hi - lo) * e + 1 for e in extras]
        out_counts = {}
        for i in range(m - 1, -1, -1):
            counts = pearly._uniform(rigid[i] + lo * extras[i], radices[i])
            for c in children.get(i, ()):
                counts = pearly._convolve(counts, out_counts[c])
            out_counts[i] = pearly._clip(counts, lo, hi)
        in_window = sum(out_counts[0].values())
        first_index = tally.enumerated + 1
        tally.enumerated += math.prod(radices)
        tally.in_window += in_window
        k, lhs = sum(extras), sum(rigid)
        if lhs != m + 1 - k:
            tally.telescope_failures += in_window
        if lhs == 2 - k and m >= 2:
            if in_window:
                tally.counterexamples.append(
                    {"disks": m, "externals": k, "lhs": lhs, "in_window": in_window})
            continue
        for digits in _sample(first_index, radices, bounds.materialize_stride):
            sums = [lo * e + d for e, d in zip(extras, digits)]
            out_degs = [0] * m
            for i in range(m - 1, -1, -1):
                out_degs[i] = (rigid[i] + sums[i]
                               + sum(out_degs[c] for c in children.get(i, ())))
            if all(lo <= d <= hi for d in out_degs):
                tree = _materialize_tree(m, parents, extras, sums, out_degs, lo, hi)
                tally.materialized += 1
                if not tree_ledger(tree).telescoped:
                    tally.telescope_failures += 1
    return tally.report("trees", bounds, estimated_configs)


def per_structure_trajectories(bounds):
    lo, hi = bounds.degree_range
    estimated_configs, tally = _estimate_trajectories(bounds), Tally()
    for K, marks, attached, disk_inputs in _traj_structures(bounds):
        bare_groups, starts, radices = _traj_digits(
            marks, attached, disk_inputs, lo, hi)
        owners = [s for s, _, _ in bare_groups] + [point[0] for point in attached]
        steps = [{1 - nb - nt: 1} for nb, nt in marks]
        for s, start, radix in zip(owners, starts[1:], radices[1:]):
            steps[s] = pearly._convolve(steps[s], pearly._uniform(start, radix))
        chords = pearly._uniform(starts[0], radices[0])
        for step in steps:
            chords = pearly._clip(pearly._convolve(chords, step), lo, hi)
        in_window = sum(chords.values())
        first_index = tally.enumerated + 1
        tally.enumerated += math.prod(radices)
        tally.in_window += in_window
        a_count = len(attached)
        M = K + a_count
        k_plus_l = sum(nb + nt for nb, nt in marks) - a_count + sum(disk_inputs)
        lhs = sum(1 - nb - nt for nb, nt in marks) + sum(2 - n for n in disk_inputs)
        if lhs != M - k_plus_l:
            tally.telescope_failures += in_window
        if lhs == 1 - k_plus_l and M >= 2:
            if in_window:
                tally.counterexamples.append(
                    {"strips": K, "attached": a_count, "lhs": lhs,
                     "in_window": in_window})
            continue
        for digits in _sample(first_index, radices, bounds.materialize_stride):
            values = [start + d for start, d in zip(starts, digits)]
            deltas = [1 - nb - nt for nb, nt in marks]
            for s, value in zip(owners, values[1:]):
                deltas[s] += value
            if all(lo <= c <= hi
                   for c in itertools.accumulate(deltas, initial=values[0])):
                split = 1 + len(bare_groups)
                traj = _materialize_trajectory(
                    marks, attached, disk_inputs, values[0], bare_groups,
                    values[1:split], values[split:], lo, hi)
                tally.materialized += 1
                if not trajectory_ledger(traj).telescoped:
                    tally.telescope_failures += 1
    return tally.report("trajectories", bounds, estimated_configs)


MID_SIZE = [
    TreeSearchBounds(max_disks=5, max_inputs_per_disk=2, degree_range=(-3, 4),
                     max_configs=10**9, materialize_stride=997),
    TreeSearchBounds(max_disks=5, max_inputs_per_disk=2, degree_range=(-2, 2),
                     max_configs=10**9, materialize_stride=97),
    TrajectorySearchBounds(max_strips=4, max_attached_disks=1, degree_range=(-2, 3),
                           max_configs=10**9, materialize_stride=997),
    # an attached disk with no inputs has output degree 2, above the window,
    # so its digit has radix 0 and its structures count nothing
    TrajectorySearchBounds(max_strips=4, max_attached_disks=2, degree_range=(-3, 1),
                           max_configs=10**9, materialize_stride=997),
]


@pytest.mark.parametrize("bounds", MID_SIZE, ids=lambda b: f"{type(b).__name__}"
                         f"{b.degree_range}")
def test_memoized_search_matches_per_structure_oracle(bounds):
    oracle = (per_structure_trees if isinstance(bounds, TreeSearchBounds)
              else per_structure_trajectories)(bounds)
    report = exhaustive_search(bounds)
    assert report._asdict() == oracle._asdict()
    assert report.in_window and report.materialized


def test_mid_size_grid_reaches_radix_zero_digits():
    bounds = MID_SIZE[-1]
    lo, hi = bounds.degree_range
    assert any(0 in _traj_digits(marks, attached, inputs, lo, hi)[2]
               for _, marks, attached, inputs in _traj_structures(bounds))


# -- reference materializers ----------------------------------------------------
#
# The materializers as they first summed actions, one Fraction per generator.
# The searches' materializers must build equal configurations with equal reprs.


def reference_tree(m, parents, extras, sums, out_degs, lo, hi):
    children = [[] for _ in range(m)]
    for child, parent in enumerate(parents, start=1):
        children[parent].append(child)
    disks = [None] * m
    for i in range(m - 1, -1, -1):
        inputs = [disks[c].output for c in children[i]] + [
            Generator(f"x{i}_{s}", d, Fraction(1), DP)
            for s, d in enumerate(pearly._distribute(sums[i], extras[i], lo, hi))]
        action = sum((g.action for g in inputs), Fraction(1))
        output = Generator(f"v{i}", out_degs[i], action, DP)
        disks[i] = DiskComponent(output, tuple(inputs))
    edges = [(c, i, slot) for i in range(m) for slot, c in enumerate(children[i])]
    return PearlyTreeConfig(tuple(disks), tuple(edges))


def reference_trajectory(marks, attached, disk_inputs, c_in_deg, bare_groups, bare_sums,
                         disk_outs, lo, hi):
    bare_degs = {(s, side): iter(pearly._distribute(total, bare, lo, hi))
                 for (s, side, bare), total in zip(bare_groups, bare_sums)}
    disks_at = {}
    for (s, side, pos), n, out_deg in zip(attached, disk_inputs, disk_outs):
        inputs = tuple(Generator(f"di{s}_{pos}_{t}", d, Fraction(1), DP)
                       for t, d in enumerate(pearly._distribute(out_deg - 2 + n, n, lo, hi)))
        output = Generator(f"do{s}_{side}_{pos}", out_deg, Fraction(n + 1), DP)
        disks_at[s, side, pos] = DiskComponent(output, inputs)
    strips = []
    attachments = {"bottom": [], "top": []}
    chord = Generator("q0", c_in_deg, Fraction(1), MIXED)
    for s, (nb, nt) in enumerate(marks):
        sides = {"bottom": [], "top": []}
        for side, n in (("bottom", nb), ("top", nt)):
            for pos in range(n):
                disk = disks_at.get((s, side, pos))
                if disk is not None:
                    attachments[side].append((s, pos, disk))
                sides[side].append(disk.output if disk is not None else Generator(
                    f"m{s}_{side}_{pos}", next(bare_degs[s, side]), Fraction(1), DP))
        degree = chord.degree + 1 - nb - nt + sum(g.degree for g in sides["bottom"] + sides["top"])
        next_chord = Generator(f"q{s + 1}", degree, Fraction(1), MIXED)
        strips.append(StripComponent(next_chord, chord, tuple(sides["bottom"]),
                                     tuple(sides["top"])))
        chord = next_chord
    return BrokenTrajectoryConfig(tuple(strips), tuple(attachments["bottom"]),
                                  tuple(attachments["top"]))


@pytest.mark.parametrize("bounds", MID_SIZE + [
    TreeSearchBounds(max_disks=4, max_inputs_per_disk=3, degree_range=(-3, 4)),
    TrajectorySearchBounds(max_strips=3, max_attached_disks=2, degree_range=(-3, 4)),
], ids=lambda b: f"{type(b).__name__}{b.degree_range}")
def test_materializers_build_the_reference_configurations(monkeypatch, bounds):
    built = []
    for name, reference in (("_materialize_tree", reference_tree),
                            ("_materialize_trajectory", reference_trajectory)):
        def wrapper(*args, real=getattr(pearly, name), reference=reference):
            config = real(*args)
            built.append((config, reference(*args)))
            return config
        monkeypatch.setattr(pearly, name, wrapper)
    report = exhaustive_search(bounds)
    assert len(built) == report.materialized > 0
    for config, expected in built:
        assert config == expected and repr(config) == repr(expected)


def test_memo_bounds_convolutions_at_acceptance_bounds(monkeypatch):
    # the parent of the memo made 19,438 convolutions here, one per edge,
    # strip digit and strip of every structure
    calls = []

    def counting(a, b, real=pearly._convolve):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(pearly, "_convolve", counting)
    trees = exhaustive_search(TreeSearchBounds(max_disks=4, max_inputs_per_disk=3,
                                               degree_range=(-3, 4)))
    trajectories = exhaustive_search(TrajectorySearchBounds(
        max_strips=3, max_attached_disks=2, degree_range=(-3, 4)))
    assert (trees.in_window, trajectories.in_window) == (313_228, 1_995_121)
    assert len(calls) <= 2_000


@pytest.mark.parametrize("bounds,counts,ceiling", [
    (TreeSearchBounds(max_disks=6, max_configs=10**15, materialize_stride=10**9),
     (16_229_647_274, 705_614_172), 1_000),
    (TrajectorySearchBounds(max_strips=5, max_configs=10**15, materialize_stride=10**9),
     (27_081_400, 9_990_460), 1_500),
], ids=["trees", "trajectories"])
def test_each_shape_counted_once_past_the_acceptance_bounds(monkeypatch, bounds, counts,
                                                           ceiling):
    # a shape counts with the disks' choices summed out, so the convolutions
    # follow the shapes, not the structures (17,504 and 2,716 when every
    # structure was counted)
    calls = []

    def counting(a, b, real=pearly._convolve):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(pearly, "_convolve", counting)
    report = exhaustive_search(bounds)
    assert (report.enumerated, report.in_window) == counts
    assert report.estimated_configs == report.enumerated and report.ok
    assert len(calls) <= ceiling


@pytest.mark.parametrize("bounds,counts", [
    (TreeSearchBounds(max_disks=1, max_inputs_per_disk=3_700), (47_931_651, 29_600, 1)),
    (TreeSearchBounds(max_disks=1, max_inputs_per_disk=700, degree_range=(-100, 100)),
     (49_070_701, 140_700, 4)),
    (TreeSearchBounds(), (2_608_154, 313_228, 15)),
    (TrajectorySearchBounds(), (4_211_384, 1_995_121, 79)),
], ids=["trees-3700", "trees-700-wide", "trees", "trajectories"])
def test_counts_hold_only_the_degree_window(monkeypatch, bounds, counts):
    # a disk's digit is spread only over the degrees that can reach the window,
    # and only the child counts max_disks allows get ranges: summing every
    # extras count's range pairwise, or building ranges for child counts no
    # shape has, takes tens of seconds on the first two cases and close to
    # 1 GB on the first
    spreads = []

    def spread(ranges, lo, hi, real=pearly._spread):
        found = real(ranges, lo, hi)
        spreads.append(all(lo <= degree <= hi for degree in found))
        return found

    monkeypatch.setattr(pearly, "_spread", spread)
    report = exhaustive_search(bounds)
    assert report.estimated_configs == report.enumerated and report.ok
    assert (report.enumerated, report.in_window, report.materialized) == counts
    assert spreads and all(spreads)


@pytest.mark.parametrize("huge,small", [
    (TrajectorySearchBounds(max_inputs_per_disk=10**9, degree_range=(2, 5)),
     TrajectorySearchBounds(max_inputs_per_disk=10**4, degree_range=(2, 5))),
    (TrajectorySearchBounds(max_attached_disks=0, max_inputs_per_disk=10**9),
     TrajectorySearchBounds(max_attached_disks=0)),
    (TrajectorySearchBounds(max_marked_per_strip=0, max_inputs_per_disk=10**9),
     TrajectorySearchBounds(max_marked_per_strip=0)),
], ids=["radix-0-from-4-inputs", "no-attached-disk", "no-marked-point"])
def test_disk_digits_end_at_the_last_nonzero_radix(monkeypatch, huge, small):
    # input counts past the last nonzero disk radix add no tuple, and where no
    # shape attaches a disk no disk digit is read; one digit per input count,
    # which the estimate never counted, took 1.1 s and 116 MB at 10^6 inputs
    expected = exhaustive_search(small)._asdict()
    n0 = sum(map(abs, huge.degree_range)) + 3  # as in _disk_radix_sum

    def digit(n, lo, hi, real=pearly._disk_digit):
        assert n <= n0, f"a disk digit for {n} inputs"
        return real(n, lo, hi)

    monkeypatch.setattr(pearly, "_disk_digit", digit)
    found = exhaustive_search(huge)._asdict()
    del found["bounds"], expected["bounds"]
    assert found == expected


def holding_a_sample(bounds):
    """How many structures hold a rank that is a multiple of the stride."""
    lo, hi = bounds.degree_range
    if isinstance(bounds, TreeSearchBounds):
        counts = [math.prod((hi - lo) * e + 1 for e in extras) for *_, extras in
                  _tree_structures(bounds.max_disks, bounds.max_inputs_per_disk)]
    else:
        counts = [math.prod(_traj_digits(marks, attached, inputs, lo, hi)[2])
                  for _, marks, attached, inputs in _traj_structures(bounds)]
    first_ranks = itertools.accumulate(counts, initial=0)
    return sum((first + count) // bounds.materialize_stride > first // bounds.materialize_stride
               for first, count in zip(first_ranks, counts))


def count_walking(monkeypatch):
    """Count, during the next searches, the shapes walked, the sampled tuples
    the walker decodes and how many of them it rejects."""
    counts = {"walks": 0, "decoded": 0, "rejected": 0}

    def walk(*args, real=pearly._walk):
        counts["walks"] += 1
        return real(*args)

    def degrees(*args, real=pearly._degrees):
        found = real(*args)
        counts["decoded"] += 1
        counts["rejected"] += found is None
        return found

    monkeypatch.setattr(pearly, "_walk", walk)
    monkeypatch.setattr(pearly, "_degrees", degrees)
    return counts


def test_trajectory_digits_derived_only_where_a_sample_falls(monkeypatch):
    # each of the 210 of the 2,667 structures that hold a sampled rank holds
    # one, in a shape of its own: the walker decodes and tests that one
    # tuple, and no other
    bounds = TrajectorySearchBounds(max_strips=3, max_attached_disks=2, degree_range=(-3, 4))
    assert sum(1 for _ in _traj_structures(bounds)) == 2_667
    assert holding_a_sample(bounds) == 210
    counts = count_walking(monkeypatch)
    report = exhaustive_search(bounds)
    assert (report.enumerated, report.in_window, report.materialized) == (
        4_211_384, 1_995_121, 79)
    assert counts == {"walks": 210, "decoded": 210, "rejected": 131}


def test_tree_walks_at_the_acceptance_bounds(monkeypatch):
    counts = count_walking(monkeypatch)
    report = exhaustive_search(TreeSearchBounds(max_disks=4, max_inputs_per_disk=3,
                                                degree_range=(-3, 4)))
    assert report.materialized == 15
    assert counts == {"walks": 8, "decoded": 130, "rejected": 115}


@pytest.mark.parametrize("bounds,holding,walking,materialized", [
    (TreeSearchBounds(max_disks=3, max_inputs_per_disk=2, degree_range=(2, 3),
                      materialize_stride=7), 15, (1, 3, 2), 1),
    (TrajectorySearchBounds(max_strips=2, degree_range=(2, 3), materialize_stride=7),
     230, (0, 0, 0), 0),
])
def test_no_walk_where_a_shape_has_no_tuple_in_window(monkeypatch, bounds, holding, walking,
                                                      materialized):
    # a shape whose in-window count is 0 is not walked: each structure here
    # holds one sampled rank, and only the one shape with in-window tuples
    # has its sampled tuples decoded
    assert holding_a_sample(bounds) == holding
    counts = count_walking(monkeypatch)
    report = assert_matches_oracle(bounds)
    assert (counts["walks"], counts["decoded"], counts["rejected"]) == walking
    assert report.materialized == materialized


def test_every_sampled_rank_of_a_walked_shape_is_decoded(monkeypatch):
    # every shape here has in-window tuples, yet 3 of the 31 structures that
    # hold a sampled rank have none, found tuple by tuple: their 3 sampled
    # tuples are decoded and rejected beside the 45 of the other 28
    bounds = TrajectorySearchBounds(max_strips=1, max_marked_per_strip=2, max_total_marked=2,
                                    max_attached_disks=2, max_inputs_per_disk=1,
                                    degree_range=(0, 2), materialize_stride=7)
    lo, hi = bounds.degree_range
    first = holding = with_window = sampled = 0
    for _, marks, attached, inputs in _traj_structures(bounds):
        _, starts, radices = _traj_digits(marks, attached, inputs, lo, hi)
        count = math.prod(radices)
        if (first + count) // bounds.materialize_stride > first // bounds.materialize_stride:
            holding += 1
            # one strip: the output chord is the sum of the digits plus 1 - #marked
            if any(lo <= sum(start + d for start, d in zip(starts, digits)) + 1 - sum(marks[0]) <= hi
                   for digits in itertools.product(*map(range, radices))):
                with_window += 1
                sampled += len(list(_sample(first + 1, radices, bounds.materialize_stride)))
        first += count
    assert (holding, with_window, sampled) == (31, 28, 45)
    counts = count_walking(monkeypatch)
    report = assert_matches_oracle(bounds)
    assert report.materialized == 17
    assert counts == {"walks": 16, "decoded": 48, "rejected": 31}


def sampled_in_walked_shapes(bounds):
    """The shapes with an in-window tuple and a rank that is a multiple of
    the stride, and how many such ranks they hold, counted from the shapes'
    sizes and the stride; the window is tested tuple by tuple."""
    lo, hi = bounds.degree_range
    shapes = {}  # per shape, in search order: tuple count, whether one is in window
    if isinstance(bounds, TreeSearchBounds):
        for m, parents, child_counts, extras in _tree_structures(
                bounds.max_disks, bounds.max_inputs_per_disk):
            shape = shapes.setdefault(parents, [0, False])
            for sums in itertools.product(*[range(lo * e, hi * e + 1) for e in extras]):
                out_degs = [2 - c - e + v for c, e, v in zip(child_counts, extras, sums)]
                for child in range(m - 1, 0, -1):  # a child's index exceeds its parent's
                    out_degs[parents[child - 1]] += out_degs[child]
                shape[0] += 1
                shape[1] = shape[1] or all(lo <= d <= hi for d in out_degs)
    else:
        for _, marks, attached, inputs in _traj_structures(bounds):
            bare_groups, starts, radices = _traj_digits(marks, attached, inputs, lo, hi)
            owners = [s for s, _, _ in bare_groups] + [s for s, _, _ in attached]
            shape = shapes.setdefault((marks, attached), [0, False])
            for digits in itertools.product(*map(range, radices)):
                values = [start + d for start, d in zip(starts, digits)]
                deltas = [1 - nb - nt for nb, nt in marks]
                for s, value in zip(owners, values[1:]):
                    deltas[s] += value
                shape[0] += 1
                shape[1] = shape[1] or all(
                    lo <= c <= hi for c in itertools.accumulate(deltas, initial=values[0]))
    stride, first, walks, decodes = bounds.materialize_stride, 0, 0, 0
    for size, in_window in shapes.values():
        held = (first + size) // stride - first // stride
        walks += in_window and held > 0
        decodes += in_window * held
        first += size
    return walks, decodes


@pytest.mark.parametrize("bounds", [
    *(TreeSearchBounds(max_disks=3, max_inputs_per_disk=2, degree_range=window,
                       materialize_stride=stride)
      for window in ((-1, 1), (2, 3)) for stride in (1, 7)),
    *(TrajectorySearchBounds(max_strips=2, degree_range=window, materialize_stride=stride)
      for window in ((0, 2), (2, 3)) for stride in (1, 7)),
], ids=lambda b: f"{type(b).__name__}{b.degree_range}/{b.materialize_stride}")
def test_decodes_are_the_sampled_ranks_of_walked_shapes(monkeypatch, bounds):
    counts = count_walking(monkeypatch)
    exhaustive_search(bounds)
    assert (counts["walks"], counts["decoded"]) == sampled_in_walked_shapes(bounds)
    # each case that walks a shape both keeps and rejects decoded tuples
    assert counts["decoded"] > counts["rejected"] > 0 or not counts["walks"]


def test_walker_rejections_at_five_disks(monkeypatch):
    # the default stride leaves one sampled rank per block of a few thousand
    # tuples; each sampled tuple of a walked shape is decoded once, and the
    # 8,601 outside the window are rejected
    counts = count_walking(monkeypatch)
    report = exhaustive_search(TreeSearchBounds(max_disks=5, max_configs=10**9))
    assert (report.enumerated, report.in_window, report.materialized) == (
        186_421_946, 13_470_448, 720)
    assert counts == {"walks": 31, "decoded": 9_321, "rejected": 8_601}


def brute_walk(first, digits, derived, lo, hi, stride):
    """Every tuple of the structures of ``digits`` in product order, kept
    where its rank is a multiple of ``stride`` and each derived degree lies
    in [lo, hi]."""
    rank = first
    for picks in itertools.product(*[range(len(alts)) for alts in digits]):
        ranges = [range(start, start + radix) for start, radix in
                  (alts[p] for alts, p in zip(digits, picks))]
        for values in itertools.product(*ranges):
            rank += 1
            degrees = [0] * len(derived)
            for k in range(len(derived) - 1, -1, -1):
                const, own, later = derived[k]
                degrees[k] = const + sum(values[i] for i in own) + sum(degrees[c] for c in later)
            if (rank - 1) % stride == 0 and all(lo <= d <= hi for d in degrees):
                yield picks, list(values), degrees


def test_walker_matches_a_product_scan(monkeypatch):
    import random
    rng = random.Random(20)
    walked = sampled = 0
    counts = count_walking(monkeypatch)
    for _ in range(2_000):
        n = rng.randint(1, 5)
        digits = [[(rng.randint(-4, 4), rng.randint(0, 4)) for _ in range(rng.choice((1, 1, 2, 3)))]
                  for _ in range(n)]
        size = rng.randint(1, 4)
        derived = [(rng.randint(-3, 3), rng.sample(range(n), rng.randint(0, n)),
                    rng.sample(range(k + 1, size), rng.randint(0, size - k - 1)))
                   for k in range(size)]
        lo = rng.randint(-6, 3)
        hi, first, stride = lo + rng.randint(0, 9), rng.randint(1, 40), rng.randint(1, 13)
        expected = list(brute_walk(first, digits, derived, lo, hi, stride))
        assert list(pearly._walk(first, digits, derived, lo, hi, stride)) == expected
        walked += bool(expected)
        total = math.prod(sum(radix for _, radix in alts) for alts in digits)
        sampled += (first - 1 + total) // stride - (first - 1) // stride
    # a fifth yield tuples, and every sampled rank is decoded once
    assert walked > 400 and counts["decoded"] == sampled


def test_structure_ledgers_hold_by_construction():
    # the searches do not test these per structure: the ledger telescopes
    # and the counterexample test fails for every structure
    trees = 0
    for m, parents, child_counts, extras in _tree_structures(6, 3):
        k, lhs = sum(extras), sum(2 - c - e for c, e in zip(child_counts, extras))
        assert lhs == m + 1 - k
        assert not (lhs == 2 - k and m >= 2)
        trees += 1
    trajectories = 0
    for K, marks, attached, disk_inputs in _traj_structures(TrajectorySearchBounds(max_strips=6)):
        M = K + len(attached)
        k_plus_l = sum(nb + nt for nb, nt in marks) - len(attached) + sum(disk_inputs)
        lhs = sum(1 - nb - nt for nb, nt in marks) + sum(2 - n for n in disk_inputs)
        assert lhs == M - k_plus_l
        assert not (lhs == 1 - k_plus_l and M >= 2)
        trajectories += 1
    assert (trees, trajectories) == (82_160, 29_322)


@pytest.mark.parametrize("bounds", [TreeSearchBounds(max_disks=99),
                                    TrajectorySearchBounds(max_strips=99)],
                         ids=["trees", "trajectories"])
def test_guard_refuses_huge_bounds_at_once(bounds):
    # the size walk stops once its running sum passes max_configs
    start = time.perf_counter()
    with pytest.raises(BoundsTooLargeError) as exc:
        exhaustive_search(bounds)
    assert time.perf_counter() - start < 1.0
    assert bounds.max_configs < exc.value.estimate < 2 * bounds.max_configs
    assert "at least" in str(exc.value) and "exceed" in str(exc.value)


def test_guard_refuses_degenerate_trajectory_window_at_once():
    # every shape counts about one tuple here, so a shape-by-shape size walk
    # would visit tens of millions of shapes before passing max_configs
    bounds = TrajectorySearchBounds(max_strips=99, degree_range=(0, 0))
    start = time.perf_counter()
    with pytest.raises(BoundsTooLargeError) as exc:
        exhaustive_search(bounds)
    assert time.perf_counter() - start < 1.0
    assert exc.value.estimate > bounds.max_configs


@pytest.mark.parametrize("degree_range", [(-3, 4), (0, 0), (1, 3), (-2, -2)])
def test_trajectory_estimate_matches_structure_counts(degree_range):
    # slow oracle: the closed-form level sums against the tuple count of every
    # structure the search walks
    lo, hi = degree_range
    for K, m, T, A, inputs in itertools.product((1, 2, 4), range(3), range(4), range(3),
                                                (0, 2)):
        bounds = TrajectorySearchBounds(max_strips=K, max_marked_per_strip=m,
                                        max_total_marked=T, max_attached_disks=A,
                                        max_inputs_per_disk=inputs, degree_range=degree_range)
        walked = sum(math.prod(_traj_digits(marks, attached, disk_inputs, lo, hi)[2])
                     for _, marks, attached, disk_inputs in _traj_structures(bounds))
        assert _estimate_trajectories(bounds) == walked


def test_shape_walk_skips_overfull_parents():
    # one input per disk leaves only chains; the walk must not visit the 98!
    # parent vectors of 99 disks to find them
    report = exhaustive_search(TreeSearchBounds(max_disks=99, max_inputs_per_disk=1))
    assert report.enumerated == report.estimated_configs == 99 * 9
    assert report.in_window and not report.counterexamples


def test_trajectory_estimate_checked_before_counting(monkeypatch):
    def no_counting(*args):
        raise AssertionError("counted before the estimate was checked")

    monkeypatch.setattr(pearly, "_convolve", no_counting)
    monkeypatch.setattr(pearly, "_uniform", no_counting)
    with pytest.raises(BoundsTooLargeError):
        exhaustive_search(TrajectorySearchBounds(max_configs=1))


def _estimate_or_refusal(estimate, bounds):
    try:
        return estimate(bounds)
    except BoundsTooLargeError as exc:
        return ("refused", exc.estimate)


def _summed_tree_estimate(bounds):
    # the per-disk radices summed term by term, one table entry per child count
    lo, hi = bounds.degree_range
    cap = bounds.max_inputs_per_disk
    per_disk = [sum((hi - lo) * e + 1 for e in range(cap - c + 1)) for c in range(cap + 1)]
    shapes = pearly._tree_shapes(bounds.max_disks, cap)
    return pearly._bounded_sum((math.prod(per_disk[c] for c in child_counts)
                                for _, _, child_counts in shapes), bounds.max_configs)


def test_size_guard_closed_forms_match_the_sums(monkeypatch):
    caps = (0, 1, 2, 3, 7, 30, 60)
    every_window = [(lo, hi) for lo in range(-12, 13) for hi in range(lo, 13)]
    for (lo, hi), cap in itertools.product(every_window, caps):
        assert pearly._disk_radix_sum(cap, lo, hi) == sum(
            pearly._disk_digit(n, lo, hi)[1] for n in range(cap + 1)), (lo, hi, cap)
    windows = [(lo, hi) for lo in range(-12, 13, 3) for hi in range(lo, 13, 4)]
    trees = [TreeSearchBounds(max_disks=d, max_inputs_per_disk=cap, degree_range=window,
                              max_configs=limit)
             for window, cap, d, limit in itertools.product(
                 windows, caps, (1, 2, 4), (10_000, 50_000_000))]
    assert ([_estimate_or_refusal(_estimate_trees, b) for b in trees]
            == [_estimate_or_refusal(_summed_tree_estimate, b) for b in trees])
    trajectories = [TrajectorySearchBounds(max_strips=2, max_inputs_per_disk=cap,
                                           degree_range=window, max_configs=limit)
                    for window, cap, limit in itertools.product(
                        windows, caps, (10_000, 50_000_000))]
    closed = [_estimate_or_refusal(_estimate_trajectories, b) for b in trajectories]
    monkeypatch.setattr(pearly, "_disk_radix_sum", lambda cap, lo, hi: sum(
        pearly._disk_digit(n, lo, hi)[1] for n in range(cap + 1)))
    assert closed == [_estimate_or_refusal(_estimate_trajectories, b) for b in trajectories]


# -- configuration errors and hypothesis violations, pinned -------------------

Y, V, X1, X2, X3 = (dp("y", 3, 5), dp("v", 2, 3), dp("x1", 1, 1), dp("x2", 1, 1),
                    dp("x3", 1, 1))
PARENT, CHILD = DiskComponent(Y, (V, X3)), DiskComponent(V, (X1, X2))


@pytest.mark.parametrize("disks,edges,edge_generator,message", [
    ((), ((0, 0, 0),), X1, "edges given without disks"),
    ((), (), None, "a diskless tree needs its edge generator"),
    ((PARENT, CHILD), (), None, "2 disks require 1 edges, got 0"),
    ((PARENT, CHILD), ((1, 2, 0),), None, "edge (1, 2, 0) out of range"),
    ((PARENT, CHILD), ((1, 1, 0),), None, "edge (1, 1, 0) out of range"),
    ((PARENT, CHILD), ((1, 0, 2),), None, "edge into disk 0 uses missing slot 2"),
    ((PARENT, CHILD, CHILD), ((1, 0, 0), (1, 0, 0)), None, "disk 1 output matched twice"),
    ((PARENT, CHILD, CHILD), ((1, 0, 0), (2, 0, 0)), None,
     "input slot (0, 0) matched twice"),
    ((PARENT, CHILD), ((1, 0, 1),), None,
     "edge (1, 0, 1) joins distinct generators 'v' and 'x3'"),
    ((PARENT, DiskComponent(V, (V,)), DiskComponent(V, (V,))), ((1, 2, 0), (2, 1, 0)), None,
     "tree incidence is not connected"),
])
def test_tree_config_errors_pinned(disks, edges, edge_generator, message):
    with pytest.raises(ConfigError) as exc:
        PearlyTreeConfig(disks, edges, edge_generator)
    assert str(exc.value) == message


@pytest.mark.parametrize("strips,bottom,top,message", [
    ((), (), (), "a trajectory needs at least one strip"),
    ((StripComponent(chord("c1", 1), chord("c0", 0)),
      StripComponent(chord("c2", 2), chord("c0", 0))), (), (),
     "break mismatch between strips 0 and 1: 'c1' vs 'c0'"),
    ((StripComponent(chord("c1", 1), chord("c0", 0), (V,)),), ((1, 0, CHILD),), (),
     "attachment on missing strip 1"),
    ((StripComponent(chord("c1", 1), chord("c0", 0), (V,)),), (), ((0, 0, CHILD),),
     "attachment at missing top position 0 of strip 0"),
    ((StripComponent(chord("c1", 1), chord("c0", 0), (), (V,)),), (),
     ((0, 0, CHILD), (0, 0, CHILD)), "top position 0 of strip 0 attached twice"),
    ((StripComponent(chord("c1", 1), chord("c0", 0), (X1,)),), ((0, 0, CHILD),), (),
     "disk output 'v' does not match marked generator 'x1'"),
])
def test_trajectory_config_errors_pinned(strips, bottom, top, message):
    with pytest.raises(ConfigError) as exc:
        BrokenTrajectoryConfig(strips, bottom, top)
    assert str(exc.value) == message


def test_tree_hypothesis_violations_pinned():
    reeb = Generator("r", 1, Fraction(1), GeneratorKind.REEB_CHORD)
    bent = DiskComponent(dp("y", 1, 2), (reeb, dp("x2", 1, 2)))  # 1 - 2 != 2 - 2
    verdict = tree_verdict(PearlyTreeConfig((bent,), ()))
    assert not verdict.hypotheses_ok
    assert verdict.hypothesis_violations == (
        "external input 'r' is not a positive-action double point",
        "disk 0 is not rigid",
        "disk 0 has nonpositive energy -1")
    assert tree_verdict(PearlyTreeConfig((), (), X1)).hypothesis_violations == (
        "no disk components (single constant edge)",)
    with pytest.raises(ConfigError, match=r"\Adisk 0 is not rigid\Z"):
        tree_ledger(PearlyTreeConfig((bent,), ()))


def test_trajectory_hypothesis_violations_pinned():
    reeb = Generator("r", 1, Fraction(1), GeneratorKind.REEB_CHORD)
    bent = DiskComponent(X2, (X1, X3))  # 1 - 2 != 2 - 2
    strip = StripComponent(chord("c2", 2), chord("c0", 0), (reeb,), (X2,))  # 0 != 1 - 2
    traj = BrokenTrajectoryConfig((strip,), top_disks=((0, 0, bent),))
    verdict = trajectory_verdict(traj)
    assert not verdict.hypotheses_ok
    assert verdict.hypothesis_violations == (
        "external generator 'r' is not a positive-action double point",
        "strip 0 is not rigid",
        "attached disk at 'x2' is not rigid")
    with pytest.raises(ConfigError, match=r"\Astrip 0 is not rigid\Z"):
        trajectory_ledger(traj)
    rigid = StripComponent(chord("c1", 1), chord("c0", 0), (), (X2,))  # 1 - 0 - 1 = 1 - 1
    with pytest.raises(ConfigError, match=r"\Aattached disk at 'x2' is not rigid\Z"):
        trajectory_ledger(BrokenTrajectoryConfig((rigid,), top_disks=((0, 0, bent),)))


def test_single_strip_verdict_forces_one_bare_component():
    verdict = trajectory_verdict(BrokenTrajectoryConfig(
        (StripComponent(chord("cL", 1), chord("cR", 0)),)))
    assert verdict.hypotheses_ok and verdict.global_constraint_satisfied
    assert (verdict.forced_component_count, verdict.unbroken, verdict.no_attached_disks) == (
        1, True, True)

"""Bundled example corpus: canonical documents, fault-injected variants, and
the expected CLI behavior for each (exit code plus a diagnostic fragment).

This package holds data only; ``cedga.cli.run_corpus`` runs the cases."""

from __future__ import annotations

from importlib import resources

FILES = [
    "ce_trivial.txt",
    "ce_obstructed.txt",
    "ce_two_point.txt",
    "mc_two_points.txt",
    "cochain_x1.txt",
    "cochain_empty.txt",
    "strip_small.txt",
    "surgery_k2.txt",
    "quotient_demo.txt",
    "fault_d_squared.txt",
    "fault_grading.txt",
    "fault_action.txt",
    "fault_parse.txt",
    "fault_counts_rejected.txt",
    "fault_surgery_shape.txt",
    "fault_quotient.txt",
    "tree_single.txt",
    "traj_pair.txt",
]

# (name, argv with bundled filenames, expected exit code, expected fragment)
CASES = [
    ("validate-trivial", ["validate", "ce_trivial.txt"], 0, "valid"),
    ("augment-trivial", ["augment", "ce_trivial.txt"], 0, "2 augmentation"),
    ("validate-obstructed", ["validate", "ce_obstructed.txt"], 0, "valid"),
    ("augment-obstructed",
     ["augment", "--field", "2", "ce_obstructed.txt"], 0, "0 augmentation"),
    ("augment-two-point",
     ["augment", "--list", "ce_two_point.txt"], 0, "1 augmentation"),
    ("ce-lift", ["ce-lift", "mc_two_points.txt"], 0, "gen y"),
    ("mc-check-solves",
     ["mc-check", "mc_two_points.txt", "--cochain", "cochain_x1.txt"],
     0, "solves the deformation equation"),
    ("mc-check-obstructed",
     ["mc-check", "mc_two_points.txt", "--cochain", "cochain_empty.txt"],
     1, "obstructed"),
    ("deform",
     ["deform", "strip_small.txt", "--cochain0", "cochain_empty.txt",
      "--cochain1", "cochain_empty.txt"], 0, "squares to zero"),
    ("surgery-k2",
     ["surgery", "surgery_k2.txt", "--base-aug", "cochain_x1.txt"],
     0, "certificate verified"),
    ("quotient", ["quotient", "quotient_demo.txt"], 0, "d g = s"),
    ("fault-d-squared", ["validate", "fault_d_squared.txt"], 1, "d_squared"),
    ("fault-grading", ["validate", "fault_grading.txt"], 1, "grading"),
    ("fault-action", ["validate", "fault_action.txt"], 1, "action"),
    ("fault-parse", ["validate", "fault_parse.txt"], 2, "invalid rational"),
    ("fault-counts-rejected",
     ["ce-lift", "fault_counts_rejected.txt"], 0, "rejected"),
    ("fault-surgery-shape",
     ["surgery", "fault_surgery_shape.txt", "--base-aug", "cochain_x1.txt"],
     1, "missing distinguished monomial"),
    ("fault-quotient", ["quotient", "fault_quotient.txt"], 1, "no marked letter"),
    ("tree-single", ["tree-check", "tree_single.txt"], 0, "single disk: True"),
    ("traj-pair", ["traj-check", "traj_pair.txt"], 0, "cannot satisfy"),
    ("search-trees-small",
     ["search", "--mode", "trees", "--max-disks", "2"], 0, "counterexamples: 0"),
]

# files that parse cleanly and must round-trip byte-identically, by format
ROUND_TRIP = [
    ("dga", "ce_trivial.txt"),
    ("dga", "ce_obstructed.txt"),
    ("dga", "ce_two_point.txt"),
    ("dga", "surgery_k2.txt"),
    ("dga", "quotient_demo.txt"),
    ("dga", "fault_d_squared.txt"),
    ("dga", "fault_grading.txt"),
    ("dga", "fault_action.txt"),
    ("dga", "fault_surgery_shape.txt"),
    ("dga", "fault_quotient.txt"),
    ("counts", "mc_two_points.txt"),
    ("strips", "strip_small.txt"),
    ("values", "cochain_x1.txt"),
    ("values", "cochain_empty.txt"),
    ("tree", "tree_single.txt"),
    ("traj", "traj_pair.txt"),
]


def corpus_text(name: str) -> str:
    return (resources.files(__package__) / name).read_text(encoding="utf-8")


"""Symbolic engine for filtered noncommutative chord algebras.

Exact arithmetic over small prime fields, free noncommutative differential
graded algebras with degree/action validation, augmentation enumeration, the
bounding-cochain/augmentation bridge driven by disk and strip count tables,
filtered surgery algebras with an inductive augmentation extension, and
combinatorial degeneration ledgers for disk trees and broken trajectories.
"""

from .field import DEFAULT_CHARACTERISTIC, FieldMismatchError, check_characteristic
from .poly import NcPoly, format_poly
from .dga import (Dga, Generator, GeneratorKind, UndeclaredGeneratorError,
                  ValidationReport, Violation)
from .augment import (Augmentation, EnumerationBoundError, check_augmentation,
                      enumerate_augmentations)
from .bridge import (BoundingCochain, ChordMap, DiskCountTable, RejectedEntry,
                     StripCountTable, SupportError, b_from_eps, check_squared_zero,
                     deformed_differential, derive_ce, eps_from_b, mc_residual,
                     verify_mc_aug_identity)
from .surgery import (ChordRole, GenerationBudgetError, PreconditionError,
                      QuotientError, SurgeryAlgebra, SurgeryCertificate,
                      construct_surgery_augmentation, quotient_order_reversing,
                      random_surgery_instance, validate_surgery_shape,
                      verify_certificate)
from .pearly import (BoundsTooLargeError, BrokenTrajectoryConfig, ConfigError,
                     CounterexampleReport, DiskComponent, PearlyTreeConfig,
                     StripComponent, TrajectoryLedger, TrajectorySearchBounds,
                     TrajectoryVerdict, TreeLedger, TreeSearchBounds, TreeVerdict,
                     exhaustive_search, trajectory_ledger, trajectory_verdict,
                     tree_ledger, tree_verdict)
from .report import VERSION as __version__

__all__ = [
    "Augmentation", "BoundingCochain", "BoundsTooLargeError",
    "BrokenTrajectoryConfig", "ChordMap", "ChordRole", "ConfigError",
    "CounterexampleReport", "DEFAULT_CHARACTERISTIC", "Dga", "DiskComponent",
    "DiskCountTable", "EnumerationBoundError", "FieldMismatchError",
    "GenerationBudgetError", "Generator", "GeneratorKind", "NcPoly",
    "PearlyTreeConfig", "PreconditionError", "QuotientError", "RejectedEntry",
    "StripComponent", "StripCountTable", "SupportError", "SurgeryAlgebra",
    "SurgeryCertificate", "TrajectoryLedger", "TrajectorySearchBounds",
    "TrajectoryVerdict", "TreeLedger", "TreeSearchBounds", "TreeVerdict",
    "UndeclaredGeneratorError", "ValidationReport", "Violation",
    "b_from_eps", "check_augmentation", "check_characteristic",
    "check_squared_zero", "construct_surgery_augmentation",
    "deformed_differential", "derive_ce", "enumerate_augmentations",
    "eps_from_b", "exhaustive_search", "format_poly",
    "mc_residual", "quotient_order_reversing", "random_surgery_instance",
    "trajectory_ledger", "trajectory_verdict", "tree_ledger", "tree_verdict",
    "validate_surgery_shape", "verify_certificate", "verify_mc_aug_identity",
]

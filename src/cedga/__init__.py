"""Symbolic engine for filtered noncommutative chord algebras.

Exact arithmetic over small prime fields, free noncommutative differential
graded algebras with degree/action validation, augmentation enumeration, the
bounding-cochain/augmentation bridge driven by disk and strip count tables,
filtered surgery algebras with an inductive augmentation extension, and
combinatorial degeneration ledgers for disk trees and broken trajectories.

``import cedga`` is lazy (PEP 562): an exported name or a submodule such as
``cedga.surgery`` is imported on first access.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # owning submodule -> the names it exports
    "field": "DEFAULT_CHARACTERISTIC FieldMismatchError InputError check_characteristic",
    "poly": "NcPoly format_poly",
    "dga": "ChordRole Dga Generator GeneratorKind UndeclaredGeneratorError ValidationReport "
           "Violation",
    "augment": "Augmentation EnumerationBoundError check_augmentation enumerate_augmentations",
    "bridge": "BoundingCochain ChordMap DiskCountTable RejectedEntry StripCountTable SupportError "
              "b_from_eps check_squared_zero deformed_differential derive_ce eps_from_b "
              "mc_residual verify_mc_aug_identity",
    "surgery": "GenerationBudgetError PreconditionError QuotientError SurgeryAlgebra "
               "SurgeryCertificate construct_surgery_augmentation quotient_order_reversing "
               "random_surgery_instance validate_surgery_shape verify_certificate",
    "pearly": "BoundsTooLargeError BrokenTrajectoryConfig ConfigError CounterexampleReport "
              "DiskComponent PearlyTreeConfig StripComponent TrajectoryLedger "
              "TrajectorySearchBounds TrajectoryVerdict TreeLedger TreeSearchBounds TreeVerdict "
              "exhaustive_search trajectory_ledger trajectory_verdict tree_ledger tree_verdict",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "corpus", "textio"}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value

"""Verification engines: interval propagation, enumeration, search, CNF."""

from .verdict import FALSIFIED, TIMEOUT, UNKNOWN, VERIFIED, Deadline, Verdict
from .intervals import (
    FoldedSign,
    IntervalTensor,
    fold_bn_sign,
    ibp_propagate,
    ibp_trace,
    property_box,
    verify_ibp,
)
from .brute import DEFAULT_ENUMERATION_BUDGET, brute_force_verify, integer_grid_bounds
from .bab import bab_verify
from .cnf import (
    CnfBuilder,
    CnfFormula,
    binary_suffix_forward,
    dpll_satisfiable,
    export_cnf,
    format_varmap,
    stable_phases_from_box,
)

__all__ = [
    "FALSIFIED",
    "TIMEOUT",
    "UNKNOWN",
    "VERIFIED",
    "Deadline",
    "Verdict",
    "FoldedSign",
    "IntervalTensor",
    "fold_bn_sign",
    "ibp_propagate",
    "ibp_trace",
    "property_box",
    "verify_ibp",
    "DEFAULT_ENUMERATION_BUDGET",
    "brute_force_verify",
    "integer_grid_bounds",
    "bab_verify",
    "CnfBuilder",
    "CnfFormula",
    "binary_suffix_forward",
    "dpll_satisfiable",
    "export_cnf",
    "format_varmap",
    "stable_phases_from_box",
]

"""Exact multisegment calculus, depth-one fixed-vector dimensions,
monodromy shadows, and finite-site family rigidity.

The names below are imported from their submodule on first access (PEP 562),
so ``import bzcalc`` loads only the exceptions, and a program that uses
segments alone never compiles family or weildeligne.
"""

import importlib

from .exceptions import DomainError, ModelViolation

_SUBMODULES = ("segments", "dimensions", "weildeligne", "family", "exceptions")

# name -> the submodule that defines it
_SOURCE = {
    name: module
    for module, names in (
        ("segments", (
            "CuspidalLine", "Multisegment", "Segment", "admissible_order",
            "downward_closure", "elementary_edges", "is_linked", "leq",
            "multisegment_from_json", "multisegment_to_json", "precedes",
            "statistic", "support",
        )),
        ("dimensions", (
            "Composition", "PrimePower", "compositions",
            "elementary_statistic_delta", "gaussian_flag_count",
            "parabolic_alternating_sum", "standard_module_k1_dim",
            "steinberg_k1_dim", "triangle_check", "valuation_statistic", "vp",
        )),
        ("weildeligne", (
            "JordanPartition", "WDShadow", "exp_nilpotent", "nonzero_count",
            "wd_from_multisegment",
        )),
        ("family", (
            "FamilyScenario", "FiniteSite", "RigidityReport", "SimulatedTrace",
            "base_change_shadow", "clopen_locus", "is_dense", "iwahori_trace",
            "k1_trace", "ratio_valuation", "run_pipeline", "scenario_from_json",
            "scenario_to_json",
        )),
    )
    for name in names
}

__all__ = sorted(["DomainError", "ModelViolation", *_SUBMODULES, *_SOURCE])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _SOURCE:
        value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

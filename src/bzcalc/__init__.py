"""Exact multisegment calculus, depth-one fixed-vector dimensions,
monodromy shadows, and finite-site family rigidity."""

from .exceptions import DomainError, ModelViolation
from .segments import (
    CuspidalLine,
    Multisegment,
    Segment,
    admissible_order,
    downward_closure,
    elementary_edges,
    is_linked,
    leq,
    multisegment_from_json,
    multisegment_to_json,
    precedes,
    statistic,
    support,
)
from .dimensions import (
    Composition,
    PrimePower,
    compositions,
    elementary_statistic_delta,
    gaussian_flag_count,
    parabolic_alternating_sum,
    standard_module_k1_dim,
    steinberg_k1_dim,
    triangle_check,
    valuation_statistic,
    vp,
)
from .weildeligne import (
    JordanPartition,
    WDShadow,
    exp_nilpotent,
    nonzero_count_exp,
    wd_from_multisegment,
)
from .family import (
    FamilyScenario,
    FiniteSite,
    RigidityReport,
    SimulatedTrace,
    base_change_shadow,
    clopen_locus,
    is_dense,
    iwahori_trace,
    k1_trace,
    ratio_valuation,
    run_pipeline,
    scenario_from_json,
    scenario_to_json,
    type_trace,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

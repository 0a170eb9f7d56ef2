"""Logic-function kernels: truth tables, ISOP, factoring, NPN."""

from repro.logic.factor import (
    FactorNode,
    count_factored_ands,
    factor_masks,
    factored_to_aig,
)
from repro.logic.isop import isop_cover
from repro.logic.npn import (
    MAX_NPN_VARS,
    NpnTransform,
    npn_canon,
    npn_leaf_assignment,
)
from repro.logic.resyn import ResynPlan, build_plan, plan_resynthesis
from repro.logic.truth import (
    MAX_TT_VARS,
    full_mask,
    simulate_cone,
    tt_cofactor0,
    tt_cofactor1,
    tt_depends_on,
    tt_not,
    tt_support,
    var_table,
)

__all__ = [
    "FactorNode",
    "MAX_NPN_VARS",
    "MAX_TT_VARS",
    "NpnTransform",
    "ResynPlan",
    "build_plan",
    "count_factored_ands",
    "factor_masks",
    "factored_to_aig",
    "full_mask",
    "isop_cover",
    "npn_canon",
    "npn_leaf_assignment",
    "plan_resynthesis",
    "simulate_cone",
    "tt_cofactor0",
    "tt_cofactor1",
    "tt_depends_on",
    "tt_not",
    "tt_support",
    "var_table",
]

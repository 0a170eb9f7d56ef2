"""Optimization passes: sequential baselines and the paper's parallel
algorithms.  Scripts of passes run through :mod:`repro.engine`."""

from repro.algorithms.common import (
    AliasView,
    PassResult,
    collapse_into_ffcs,
)
from repro.algorithms.dedup import dedup_and_dangling
from repro.algorithms.par_balance import par_balance
from repro.algorithms.par_refactor import DEFAULT_CUT_SIZE, par_refactor
from repro.algorithms.par_rewrite import par_rewrite
from repro.algorithms.rewrite_lib import (
    instantiate_template,
    library_template,
    match_function,
)
from repro.algorithms.seq_balance import seq_balance
from repro.algorithms.seq_refactor import seq_refactor
from repro.algorithms.seq_rewrite import seq_rewrite

__all__ = [
    "AliasView",
    "DEFAULT_CUT_SIZE",
    "PassResult",
    "collapse_into_ffcs",
    "dedup_and_dangling",
    "instantiate_template",
    "library_template",
    "match_function",
    "par_balance",
    "par_refactor",
    "par_rewrite",
    "seq_balance",
    "seq_refactor",
    "seq_rewrite",
]

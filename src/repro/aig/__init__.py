"""AIG data structure, analysis and I/O."""

from repro.aig.aig import Aig, resolve_aliases
from repro.aig.cuts import CutResult, reconv_cut
from repro.aig.export import to_dot, to_verilog
from repro.aig.io_aiger import (
    AigerError,
    dump_aag,
    parse_aag,
    read_aag,
    read_aig_binary,
    read_aiger,
    write_aag,
    write_aig_binary,
)
from repro.aig.literals import (
    CONST0,
    CONST1,
    is_const_lit,
    lit_compl,
    lit_not,
    lit_not_cond,
    lit_pair_key,
    lit_regular,
    lit_var,
    make_lit,
)
from repro.aig.traversal import (
    aig_depth,
    aig_levels,
    fanout_counts,
    po_fanout_mask,
)
from repro.aig.validate import AigInvariantError, check_aig

__all__ = [
    "Aig",
    "AigInvariantError",
    "AigerError",
    "CONST0",
    "CONST1",
    "CutResult",
    "aig_depth",
    "aig_levels",
    "check_aig",
    "dump_aag",
    "fanout_counts",
    "is_const_lit",
    "lit_compl",
    "lit_not",
    "lit_not_cond",
    "lit_pair_key",
    "lit_regular",
    "lit_var",
    "make_lit",
    "parse_aag",
    "po_fanout_mask",
    "read_aag",
    "read_aig_binary",
    "read_aiger",
    "reconv_cut",
    "resolve_aliases",
    "to_dot",
    "to_verilog",
    "write_aag",
    "write_aig_binary",
]

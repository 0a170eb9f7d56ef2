"""AIG data structure, analysis and I/O."""

from repro.aig.aig import Aig, resolve_aliases
from repro.aig.cuts import CutResult, enumerate_cuts, reconv_cut
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
from repro.aig.mffc import deref_mffc, mffc_nodes, mffc_size, ref_cone
from repro.aig.traversal import (
    aig_depth,
    aig_levels,
    cone_nodes,
    fanout_counts,
    fanout_lists,
    po_fanout_mask,
    transitive_fanin,
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
    "cone_nodes",
    "deref_mffc",
    "dump_aag",
    "enumerate_cuts",
    "fanout_counts",
    "fanout_lists",
    "is_const_lit",
    "lit_compl",
    "lit_not",
    "lit_not_cond",
    "lit_pair_key",
    "lit_regular",
    "lit_var",
    "make_lit",
    "mffc_nodes",
    "mffc_size",
    "parse_aag",
    "po_fanout_mask",
    "read_aag",
    "read_aig_binary",
    "read_aiger",
    "reconv_cut",
    "ref_cone",
    "resolve_aliases",
    "to_dot",
    "to_verilog",
    "transitive_fanin",
    "write_aag",
    "write_aig_binary",
]

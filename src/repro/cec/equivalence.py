"""Combinational equivalence checking (CEC).

The paper validates every optimized AIG by equivalence checking; this
module provides that check, structured the way industrial CEC engines
are:

1. **Structural** — both circuits are rebuilt into one shared-PI miter
   with structural hashing; identical cones merge immediately.
2. **Random simulation** — a differing output word falsifies
   equivalence and yields a counterexample.
3. **SAT sweeping (fraiging)** — internal nodes with matching
   simulation signatures are proven pairwise equivalent with small
   incremental SAT queries and merged, collapsing the miter bottom-up.
4. **Output SAT queries** — any miter output still not constant-false
   is checked monolithically.

The result is exact (``EQUIVALENT`` / ``NOT_EQUIVALENT`` with a
counterexample) unless the configured conflict budget runs out
(``UNKNOWN``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.aig.aig import Aig
from repro.aig.literals import lit_compl, lit_not_cond, lit_var
from repro.cec.cnf import CnfMapping
from repro.cec.sat import SatResult, SatSolver
from repro.cec.simulate import evaluate, random_patterns, simulate_all


class CecStatus(Enum):
    """Outcome of an equivalence check."""

    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not_equivalent"
    UNKNOWN = "unknown"


@dataclass
class CecResult:
    """Verdict plus witness of :func:`check_equivalence`."""

    status: CecStatus
    counterexample: list[bool] | None = None
    failing_output: int | None = None
    sat_queries: int = 0

    def __bool__(self) -> bool:
        return self.status is CecStatus.EQUIVALENT


def miter(left: Aig, right: Aig) -> Aig:
    """Build a shared-input miter: PO ``i`` is ``left_i XOR right_i``."""
    if left.num_pis != right.num_pis:
        raise ValueError(
            f"PI counts differ: {left.num_pis} vs {right.num_pis}"
        )
    if left.num_pos != right.num_pos:
        raise ValueError(
            f"PO counts differ: {left.num_pos} vs {right.num_pos}"
        )
    combined = Aig(f"miter({left.name},{right.name})")
    pi_lits = [combined.add_pi() for _ in range(left.num_pis)]
    left_pos = _copy_into(left, combined, pi_lits)
    right_pos = _copy_into(right, combined, pi_lits)
    for index, (l_lit, r_lit) in enumerate(zip(left_pos, right_pos)):
        both = combined.add_and(l_lit, r_lit)
        neither = combined.add_and(l_lit ^ 1, r_lit ^ 1)
        # XOR = NOT(both) AND NOT(neither): true iff the sides disagree.
        xor = combined.add_and(both ^ 1, neither ^ 1)
        combined.add_po(xor, f"diff{index}")
    return combined


def _copy_into(source: Aig, dest: Aig, pi_lits: list[int]) -> list[int]:
    """Copy ``source`` into ``dest`` over the given PI literals."""
    lit_map: dict[int, int] = {0: 0}
    for var, lit in zip(source.pis, pi_lits):
        lit_map[var] = lit
    for var in source.and_vars():
        f0, f1 = source.fanins(var)
        n0 = lit_not_cond(lit_map[lit_var(f0)], lit_compl(f0))
        n1 = lit_not_cond(lit_map[lit_var(f1)], lit_compl(f1))
        lit_map[var] = dest.add_and(n0, n1)
    out = []
    for lit in source.pos:
        out.append(lit_not_cond(lit_map[lit_var(lit)], lit_compl(lit)))
    return out


def check_equivalence(
    left: Aig,
    right: Aig,
    sim_width: int = 1024,
    seed: int = 2023,
    conflict_limit: int = 100_000,
) -> CecResult:
    """Decide whether two AIGs are functionally equivalent."""
    joint = miter(left, right)
    if all(lit == 0 for lit in joint.pos):
        return CecResult(CecStatus.EQUIVALENT)
    # Random simulation for cheap falsification.
    patterns = random_patterns(joint.num_pis, sim_width, seed)
    values = simulate_all(joint, patterns, sim_width)
    mask = (1 << sim_width) - 1
    for index, lit in enumerate(joint.pos):
        word = values[lit_var(lit)]
        if lit_compl(lit):
            word ^= mask
        if word:
            bit = (word & -word).bit_length() - 1
            cex = [bool(pattern >> bit & 1) for pattern in patterns]
            return CecResult(CecStatus.NOT_EQUIVALENT, cex, index)
    # SAT sweeping collapses internally equivalent logic.
    sweeper = FraigSweeper(joint, sim_width, seed, conflict_limit)
    swept, po_lits = sweeper.run()
    unknown = False
    for index, lit in enumerate(po_lits):
        if lit == 0:
            continue
        if lit == 1:
            cex = _counterexample_const1(joint, swept, index)
            return CecResult(
                CecStatus.NOT_EQUIVALENT, cex, index, sweeper.sat_queries
            )
        verdict = sweeper.prove_constant_false(lit)
        if verdict is None:
            unknown = True
        elif verdict is False:
            cex = sweeper.extract_model(swept.num_pis)
            observed = evaluate(joint, cex)
            if observed[index]:
                return CecResult(
                    CecStatus.NOT_EQUIVALENT, cex, index, sweeper.sat_queries
                )
            unknown = True  # model did not replay: treat conservatively
    if unknown:
        return CecResult(
            CecStatus.UNKNOWN, sat_queries=sweeper.sat_queries
        )
    return CecResult(CecStatus.EQUIVALENT, sat_queries=sweeper.sat_queries)


def _counterexample_const1(
    joint: Aig, swept: Aig, index: int
) -> list[bool]:
    """Any assignment witnesses a PO proven constant-true."""
    cex = [False] * joint.num_pis
    observed = evaluate(joint, cex)
    if not observed[index]:
        cex = [True] * joint.num_pis
    return cex


class FraigSweeper:
    """SAT sweeping: merge simulation-equivalent nodes proven by SAT."""

    def __init__(
        self,
        source: Aig,
        sim_width: int = 1024,
        seed: int = 2023,
        conflict_limit: int = 100_000,
    ) -> None:
        self.source = source
        self.sim_width = sim_width
        self.seed = seed
        self.conflict_limit = conflict_limit
        self.solver = SatSolver()
        self.mapping = CnfMapping()
        self.swept = Aig(source.name)
        self.sat_queries = 0
        self.merges = 0
        self.unknowns = 0
        self._encoded: set[int] = set()
        const_var = self.solver.new_var()
        self.solver.add_clause([-const_var])
        self.mapping.var_map[0] = const_var

    def run(self) -> tuple[Aig, list[int]]:
        """Sweep the source AIG; returns (swept AIG, mapped PO literals)."""
        source = self.source
        patterns = random_patterns(source.num_pis, self.sim_width, self.seed)
        signatures = simulate_all(source, patterns, self.sim_width)
        mask = (1 << self.sim_width) - 1
        lit_map: dict[int, int] = {0: 0}
        classes: dict[int, int] = {0: 0}  # canonical signature -> literal
        for var, pattern in zip(source.pis, patterns):
            pi_lit = self.swept.add_pi()
            lit_map[var] = pi_lit
            key, phase = _canon_signature(pattern, mask)
            classes.setdefault(key, pi_lit ^ phase)
        for var in source.and_vars():
            f0, f1 = source.fanins(var)
            n0 = lit_not_cond(lit_map[lit_var(f0)], lit_compl(f0))
            n1 = lit_not_cond(lit_map[lit_var(f1)], lit_compl(f1))
            candidate = self.swept.add_and(n0, n1)
            key, phase = _canon_signature(signatures[var] & mask, mask)
            canonical_cand = candidate ^ phase
            representative = classes.get(key)
            if representative is None:
                classes[key] = canonical_cand
                lit_map[var] = candidate
                continue
            if representative == canonical_cand:
                lit_map[var] = candidate
                continue
            verdict = self._prove_equal(canonical_cand, representative)
            if verdict:
                self.merges += 1
                lit_map[var] = representative ^ phase
            else:
                lit_map[var] = candidate
        po_lits = []
        for lit in source.pos:
            po_lits.append(
                lit_not_cond(lit_map[lit_var(lit)], lit_compl(lit))
            )
            self.swept.add_po(po_lits[-1])
        return self.swept, po_lits

    # ------------------------------------------------------------------
    # SAT plumbing
    # ------------------------------------------------------------------

    def prove_constant_false(self, lit: int) -> bool | None:
        """True if ``lit`` is constant false; False if satisfiable; None
        when the conflict budget ran out."""
        self._encode_cone(lit_var(lit))
        self.sat_queries += 1
        result = self.solver.solve(
            assumptions=[self.mapping.cnf_lit(lit)],
            conflict_limit=self.conflict_limit,
        )
        if result is SatResult.UNSAT:
            return True
        if result is SatResult.SAT:
            return False
        self.unknowns += 1
        return None

    def extract_model(self, num_pis: int) -> list[bool]:
        """PI assignment of the last satisfiable query."""
        cex = []
        for var in self.swept.pis[:num_pis]:
            cnf_var = self.mapping.var_map.get(var)
            cex.append(
                self.solver.model_value(cnf_var) if cnf_var else False
            )
        return cex

    def _prove_equal(self, lit_a: int, lit_b: int) -> bool:
        """SAT-prove ``lit_a == lit_b`` in the swept AIG."""
        self._encode_cone(lit_var(lit_a))
        self._encode_cone(lit_var(lit_b))
        cnf_a = self.mapping.cnf_lit(lit_a)
        cnf_b = self.mapping.cnf_lit(lit_b)
        self.sat_queries += 2
        first = self.solver.solve(
            assumptions=[cnf_a, -cnf_b], conflict_limit=self.conflict_limit
        )
        if first is not SatResult.UNSAT:
            if first is SatResult.UNKNOWN:
                self.unknowns += 1
            return False
        second = self.solver.solve(
            assumptions=[-cnf_a, cnf_b], conflict_limit=self.conflict_limit
        )
        if second is not SatResult.UNSAT:
            if second is SatResult.UNKNOWN:
                self.unknowns += 1
            return False
        return True

    def _encode_cone(self, root: int) -> None:
        """Lazily Tseitin-encode the cone of ``root`` in the swept AIG."""
        if root in self.mapping.var_map:
            return
        stack = [root]
        while stack:
            var = stack[-1]
            if var in self.mapping.var_map:
                stack.pop()
                continue
            if self.swept.is_pi(var):
                self.mapping.var_map[var] = self.solver.new_var()
                stack.pop()
                continue
            f0, f1 = self.swept.fanins(var)
            pending = [
                lit_var(f) for f in (f0, f1)
                if lit_var(f) not in self.mapping.var_map
            ]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            node = self.solver.new_var()
            self.mapping.var_map[var] = node
            lit0 = self.mapping.cnf_lit(f0)
            lit1 = self.mapping.cnf_lit(f1)
            self.solver.add_clause([-node, lit0])
            self.solver.add_clause([-node, lit1])
            self.solver.add_clause([node, -lit0, -lit1])


def _canon_signature(signature: int, mask: int) -> tuple[int, int]:
    """Complement-canonical signature and the phase reaching it."""
    if signature & 1:
        return signature ^ mask, 1
    return signature, 0

"""Domain scenario: catching a broken optimization with CEC.

Every pass in this library is validated by combinational equivalence
checking, the same discipline the paper applies ("All the generated
AIGs passed equivalence checking").  This example shows the checker
proving a correct transformation and *refuting* a deliberately broken
one, with the counterexample replayed on both circuits.

Run:  python examples/equivalence_checking.py
"""

from repro.aig import Aig
from repro.algorithms import seq_rewrite
from repro.benchgen import voter
from repro.cec import CecStatus, check_equivalence, evaluate


def break_one_gate(aig: Aig) -> Aig:
    """Flip the polarity of one internal fanin — a classic CAD bug."""
    broken = aig.clone()
    victim = next(iter(broken.and_vars()))
    f0, f1 = broken.fanins(victim)
    # Rebuild the node's cone with a flipped fanin by aliasing it.
    replacement = broken.add_raw_and(f0 ^ 1, f1)
    compacted = broken.compact(resolve={victim: replacement << 0})
    return compacted


def main() -> None:
    aig = voter(31)
    print(f"circuit: {aig.name}, {aig.num_ands} AND nodes")

    # A real optimization: proven equivalent.
    optimized = seq_rewrite(aig, zero_gain=True).aig
    verdict = check_equivalence(aig, optimized)
    print(
        f"rewrite result: {optimized.num_ands} nodes -> "
        f"{verdict.status.value} ({verdict.sat_queries} SAT queries)"
    )
    assert verdict.status is CecStatus.EQUIVALENT

    # A broken "optimization": refuted with a counterexample.
    broken = break_one_gate(aig)
    verdict = check_equivalence(aig, broken)
    print(f"broken variant: {verdict.status.value}")
    assert verdict.status is CecStatus.NOT_EQUIVALENT
    cex = verdict.counterexample
    print(f"counterexample: {''.join('01'[bit] for bit in cex)}")
    print(f"  original  -> {evaluate(aig, cex)}")
    print(f"  broken    -> {evaluate(broken, cex)}")


if __name__ == "__main__":
    main()

"""Quickstart: build an AIG, optimize it with the GPU resyn2 flow,
verify equivalence, and inspect the machine trace.

Run:  python examples/quickstart.py
"""

from repro.aig import Aig, aig_depth, write_aag
from repro.cec import check_equivalence
from repro.engine import run_script
from repro.parallel import ParallelMachine


def build_demo_circuit() -> Aig:
    """An 8-bit comparator-with-mask: small but restructurable."""
    aig = Aig("demo")
    xs = [aig.add_pi(f"x{i}") for i in range(8)]
    ys = [aig.add_pi(f"y{i}") for i in range(8)]
    mask = [aig.add_pi(f"m{i}") for i in range(8)]
    # equal = AND over (x_i XNOR y_i) OR NOT mask_i, built naively as a
    # deep chain so balancing has something to do.
    acc = 1  # constant true
    for x, y, m in zip(xs, ys, mask):
        both = aig.add_and(x, y)
        neither = aig.add_and(x ^ 1, y ^ 1)
        xnor = aig.add_and(both ^ 1, neither ^ 1) ^ 1
        masked = aig.add_and(xnor ^ 1, m) ^ 1  # xnor OR !m
        acc = aig.add_and(acc, masked)
    aig.add_po(acc, "equal")
    return aig


def main() -> None:
    aig = build_demo_circuit()
    print(f"before: {aig.num_ands} AND nodes, depth {aig_depth(aig)}")

    # Run the paper's fully-parallel resyn2 on the simulated machine.
    machine = ParallelMachine()
    result = run_script(aig, "resyn2", engine="gpu", machine=machine)
    optimized = result.aig
    print(
        f"after resyn2 [gpu]: {optimized.num_ands} AND nodes, "
        f"depth {aig_depth(optimized)}"
    )
    print(
        f"modeled GPU time: {machine.total_time() * 1e3:.3f} ms over "
        f"{machine.num_launches()} kernel launches"
    )

    # Every optimized AIG must be functionally equivalent (Section V).
    verdict = check_equivalence(aig, optimized)
    print(f"equivalence check: {verdict.status.value}")

    # Per-command share of the modeled runtime (cf. Figure 8).
    total = machine.total_time()
    for tag, entry in sorted(machine.breakdown_by_tag().items()):
        share = (entry["gpu"] + entry["host"]) / total
        print(f"  {tag or 'misc':6s} {share * 100:5.1f}% of runtime")

    write_aag(optimized, "/tmp/quickstart_optimized.aag")
    print("wrote /tmp/quickstart_optimized.aag")


if __name__ == "__main__":
    main()

"""Domain scenario: when is the parallel flow worth it? (Figure 7)

Logic optimization is only GPU-friendly above a size threshold: kernel
launch overheads dominate on small AIGs.  This example sweeps one
benchmark through ABC-``double`` enlargements, prints the acceleration
series of GPU rf_resyn over the sequential baseline, and locates the
crossover — the reproduction of the paper's Figure 7 experiment.

Run:  python examples/scaling_study.py
"""

from repro.benchgen import adder, enlarge
from repro.engine import run_script
from repro.experiments import format_table
from repro.parallel import ParallelMachine, SeqMeter


def measure(aig) -> tuple[float, float]:
    """(sequential seconds, modeled GPU seconds) for rf_resyn."""
    meter = SeqMeter()
    run_script(aig, "rf_resyn", engine="seq", meter=meter)
    machine = ParallelMachine()
    run_script(aig, "rf_resyn", engine="gpu", machine=machine)
    return meter.time(), machine.total_time()


def main() -> None:
    base = adder(2)  # a dozen nodes: well below the crossover
    rows = []
    crossover = None
    for scale in range(9):
        aig = enlarge(base, scale)
        seq_time, gpu_time = measure(aig)
        accel = seq_time / gpu_time
        if crossover is None and accel >= 1.0:
            crossover = aig.num_ands
        rows.append(
            [
                scale,
                aig.num_ands,
                f"{seq_time * 1e3:.3f}ms",
                f"{gpu_time * 1e3:.3f}ms",
                f"{accel:.2f}x",
            ]
        )
    print(
        format_table(
            ["Scale", "#Nodes", "ABC time", "GPU time", "Accel"], rows
        )
    )
    if crossover is None:
        print("\nno crossover within the swept range")
    else:
        print(
            f"\ncrossover: the GPU flow starts winning near "
            f"{crossover} nodes (paper: ~30k at CUDA scale; the "
            f"simulated machine is calibrated to Python-scale circuits)"
        )


if __name__ == "__main__":
    main()

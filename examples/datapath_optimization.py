"""Domain scenario: optimizing arithmetic datapaths.

The paper's motivating workload is large arithmetic logic (EPFL
multiplier/divider/sqrt).  This example generates three datapaths,
compares the sequential ABC-style flow against the parallel flow on
each — quality side by side, modeled runtimes, and the acceleration
trend with circuit depth (deep recurrences accelerate less, exactly the
paper's Table II observation).

Run:  python examples/datapath_optimization.py
"""

from repro.aig import aig_depth
from repro.benchgen import divider, isqrt, multiplier
from repro.cec import check_equivalence
from repro.engine import run_script
from repro.experiments import format_table
from repro.parallel import ParallelMachine, SeqMeter


def main() -> None:
    datapaths = [
        multiplier(12),  # mid-depth array
        divider(10),     # deep serial recurrence
        isqrt(20),       # deep serial recurrence
    ]
    rows = []
    for aig in datapaths:
        meter = SeqMeter()
        seq = run_script(aig, "rf_resyn", engine="seq", meter=meter)
        machine = ParallelMachine()
        gpu = run_script(aig, "rf_resyn", engine="gpu", machine=machine)

        assert check_equivalence(aig, seq.aig, sim_width=256)
        assert check_equivalence(aig, gpu.aig, sim_width=256)

        accel = meter.time() / machine.total_time()
        rows.append(
            [
                aig.name,
                f"{aig.num_ands}/{aig_depth(aig)}",
                f"{seq.nodes}/{aig_depth(seq.aig)}",
                f"{gpu.nodes}/{aig_depth(gpu.aig)}",
                f"{accel:.1f}x",
            ]
        )
    print(
        format_table(
            ["Datapath", "#Nodes/Lvl", "ABC rf_resyn", "GPU rf_resyn",
             "Accel"],
            rows,
        )
    )
    print(
        "\nNote how the deep recurrences (div, sqrt) accelerate less "
        "than the multiplier:\nlevel-wise parallel passes have fewer "
        "nodes per level to batch (paper, Sec. V-B)."
    )


if __name__ == "__main__":
    main()

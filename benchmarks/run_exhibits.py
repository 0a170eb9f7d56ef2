"""Regenerate every paper exhibit on the full suite (EXPERIMENTS.md data).

Run:  PYTHONPATH=src python benchmarks/run_exhibits.py > full_exhibits.txt
"""

import time

from repro.benchgen.arith import adder
from repro.benchgen.suite import SUITE_ORDER
from repro.engine import run_script
from repro.experiments.tables import (
    run_fig7,
    run_fig8,
    run_table1,
    run_table2,
    run_table3,
)
from repro.parallel.machine import ParallelMachine, SeqMeter


def main() -> None:
    t0 = time.time()
    print("=" * 70)
    print("TABLE I (full suite)")
    print("=" * 70)
    result = run_table1(names=SUITE_ORDER)
    print(result["text"])
    print(f"[{time.time() - t0:.0f}s]")

    t0 = time.time()
    print("=" * 70)
    print("TABLE II (full suite)")
    print("=" * 70)
    result = run_table2()
    print(result["text"])
    print("summary:", {k: round(v, 3) for k, v in result["summary"].items()})
    print(f"[{time.time() - t0:.0f}s]")

    t0 = time.time()
    print("=" * 70)
    print("TABLE II zero-gain footnote (drf -z baseline)")
    print("=" * 70)
    result = run_table2(zero_gain=True)
    print("summary:", {k: round(v, 3) for k, v in result["summary"].items()})
    print(f"[{time.time() - t0:.0f}s]")

    t0 = time.time()
    print("=" * 70)
    print("TABLE III (full suite)")
    print("=" * 70)
    result = run_table3()
    print(result["text"])
    print("summary:", {k: round(v, 3) for k, v in result["summary"].items()})
    print(f"[{time.time() - t0:.0f}s]")

    t0 = time.time()
    print("=" * 70)
    print("FIGURE 7")
    print("=" * 70)
    result = run_fig7(base_names=["vga_lcd", "log2"], scales=[0, 1, 2])
    print(result["text"])
    tiny = adder(2)
    meter = SeqMeter()
    machine = ParallelMachine()
    run_script(tiny, "rf_resyn", engine="seq", meter=meter)
    run_script(tiny, "rf_resyn", engine="gpu", machine=machine)
    print(
        f"tiny adder ({tiny.num_ands} nodes): accel "
        f"{meter.time() / machine.total_time():.2f}x (below crossover)"
    )
    print(f"[{time.time() - t0:.0f}s]")

    t0 = time.time()
    print("=" * 70)
    print("FIGURE 8 (full suite)")
    print("=" * 70)
    result = run_fig8(names=SUITE_ORDER)
    print(result["text"])
    print(f"[{time.time() - t0:.0f}s]")
    print("ALL DONE")


if __name__ == "__main__":
    main()

"""Figure 7 — acceleration of GPU rf_resyn vs problem size.

Enlarges base benchmarks with the ABC-``double`` transform and plots
(prints) the acceleration series.  The paper's curve increases with
problem size and drops below 1× for small AIGs (GPU launch overheads);
the sweep asserts both effects: monotone growth over the swept range
and a sub-1× point at the smallest scale probed with a tiny seed
circuit.

Run directly, the file is the **scale lane**: it builds one enlarged
benchmark at a ≥1M-node scale, runs a script on the array core, and
records wall time + peak RSS in a bench JSON (see
``repro.experiments.scale``)::

    python benchmarks/bench_fig7_scaling.py \\
        --base vga_lcd --scale 11 --script b \\
        --max-rss-mb 4096 --output scale.json --trace scale_trace.json
"""

from repro.benchgen.arith import adder
from repro.engine import run_script
from repro.experiments.metrics import safe_ratio
from repro.experiments.tables import run_fig7
from repro.parallel.machine import ParallelMachine, SeqMeter


def test_fig7_acceleration_grows_with_size(benchmark):
    result = benchmark.pedantic(
        run_fig7,
        kwargs={"base_names": ["vga_lcd", "log2"], "scales": [0, 1, 2]},
        rounds=1,
        iterations=1,
    )
    print()
    print(result["text"])
    for name, points in result["series"].items():
        accels = [point["accel"] for point in points]
        assert accels[-1] > accels[0], (name, accels)


def test_fig7_small_aigs_below_crossover(benchmark):
    """Below the crossover the GPU flow is slower than the baseline."""

    def measure():
        tiny = adder(2)  # a handful of nodes: launch overheads dominate
        meter = SeqMeter()
        machine = ParallelMachine()
        run_script(tiny, "rf_resyn", engine="seq", meter=meter)
        run_script(tiny, "rf_resyn", engine="gpu", machine=machine)
        return safe_ratio(meter.time(), machine.total_time())

    accel = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\ntiny-adder rf_resyn acceleration: {accel:.3f}x")
    assert accel < 1.0


def main(argv=None) -> int:
    from repro.experiments.scale import scale_main

    return scale_main(argv, bench="fig7_scaling", default_script="b")


if __name__ == "__main__":
    import sys

    sys.exit(main())

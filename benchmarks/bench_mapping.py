"""Downstream benchmark: LUT mapping quality after each flow.

Not a paper exhibit, but the paper's motivation made measurable: the
mapped-netlist quality (6-LUT count/depth) of the original circuit vs
the GPU-resyn2-optimized circuit vs mapping with structural choices.
Optimization must pay off downstream, and choices must not lose to the
best single snapshot by more than the union overhead.
"""

from repro.benchgen.suite import load_benchmark
from repro.engine import run_script
from repro.experiments.metrics import format_table
from repro.mapping.choices import map_with_choices
from repro.mapping.lut_map import lut_map, verify_mapping


def test_mapping_after_optimization(benchmark):
    def run():
        rows = []
        for name in ("div", "log2", "vga_lcd"):
            aig = load_benchmark(name)
            optimized = run_script(aig, "resyn2", engine="gpu").aig
            base_map = lut_map(aig, k=6)
            opt_map = lut_map(optimized, k=6)
            choice_map, union = map_with_choices([optimized, aig], k=6)
            assert verify_mapping(aig, base_map)
            assert verify_mapping(optimized, opt_map)
            assert verify_mapping(union, choice_map)
            rows.append(
                [
                    aig.name,
                    f"{base_map.num_luts}/{base_map.depth}",
                    f"{opt_map.num_luts}/{opt_map.depth}",
                    f"{choice_map.num_luts}/{choice_map.depth}",
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["Benchmark", "map(orig)", "map(resyn2)", "map(choices)"],
            rows,
        )
    )
    for _, base, opt, choice in rows:
        base_luts = int(base.split("/")[0])
        opt_luts = int(opt.split("/")[0])
        choice_luts = int(choice.split("/")[0])
        best = min(base_luts, opt_luts)
        assert choice_luts <= int(best * 1.25) + 2

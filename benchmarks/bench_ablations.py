"""Ablation benches for the design choices DESIGN.md calls out.

* **Semi-sharing gain (Section III-D)** — parallel refactoring with the
  refinement round vs the plain no-share lower bound: the refinement
  must never lose quality and typically improves it.
* **Maximum cut size** — the paper uses 12 (11 for log2); sweeping K
  shows the quality/runtime trade-off.
* **Zero-gain replacements** — accepting gain == 0 is what lets
  repeated parallel refactoring catch up with the sequential pass.
* **Repetition (GPU rf ×1 vs ×2)** — Table II's "(×2)" column exists
  because one parallel pass lacks on-the-fly updating.
"""

from repro.benchgen.suite import load_benchmark
from repro.engine import pass_fn
from repro.experiments.metrics import format_table

par_refactor = pass_fn("par_refactor")


def _run_with_gain_mode(aig, semi_sharing: bool):
    """par_refactor with the semi-sharing refinement optionally stubbed."""
    if semi_sharing:
        return par_refactor(aig)
    import sys

    # pass_fn hands out the function; ablation stubbing needs the
    # module object owning its globals.
    module = sys.modules[par_refactor.__module__]
    original = module._semi_sharing_refine
    module._semi_sharing_refine = lambda aig_, cones, kept, machine: []
    try:
        return par_refactor(aig)
    finally:
        module._semi_sharing_refine = original


def test_ablation_semi_sharing_gain(benchmark, bench_names):
    def run():
        rows = []
        for name in bench_names:
            aig = load_benchmark(name)
            plain = _run_with_gain_mode(aig, semi_sharing=False)
            semi = _run_with_gain_mode(aig, semi_sharing=True)
            rows.append(
                [aig.name, aig.num_ands, plain.nodes_after, semi.nodes_after]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["Benchmark", "#Nodes", "rf (no-share gain)", "rf (semi-share)"],
            rows,
        )
    )
    for _, _, plain, semi in rows:
        assert semi <= plain  # refinement can only add profitable cones


def test_ablation_cut_size(benchmark):
    aig = load_benchmark("div")

    def run():
        return {
            k: par_refactor(aig, max_cut_size=k).nodes_after
            for k in (4, 8, 12)
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["K", "#Nodes after GPU rf"],
            [[k, v] for k, v in sorted(results.items())],
        )
    )
    # Larger cuts see more logic and cannot do worse on this circuit.
    assert results[12] <= results[4]


def test_ablation_refactor_repetition(benchmark, bench_names):
    """GPU rf x1 vs x2 (Table II applies two passes)."""

    def run():
        rows = []
        for name in bench_names:
            aig = load_benchmark(name)
            once = par_refactor(aig)
            twice = par_refactor(once.aig)
            rows.append(
                [aig.name, aig.num_ands, once.nodes_after, twice.nodes_after]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["Benchmark", "#Nodes", "GPU rf x1", "GPU rf x2"], rows
        )
    )
    for _, _, once, twice in rows:
        assert twice <= once

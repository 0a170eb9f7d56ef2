"""Experiment drivers regenerating every table and figure of the paper.

Each ``run_*`` function reproduces one exhibit of the evaluation
section on the generated suite (DESIGN.md maps exhibits to modules):

* :func:`run_table1`  — normalized sequential-part runtimes;
* :func:`run_table2`  — single-pass balancing / refactoring vs the
  sequential baselines (the ``zero_gain`` flag adds the drf -z
  comparison of Section V-B a);
* :func:`run_table3`  — the ``rf_resyn`` and ``resyn2`` sequences;
* :func:`run_fig7`    — acceleration vs problem size (enlargement sweep);
* :func:`run_fig8`    — per-command runtime breakdown of the GPU
  sequences.

Every function returns a dict with the raw rows plus a ``text`` field
holding the paper-style rendering; quality numbers come from the real
algorithms, times from the calibrated machine model.
"""

from __future__ import annotations

from repro.aig.aig import Aig
from repro.benchgen.enlarge import enlarge
from repro.benchgen.suite import SUITE_ORDER, load_benchmark, load_suite
from repro.engine import (
    DEFAULT_MAX_CUT_SIZE,
    SequenceResult,
    pass_fn,
    run_script,
)
from repro.experiments.metrics import (
    format_bar_chart,
    format_table,
    geomean,
    safe_ratio,
)
from repro.parallel.machine import MachineConfig, ParallelMachine, SeqMeter

# Pass entry points resolve through the engine's command table — the
# experiments layer holds no direct pass imports.
par_balance = pass_fn("par_balance")
par_refactor = pass_fn("par_refactor")
par_rewrite = pass_fn("par_rewrite")
seq_balance = pass_fn("seq_balance")
seq_refactor = pass_fn("seq_refactor")

#: Default cut size for refactoring experiments (the paper's setting).
CUT_SIZE = DEFAULT_MAX_CUT_SIZE

#: Per-benchmark overrides: the paper uses 11 for log2 ("due to
#: insufficient thread-local memory").
CUT_SIZE_OVERRIDES = {"log2": 11}

#: Benchmark subset small enough for quick regression runs.
QUICK_NAMES = ["div", "log2", "voter", "vga_lcd"]


def cut_size_for(name: str) -> int:
    """Refactoring cut size for a benchmark (honors the log2=11 rule)."""
    return CUT_SIZE_OVERRIDES.get(name, CUT_SIZE)


def gpu_refactor_repeated(
    aig: Aig,
    passes: int = 2,
    max_cut_size: int = DEFAULT_MAX_CUT_SIZE,
    machine: ParallelMachine | None = None,
) -> SequenceResult:
    """Repeated GPU refactoring — Table II's "GPU rf (×2)" column."""
    machine = machine if machine is not None else ParallelMachine()
    machine.set_tag("rf")
    result = SequenceResult(aig, machine=machine)
    for _ in range(passes):
        step = par_refactor(
            result.aig, max_cut_size=max_cut_size, machine=machine
        )
        result.steps.append(("rf", step))
        result.aig = step.aig
    machine.set_tag("")
    return result


def _machine(config: MachineConfig | None) -> ParallelMachine:
    return ParallelMachine(config=config or MachineConfig())


def _meter(config: MachineConfig | None) -> SeqMeter:
    return SeqMeter(config=config or MachineConfig())


# ----------------------------------------------------------------------
# Table I — sequential-part runtimes
# ----------------------------------------------------------------------


def run_table1(
    names: list[str] | None = None,
    scale: int = 0,
    config: MachineConfig | None = None,
) -> dict:
    """Normalized sequential part: GPU rw vs rf-with-seq-replace vs rf.

    The paper reports 1.0 / 1.6 / 0.6 averaged over the suite; the
    sequential part is the host-side time of each parallel algorithm.
    """
    suite = load_suite(scale, names or QUICK_NAMES)
    rows = []
    ratios = {"rw": [], "rf_seq_replace": [], "rf_proposed": []}
    for name, aig in suite.items():
        machine_rw = _machine(config)
        par_rewrite(aig, machine=machine_rw)
        rw_host = machine_rw.host_time()

        machine_seqrep = _machine(config)
        par_refactor(
            aig,
            max_cut_size=cut_size_for(name),
            machine=machine_seqrep,
            replace_mode="sequential",
        )
        seqrep_host = machine_seqrep.host_time()

        machine_prop = _machine(config)
        par_refactor(
            aig, max_cut_size=cut_size_for(name), machine=machine_prop
        )
        prop_host = machine_prop.host_time()

        rows.append(
            {
                "benchmark": aig.name,
                "rw_host": rw_host,
                "rf_seq_replace_host": seqrep_host,
                "rf_proposed_host": prop_host,
            }
        )
        ratios["rw"].append(1.0)
        ratios["rf_seq_replace"].append(safe_ratio(seqrep_host, rw_host))
        ratios["rf_proposed"].append(safe_ratio(prop_host, rw_host))
    norm = {key: geomean(values) for key, values in ratios.items()}
    text = format_table(
        ["Algorithm", "GPU rw [9]", "rf w/ seq. replace", "rf (proposed)"],
        [
            [
                "Norm. seq. time",
                f"{norm['rw']:.1f}",
                f"{norm['rf_seq_replace']:.2f}",
                f"{norm['rf_proposed']:.2f}",
            ]
        ],
    )
    return {"rows": rows, "normalized": norm, "text": text}


# ----------------------------------------------------------------------
# Table II — single optimization passes
# ----------------------------------------------------------------------


def run_table2(
    names: list[str] | None = None,
    scale: int = 0,
    config: MachineConfig | None = None,
    zero_gain: bool = False,
    rf_passes: int = 2,
) -> dict:
    """Single passes: GPU b vs ABC balance, GPU rf (×2) vs ABC drf.

    With ``zero_gain`` the baseline refactoring accepts zero-gain
    replacements (``drf -z``), the footnote experiment of Section V-B.
    """
    suite = load_suite(scale, names or SUITE_ORDER)
    rows = []
    agg = {
        "b_nodes": [], "b_levels": [], "b_accel": [],
        "rf_nodes": [], "rf_levels": [], "rf_accel": [],
    }
    for name, aig in suite.items():
        meter_b = _meter(config)
        seq_b = seq_balance(aig, meter=meter_b)
        machine_b = _machine(config)
        gpu_b = par_balance(aig, machine=machine_b)

        meter_rf = _meter(config)
        seq_rf = seq_refactor(
            aig,
            max_cut_size=cut_size_for(name),
            zero_gain=zero_gain,
            meter=meter_rf,
        )
        machine_rf = _machine(config)
        gpu_rf = gpu_refactor_repeated(
            aig,
            passes=rf_passes,
            max_cut_size=cut_size_for(name),
            machine=machine_rf,
        )
        gpu_rf_stats = gpu_rf.aig.stats()

        row = {
            "benchmark": aig.name,
            "nodes": aig.num_ands,
            "levels": aig.stats()["levels"],
            "abc_b_nodes": seq_b.nodes_after,
            "abc_b_levels": seq_b.levels_after,
            "abc_b_time": meter_b.time(),
            "gpu_b_nodes": gpu_b.nodes_after,
            "gpu_b_levels": gpu_b.levels_after,
            "gpu_b_time": machine_b.total_time(),
            "abc_rf_nodes": seq_rf.nodes_after,
            "abc_rf_levels": seq_rf.levels_after,
            "abc_rf_time": meter_rf.time(),
            "gpu_rf_nodes": gpu_rf_stats["ands"],
            "gpu_rf_levels": gpu_rf_stats["levels"],
            "gpu_rf_time": machine_rf.total_time(),
        }
        rows.append(row)
        agg["b_nodes"].append(
            safe_ratio(row["gpu_b_nodes"], row["abc_b_nodes"])
        )
        agg["b_levels"].append(
            safe_ratio(
                max(row["gpu_b_levels"], 1), max(row["abc_b_levels"], 1)
            )
        )
        agg["b_accel"].append(safe_ratio(row["abc_b_time"], row["gpu_b_time"]))
        agg["rf_nodes"].append(
            safe_ratio(row["gpu_rf_nodes"], row["abc_rf_nodes"])
        )
        agg["rf_levels"].append(
            safe_ratio(
                max(row["gpu_rf_levels"], 1), max(row["abc_rf_levels"], 1)
            )
        )
        agg["rf_accel"].append(
            safe_ratio(row["abc_rf_time"], row["gpu_rf_time"])
        )
    summary = {key: geomean(values) for key, values in agg.items()}
    table_rows = [
        [
            row["benchmark"],
            f"{row['nodes']}/{row['levels']}",
            f"{row['abc_b_nodes']}/{row['abc_b_levels']}",
            f"{row['abc_b_time']:.3f}",
            f"{row['gpu_b_nodes']}/{row['gpu_b_levels']}",
            f"{row['gpu_b_time'] * 1e3:.2f}m",
            f"{row['abc_rf_nodes']}/{row['abc_rf_levels']}",
            f"{row['abc_rf_time']:.3f}",
            f"{row['gpu_rf_nodes']}/{row['gpu_rf_levels']}",
            f"{row['gpu_rf_time'] * 1e3:.2f}m",
        ]
        for row in rows
    ]
    table_rows.append(
        [
            "Geomean vs ABC",
            "",
            "1.000/1.000",
            "1.0",
            f"{summary['b_nodes']:.3f}/{summary['b_levels']:.3f}",
            f"{summary['b_accel']:.1f}x",
            "1.000/1.000",
            "1.0",
            f"{summary['rf_nodes']:.3f}/{summary['rf_levels']:.3f}",
            f"{summary['rf_accel']:.1f}x",
        ]
    )
    text = format_table(
        [
            "Benchmark", "#Nodes/Lvl",
            "ABC b", "t(s)", "GPU b", "t",
            "ABC drf" + (" -z" if zero_gain else ""), "t(s)",
            f"GPU rf(x{rf_passes})", "t",
        ],
        table_rows,
    )
    return {"rows": rows, "summary": summary, "text": text}


# ----------------------------------------------------------------------
# Table III — optimization sequences
# ----------------------------------------------------------------------


def run_table3(
    names: list[str] | None = None,
    scale: int = 0,
    config: MachineConfig | None = None,
    scripts: tuple[str, ...] = ("rf_resyn", "resyn2"),
) -> dict:
    """Sequences: ABC vs GPU ``rf_resyn`` and ``resyn2``."""
    suite = load_suite(scale, names or SUITE_ORDER)
    rows = []
    agg: dict[str, list[float]] = {}
    for name, aig in suite.items():
        row: dict = {
            "benchmark": aig.name,
            "nodes": aig.num_ands,
            "levels": aig.stats()["levels"],
        }
        for script in scripts:
            seq_run = run_script(
                aig, script, engine="seq",
                max_cut_size=cut_size_for(name),
                meter=_meter(config),
            )
            gpu_run = run_script(
                aig, script, engine="gpu",
                max_cut_size=cut_size_for(name),
                machine=_machine(config),
            )
            seq_stats = seq_run.aig.stats()
            gpu_stats = gpu_run.aig.stats()
            row[f"abc_{script}"] = seq_stats
            row[f"abc_{script}_time"] = seq_run.meter.time()
            row[f"gpu_{script}"] = gpu_stats
            row[f"gpu_{script}_time"] = gpu_run.machine.total_time()
            row[f"gpu_{script}_breakdown"] = (
                gpu_run.machine.breakdown_by_tag()
            )
            agg.setdefault(f"{script}_nodes", []).append(
                safe_ratio(gpu_stats["ands"], seq_stats["ands"])
            )
            agg.setdefault(f"{script}_levels", []).append(
                safe_ratio(
                    max(gpu_stats["levels"], 1), max(seq_stats["levels"], 1)
                )
            )
            agg.setdefault(f"{script}_accel", []).append(
                safe_ratio(
                    row[f"abc_{script}_time"], row[f"gpu_{script}_time"]
                )
            )
        rows.append(row)
    summary = {key: geomean(values) for key, values in agg.items()}
    headers = ["Benchmark"]
    for script in scripts:
        headers += [f"ABC {script}", "t(s)", f"GPU {script}", "t"]
    table_rows = []
    for row in rows:
        cells = [row["benchmark"]]
        for script in scripts:
            abc = row[f"abc_{script}"]
            gpu = row[f"gpu_{script}"]
            cells += [
                f"{abc['ands']}/{abc['levels']}",
                f"{row[f'abc_{script}_time']:.3f}",
                f"{gpu['ands']}/{gpu['levels']}",
                f"{row[f'gpu_{script}_time'] * 1e3:.2f}m",
            ]
        table_rows.append(cells)
    summary_cells = ["Geomean vs ABC"]
    for script in scripts:
        summary_cells += [
            "1.000/1.000",
            "1.0",
            f"{summary[f'{script}_nodes']:.3f}/"
            f"{summary[f'{script}_levels']:.3f}",
            f"{summary[f'{script}_accel']:.1f}x",
        ]
    table_rows.append(summary_cells)
    text = format_table(headers, table_rows)
    return {"rows": rows, "summary": summary, "text": text}


# ----------------------------------------------------------------------
# Figure 7 — acceleration vs problem size
# ----------------------------------------------------------------------


def run_fig7(
    base_names: list[str] | None = None,
    scales: list[int] | None = None,
    config: MachineConfig | None = None,
    script: str = "rf_resyn",
) -> dict:
    """Acceleration of GPU rf_resyn over ABC across enlargement scales.

    The paper's curve rises with size and dips below 1× under ~30k
    nodes; the sweep reproduces the series per base benchmark.
    """
    base_names = base_names or ["log2", "vga_lcd"]
    scales = scales if scales is not None else [0, 1, 2, 3]
    series: dict[str, list[dict]] = {}
    for name in base_names:
        base = load_benchmark(name)
        points = []
        for scale in scales:
            aig = enlarge(base, scale)
            seq_run = run_script(
                aig, script, engine="seq", max_cut_size=CUT_SIZE,
                meter=_meter(config),
            )
            gpu_run = run_script(
                aig, script, engine="gpu", max_cut_size=CUT_SIZE,
                machine=_machine(config),
            )
            points.append(
                {
                    "scale": scale,
                    "nodes": aig.num_ands,
                    "abc_time": seq_run.meter.time(),
                    "gpu_time": gpu_run.machine.total_time(),
                    "accel": safe_ratio(
                        seq_run.meter.time(), gpu_run.machine.total_time()
                    ),
                }
            )
        series[name] = points
    rows = []
    for name, points in series.items():
        for point in points:
            rows.append(
                [
                    name,
                    point["scale"],
                    point["nodes"],
                    f"{point['abc_time']:.3f}",
                    f"{point['gpu_time'] * 1e3:.2f}m",
                    f"{point['accel']:.2f}x",
                ]
            )
    text = format_table(
        ["Benchmark", "Scale", "#Nodes", "ABC t(s)", "GPU t", "Accel"],
        rows,
    )
    chart_labels = []
    chart_values = []
    for name, points in series.items():
        for point in points:
            chart_labels.append(f"{name} ({point['nodes']}n)")
            chart_values.append(point["accel"])
    text += "\n\n" + format_bar_chart(chart_labels, chart_values)
    return {"series": series, "text": text}


# ----------------------------------------------------------------------
# Figure 8 — runtime breakdown of the GPU sequences
# ----------------------------------------------------------------------


def run_fig8(
    names: list[str] | None = None,
    scale: int = 0,
    config: MachineConfig | None = None,
    scripts: tuple[str, ...] = ("rf_resyn", "resyn2"),
) -> dict:
    """Per-command runtime share (b / rw / rf / dedup) of GPU sequences."""
    suite = load_suite(scale, names or QUICK_NAMES)
    rows = []
    for name, aig in suite.items():
        for script in scripts:
            machine = _machine(config)
            run_script(
                aig, script, engine="gpu", max_cut_size=CUT_SIZE,
                machine=machine,
            )
            breakdown = machine.breakdown_by_tag()
            total = machine.total_time()
            shares: dict[str, float] = {}
            for tag, entry in breakdown.items():
                key = _canonical_tag(tag)
                shares[key] = shares.get(key, 0.0) + (
                    entry["gpu"] + entry["host"]
                )
            rows.append(
                {
                    "benchmark": aig.name,
                    "script": script,
                    "total_time": total,
                    "shares": {
                        key: value / total if total else 0.0
                        for key, value in shares.items()
                    },
                }
            )
    tags = ["b", "rw", "rf", "dedup"]
    table_rows = []
    for row in rows:
        table_rows.append(
            [row["benchmark"], row["script"]]
            + [f"{row['shares'].get(tag, 0.0) * 100:.1f}%" for tag in tags]
        )
    text = format_table(["Benchmark", "Script"] + tags, table_rows)
    return {"rows": rows, "text": text}


def _canonical_tag(tag: str) -> str:
    """Fold command variants into Figure 8's four categories."""
    if tag in ("rwz",):
        return "rw"
    if tag in ("rfz",):
        return "rf"
    return tag or "other"

"""Tests for ``repro.observe``: spans, metrics, exporters, bench gate."""

import importlib.util
import json
import pathlib

import pytest

from repro import observe
from repro.cli import main as cli_main
from repro.engine import run_script
from repro.observe.export import (
    FORMAT,
    chrome_trace_events,
    export_trace,
    format_pass_table,
    pass_rows,
    trace_to_dict,
)
from repro.observe.metrics import MetricsRegistry
from repro.parallel.machine import ParallelMachine
from tests.conftest import build_random_aig

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_script(relative: str):
    """Import a non-package script (benchmarks/, scripts/) by path."""
    path = REPO_ROOT / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def _observe_off():
    """Never leak an enabled tracer into other tests."""
    yield
    observe.disable()


class FakeClock:
    """Deterministic stand-in for ``time.perf_counter``."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


# ----------------------------------------------------------------------
# Spans and the switchboard
# ----------------------------------------------------------------------


def test_span_nesting_builds_tree():
    tracer = observe.enable(clock=FakeClock())
    with observe.span("run", "sequence", script="b") as seq:
        with observe.span("b", "pass") as pass_span:
            observe.event("k", "kernel", modeled=2.0, batch=4)
            observe.event("h", "host", modeled=1.0)
        pass_span.annotate(nodes_after=9)
    observe.disable()

    root = tracer.root
    assert [span.kind for span in root.walk()] == [
        "root", "sequence", "pass", "kernel", "host",
    ]
    seq_span = root.children[0]
    assert seq_span.attrs == {"script": "b"}
    inner = seq_span.children[0]
    assert inner.attrs["nodes_after"] == 9
    assert inner.modeled_time == pytest.approx(3.0)
    assert seq_span.modeled_time == pytest.approx(3.0)
    assert seq.span is seq_span
    # FakeClock ticks one second per call, so nesting implies ordering.
    assert inner.wall_start > seq_span.wall_start
    assert inner.wall_end < seq_span.wall_end


def test_event_advances_modeled_clock_and_backdates_wall():
    clock = FakeClock()
    tracer = observe.enable(clock=clock)
    span = tracer.event("k", "kernel", modeled=0.5, wall_start=42.0)
    assert span.wall_start == 42.0
    assert tracer.modeled_clock == pytest.approx(0.5)
    assert span.modeled_time == pytest.approx(0.5)


def test_finish_closes_dangling_spans():
    tracer = observe.enable(clock=FakeClock())
    handle = tracer.span("open", "stage")
    handle.__enter__()  # never exited
    root = tracer.finish()
    assert root.wall_end > 0
    assert root.children[0].wall_end == root.wall_end


def test_disabled_path_is_inert():
    assert observe.enabled is False
    assert observe.tracer() is None
    assert observe.metrics() is None
    # The shared null span is reused, supports the full protocol,
    # and nothing is recorded.
    span = observe.span("x", "stage")
    assert span is observe.NULL_SPAN
    with span as handle:
        handle.annotate(ignored=1)
    assert observe.event("x", modeled=1.0) is None
    observe.count("c")
    observe.gauge("g", 1.0)
    tracer, registry = observe.disable()
    assert tracer is None and registry is None


def test_enable_disable_round_trip():
    tracer = observe.enable()
    assert observe.enabled is True
    assert observe.tracer() is tracer
    observe.count("c", 3)
    got_tracer, got_metrics = observe.disable()
    assert got_tracer is tracer
    assert got_metrics.counters == {"c": 3}
    assert observe.enabled is False


def test_enable_without_metrics():
    observe.enable(metrics=False)
    observe.count("c")  # must not blow up
    _, registry = observe.disable()
    assert registry is None


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


def test_metrics_registry_counts_and_gauges():
    registry = MetricsRegistry()
    registry.count("b.probes")
    registry.count("b.probes", 4)
    registry.count("a.hits", 2)
    registry.gauge("load", 0.75)
    snap = registry.snapshot()
    assert snap["counters"] == {"a.hits": 2, "b.probes": 5}
    assert list(snap["counters"]) == ["a.hits", "b.probes"]  # sorted
    assert snap["gauges"] == {"load": 0.75}
    text = registry.format()
    assert "a.hits = 2" in text and "load = 0.75" in text
    registry.reset()
    assert registry.snapshot() == {"counters": {}, "gauges": {}}


# ----------------------------------------------------------------------
# Machine integration: modeled times must reconcile exactly
# ----------------------------------------------------------------------


def test_pass_modeled_times_sum_to_machine_total():
    aig = build_random_aig(3, num_ands=120)
    machine = ParallelMachine()
    tracer = observe.enable()
    run_script(aig, "b; rw; rf", engine="gpu", machine=machine)
    observe.disable()
    modeled_sum = sum(span.modeled_time for span in tracer.passes())
    assert modeled_sum == pytest.approx(machine.total_time(), rel=1e-12)
    assert tracer.modeled_clock == pytest.approx(
        machine.total_time(), rel=1e-12
    )
    # Pass spans carry the QoR attrs the exporters rely on.
    for span in tracer.passes():
        assert {"nodes_before", "nodes_after", "levels_before",
                "levels_after"} <= set(span.attrs)


def test_seq_engine_pass_times_match_meter():
    aig = build_random_aig(5, num_ands=100)
    tracer = observe.enable()
    result = run_script(aig, "b; rw", engine="seq")
    observe.disable()
    modeled_sum = sum(span.modeled_time for span in tracer.passes())
    assert modeled_sum == pytest.approx(result.modeled_time(), rel=1e-12)


def test_metrics_cover_instrumented_subsystems():
    aig = build_random_aig(4, num_ands=150)
    observe.enable()
    run_script(aig, "b; rw; rf", engine="gpu")
    _, registry = observe.disable()
    counters = registry.counters
    for name in (
        "machine.launches",
        "hashtable.probes",
        "hashtable.inserts",
        "b.clusters_collapsed",
        "b.insertion_passes",
        "rf.cones_collapsed",
        "rw.candidates",
        "dedup.duplicates",
    ):
        assert name in counters, name
    assert counters["machine.launches"] > 0


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def _traced_run(script="b; rw", seed=2):
    aig = build_random_aig(seed, num_ands=120)
    tracer = observe.enable()
    run_script(aig, script, engine="gpu")
    tracer, registry = observe.disable()
    return tracer, registry


def test_trace_document_round_trip(tmp_path):
    tracer, registry = _traced_run()
    out = tmp_path / "trace.json"
    document = export_trace(
        str(out), tracer, registry, meta={"script": "b; rw"}
    )
    loaded = json.loads(out.read_text())
    assert loaded == document
    assert loaded["format"] == FORMAT
    assert loaded["meta"] == {"script": "b; rw"}
    assert loaded["summary"]["modeled_time"] == pytest.approx(
        tracer.modeled_clock
    )
    assert loaded["summary"]["spans"] == len(tracer.spans()) - 1
    assert [row["command"] for row in loaded["passes"]] == ["b", "rw"]
    assert loaded["metrics"]["counters"] == registry.snapshot()["counters"]
    # The span tree survives serialization with relative wall times.
    assert loaded["spans"]["kind"] == "root"
    assert loaded["spans"]["children"][0]["kind"] == "sequence"


def test_chrome_events_are_loadable_shape():
    tracer, _ = _traced_run()
    events = chrome_trace_events(tracer)
    metadata = [event for event in events if event["ph"] == "M"]
    slices = [event for event in events if event["ph"] == "X"]
    assert {event["name"] for event in metadata} == {
        "process_name", "thread_name",
    }
    assert slices, "no duration events exported"
    for event in slices:
        assert {"name", "cat", "ph", "pid", "tid", "ts", "dur",
                "args"} <= set(event)
        assert event["ts"] >= 0
        assert event["dur"] >= 0
    # Kernel/host leaves live only on the modeled timeline (tid 0);
    # structural spans appear on both timelines.
    for event in slices:
        if event["cat"] in ("kernel", "host", "event"):
            assert event["tid"] == 0
    wall_cats = {
        event["cat"] for event in slices if event["tid"] == 1
    }
    assert wall_cats <= {"sequence", "pass", "stage"}
    assert "pass" in wall_cats


def test_pass_rows_and_table():
    tracer, _ = _traced_run()
    rows = pass_rows(tracer)
    assert [row["index"] for row in rows] == [0, 1]
    assert all("nodes_before" in row for row in rows)
    table = format_pass_table(tracer)
    lines = table.splitlines()
    assert lines[0].split() == [
        "pass", "nodes", "levels", "modeled(s)", "wall(s)",
    ]
    assert lines[2].startswith("0:b")
    assert lines[-1].startswith("total")


def test_trace_to_dict_without_metrics():
    tracer, _ = _traced_run()
    document = trace_to_dict(tracer)
    assert document["metrics"] == {}
    assert document["meta"] == {}


def test_format_pass_table_empty_trace():
    tracer = observe.enable()
    observe.disable()
    table = format_pass_table(tracer)
    assert "total" in table  # degrades to a header + zero total


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------


def test_cli_opt_trace_and_metrics(tmp_path, capsys):
    from repro.aig.io_aiger import write_aag

    aig = build_random_aig(11, num_ands=100)
    source = tmp_path / "in.aag"
    write_aag(aig, str(source))
    trace_path = tmp_path / "trace.json"
    code = cli_main([
        "opt", str(source), "-c", "b; rw", "--engine", "gpu",
        "--trace", str(trace_path), "--metrics",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "pass" in out and "total" in out
    assert "hashtable.probes = " in out
    assert f"wrote trace {trace_path}" in out
    document = json.loads(trace_path.read_text())
    assert document["format"] == FORMAT
    assert document["meta"]["script"] == "b; rw"
    assert len(document["passes"]) == 2
    assert (
        document["meta"]["nodes_before"]
        == document["passes"][0]["nodes_before"]
    )
    modeled_sum = sum(row["modeled_time"] for row in document["passes"])
    assert modeled_sum == pytest.approx(
        document["summary"]["modeled_time"], rel=1e-9
    )
    # observability must be torn down after the command
    assert observe.enabled is False


def test_cli_opt_without_flags_stays_dark(tmp_path, capsys):
    from repro.aig.io_aiger import write_aag

    aig = build_random_aig(12, num_ands=80)
    source = tmp_path / "in.aag"
    write_aag(aig, str(source))
    assert cli_main(["opt", str(source), "-c", "b"]) == 0
    out = capsys.readouterr().out
    assert "wrote trace" not in out
    assert "pass  " not in out


# ----------------------------------------------------------------------
# Bench smoke suite + regression gate
# ----------------------------------------------------------------------


def test_bench_smoke_case_is_deterministic():
    bench_smoke = _load_script("benchmarks/bench_smoke.py")
    first = bench_smoke.run_case("voter", "b", engine="gpu")
    second = bench_smoke.run_case("voter", "b", engine="gpu")
    for row in (first, second):
        # Wall-clock fields are the only nondeterministic ones.
        row.pop("wall_time")
    assert first == second
    assert first["modeled_time"] > 0
    assert first["counters"]["machine.launches"] > 0


def _bench_doc(**overrides):
    case = {
        "name": "voter",
        "script": "b",
        "engine": "gpu",
        "scale": 0,
        "nodes_after": 100,
        "levels_after": 20,
        "modeled_time": 1.0,
        "wall_time": 1.0,
    }
    case.update(overrides)
    return {"format": "repro.bench/1", "cases": [case]}


def test_bench_report_gate_passes_and_fails(tmp_path, capsys):
    bench_report = _load_script("scripts/bench_report.py")
    baseline = _bench_doc()

    failures, warnings, notes = bench_report.compare(
        _bench_doc(), baseline
    )
    assert failures == [] and warnings == [] and notes == []

    failures, _, _ = bench_report.compare(
        _bench_doc(nodes_after=101), baseline
    )
    assert any("QoR regression" in msg for msg in failures)

    failures, _, notes = bench_report.compare(
        _bench_doc(nodes_after=90), baseline
    )
    assert failures == []
    assert any("QoR improved" in msg for msg in notes)

    failures, _, _ = bench_report.compare(
        _bench_doc(modeled_time=1.2), baseline
    )
    assert any("modeled time" in msg for msg in failures)
    # Inside the band: no failure.
    failures, _, _ = bench_report.compare(
        _bench_doc(modeled_time=1.05), baseline
    )
    assert failures == []

    _, warnings, _ = bench_report.compare(
        _bench_doc(wall_time=2.0), baseline
    )
    assert any("wall clock" in msg for msg in warnings)

    failures, _, _ = bench_report.compare(
        {"format": "repro.bench/1", "cases": []}, baseline
    )
    assert any("missing" in msg for msg in failures)

    _, _, notes = bench_report.compare(
        _bench_doc(), {"format": "repro.bench/1", "cases": []}
    )
    assert any("new case" in msg for msg in notes)

    # A serial-replay share above the ceiling is an advisory naming the
    # serial lanes, counted apart from warnings; it never fails the
    # gate, not even under --strict-wall.
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps(baseline))
    for serial, advisories in ((40, 1), (10, 0)):
        run_path = tmp_path / f"run{serial}.json"
        counters = {
            "commit.bulk_nodes": 100 - serial,
            "commit.serial_replays": serial,
        }
        run_path.write_text(json.dumps(_bench_doc(counters=counters)))
        for strict in ([], ["--strict-wall"]):
            argv = [str(run_path), "--baseline", str(base_path)] + strict
            assert bench_report.main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            flagged = [line for line in lines if "serial-replay" in line]
            assert len(flagged) == advisories
            for line in flagged:
                assert line.startswith("ADVISORY  voter [b]: ")
                assert "(40/100 committed nodes)" in line
                assert "rw's replace stage" in line
                assert "rfc's serial lane" in line
                assert "underused" not in line
            assert lines[-1] == (
                "bench gate: ok (1 case(s), 0 warning(s), "
                f"{advisories} advisory(s))"
            )


def test_committed_baseline_matches_schema():
    baseline = json.loads((REPO_ROOT / "BENCH_BASELINE.json").read_text())
    assert baseline["format"] == "repro.bench/1"
    assert baseline["cases"], "baseline must not be empty"
    for case in baseline["cases"]:
        assert {"name", "script", "engine", "scale", "nodes_after",
                "levels_after", "modeled_time", "wall_time",
                "passes"} <= set(case)


def test_library_build_stays_out_of_run_counters(tmp_path, monkeypatch):
    """Two in-process ``resyn2`` runs, each on a fresh read of the same
    file, count exactly the same events, although only the first one
    builds the process-wide rewrite library."""
    from repro.aig.io_aiger import read_aig_binary, write_aig_binary
    from repro.algorithms import rewrite_lib
    from repro.benchgen.arith import multiplier

    monkeypatch.setattr(rewrite_lib, "_TEMPLATES", {})
    path = tmp_path / "in.aig"
    # The 4-bit multiplier reaches library classes whose template build
    # rehashes its strash table.
    write_aig_binary(multiplier(4), path)
    snapshots = []
    for _ in range(2):
        aig = read_aig_binary(path)
        observe.enable()
        try:
            run_script(aig, "resyn2", engine="gpu")
        finally:
            _, registry = observe.disable()
        snapshots.append(registry.snapshot()["counters"])
    assert rewrite_lib._TEMPLATES
    assert snapshots[0] == snapshots[1]

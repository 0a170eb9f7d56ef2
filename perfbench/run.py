"""Repository benchmark: seeded AIGER in, verified AIGER out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload b-xl --seed 1 --seconds 25 --trace 0

One invocation measures one workload (see ``workloads.py``):

1. A child process generates the input from ``--seed`` and writes it as
   binary AIGER, untimed.  Its size and content digest are printed, so
   two commits provably read the same bytes.
2. For ``--seconds`` seconds, one fresh single-threaded child process
   per timed run does what ``repro-aig opt in.aig -c <script>`` does
   and checks the output.  Runs happen one after another, never
   concurrently.  A run that raises, or whose output fails the check,
   is a failed operation.
3. ``ands_after``, ``levels_after``, ``modeled_s``, the output bytes and
   every per-layer counter must be identical across the runs; a drift
   is a program bug and fails the invocation.
4. Exact ``check_equivalence`` runs once on workloads where it is cheap.

Every time the benchmark reports is in reference seconds: the measured
wall time times the host speed that ``worker.HostSampler`` sampled
during that run, so that a host which changes speed from minute to
minute does not read as a program change.  The measured wall medians
and the per-run host factors are printed and go into the manifest.

``--trace 0`` reports the end-to-end metrics (medians over the runs).
``--trace 1`` interleaves untraced, traced and traced-plus-wrapped runs
and reports the per-layer metrics of ``layers.py``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Before it come a readable table and a run
manifest (revision, versions, backend, CPU, host steal share).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: name -> unit of every end-to-end metric.
END_TO_END = {
    "setup_s": "s",
    "opt_s": "s",
    "peak_rss_mb": "MiB",
    "ands_after": "ANDs",
    "levels_after": "levels",
    "modeled_s": "modeled_s",
}
#: End-to-end wall times, reported in reference seconds.
TIMES = ("setup_s", "opt_s")
#: Outputs every run of one invocation must repeat exactly.
DETERMINISTIC = ("ands_after", "levels_after", "modeled_s", "output_sha256")
TRACE_CYCLE = ("plain", "traced", "wrapped")
#: Wall budget of one invocation; the exact CEC gets what is left.
BUDGET_S = 170.0
CEC_LIMIT_S = 60.0


class ChildError(RuntimeError):
    """A child step exited non-zero or printed no result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[var] = "1"
    return env


def call(step: str, workdir: str, extra: list[str], timeout: float) -> dict:
    """Run one worker step in a fresh interpreter; returns its JSON."""
    command = [
        sys.executable, str(HERE / "worker.py"), step, "--dir", workdir,
        *extra,
    ]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, cwd=str(ROOT),
            env=child_env(), timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as error:
        raise ChildError(f"{step}: timed out after {timeout:.0f}s") from error
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildError(f"{step}: exit {done.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) ticks of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted in user and nice.
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_revision() -> dict[str, str | None]:
    """Git revision when available, and a digest of ``src/`` always."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=str(ROOT), timeout=10,
        )
        revision = done.stdout.strip() if done.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        revision = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_revision": revision, "source_sha256": digest.hexdigest()}


def drift(runs: list[dict]) -> list[str]:
    """Names of outputs or counters that differ between ``runs``."""
    drifted = [
        key
        for key in DETERMINISTIC
        if len({repr(run[key]) for run in runs}) > 1
    ]
    traced = [run for run in runs if "counters" in run]
    for name in sorted(traced[0]["counters"]) if traced else ():
        if len({repr(run["counters"][name]) for run in traced}) > 1:
            drifted.append(name)
    return drifted


def at_reference(run: dict, seconds: float) -> float:
    """Wall ``seconds`` measured in ``run``, in reference seconds."""
    return seconds * run["host_factor"]


def summary(values: list[float]) -> dict[str, float] | None:
    if not values:
        return None
    return {"min": min(values), "median": median(values), "max": max(values)}


def end_to_end_metrics(runs: list[dict]) -> dict[str, float]:
    plain = [run for run in runs if run["mode"] == "plain"]
    return {
        name: median([
            at_reference(run, run[name]) if name in TIMES else run[name]
            for run in plain
        ])
        for name in END_TO_END
    }


def per_layer_metrics(runs: list[dict]) -> dict[str, float]:
    traced = [run for run in runs if run["mode"] == "traced"]
    wrapped = [run for run in runs if run["mode"] == "wrapped"]
    read_s = median([at_reference(run, run["setup_s"]) for run in runs])
    out: dict[str, float] = {
        "io.read_s": read_s,
        "io.read_ands_per_s": runs[0]["ands_in"] / read_s,
        "aig.read_peak_rss_mb": median([run["read_rss_mb"] for run in runs]),
    }
    for group, key in ((traced, "times"), (wrapped, "wrapped")):
        for name in group[0][key]:
            out[name] = median(
                [at_reference(run, run[key][name]) for run in group]
            )
    out.update(traced[0]["counters"])
    out["observe.overhead"] = opt_at_reference(runs, "traced") / (
        opt_at_reference(runs, "plain")
    ) - 1.0
    return {name: out[name] for name in PER_LAYER}


def opt_at_reference(runs: list[dict], mode: str) -> float:
    return median(
        [at_reference(run, run["opt_s"]) for run in runs
         if run["mode"] == mode]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Seeded AIGER-in, verified-out benchmark of repro."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smoke-test input sizes (the benchmark's own tests)",
    )
    parser.add_argument(
        "--corrupt-po", action="store_true",
        help="flip one PO literal of every output before the check "
        "(proves the check counts a wrong output as failed)",
    )
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills the running child and the
    # work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    began = time.monotonic()
    ticks_before = cpu_ticks()
    workroot = HERE / ".work"
    workroot.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=workroot)
    try:
        return measure(args, workload, workdir, began, ticks_before)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, workdir: str, began: float, ticks_before) -> int:
    seed = ["--seed", str(args.seed)]
    tiny = ["--tiny"] if args.tiny else []
    try:
        record = call(
            "generate", workdir, ["--workload", workload.name, *seed, *tiny],
            BUDGET_S,
        )
    except ChildError as error:
        print(f"error: input generation failed: {error}", file=sys.stderr)
        return 2
    environment = record.pop("environment")
    print(f"workload {workload.name}: script {workload.script!r}, input "
          f"{record['ands']} ANDs / {record['levels']} levels / "
          f"{record['pis']} PIs / {record['pos']} POs, sha256 "
          f"{record['sha256'][:16]}"
          + ("" if workload.uses_seed else " (the input takes no seed)"))

    run_args = ["--script", workload.script, *seed]
    if args.corrupt_po:
        run_args.append("--corrupt-po")
    cycle = TRACE_CYCLE if args.trace else ("plain",)
    runs: list[dict] = []
    attempted = failed = 0
    window_start = time.monotonic()
    walls: list[float] = []
    while True:
        now = time.monotonic()
        typical = median(walls) if walls else 0.0
        if attempted >= max(len(cycle), 3) and (
            now + typical > window_start + args.seconds
        ):
            break
        if now - began + typical > BUDGET_S - CEC_LIMIT_S:
            break
        mode = cycle[attempted % len(cycle)]
        attempted += 1
        try:
            run = call(
                "run", workdir, [*run_args, "--mode", mode],
                BUDGET_S - (now - began),
            )
            runs.append(run)
        except ChildError as error:
            failed += 1
            print(f"run {attempted} ({mode}) failed: {error}",
                  file=sys.stderr)
        walls.append(time.monotonic() - now)

    drifted = drift(runs) if runs else []
    if drifted:
        print("DETERMINISM FAILURE: these differ between runs of one "
              f"invocation: {', '.join(drifted)}", file=sys.stderr)

    cec_ok = True
    if not workload.exact_cec:
        print(f"exact CEC: skipped on {workload.name} (too slow for one "
              "invocation; every run is still checked by simulation)")
    elif not runs:
        print("exact CEC: skipped, no run produced an output")
    else:
        try:
            verdict = call(
                "cec", workdir, [],
                min(CEC_LIMIT_S, BUDGET_S - (time.monotonic() - began)),
            )
            cec_ok = verdict["status"] != "NOT_EQUIVALENT"
            print(f"exact CEC: {verdict['status'].lower()} "
                  f"({verdict['seconds']:.2f}s)")
        except ChildError as error:
            print(f"exact CEC: inconclusive ({error})")

    ticks_after = cpu_ticks()
    steal = None
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal = (ticks_after[0] - ticks_before[0]) / (
            ticks_after[1] - ticks_before[1]
        )
    manifest = {
        **source_revision(),
        "python": platform.python_version(),
        **environment,
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "steal_share": steal,
        "host_factor": summary([run["host_factor"] for run in runs]),
        "wall_s": {
            key: summary([run[key] for run in runs if run["mode"] == "plain"])
            for key in TIMES
        },
        "runs": {mode: sum(run["mode"] == mode for run in runs)
                 for mode in cycle},
        "input": record,
    }
    print("manifest: " + json.dumps(manifest, sort_keys=True))

    complete = all(
        any(run["mode"] == mode for run in runs) for mode in cycle
    )
    correct = failed == 0 and not drifted and cec_ok and complete
    metrics: dict[str, dict[str, float | str]] = {}
    if complete:
        if args.trace:
            values = per_layer_metrics(runs)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            values = end_to_end_metrics(runs)
            units = END_TO_END
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": units[name]}
            share = ""
            if args.trace and name.startswith(("pass.", "stage.")):
                share = (
                    f"  {value / opt_at_reference(runs, 'traced'):6.1%}"
                    " of traced opt"
                )
            print(f"  {name:32s} {value:>16.6g} {units[name]}{share}")
    print("  host speed factor per run: "
          + " ".join(f"{run['host_factor']:.3f}" for run in runs)
          + "; measured walls (s) follow")
    for key in ("setup_s", "opt_s"):
        print(f"  per run {key}: "
              + " ".join(f"{run[key]:.4f} ({run['mode']})" for run in runs))
    print(f"{attempted - failed}/{attempted} runs passed the output check")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

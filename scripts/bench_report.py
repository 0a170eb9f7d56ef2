"""Perf-regression gate: compare a bench run against the baseline.

Reads two documents produced by ``benchmarks/bench_smoke.py`` and
compares them case by case (matched on benchmark name + script +
engine + scale) with tolerance bands:

* **QoR** (``nodes_after``, ``levels_after``): any increase over the
  baseline is a regression → **FAIL** (improvements are reported and
  allowed; refresh the baseline to lock them in).
* **Modeled time**: more than ``--modeled-tolerance`` (default 10%)
  slower than baseline → **FAIL**.  Modeled times are deterministic,
  so the band only absorbs intentional cost-model adjustments.
* **Wall-clock**: more than ``--wall-tolerance`` (default 25%) slower
  → **WARN** by default (CI machines are noisy); ``--strict-wall``
  turns the warning into a failure.
* A baseline case missing from the run → **FAIL** (coverage loss).
* **Gated counters** (``rf.rounds`` / ``rfc.rounds``): deterministic
  round counts are gated like QoR — any increase fails.  On
  benchmarks running both the ``rf`` and the ``rfc`` script the pair
  is additionally cross-checked: the conflict-breaking pass must use
  strictly fewer rounds at equal-or-better ANDs/depth.
* **Serial-replay share**: a case committing more than 20% of its
  nodes one at a time (``commit.replay``: ``rw``'s fused replace stage
  ``replay_rewrites``, ``rfc``'s serial lane through
  ``apply_replacement``) gets an **ADVISORY** line,
  counted apart from warnings in the summary; never a failure, and
  ``--strict-wall`` ignores it.

Exit code 0 when the gate passes, 1 otherwise.

Usage::

    python scripts/bench_report.py BENCH_PR.json \
        --baseline BENCH_BASELINE.json

The script also reads ``repro.bench-scale/1`` documents (the
bench-scale lane of ``repro.experiments.scale``).  Those are
single-run measurements, not baseline comparisons: each point's
construction throughput, strash load factor/rehashes and peak RSS
are printed; ``--min-build-rate`` gates the build throughput (the
bulk-construction win this lane exists to protect) and
``--min-run-rate`` gates the script throughput (the column-native
pass-kernel win)::

    python scripts/bench_report.py BENCH_SCALE.json \
        --min-build-rate 650000 --min-run-rate 150000
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

DEFAULT_MODELED_TOLERANCE = 0.10
DEFAULT_WALL_TOLERANCE = 0.25

#: Deterministic counters gated like QoR: any increase over the
#: baseline fails.  Round counts are the headline parallel-efficiency
#: claim of the refactoring passes — fewer rounds is the whole point
#: of conflict breaking, so a silent round-count regression is a bug.
GATED_COUNTERS = ("rf.rounds", "rfc.rounds")

#: Format identifier of repro.experiments.scale documents.
SCALE_FORMAT = "repro.bench-scale/1"

#: Advisory ceiling on the commit layer's scalar-replay share.  Above
#: this fraction of committed nodes landing one at a time (instead of
#: through the bulk column constructor) the smoke lane prints an
#: advisory — never a failure or a warning, and deliberately not part
#: of :data:`GATED_COUNTERS`: the split is wall-clock bookkeeping, not
#: a quantity any gate holds.
SERIAL_REPLAY_ADVISORY_SHARE = 0.20

#: The lanes whose nodes ``commit.serial_replays`` counts: every one
#: is replayed one node at a time by ``commit.replay``
#: (``replay_rewrites`` / ``apply_replacement``), which has no bulk
#: path.
SERIAL_REPLAY_LANES = "rw's replace stage and rfc's serial lane"


def scale_report(
    document: dict[str, Any],
    min_build_rate: float = 0.0,
    min_run_rate: float = 0.0,
) -> tuple[list[str], list[str]]:
    """Summarize a bench-scale document; gate build/run throughput.

    Returns ``(failures, lines)``: gate violations and the per-point
    report lines.  ``min_build_rate`` gates construction throughput,
    ``min_run_rate`` gates script throughput (the column-native pass
    kernels); both are ANDs per second of wall clock, 0 disables.
    """
    failures: list[str] = []
    lines: list[str] = []
    for point in document.get("points", []):
        label = (
            f"{point['base']} x2^{point['scale']} "
            f"[{point['script']}/{point['engine']}]"
        )
        rate = point.get("build_ands_per_sec", 0.0)
        run_rate = point.get("run_ands_per_sec", 0.0)
        lines.append(
            f"{label}: {point['nodes']} ANDs, build "
            f"{point['build_wall_s']:.2f}s ({rate:,.0f} ANDs/s), "
            f"strash load {point.get('strash_load_factor', 0.0):.2f} "
            f"/ {point.get('strash_rehashes', 0)} rehashes, run "
            f"{point['run_wall_s']:.2f}s ({run_rate:,.0f} ANDs/s), "
            f"peak RSS {point['peak_rss_mb']:.0f} MiB"
        )
        shares = point.get("pass_wall_shares") or {}
        if shares:
            breakdown = ", ".join(
                f"{command} {share * 100:.0f}%"
                for command, share in sorted(
                    shares.items(), key=lambda item: -item[1]
                )
            )
            lines.append(f"{label}: pass wall shares: {breakdown}")
        if min_build_rate and rate < min_build_rate:
            failures.append(
                f"{label}: build rate {rate:,.0f} ANDs/s < "
                f"--min-build-rate {min_build_rate:,.0f}"
            )
        if min_run_rate and run_rate < min_run_rate:
            failures.append(
                f"{label}: run rate {run_rate:,.0f} ANDs/s < "
                f"--min-run-rate {min_run_rate:,.0f}"
            )
    if not lines:
        failures.append("bench-scale document contains no points")
    return failures, lines


def case_key(case: dict[str, Any]) -> tuple:
    """Identity of a bench case across runs."""
    return (
        case["name"],
        case["script"],
        case.get("engine", "gpu"),
        case.get("scale", 0),
    )


def compare(
    current: dict[str, Any],
    baseline: dict[str, Any],
    modeled_tolerance: float = DEFAULT_MODELED_TOLERANCE,
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
) -> tuple[list[str], list[str], list[str]]:
    """Compare two bench documents.

    Returns ``(failures, warnings, notes)`` — lists of human-readable
    messages; an empty ``failures`` list means the gate passes.
    """
    failures: list[str] = []
    warnings: list[str] = []
    notes: list[str] = []
    current_by_key = {case_key(c): c for c in current.get("cases", [])}
    baseline_by_key = {case_key(c): c for c in baseline.get("cases", [])}

    for key, base in baseline_by_key.items():
        label = f"{key[0]} [{key[1]}]"
        case = current_by_key.get(key)
        if case is None:
            failures.append(f"{label}: case missing from this run")
            continue
        for field in ("nodes_after", "levels_after"):
            now, ref = case[field], base[field]
            if now > ref:
                failures.append(
                    f"{label}: QoR regression — {field} {ref} -> {now}"
                )
            elif now < ref:
                notes.append(
                    f"{label}: QoR improved — {field} {ref} -> {now} "
                    "(refresh the baseline to lock in)"
                )
        case_counters = case.get("counters", {})
        base_counters = base.get("counters", {})
        for counter in GATED_COUNTERS:
            if counter not in base_counters:
                continue
            now, ref = case_counters.get(counter), base_counters[counter]
            if now is None:
                failures.append(
                    f"{label}: counter {counter} missing from this run"
                )
            elif now > ref:
                failures.append(
                    f"{label}: counter regression — "
                    f"{counter} {ref} -> {now}"
                )
            elif now < ref:
                notes.append(
                    f"{label}: counter improved — {counter} {ref} -> "
                    f"{now} (refresh the baseline to lock in)"
                )
        now, ref = case["modeled_time"], base["modeled_time"]
        if ref > 0 and now > ref * (1.0 + modeled_tolerance):
            failures.append(
                f"{label}: modeled time {ref:.6f}s -> {now:.6f}s "
                f"(+{(now / ref - 1) * 100:.1f}%, band "
                f"{modeled_tolerance * 100:.0f}%)"
            )
        now, ref = case["wall_time"], base["wall_time"]
        if ref > 0 and now > ref * (1.0 + wall_tolerance):
            warnings.append(
                f"{label}: wall clock {ref:.2f}s -> {now:.2f}s "
                f"(+{(now / ref - 1) * 100:.0f}%, band "
                f"{wall_tolerance * 100:.0f}%)"
            )

    for key in current_by_key:
        if key not in baseline_by_key:
            notes.append(
                f"{key[0]} [{key[1]}]: new case (not in baseline)"
            )
    return failures, warnings, notes


def serial_replay_advisories(current: dict[str, Any]) -> list[str]:
    """Advisory check: how much of each case commits one node at a time.

    A case whose scalar-replay share of committed nodes exceeds
    :data:`SERIAL_REPLAY_ADVISORY_SHARE` gets an advisory naming the
    lanes that replay serially (:data:`SERIAL_REPLAY_LANES`), so a
    shift towards them is visible in CI logs.  Never a failure or a
    warning (``--strict-wall`` does not apply).
    """
    advisories: list[str] = []
    for case in current.get("cases", []):
        counters = case.get("counters", {})
        bulk = counters.get("commit.bulk_nodes", 0)
        serial = counters.get("commit.serial_replays", 0)
        total = bulk + serial
        if not total:
            continue
        share = serial / total
        if share > SERIAL_REPLAY_ADVISORY_SHARE:
            advisories.append(
                f"{case['name']} [{case['script']}]: serial-replay "
                f"share {share * 100:.0f}% ({serial}/{total} committed "
                f"nodes) exceeds "
                f"{SERIAL_REPLAY_ADVISORY_SHARE * 100:.0f}%; these "
                f"nodes come from {SERIAL_REPLAY_LANES}, which replay "
                "one node at a time"
            )
    return advisories


def refactor_dominance(
    current: dict[str, Any],
) -> tuple[list[str], list[str]]:
    """Gate the rf/rfc pairing on benchmarks that run both.

    Wherever one benchmark appears with both the ``rf`` and the ``rfc``
    script (same engine and scale), the conflict-breaking pass must
    finish in *strictly fewer* level-wise rounds at equal-or-better
    ANDs and depth — the headline claim of overlapping-cone admission.
    Returns ``(failures, lines)``; the lines surface the counters.
    """
    failures: list[str] = []
    lines: list[str] = []
    by_key = {case_key(c): c for c in current.get("cases", [])}
    for (name, script, engine, scale), rfc in by_key.items():
        if script != "rfc":
            continue
        rf = by_key.get((name, "rf", engine, scale))
        if rf is None:
            continue
        rf_rounds = rf.get("counters", {}).get("rf.rounds")
        rfc_counters = rfc.get("counters", {})
        rfc_rounds = rfc_counters.get("rfc.rounds")
        label = f"{name} [rfc vs rf]"
        lines.append(
            f"{label}: rounds {rfc_rounds} vs {rf_rounds}, ANDs "
            f"{rfc['nodes_after']} vs {rf['nodes_after']}, levels "
            f"{rfc['levels_after']} vs {rf['levels_after']}, "
            f"{rfc_counters.get('rfc.cones_admitted', 0)} cones "
            f"admitted, {rfc_counters.get('rfc.conflicts_broken', 0)} "
            "conflicts broken"
        )
        if rf_rounds is None or rfc_rounds is None:
            failures.append(f"{label}: round counters missing")
            continue
        if rfc_rounds >= rf_rounds:
            failures.append(
                f"{label}: rfc took {rfc_rounds} rounds, rf "
                f"{rf_rounds} — conflict breaking must win"
            )
        if rfc["nodes_after"] > rf["nodes_after"]:
            failures.append(
                f"{label}: rfc ANDs {rfc['nodes_after']} worse than "
                f"rf {rf['nodes_after']}"
            )
        if rfc["levels_after"] > rf["levels_after"]:
            failures.append(
                f"{label}: rfc depth {rfc['levels_after']} worse than "
                f"rf {rf['levels_after']}"
            )
    return failures, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare a bench_smoke run against the baseline"
    )
    parser.add_argument("current", help="BENCH_PR.json from this run")
    parser.add_argument(
        "--baseline", default="BENCH_BASELINE.json",
        help="committed baseline document (default: %(default)s)",
    )
    parser.add_argument(
        "--modeled-tolerance", type=float,
        default=DEFAULT_MODELED_TOLERANCE,
        help="allowed modeled-time slowdown fraction "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--wall-tolerance", type=float, default=DEFAULT_WALL_TOLERANCE,
        help="wall-clock slowdown fraction before flagging "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--strict-wall", action="store_true",
        help="treat wall-clock flags as failures",
    )
    parser.add_argument(
        "--min-build-rate", type=float, default=0.0,
        help="bench-scale documents only: fail when construction "
        "throughput drops below this many ANDs/s (0: no gate)",
    )
    parser.add_argument(
        "--min-run-rate", type=float, default=0.0,
        help="bench-scale documents only: fail when script "
        "throughput drops below this many ANDs/s (0: no gate)",
    )
    args = parser.parse_args(argv)

    with open(args.current, encoding="ascii") as handle:
        current = json.load(handle)
    if current.get("format") == SCALE_FORMAT:
        failures, lines = scale_report(
            current,
            min_build_rate=args.min_build_rate,
            min_run_rate=args.min_run_rate,
        )
        for message in lines:
            print(f"POINT {message}")
        for message in failures:
            print(f"FAIL  {message}")
        if failures:
            print(f"scale gate: FAILED ({len(failures)} failure(s))")
            return 1
        points = len(current.get("points", []))
        print(f"scale gate: ok ({points} point(s))")
        return 0
    with open(args.baseline, encoding="ascii") as handle:
        baseline = json.load(handle)

    failures, warnings, notes = compare(
        current,
        baseline,
        modeled_tolerance=args.modeled_tolerance,
        wall_tolerance=args.wall_tolerance,
    )
    pair_failures, pair_lines = refactor_dominance(current)
    failures.extend(pair_failures)
    for message in pair_lines:
        print(f"PAIR  {message}")
    advisories = serial_replay_advisories(current)
    for message in advisories:
        print(f"ADVISORY  {message}")
    for message in notes:
        print(f"NOTE  {message}")
    for message in warnings:
        print(f"WARN  {message}")
    for message in failures:
        print(f"FAIL  {message}")
    failed = bool(failures) or (args.strict_wall and bool(warnings))
    compared = len(baseline.get("cases", []))
    if failed:
        print(f"bench gate: FAILED ({len(failures)} failure(s), "
              f"{len(warnings)} warning(s), {len(advisories)} "
              f"advisory(s), {compared} case(s))")
        return 1
    print(f"bench gate: ok ({compared} case(s), "
          f"{len(warnings)} warning(s), {len(advisories)} advisory(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Capture the engine parity goldens (tests/goldens/engine_parity.json).

Runs the paper's named sequences over a fixed set of deterministic
generated AIGs — one per fuzz modality (mtm / control / deep) — under
both engines, and records the AIGER dump, the modeled time (full float
precision via ``repr``) and the headline metrics counters of every run.

``tests/test_engine.py`` replays the same runs through the pass engine
and asserts bit-identical dumps, modeled times and counters, so the
goldens pin the exact pre-refactor behavior of the script runner.  The
file is regenerated only when behavior is *intended* to change::

    PYTHONPATH=src python scripts/capture_engine_goldens.py

``--check`` captures to memory and compares against the committed
goldens instead of rewriting them — exit 1 with a per-run field diff on
any mismatch, on any pinned run it did not capture and on any captured
run that is not pinned.  It captures twice: with the fast-path size
gates at their defaults, and with every gate forced to ``0``
(:func:`repro.verify.forced_gates`), so the vector paths must
reproduce the same pinned rows on these small graphs too.  CI runs
this as an explicit parity gate so a drifted golden file can never
hide behind a same-session recapture.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from repro import observe
from repro.aig.io_aiger import dump_aag
from repro.benchgen.control import random_control
from repro.benchgen.random_aig import mtm_random
from repro.engine import run_script
from repro.verify import forced_gates

OUTPUT = Path(__file__).resolve().parent.parent / (
    "tests/goldens/engine_parity.json"
)

#: Counters pinned per run (work indicators that must not drift).
GOLDEN_COUNTERS = (
    "machine.launches",
    "machine.kernel_work",
    "machine.host_work",
    "hashtable.probes",
    "dedup.duplicates",
)

SCRIPTS = ("resyn2", "rf_resyn", "resyn", "rfc_resyn")


def golden_cases() -> list[tuple[str, object]]:
    """The three deterministic case AIGs (one per fuzz modality)."""
    return [
        (
            "mtm",
            mtm_random(
                num_pis=10, num_nodes=180, num_pos=4, locality=48,
                rng=random.Random(11), name="mtm",
            ),
        ),
        (
            "control",
            random_control(
                num_pis=10, num_layers=3, layer_width=28,
                rng=random.Random(22), name="control",
            ),
        ),
        (
            "deep",
            mtm_random(
                num_pis=8, num_nodes=120, num_pos=3, locality=6,
                rng=random.Random(33), name="deep",
            ),
        ),
    ]


def capture(gates: int | None = None) -> dict:
    """Capture every golden run with the size gates at ``gates``."""
    runs = []
    for case_name, aig in golden_cases():
        for script in SCRIPTS:
            for engine in ("seq", "gpu"):
                with forced_gates(gates):
                    observe.enable()
                    try:
                        result = run_script(
                            aig.clone(), script, engine=engine
                        )
                    finally:
                        _, registry = observe.disable()
                counters = registry.snapshot()["counters"]
                runs.append(
                    {
                        "case": case_name,
                        "script": script,
                        "engine": engine,
                        "dump": dump_aag(result.aig),
                        "modeled_time": repr(result.modeled_time()),
                        "counters": {
                            key: counters.get(key, 0)
                            for key in GOLDEN_COUNTERS
                        },
                    }
                )
    return {"format": "repro.engine-goldens/1", "runs": runs}


def _run_key(run: dict) -> tuple[str, str, str]:
    return (run["case"], run["script"], run["engine"])


def diff_runs(pinned_runs: list, captured_runs: list) -> list[str]:
    """Every difference between pinned and captured runs, one a line."""
    captured = {_run_key(run): run for run in captured_runs}
    pinned = {_run_key(run): run for run in pinned_runs}
    failures = []
    for key, run in sorted(pinned.items()):
        fresh = captured.get(key)
        if fresh is None:
            failures.append(f"{'-'.join(key)}: pinned but not captured")
            continue
        for field in ("dump", "modeled_time", "counters"):
            if fresh[field] != run[field]:
                failures.append(f"{'-'.join(key)}: {field} drifted")
    for key in sorted(set(captured) - set(pinned)):
        failures.append(f"{'-'.join(key)}: not pinned in goldens")
    return failures


def check() -> int:
    """Compare fresh captures (default and gates at 0) to the goldens."""
    try:
        with open(OUTPUT, encoding="ascii") as handle:
            committed = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"goldens unreadable: {error}", file=sys.stderr)
        return 1
    pinned = committed.get("runs", [])
    failures = []
    for gates, label in ((None, "default gates"), (0, "gates forced to 0")):
        failures.extend(
            f"[{label}] {failure}"
            for failure in diff_runs(pinned, capture(gates)["runs"])
        )
    if failures:
        print("engine goldens parity FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        print(
            "regenerate deliberately with "
            "`python scripts/capture_engine_goldens.py`",
            file=sys.stderr,
        )
        return 1
    print(
        f"engine goldens parity OK ({len(pinned)} runs, default gates "
        "and gates forced to 0)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed goldens instead of writing",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check()
    document = capture()
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    with open(OUTPUT, "w", encoding="ascii") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {OUTPUT} ({len(document['runs'])} runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

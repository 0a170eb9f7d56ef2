"""CEC-gated differential fuzzing of the parallel optimization engine.

One fuzz *case* is a generated AIG plus a pass script.  The harness
runs the case with the size gate (``vec._SCALAR_CUTOFF``) at its
default and forced to ``0`` (:func:`repro.verify.gates.forced_gates`),
each under both sanitizer modes (off, and on in record mode with
post-pass invariant auditing).  The column-native pass kernels run in
every mode, so the sanitized runs check the pass path that runs at
scale.  The harness then:

* collects sanitizer conflicts and invariant violations per run;
* compares the AIGER dumps of all runs — the vector path promises
  bit-identical results to its scalar reference and the sanitizer
  promises to be transparent, so every run of one case must produce
  the *same* AIG;
* gates the result with combinational equivalence checking against the
  input (:func:`repro.cec.check_equivalence`).

All randomness derives from one master seed: case parameters, the
generator sub-seeds and the script choice come from a single
``random.Random``, so ``repro-aig fuzz --seed N`` is exactly
reproducible (and each case is independently reproducible from the
sub-seed printed in its name).

This module imports the algorithm passes and is therefore *not*
re-exported from ``repro.verify`` — see the package docstring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.aig.aig import Aig
from repro.aig.io_aiger import dump_aag, parse_aag
from repro.benchgen.control import random_control
from repro.benchgen.random_aig import mtm_random
from repro.cec import CecStatus, check_equivalence
from repro.engine import run_script
from repro.verify import sanitizer
from repro.verify.gates import forced_gates
from repro.verify.invariants import AigInvariantError
from repro.verify.sanitizer import RaceConflictError, Sanitizer

#: Gate settings every case runs under: the default, and the gate
#: forced to 0 (the vector path even on the fuzzer's small graphs).
GATE_MODES = (None, 0)

#: Scripts sampled by the fuzzer — single passes plus interleavings
#: that chain every pass family (b / rw / rwz / rf) and the dedup
#: cleanup they share.
SCRIPT_POOL = (
    "b",
    "rw",
    "rf",
    "rfc",
    "b; rw; rf",
    "rf; b; rwz",
    "b; rfc; rwz",
    "b; rw; rf; b; rwz",
)


@dataclass
class CaseOutcome:
    """Result of one (case, gates, sanitize) run."""

    name: str
    script: str
    gates: str  # "default", or the value every gate was forced to
    sanitize: bool
    conflicts: int = 0
    error: str | None = None
    error_kind: str | None = None  # "race" | "invariant" | "error"
    cec: str = "skipped"
    dump: str | None = None
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """No conflict, no structural error, and CEC did not refute."""
        return (
            self.conflicts == 0
            and self.error is None
            and self.cec in ("equivalent", "skipped", "unknown")
        )


def run_case(
    aig: Aig,
    script: str,
    gates: int | None = None,
    sanitize: bool = True,
    check_cec: bool = True,
    name: str = "case",
    max_cut_size: int = 12,
) -> CaseOutcome:
    """Run ``script`` on ``aig`` under the verification harness.

    With ``sanitize`` the run executes under a record-mode sanitizer
    (all conflicts collected, none raised) with post-pass invariant
    auditing; structural failures are captured in the outcome instead
    of propagating.  ``gates`` forces every fast-path size gate to that
    value for the duration of the run (``None`` keeps the defaults).
    """
    outcome = CaseOutcome(
        name=name,
        script=script,
        gates=_gates_label(gates),
        sanitize=sanitize,
    )
    san = Sanitizer(on_conflict="record") if sanitize else None
    result = None
    try:
        if san is not None:
            sanitizer.set_sanitizer(san)
        try:
            with forced_gates(gates):
                result = run_script(
                    aig.clone(),
                    script,
                    engine="gpu",
                    max_cut_size=max_cut_size,
                    verify_invariants=sanitize,
                )
        except RaceConflictError as exc:  # pragma: no cover - record
            outcome.error = str(exc)     # mode never raises; belt and
            outcome.error_kind = "race"  # braces for future modes
        except AigInvariantError as exc:
            outcome.error = str(exc)
            outcome.error_kind = "invariant"
        except AssertionError as exc:
            outcome.error = str(exc)
            outcome.error_kind = "error"
    finally:
        if san is not None:
            sanitizer.set_sanitizer(None)
    if san is not None:
        outcome.conflicts = san.num_conflicts
        outcome.counters = san.summary()
    if result is not None:
        outcome.dump = dump_aag(result.aig)
        if check_cec:
            verdict = check_equivalence(aig, result.aig)
            if verdict.status is CecStatus.EQUIVALENT:
                outcome.cec = "equivalent"
            elif verdict.status is CecStatus.NOT_EQUIVALENT:
                outcome.cec = "not_equivalent"
            else:
                outcome.cec = "unknown"
    return outcome


def _gates_label(gates: int | None) -> str:
    return "default" if gates is None else str(gates)


@dataclass
class FuzzReport:
    """Aggregate verdict of one fuzzing session."""

    seed: int
    budget: int
    cases: int = 0
    runs: int = 0
    conflicts: int = 0
    cec_failures: int = 0
    invariant_failures: int = 0
    mismatches: int = 0
    errors: int = 0
    unknowns: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every case survived every gate."""
        return not (
            self.conflicts
            or self.cec_failures
            or self.invariant_failures
            or self.mismatches
            or self.errors
        )

    def format(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"fuzz seed={self.seed} budget={self.budget} gates="
            + ",".join(_gates_label(gates) for gates in GATE_MODES),
            f"  cases run          {self.cases}",
            f"  engine runs        {self.runs}",
            f"  sanitizer conflicts{self.conflicts:>5}",
            f"  invariant failures {self.invariant_failures:>5}",
            f"  cec failures       {self.cec_failures:>5}",
            f"  run mismatches     {self.mismatches:>5}",
            f"  other errors       {self.errors:>5}",
            f"  cec unknowns       {self.unknowns:>5}",
        ]
        for failure in self.failures:
            lines.append(f"  FAIL {failure}")
        lines.append("verdict: " + ("CLEAN" if self.ok else "FAILED"))
        return "\n".join(lines)


def _generate_case(rng: random.Random, index: int) -> tuple[str, Aig]:
    """One generated AIG; the modality rotates, parameters are random.

    Every generator consumes a fresh sub-seed drawn from the master
    stream, so each case reproduces independently from the seed in its
    name.
    """
    sub_seed = rng.randrange(1 << 30)
    sub = random.Random(sub_seed)
    kind = index % 3
    if kind == 0:
        aig = mtm_random(
            num_pis=sub.randint(8, 14),
            num_nodes=sub.randint(80, 220),
            num_pos=sub.randint(3, 6),
            locality=sub.randint(24, 96),
            rng=sub,
            name="mtm",
        )
        return f"mtm[{sub_seed}]", aig
    if kind == 1:
        aig = random_control(
            num_pis=sub.randint(8, 14),
            num_layers=sub.randint(2, 4),
            layer_width=sub.randint(16, 48),
            rng=sub,
            name="control",
        )
        return f"control[{sub_seed}]", aig
    # Depth-heavy regime: small locality forces long chains, the
    # worst case for level-wise batching.
    aig = mtm_random(
        num_pis=sub.randint(6, 10),
        num_nodes=sub.randint(60, 160),
        num_pos=sub.randint(2, 4),
        locality=sub.randint(4, 10),
        rng=sub,
        name="deep",
    )
    return f"deep[{sub_seed}]", aig


def run_fuzz(
    seed: int = 0,
    budget: int = 30,
    scripts: tuple[str, ...] = SCRIPT_POOL,
    progress=None,
) -> FuzzReport:
    """Fuzz ``budget`` cases; returns the aggregate report.

    Each case runs under every :data:`GATE_MODES` entry × sanitizer
    off/on.  ``progress`` is an optional callable receiving one line
    per case.
    """
    rng = random.Random(seed)
    report = FuzzReport(seed=seed, budget=budget)
    for index in range(budget):
        case_name, aig = _generate_case(rng, index)
        script = rng.choice(scripts)
        label = f"{case_name} script={script!r}"
        outcomes: list[CaseOutcome] = []
        for gates in GATE_MODES:
            for sanitize in (False, True):
                outcome = run_case(
                    aig,
                    script,
                    gates=gates,
                    sanitize=sanitize,
                    # The dumps are compared below; CEC once per
                    # distinct dump keeps the gate complete and cheap.
                    check_cec=False,
                    name=case_name,
                )
                outcomes.append(outcome)
                report.runs += 1
                report.conflicts += outcome.conflicts
                if outcome.conflicts:
                    report.failures.append(
                        f"{label} gates={outcome.gates}: "
                        f"{outcome.conflicts} sanitizer conflict(s)"
                    )
                if outcome.error is not None:
                    if outcome.error_kind == "invariant":
                        report.invariant_failures += 1
                    else:
                        report.errors += 1
                    report.failures.append(
                        f"{label} gates={outcome.gates} "
                        f"sanitize={sanitize}: {outcome.error}"
                    )
        dumps = {
            outcome.dump for outcome in outcomes if outcome.dump is not None
        }
        if len(dumps) > 1:
            report.mismatches += 1
            report.failures.append(
                f"{label}: gate/sanitizer modes disagree "
                f"({len(dumps)} distinct results)"
            )
        for dump in sorted(dumps):
            verdict = check_equivalence(aig, parse_aag(dump))
            if verdict.status is CecStatus.NOT_EQUIVALENT:
                report.cec_failures += 1
                report.failures.append(f"{label}: CEC refuted the result")
            elif verdict.status is not CecStatus.EQUIVALENT:
                report.unknowns += 1
        report.cases += 1
        if progress is not None:
            progress(
                f"[{index + 1}/{budget}] {label}: "
                + ("ok" if not report.failures else "see failures")
            )
    return report

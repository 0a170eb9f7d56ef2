"""``repro.verify`` — runtime correctness tooling for the parallel engine.

Three layers (see ``docs/VERIFICATION.md``):

* :mod:`repro.verify.sanitizer` — the race/conflict sanitizer: records
  per-batch read/write footprints of every parallel launch and flags
  overlapping concurrent lanes, checking Theorem 1 disjointness (and
  the dedup/rewrite batch protocols) empirically;
* :mod:`repro.verify.invariants` — structural invariant checking
  (acyclicity, level consistency, dangling refs, strashing canonicity)
  after each pass, plus in-pass protocol checks;
* :mod:`repro.verify.fuzz` — the CEC-gated differential fuzzing
  harness behind ``repro-aig fuzz`` / ``repro-aig verify``.

:mod:`repro.verify.gates` forces the one remaining size gate
(``hashtable._SCALAR_CUTOFF``) to a value (:func:`forced_gates`), turning
the vector-vs-scalar contract into a differential the goldens check,
the fuzzer and the parity tests run.

:mod:`repro.verify.mutations` holds the test-only fault-injection
hooks that prove the stack catches the bugs it is designed for.

``fuzz`` is intentionally *not* imported here: it depends on the
algorithm passes, which themselves import the sanitizer, and the
instrumentation sites must stay importable without dragging in the
whole optimization stack.
"""

from repro.verify import invariants, mutations, sanitizer
from repro.verify.gates import GATES, forced_gates
from repro.verify.invariants import (
    AigInvariantError,
    InvariantError,
    check_invariants,
)
from repro.verify.sanitizer import (
    RaceConflictError,
    Sanitizer,
    set_sanitizer,
)

__all__ = [
    "AigInvariantError",
    "GATES",
    "InvariantError",
    "RaceConflictError",
    "Sanitizer",
    "check_invariants",
    "forced_gates",
    "invariants",
    "mutations",
    "sanitizer",
    "set_sanitizer",
]

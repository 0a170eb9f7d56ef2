"""Force every fast-path size gate to one value (differential checks).

Each hot loop has one vectorized path and one scalar reference, and a
module-level size gate picks between them: the vector path runs at or
above the gate.  The gates are wall-clock heuristics only — both sides
produce the same AIGs, probe counts, counters and modeled times — so
forcing all of them to ``0`` (vector path everywhere) or to
``math.inf`` (scalar path everywhere) must leave every result
unchanged.  The goldens check, the fuzzer and the parity tests use
:func:`forced_gates` to prove exactly that (docs/ARCHITECTURE.md,
"Size gates").

:data:`GATES` is the one list of gates; ``tests/test_architecture.py``
fails when a module under ``src/`` defines a gate that is missing here.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager

#: ``(module, attribute)`` of every size gate.
GATES = (
    ("repro.algorithms.kernels", "KERNEL_CUTOFF"),
    ("repro.parallel.vec", "_SCALAR_CUTOFF"),
    ("repro.parallel.frontier", "_VEC_MIN_ITEMS"),
    ("repro.aig.traversal", "_VEC_MIN_NODES"),
    ("repro.aig.aig", "_BATCH_CUTOFF"),
    ("repro.aig.aig", "_BULK_COMPACT_MIN"),
    ("repro.aig.store", "_BULK_MIN"),
    ("repro.benchgen.enlarge", "_BULK_MIN_ANDS"),
)


@contextmanager
def forced_gates(value):
    """Set every gate in :data:`GATES` to ``value``; restore on exit.

    ``0`` sends every site down its vector path, ``math.inf`` down its
    scalar path.  ``None`` leaves the gates at their defaults, so a
    caller can iterate over ``(None, 0)`` without a special case.
    """
    if value is None:
        yield
        return
    saved = []
    try:
        for module_name, attr in GATES:
            module = importlib.import_module(module_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

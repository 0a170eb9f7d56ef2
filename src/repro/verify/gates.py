"""Force the fast-path size gate to one value (differential checks).

One site keeps a vectorized path next to a scalar reference, picked by
a module-level size gate: ``vec._SCALAR_CUTOFF`` switches the batched
hash-table operations, and the vector path runs at or above it.  Every
other hot loop, the column-native pass kernels included, has one path
that runs at every size.  The gate is a wall-clock heuristic only —
both sides produce the same AIGs, probe counts, counters and modeled
times — so forcing it to ``0`` (vector path everywhere) or to
``math.inf`` (scalar path everywhere) must leave every result
unchanged.  The goldens check, the fuzzer and the parity tests use
:func:`forced_gates` to prove exactly that (docs/ARCHITECTURE.md,
"Size gates").

:data:`GATES` is the one list of gates; ``tests/test_architecture.py``
fails when code under ``src/`` reads a gate that is missing here.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager

#: ``(module, attribute)`` of every size gate.
GATES = (("repro.parallel.vec", "_SCALAR_CUTOFF"),)


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

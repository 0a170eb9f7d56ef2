"""Kernel-backend helpers for the parallel substrate.

The simulated-GPU kernels run as whole-array NumPy code
(:mod:`repro.parallel.hashtable`, :mod:`repro.algorithms.kernels`).
The pass kernels and the hash table's inserts and seeds have one path
at every size.  The table's batched get-or-create keeps a fused
per-item loop below one size gate (docs/ARCHITECTURE.md, "Size
gates"); both sides produce the same AIGs, probe counts, counters and
modeled times.
"""

from __future__ import annotations


def current_backend() -> str:
    """Name of the kernel backend, recorded in run manifests."""
    return "numpy"

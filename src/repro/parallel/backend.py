"""Kernel-backend helpers for the parallel substrate.

The simulated-GPU kernels run as whole-array NumPy code
(:mod:`repro.parallel.vec`, :mod:`repro.algorithms.kernels`).  The
pass kernels have one path at every size.  The batched hash-table
operations keep their per-item scalar loops below one size gate
(docs/ARCHITECTURE.md, "Size gates"); both sides produce the same
AIGs, probe counts, counters and modeled times.
"""

from __future__ import annotations

import numpy as np


def current_backend() -> str:
    """Name of the kernel backend, recorded in run manifests."""
    return "numpy"


def const_profile(work: int, count: int):
    """A work profile of ``count`` items, each charging ``work`` units.

    An int64 array consumed by
    :meth:`~repro.parallel.machine.ParallelMachine.launch_batch`
    without a per-item loop.
    """
    return np.full(count, work, dtype=np.int64)

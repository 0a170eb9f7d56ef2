"""Simulated parallel machine, batched hash table, frontier primitives."""

from repro.parallel.frontier import gather_unique
from repro.parallel.hashtable import HashTable
from repro.parallel.machine import (
    HostRecord,
    KernelRecord,
    MachineConfig,
    ParallelMachine,
    SeqMeter,
)

__all__ = [
    "HashTable",
    "HostRecord",
    "KernelRecord",
    "MachineConfig",
    "ParallelMachine",
    "SeqMeter",
    "gather_unique",
]

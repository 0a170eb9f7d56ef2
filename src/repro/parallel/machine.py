"""The simulated massively-parallel machine and its cost model.

The paper's algorithms are expressed as sequences of *kernels*: data-
parallel launches over batches of independent items (cones, subtrees,
nodes), interleaved with small amounts of sequential *host* work.  This
module provides the execution substrate standing in for the CUDA GPU:
algorithms run their per-item Python code through
:meth:`ParallelMachine.kernel` (or report work profiles via
:meth:`ParallelMachine.launch`), and the
machine records a trace — batch width, total work, critical-path work —
from which a calibrated analytic model produces *modeled* GPU runtimes.

Model, per kernel launch over ``n`` items with work units ``w_1..w_n``
(implemented by :meth:`KernelRecord.time`; DESIGN.md quotes the same
formula)::

    T_kernel = t_launch + max( sum(w) / gpu_throughput,
                               max(w) * t_gpu_thread_op )

* the first term is the throughput-bound regime (wide batches saturate
  the device);
* the second is the latency-bound regime (a batch cannot finish before
  its slowest thread — this is why deep, level-wise-parallel passes such
  as balancing and dedup accelerate less on high-delay AIGs, exactly the
  effect the paper reports for ``hyp`` and ``sqrt``);
* ``t_launch`` charges a fixed overhead per launch, which is what makes
  small AIGs *slower* on the GPU than on the CPU (paper, Figure 7:
  crossover near 30k nodes).

Host-side sequential work is charged at ``t_cpu_op`` per unit; the same
constant prices the metered sequential baselines, so acceleration
ratios compare identical work units.  Constants live in
:class:`MachineConfig`; the defaults are calibrated so the default
benchmark suite reproduces the paper's reported geomean bands (see
``repro.experiments``), while every *relative* effect emerges from the
trace itself.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import observe
from repro.verify import sanitizer


@dataclass(frozen=True)
class MachineConfig:
    """Calibration constants of the simulated GPU.

    The defaults model an RTX-3090-class device against one Xeon core,
    expressed in seconds per abstract work unit (a work unit is roughly
    one node visit / hash probe / truth-table word operation).
    """

    #: Saturated device throughput, work units per second.
    gpu_throughput: float = 6.0e9
    #: Per-work-unit latency of a single GPU thread (critical path).
    t_gpu_thread_op: float = 2.0e-8
    #: Fixed overhead per kernel launch, seconds.
    t_launch: float = 6.0e-6
    #: Per-work-unit cost of sequential host/CPU code, seconds.
    t_cpu_op: float = 5.0e-8


@dataclass
class KernelRecord:
    """Trace entry of one parallel kernel launch."""

    name: str
    tag: str
    batch: int
    total_work: int
    max_work: int

    def time(self, config: MachineConfig) -> float:
        if self.batch == 0:
            return 0.0
        throughput_bound = self.total_work / config.gpu_throughput
        latency_bound = self.max_work * config.t_gpu_thread_op
        return config.t_launch + max(throughput_bound, latency_bound)


@dataclass
class HostRecord:
    """Trace entry of a sequential host-side section."""

    name: str
    tag: str
    work: int

    def time(self, config: MachineConfig) -> float:
        return self.work * config.t_cpu_op


@dataclass
class ParallelMachine:
    """Kernel-trace recorder and modeled-time evaluator."""

    config: MachineConfig = field(default_factory=MachineConfig)
    records: list[KernelRecord | HostRecord] = field(default_factory=list)
    _tag: str = ""

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def set_tag(self, tag: str) -> None:
        """Label subsequent records (e.g. the running command: "b", "rf")."""
        self._tag = tag

    @property
    def tag(self) -> str:
        """The label currently applied to new records."""
        return self._tag

    def kernel(
        self,
        name: str,
        items: Sequence[Any] | Iterable[Any],
        fn: Callable[[Any], tuple[Any, int]],
    ) -> list[Any]:
        """Run ``fn`` over every item as one parallel kernel.

        ``fn`` returns ``(result, work_units)`` per item.  Items are
        processed in deterministic order (the paper notes CUDA's
        scheduling non-determinism perturbs areas by <0.001%; the
        simulation is exactly reproducible instead).  Returns the
        results in order.
        """
        wall_start = time.perf_counter() if observe.enabled else 0.0
        results = []
        total = 0
        peak = 0
        count = 0
        for item in items:
            result, work = fn(item)
            results.append(result)
            total += work
            if work > peak:
                peak = work
            count += 1
        record = KernelRecord(name, self._tag, count, total, peak)
        self.records.append(record)
        if observe.enabled:
            observe.machine_kernel(record, self.config, wall_start)
        if sanitizer.enabled:
            sanitizer.current().on_launch(name, count, total)
        return results

    def launch(self, name: str, works: Sequence[int]) -> None:
        """Record a kernel launch from a precomputed work profile."""
        total = 0
        peak = 0
        for work in works:
            total += work
            if work > peak:
                peak = work
        record = KernelRecord(name, self._tag, len(works), total, peak)
        self.records.append(record)
        if observe.enabled:
            observe.machine_kernel(record, self.config)
        if sanitizer.enabled:
            sanitizer.current().on_launch(name, len(works), total)

    def launch_batch(self, name: str, works) -> None:
        """:meth:`launch` accepting an array work profile.

        NumPy arrays are reduced with whole-array operations — the fast
        path for profiles produced by the batch kernels (see
        :func:`repro.parallel.backend.const_profile`); any other
        sequence takes the scalar :meth:`launch` loop.  The recorded
        :class:`KernelRecord` is identical either way.
        """
        if isinstance(works, np.ndarray):
            count = int(works.shape[0])
            total = int(works.sum()) if count else 0
            peak = int(works.max()) if count else 0
            record = KernelRecord(name, self._tag, count, total, peak)
            self.records.append(record)
            if observe.enabled:
                observe.machine_kernel(record, self.config)
            if sanitizer.enabled:
                sanitizer.current().on_launch(name, count, total)
            return
        self.launch(name, works)

    def host(self, name: str, work: int) -> None:
        """Record sequential host-side work (the "sequential part")."""
        record = HostRecord(name, self._tag, work)
        self.records.append(record)
        if observe.enabled:
            observe.machine_host(record, self.config)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def gpu_time(self) -> float:
        """Modeled time spent in parallel kernels."""
        return sum(
            record.time(self.config)
            for record in self.records
            if isinstance(record, KernelRecord)
        )

    def host_time(self) -> float:
        """Modeled time spent in sequential host code."""
        return sum(
            record.time(self.config)
            for record in self.records
            if isinstance(record, HostRecord)
        )

    def total_time(self) -> float:
        """Modeled end-to-end time of everything recorded so far."""
        return self.gpu_time() + self.host_time()

    def breakdown_by_tag(self) -> dict[str, dict[str, float]]:
        """Per-tag modeled times: ``{tag: {"gpu": s, "host": s}}``."""
        out: dict[str, dict[str, float]] = {}
        for record in self.records:
            entry = out.setdefault(record.tag, {"gpu": 0.0, "host": 0.0})
            key = "gpu" if isinstance(record, KernelRecord) else "host"
            entry[key] += record.time(self.config)
        return out

    def num_launches(self) -> int:
        """Number of kernel launches recorded so far."""
        return sum(
            1 for record in self.records if isinstance(record, KernelRecord)
        )

    def reset(self) -> None:
        """Drop the recorded trace."""
        self.records.clear()

    def summary(self) -> dict[str, float]:
        """Headline totals of the trace."""
        return {
            "gpu_time": self.gpu_time(),
            "host_time": self.host_time(),
            "total_time": self.total_time(),
            "launches": float(self.num_launches()),
        }


@dataclass
class SeqMeter:
    """Work meter for the sequential (ABC-style) baselines.

    Charges the same ``t_cpu_op`` as the machine's host sections, so a
    parallel algorithm and its baseline are compared in identical work
    units — the acceleration ratios of Tables II/III come from this.
    """

    config: MachineConfig = field(default_factory=MachineConfig)
    work: int = 0
    sections: dict[str, int] = field(default_factory=dict)

    def add(self, work: int, section: str = "main") -> None:
        """Accumulate work units under a section label."""
        self.work += work
        self.sections[section] = self.sections.get(section, 0) + work

    def time(self) -> float:
        """Modeled sequential seconds for the accumulated work."""
        return self.work * self.config.t_cpu_op

    def reset(self) -> None:
        """Zero the meter."""
        self.work = 0
        self.sections.clear()

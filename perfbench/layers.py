"""Per-layer metrics of the traced run.

Span times come from the existing :mod:`repro.observe` spans: a
``stage.<name>_s`` or ``pass.<cmd>.self_s`` value is the span's
duration minus its direct child pass and stage spans, summed over every
occurrence.  Counters come from the observe registry and are exact.
Like every time the benchmark reports, these are scaled to reference
seconds by ``run.py``.

A few layer entry points have no span of their own.  The traced run
times them by wrapping them from this file (:class:`LayerTimers`),
never by editing the program.
"""

from __future__ import annotations

import importlib
import sys
import time

COMMANDS = ("b", "rw", "rwz", "rf", "rfz", "rfc")
STAGES = (
    "b.collapse",
    "b.reconstruct",
    "rw.match",
    "rw.replace",
    "rf.collapse",
    "rf.resynthesize",
    "rf.refine",
    "rf.replace",
    "rfc.collect",
    "rfc.resynthesize",
    "rfc.resolve",
    "rfc.replace",
    "dedup",
)
COUNTERS = (
    "engine.cache_hits",
    "engine.cache_misses",
    "engine.cache_extends",
    "b.clusters_collapsed",
    "b.insertion_passes",
    "kernels.b_singleton_clusters",
    "rw.candidates",
    "rw.replaced",
    "rf.cones_collapsed",
    "rf.cones_replaced",
    "rf.rounds",
    "rfc.cones_admitted",
    "rfc.retry_cones",
    "rfc.serial_commits",
    "rfc.rounds",
    "commit.plans",
    "commit.bulk_nodes",
    "commit.serial_replays",
    "commit.conflicts",
    "dedup.duplicates",
    "dedup.dangling_removed",
    "machine.launches",
    "machine.kernel_work",
    "machine.host_work",
    "hashtable.probes",
)
#: Wrapped entry points (see :class:`LayerTimers`).
WRAPPED = (
    "cuts.enumerate_s",
    "commit.resolve_s",
    "commit.wave_s",
    "machine.account_s",
)
#: name -> (numerator counter, denominator counters)
RATIOS = {
    "engine.cache_hit_ratio": (
        "engine.cache_hits",
        ("engine.cache_hits", "engine.cache_misses", "engine.cache_extends"),
    ),
    "rw.replace_ratio": ("rw.replaced", ("rw.candidates",)),
    "rf.replace_ratio": ("rf.cones_replaced", ("rf.cones_collapsed",)),
    "rfc.retry_yield": ("rfc.serial_commits", ("rfc.retry_cones",)),
    "commit.bulk_share": (
        "commit.bulk_nodes",
        ("commit.bulk_nodes", "commit.serial_replays"),
    ),
}

#: Counts whose growth is the useful outcome, not extra work.
USEFUL_COUNTS = (
    "engine.cache_hits",
    "rw.replaced",
    "rf.cones_replaced",
    "rfc.serial_commits",
    "commit.bulk_nodes",
    "dedup.duplicates",
    "dedup.dangling_removed",
)

#: Every per-layer metric: name -> (unit, better).
PER_LAYER: dict[str, tuple[str, str]] = {
    "io.read_s": ("s", "lower"),
    "io.read_ands_per_s": ("ANDs/s", "higher"),
    "aig.read_peak_rss_mb": ("MiB", "lower"),
    **{
        name: ("s", "lower")
        for command in COMMANDS
        for name in (f"pass.{command}_s", f"pass.{command}.self_s")
    },
    **{f"stage.{stage}_s": ("s", "lower") for stage in STAGES},
    **{name: ("s", "lower") for name in WRAPPED},
    **{
        name: ("count", "higher" if name in USEFUL_COUNTS else "lower")
        for name in COUNTERS
    },
    **{name: ("ratio", "higher") for name in RATIOS},
    "npn.cache_hit_ratio": ("ratio", "higher"),
    "observe.overhead": ("ratio", "lower"),
}


def self_times(tracer) -> dict[str, float]:
    """``pass.*`` and ``stage.*`` wall times from one trace."""
    out = {
        name: 0.0
        for name, (unit, _) in PER_LAYER.items()
        if unit == "s" and name.startswith(("pass.", "stage."))
    }
    for span in tracer.spans():
        if span.kind not in ("pass", "stage"):
            continue
        nested = sum(
            child.wall_time
            for child in span.children
            if child.kind in ("pass", "stage")
        )
        own = span.wall_time - nested
        if span.kind == "pass" and span.name in COMMANDS:
            out[f"pass.{span.name}_s"] += span.wall_time
            out[f"pass.{span.name}.self_s"] += own
        elif span.kind == "stage" and span.name in STAGES:
            out[f"stage.{span.name}_s"] += own
    return out


def counter_values(counters: dict[str, int]) -> dict[str, float]:
    """The exact counters and the ratios derived from them."""
    out: dict[str, float] = {
        name: counters.get(name, 0) for name in COUNTERS
    }
    for name, (numerator, denominator) in RATIOS.items():
        total = sum(counters.get(part, 0) for part in denominator)
        out[name] = counters.get(numerator, 0) / total if total else 0.0
    return out


class LayerTimers:
    """Wall time of layer entry points that have no span.

    :meth:`install` replaces the entry points with timing wrappers and
    :meth:`remove` restores the originals.  A call nested in another
    call to the same metric is not counted twice.
    ``machine.account_s`` is the machine model's own bookkeeping: the
    whole of ``launch``, ``launch_batch`` and ``host``, and ``kernel``
    minus the time spent inside the pass's per-item function (so the
    kernel's item loop and record keeping count, the work it runs does
    not).
    """

    def __init__(self) -> None:
        self.seconds = {name: 0.0 for name in WRAPPED}
        self._depth = {name: 0 for name in WRAPPED}
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, owner, attr: str, metric: str, adapt=None) -> None:
        original = getattr(owner, attr)
        seconds, depth = self.seconds, self._depth

        def wrapper(*args, **kwargs):
            if depth[metric]:
                return original(*args, **kwargs)
            if adapt is not None:
                args, excluded = adapt(args)
            depth[metric] = 1
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                depth[metric] = 0
                if adapt is not None:
                    elapsed -= excluded[0]
                seconds[metric] += elapsed

        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _exclude_item_fn(self, args):
        """Time ``kernel``'s per-item function outside the metric."""
        machine, name, items, fn = args
        depth = self._depth
        excluded = [0.0]

        def item_fn(item):
            depth["machine.account_s"] = 0
            start = time.perf_counter()
            try:
                return fn(item)
            finally:
                excluded[0] += time.perf_counter() - start
                depth["machine.account_s"] = 1

        return (machine, name, items, item_fn), excluded

    def install(self) -> None:
        from repro.commit.engine import CommitEngine
        from repro.engine import list_passes
        from repro.parallel.machine import ParallelMachine

        # Passes bind the cut enumerator at import, so every module-level
        # binding is wrapped once the engine has loaded its passes.  (The
        # package re-exports a function named ``cuts``, hence importlib.)
        list_passes()
        attr = "enumerate_cuts_with_tables"
        original = getattr(importlib.import_module("repro.aig.cuts"), attr)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.startswith("repro") and (
                vars(module).get(attr) is original
            ):
                self._wrap(module, attr, "cuts.enumerate_s")
        self._wrap(CommitEngine, "resolve", "commit.resolve_s")
        self._wrap(CommitEngine, "commit_wave", "commit.wave_s")
        for attr in ("launch", "launch_batch", "host"):
            self._wrap(ParallelMachine, attr, "machine.account_s")
        self._wrap(ParallelMachine, "kernel", "machine.account_s",
                   self._exclude_item_fn)

    def remove(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

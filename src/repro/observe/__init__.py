"""``repro.observe`` — structured observability for optimization runs.

The package provides three layers (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.observe.spans` — hierarchical spans (sequence → pass →
  stage → kernel/host) carrying wall-clock and machine-model time;
* :mod:`repro.observe.metrics` — a process-wide counter/gauge registry
  (hash-table probes, resize events, cones collapsed, ...);
* :mod:`repro.observe.export` — JSON + Chrome ``chrome://tracing``
  exporters and the per-pass breakdown table.

This module is the **switchboard**: instrumentation call sites all over
the codebase route through the functions below, which are no-ops until
:func:`enable` is called.  The disabled path is engineered to be
effectively free — a module-attribute truthiness check (``observe.enabled``)
in hot loops, and a shared do-nothing context manager from
:func:`span` — so tier-1 tests and un-traced runs pay <2% overhead.

Typical use::

    from repro import observe

    tracer = observe.enable()
    result = run_script(aig, "resyn2", engine="gpu")
    tracer, metrics = observe.disable()
    export.export_trace("out.json", tracer, metrics)

Instrumentation sites follow two idioms::

    with observe.span("rf.collapse", "stage"):   # cheap: null when off
        ...
    if observe.enabled:                          # hot loops guard first
        observe.count("hashtable.probes", probes)
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.observe.metrics import MetricsRegistry
from repro.observe.spans import Span, SpanHandle, Tracer

#: Fast global flag checked by hot-loop instrumentation sites.
enabled: bool = False

_tracer: Tracer | None = None
_metrics: MetricsRegistry | None = None


class _NullSpan:
    """Shared do-nothing stand-in for :class:`SpanHandle` when off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs: Any) -> None:
        return None


NULL_SPAN = _NullSpan()


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------


def enable(
    metrics: bool = True, clock: Callable[[], float] | None = None
) -> Tracer:
    """Start observing; returns the fresh :class:`Tracer`.

    ``metrics=False`` records spans only; ``clock`` injects a fake wall
    clock for deterministic tests.
    """
    global enabled, _tracer, _metrics
    _tracer = Tracer() if clock is None else Tracer(clock)
    _metrics = MetricsRegistry() if metrics else None
    enabled = True
    return _tracer


def disable() -> tuple[Tracer | None, MetricsRegistry | None]:
    """Stop observing; returns the collected (tracer, metrics)."""
    global enabled, _tracer, _metrics
    tracer, registry = _tracer, _metrics
    enabled = False
    _tracer = None
    _metrics = None
    if tracer is not None:
        tracer.finish()
    return tracer, registry


@contextmanager
def paused() -> Iterator[None]:
    """Suspend counting for process-wide work that no run owns.

    Inside the block ``enabled`` is False and counters are dropped, so
    a one-time build (the rewrite library) is not billed to whichever
    run happens to trigger it; spans keep recording.
    """
    global enabled, _metrics
    saved = enabled, _metrics
    enabled, _metrics = False, None
    try:
        yield
    finally:
        enabled, _metrics = saved


def tracer() -> Tracer | None:
    """The active tracer, or None when disabled."""
    return _tracer


def metrics() -> MetricsRegistry | None:
    """The active metrics registry, or None when disabled."""
    return _metrics


# ----------------------------------------------------------------------
# Recording (all no-ops when disabled)
# ----------------------------------------------------------------------


def span(
    name: str, kind: str = "stage", **attrs: Any
) -> SpanHandle | _NullSpan:
    """Open a span in the active trace (shared no-op when disabled)."""
    if _tracer is None:
        return NULL_SPAN
    return _tracer.span(name, kind, **attrs)


def event(
    name: str,
    kind: str = "event",
    modeled: float = 0.0,
    wall_start: float | None = None,
    **attrs: Any,
) -> Span | None:
    """Record a leaf event, advancing the modeled clock by ``modeled``."""
    if _tracer is None:
        return None
    return _tracer.event(
        name, kind, modeled=modeled, wall_start=wall_start, **attrs
    )


def count(name: str, value: int = 1) -> None:
    """Bump a process-wide counter (no-op when disabled)."""
    if _metrics is not None:
        _metrics.count(name, value)


def gauge(name: str, value: float) -> None:
    """Set a process-wide gauge (no-op when disabled)."""
    if _metrics is not None:
        _metrics.gauge(name, value)


def machine_kernel(record, config, wall_start: float | None = None) -> None:
    """Report one :class:`~repro.parallel.machine.KernelRecord`.

    Called by ``ParallelMachine.kernel``/``launch`` (guarded on
    :data:`enabled`); records a kernel leaf span with the record's
    modeled time and updates the launch/work counters.
    """
    if _tracer is not None:
        _tracer.event(
            record.name,
            "kernel",
            modeled=record.time(config),
            wall_start=wall_start,
            tag=record.tag,
            batch=record.batch,
            total_work=record.total_work,
            max_work=record.max_work,
        )
    if _metrics is not None:
        _metrics.count("machine.launches")
        _metrics.count("machine.kernel_work", record.total_work)


def machine_host(record, config) -> None:
    """Report one :class:`~repro.parallel.machine.HostRecord`."""
    if _tracer is not None:
        _tracer.event(
            record.name,
            "host",
            modeled=record.time(config),
            tag=record.tag,
            work=record.work,
        )
    if _metrics is not None:
        _metrics.count("machine.host_sections")
        _metrics.count("machine.host_work", record.work)


__all__ = [
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "SpanHandle",
    "Tracer",
    "count",
    "disable",
    "enable",
    "enabled",
    "event",
    "gauge",
    "machine_host",
    "machine_kernel",
    "metrics",
    "span",
    "tracer",
]

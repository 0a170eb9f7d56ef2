"""Script scheduler: runs parsed scripts through the command table.

The scheduler owns everything a script run shares across commands — the
timing sink (:class:`~repro.parallel.machine.ParallelMachine` or
:class:`~repro.parallel.machine.SeqMeter`), the observe spans, the
invariant auditing — and runs each command through
:func:`~repro.engine.registry.run_command`.  Each pass reads its derived
state through the AIG's attached
:class:`~repro.engine.context.GraphContext`, so consecutive commands in
a script reuse levels and fanouts instead of recomputing them.

Both engines share one command loop, whose shape the observable trace
depends on: one span per command, the sequential engine's metered host
event (``seq.{command}``), the GPU engine's machine tag set *before*
the command span opens, and per-step invariant audits following the
race sanitizer's switch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import observe
from repro.aig.aig import Aig
from repro.engine.registry import (
    DEFAULT_MAX_CUT_SIZE,
    parse_script,
    run_command,
)
from repro.logic.resyn import plan_resynthesis
from repro.parallel.machine import ParallelMachine, SeqMeter
from repro.verify import check_invariants, sanitizer

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Type-only: algorithms.common imports repro.engine at runtime.
    from repro.algorithms.common import PassResult


@dataclass
class SequenceResult:
    """Outcome of running a script on one AIG."""

    aig: Aig
    steps: list[tuple[str, PassResult]] = field(default_factory=list)
    machine: ParallelMachine | None = None
    meter: SeqMeter | None = None
    #: Wall-clock seconds per executed command, in script order.  Wall
    #: time only — the modeled clock lives in ``machine``/``meter``.
    walls: list[tuple[str, float]] = field(default_factory=list)

    @property
    def nodes(self) -> int:
        """Live AND count of the current result."""
        return self.aig.num_ands

    def modeled_time(self) -> float:
        """Modeled runtime: GPU total or metered sequential time."""
        if self.machine is not None:
            return self.machine.total_time()
        if self.meter is not None:
            return self.meter.time()
        raise ValueError("no timing source recorded")


def run_script(
    aig: Aig,
    script: str,
    engine: str = "seq",
    max_cut_size: int = DEFAULT_MAX_CUT_SIZE,
    machine: ParallelMachine | None = None,
    meter: SeqMeter | None = None,
    verify_invariants: bool | None = None,
) -> SequenceResult:
    """Run a script on ``aig`` with the chosen engine.

    ``verify_invariants`` audits every pass result with
    :func:`repro.verify.check_invariants` (acyclicity, level
    consistency, strashing canonicity, PO reachability); the default
    (None) follows whether the race sanitizer is enabled.

    The resynthesis plan cache (:func:`repro.logic.resyn.plan_resynthesis`)
    is empty when the run starts and is emptied again when it ends, so
    its hits, misses, evictions (``resyn.plan_hits`` /
    ``resyn.plan_misses`` / ``resyn.plan_evictions``) and memory belong
    to this run alone.
    """
    plan_resynthesis.cache_clear()
    try:
        return _run_commands(
            aig, script, engine, max_cut_size, machine, meter,
            verify_invariants,
        )
    finally:
        plans = plan_resynthesis.cache_info()
        if plans.hits:
            observe.count("resyn.plan_hits", plans.hits)
        if plans.misses:
            observe.count("resyn.plan_misses", plans.misses)
        # Every miss added a plan; those no longer held were evicted.
        if plans.misses > plans.currsize:
            observe.count(
                "resyn.plan_evictions", plans.misses - plans.currsize
            )
        plan_resynthesis.cache_clear()


def _run_commands(
    aig: Aig,
    script: str,
    engine: str,
    max_cut_size: int,
    machine: ParallelMachine | None,
    meter: SeqMeter | None,
    verify_invariants: bool | None,
) -> SequenceResult:
    """:func:`run_script` without the plan-cache bookkeeping."""
    commands = parse_script(script)
    check = (
        sanitizer.enabled if verify_invariants is None else verify_invariants
    )
    # Each engine keeps its own timing sink and ignores the other's.
    if engine == "gpu":
        machine = machine if machine is not None else ParallelMachine()
        meter = None
    elif engine == "seq":
        machine = None
        meter = meter if meter is not None else SeqMeter()
    else:
        raise ValueError(f"unknown engine {engine!r} (use 'seq' or 'gpu')")
    result = SequenceResult(aig, machine=machine, meter=meter)
    with observe.span(
        "run_sequence", "sequence", script=script, engine=engine
    ):
        for index, command in enumerate(commands):
            if machine is not None:
                machine.set_tag(command)
            with observe.span(
                command, "pass", engine=engine, index=index
            ) as pass_span:
                wall_start = time.perf_counter()
                if meter is not None:
                    metered_before = meter.time()
                steps = run_command(
                    command,
                    engine,
                    result.aig,
                    max_cut_size=max_cut_size,
                    machine=machine,
                    meter=meter,
                )
                if meter is not None:
                    # The sequential engine has no machine trace, so
                    # the pass's metered time advances the modeled
                    # clock through one explicit host event.
                    observe.event(
                        f"seq.{command}",
                        "host",
                        modeled=meter.time() - metered_before,
                    )
                for step in steps:
                    result.steps.append((command, step))
                    result.aig = step.aig
                    if check:
                        check_invariants(step.aig, require_reachable=True)
                _annotate_pass(pass_span, steps[0], steps[-1])
                result.walls.append(
                    (command, time.perf_counter() - wall_start)
                )
    if machine is not None:
        machine.set_tag("")
    return result


def _annotate_pass(pass_span, first: PassResult, last: PassResult) -> None:
    """Attach QoR before/after numbers to a pass span."""
    pass_span.annotate(
        nodes_before=first.nodes_before,
        nodes_after=last.nodes_after,
        levels_before=first.levels_before,
        levels_after=last.levels_after,
    )

"""Unified pass engine: command table, scheduler, and derived-state cache.

The engine is the single dispatch point for optimization passes:

* :mod:`repro.engine.registry` — the fixed command table
  (:func:`~repro.engine.registry.run_command`: what each script command
  runs on each engine), the named sequences, and the by-name lookup of
  the pass entry points every consumer (CLI, fuzz harness,
  experiments) resolves through.
* :mod:`repro.engine.scheduler` — runs parsed scripts over an AIG,
  tagging observe spans per command.
* :mod:`repro.engine.context` — :class:`~repro.engine.context.GraphContext`,
  the version-keyed cache of derived graph state (levels, fanout
  counts, depth) shared by consecutive passes.

See docs/ARCHITECTURE.md for the layer diagram.
"""

from repro.engine.context import (
    GraphContext,
    clone_with_context,
    context_for,
    resolved_fanout_counts,
    resolved_levels,
)
from repro.engine.registry import (
    COMMANDS,
    DEFAULT_MAX_CUT_SIZE,
    NAMED_SEQUENCES,
    VALID_COMMANDS,
    list_passes,
    parse_script,
    pass_fn,
    run_command,
)
from repro.engine.scheduler import SequenceResult, run_script

__all__ = [
    "GraphContext",
    "clone_with_context",
    "context_for",
    "resolved_fanout_counts",
    "resolved_levels",
    "COMMANDS",
    "DEFAULT_MAX_CUT_SIZE",
    "NAMED_SEQUENCES",
    "VALID_COMMANDS",
    "list_passes",
    "parse_script",
    "pass_fn",
    "run_command",
    "SequenceResult",
    "run_script",
]

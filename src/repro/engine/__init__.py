"""Unified pass engine: registry, scheduler, and derived-state cache.

The engine is the single dispatch point for optimization passes:

* :mod:`repro.engine.registry` — the :class:`~repro.engine.registry.Pass`
  protocol, the named pass registry, and the script-command bindings
  every consumer (CLI, fuzz harness, experiments) resolves through.
* :mod:`repro.engine.scheduler` — runs parsed scripts over an AIG,
  tagging observe spans per command.
* :mod:`repro.engine.context` — :class:`~repro.engine.context.GraphContext`,
  the version-keyed cache of derived graph state (levels, fanouts,
  depth) shared by consecutive passes.

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
    DEFAULT_MAX_CUT_SIZE,
    NAMED_SEQUENCES,
    VALID_COMMANDS,
    CommandSpec,
    Pass,
    PassInvocation,
    PassSpec,
    command_binder,
    command_names,
    list_commands,
    list_passes,
    parse_script,
    pass_fn,
    register_command,
    register_pass,
    unregister_command,
    unregister_pass,
)
from repro.engine.scheduler import SequenceResult, run_script

__all__ = [
    "GraphContext",
    "clone_with_context",
    "context_for",
    "resolved_fanout_counts",
    "resolved_levels",
    "DEFAULT_MAX_CUT_SIZE",
    "NAMED_SEQUENCES",
    "VALID_COMMANDS",
    "CommandSpec",
    "Pass",
    "PassInvocation",
    "PassSpec",
    "command_binder",
    "command_names",
    "list_commands",
    "list_passes",
    "parse_script",
    "pass_fn",
    "register_command",
    "register_pass",
    "unregister_command",
    "unregister_pass",
    "SequenceResult",
    "run_script",
]

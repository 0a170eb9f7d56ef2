"""Pass registry: one registration point for every optimization pass.

Before the engine existed, every consumer — the sequence runner, the
CLI, the fuzz harness, the experiment drivers — imported pass functions
directly, so adding or swapping a pass meant touching all of them.  Now
each pass module registers itself here:

* :func:`register_pass` names a pass entry point (``par_balance``,
  ``seq_rewrite``, ``dedup`` ...) with its engine and a one-line
  description; consumers fetch it by name through :func:`pass_fn`.
* :func:`register_command` binds a script command (``b``, ``rw``,
  ``rwz``, ...) on one engine to a *binder* — a callable receiving a
  :class:`PassInvocation` and returning the list of
  :class:`~repro.algorithms.common.PassResult` steps the command
  produces.  The binder owns the command's semantics (GPU ``rwz`` runs
  two rewriting passes, GPU ``rf`` == ``rfz``, ...), exactly as the
  paper specifies them.

Registration is triggered lazily: the first lookup imports the builtin
pass modules (:func:`_ensure_builtin`), whose module-level decorators
populate the tables.  This breaks the import cycle — the engine never
imports algorithm modules at import time — and keeps plugin passes
first-class: registering a new pass + command from any module makes it
reachable from ``repro-aig opt`` with no other change (see
docs/ARCHITECTURE.md and the plugin test in ``tests/test_engine.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.aig.aig import Aig
    from repro.algorithms.common import PassResult
    from repro.parallel.machine import ParallelMachine, SeqMeter

#: The paper's named optimization scripts.
NAMED_SEQUENCES = {
    "resyn": "b; rw; rwz; b; rwz; b",
    "resyn2": "b; rw; rf; b; rw; rwz; b; rfz; rwz; b",
    "rf_resyn": "b; rf; rfz; b; rfz; b",
    "rfc_resyn": "b; rfc; b; rfc; b",
}

#: The builtin script commands.  ``rfc`` (conflict-breaking
#: refactoring) is this library's extension; the other five commands
#: are the paper's.  Plugins may extend the live set (see
#: :func:`command_names`).
VALID_COMMANDS = ("b", "rw", "rwz", "rf", "rfz", "rfc")

#: Default maximum refactoring cut size (the paper's setting).
DEFAULT_MAX_CUT_SIZE = 12


@dataclass
class PassInvocation:
    """Everything a command binder may need to run its pass(es).

    The scheduler fills in the engine-appropriate timing sink: GPU
    binders receive ``machine``, sequential binders ``meter``.
    """

    aig: "Aig"
    max_cut_size: int = DEFAULT_MAX_CUT_SIZE
    machine: "ParallelMachine | None" = None
    meter: "SeqMeter | None" = None


class Pass(Protocol):
    """A registered pass entry point.

    Any callable taking an AIG first and returning a
    :class:`~repro.algorithms.common.PassResult` qualifies; the keyword
    surface varies per pass (``machine=``, ``meter=``,
    ``max_cut_size=``, ...), which is why script commands go through
    binders rather than a uniform call.
    """

    def __call__(self, aig: "Aig", *args, **kwargs) -> "PassResult":
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class PassSpec:
    """Registry record of one pass entry point."""

    name: str
    fn: Callable
    engine: str  # "seq" | "gpu" | "any"
    description: str


@dataclass(frozen=True)
class CommandSpec:
    """Registry record of one (command, engine) binding."""

    command: str
    engine: str  # "seq" | "gpu"
    binder: Callable  # PassInvocation -> list[PassResult]
    description: str


_PASSES: dict[str, PassSpec] = {}
_COMMANDS: dict[tuple[str, str], CommandSpec] = {}
_builtin_loaded = False


def register_pass(
    name: str, engine: str = "any", description: str = ""
) -> Callable:
    """Decorator registering a pass entry point under ``name``."""

    def decorator(fn: Callable) -> Callable:
        _PASSES[name] = PassSpec(name, fn, engine, description)
        return fn

    return decorator


def register_command(
    command: str, engine: str, description: str = ""
) -> Callable:
    """Decorator binding script ``command`` on ``engine`` to a binder."""

    def decorator(binder: Callable) -> Callable:
        _COMMANDS[(engine, command)] = CommandSpec(
            command, engine, binder, description
        )
        return binder

    return decorator


def unregister_command(command: str, engine: str) -> None:
    """Remove a command binding (plugin teardown; builtin-safe no-op)."""
    _COMMANDS.pop((engine, command), None)


def unregister_pass(name: str) -> None:
    """Remove a registered pass (plugin teardown)."""
    _PASSES.pop(name, None)


def _ensure_builtin() -> None:
    """Import the builtin pass modules once, populating the registry."""
    global _builtin_loaded
    if _builtin_loaded:
        return
    _builtin_loaded = True
    # Module-level decorators in each file do the actual registration.
    import repro.algorithms.dedup  # noqa: F401
    import repro.algorithms.par_balance  # noqa: F401
    import repro.algorithms.par_refactor  # noqa: F401
    import repro.algorithms.par_refactor_cb  # noqa: F401
    import repro.algorithms.par_rewrite  # noqa: F401
    import repro.algorithms.seq_balance  # noqa: F401
    import repro.algorithms.seq_refactor  # noqa: F401
    import repro.algorithms.seq_rewrite  # noqa: F401


def pass_fn(name: str) -> Callable:
    """The registered pass entry point named ``name``."""
    _ensure_builtin()
    spec = _PASSES.get(name)
    if spec is None:
        known = ", ".join(sorted(_PASSES))
        raise KeyError(f"unknown pass {name!r}; registered: {known}")
    return spec.fn


def list_passes() -> list[PassSpec]:
    """All registered passes, builtin registration order first."""
    _ensure_builtin()
    return list(_PASSES.values())


def list_commands() -> list[CommandSpec]:
    """All registered (command, engine) bindings."""
    _ensure_builtin()
    return list(_COMMANDS.values())


def command_names() -> tuple[str, ...]:
    """Valid script commands: builtins first, then plugin commands."""
    _ensure_builtin()
    names = list(VALID_COMMANDS)
    for spec in _COMMANDS.values():
        if spec.command not in names:
            names.append(spec.command)
    return tuple(names)


def command_binder(command: str, engine: str) -> Callable:
    """The binder for ``command`` on ``engine``; raises ValueError."""
    _ensure_builtin()
    spec = _COMMANDS.get((engine, command))
    if spec is None:
        raise ValueError(
            f"command {command!r} is not bound on engine {engine!r}"
        )
    return spec.binder


def parse_script(script: str) -> list[str]:
    """Split a script into commands, resolving named sequences.

    Unknown commands raise ``ValueError`` naming the command and the
    valid set (builtins plus any registered plugin commands).
    """
    valid = command_names()
    script = NAMED_SEQUENCES.get(script.strip(), script)
    commands = [token.strip() for token in script.split(";") if token.strip()]
    for command in commands:
        if command not in valid:
            raise ValueError(
                f"unknown command {command!r}; valid: {valid}"
            )
    return commands

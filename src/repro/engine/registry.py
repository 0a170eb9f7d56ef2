"""Command table: the fixed script commands and the passes they run.

A script (``"b; rw; rf"``, or a named sequence such as ``resyn2``) is a
list of commands from :data:`VALID_COMMANDS`.  :func:`run_command` is
the one table of what each command means on each engine, all twelve
(command, engine) rows side by side, exactly as the paper specifies
them (GPU ``rwz`` runs two rewriting passes, GPU ``rf`` == ``rfz``,
...).  :func:`pass_fn` looks up the eight pass entry points by name
for callers that run a single pass (experiment drivers, benchmarks).

The pass modules import :mod:`repro.engine.context`, so this module
imports them on first use rather than at load time
(:func:`_pass_functions`).  :func:`list_passes` imports all eight;
a timed harness calls it to load every pass before its clocks start.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple

from repro.aig.cuts import DEFAULT_CUT_SIZE

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

#: The script commands.  ``rfc`` (conflict-breaking refactoring) is
#: this library's extension; the other five commands are the paper's.
VALID_COMMANDS = ("b", "rw", "rwz", "rf", "rfz", "rfc")

#: Default maximum refactoring cut size (the paper's setting).
DEFAULT_MAX_CUT_SIZE = DEFAULT_CUT_SIZE


class PassRow(NamedTuple):
    """One pass entry point, as ``repro-aig opt --list-passes`` shows it."""

    name: str
    engine: str  # "seq" | "gpu"
    description: str


class CommandRow(NamedTuple):
    """One (command, engine) row of :func:`run_command`, for the listing."""

    command: str
    engine: str  # "seq" | "gpu"
    description: str


#: The pass entry points :func:`pass_fn` resolves.
PASSES = (
    PassRow("dedup", "gpu", "de-duplication and dangling-node cleanup"),
    PassRow("par_balance", "gpu", "level-wise parallel balancing"),
    PassRow("par_refactor", "gpu", "disjoint-FFC parallel refactoring"),
    PassRow(
        "par_refactor_cb", "gpu", "conflict-breaking parallel refactoring"
    ),
    PassRow("par_rewrite", "gpu", "NovelRewrite-style parallel rewriting"),
    PassRow("seq_balance", "seq", "AND-balancing"),
    PassRow("seq_refactor", "seq", "cut-based refactoring"),
    PassRow("seq_rewrite", "seq", "DAG-aware cut rewriting"),
)

#: The rows of :func:`run_command`, sorted by command then engine.
COMMANDS = (
    CommandRow("b", "gpu", "level-wise parallel balancing"),
    CommandRow("b", "seq", "AND-balancing"),
    CommandRow("rf", "gpu", "parallel refactoring (zero gain built in)"),
    CommandRow("rf", "seq", "refactoring (positive gain)"),
    CommandRow(
        "rfc", "gpu", "conflict-breaking refactoring (zero gain built in)"
    ),
    CommandRow("rfc", "seq", "refactoring, conflict-free twin (zero gain)"),
    CommandRow("rfz", "gpu", "parallel refactoring (zero gain built in)"),
    CommandRow("rfz", "seq", "refactoring (zero gain)"),
    CommandRow("rw", "gpu", "parallel rewriting"),
    CommandRow("rw", "seq", "rewriting (positive gain)"),
    CommandRow("rwz", "gpu", "parallel rewriting x2"),
    CommandRow("rwz", "seq", "rewriting (zero gain)"),
)


def _pass_functions() -> dict[str, Callable]:
    """The entry point of every row of :data:`PASSES`, by name."""
    from repro.algorithms.dedup import dedup_and_dangling
    from repro.algorithms.par_balance import par_balance
    from repro.algorithms.par_refactor import par_refactor
    from repro.algorithms.par_refactor_cb import par_refactor_cb
    from repro.algorithms.par_rewrite import par_rewrite
    from repro.algorithms.seq_balance import seq_balance
    from repro.algorithms.seq_refactor import seq_refactor
    from repro.algorithms.seq_rewrite import seq_rewrite

    return {
        "dedup": dedup_and_dangling,
        "par_balance": par_balance,
        "par_refactor": par_refactor,
        "par_refactor_cb": par_refactor_cb,
        "par_rewrite": par_rewrite,
        "seq_balance": seq_balance,
        "seq_refactor": seq_refactor,
        "seq_rewrite": seq_rewrite,
    }


def pass_fn(name: str) -> Callable:
    """The pass entry point named ``name``; raises KeyError."""
    functions = _pass_functions()
    if name not in functions:
        known = ", ".join(sorted(functions))
        raise KeyError(f"unknown pass {name!r}; known: {known}")
    return functions[name]


def list_passes() -> tuple[PassRow, ...]:
    """Every pass entry point; imports all eight pass modules."""
    _pass_functions()
    return PASSES


def run_command(
    command: str,
    engine: str,
    aig: "Aig",
    max_cut_size: int = DEFAULT_MAX_CUT_SIZE,
    machine: "ParallelMachine | None" = None,
    meter: "SeqMeter | None" = None,
) -> "list[PassResult]":
    """Run script ``command`` on ``engine``; return its pass results.

    GPU passes charge ``machine`` and sequential passes ``meter``.
    Raises ValueError for a (command, engine) pair outside the table.
    """
    fn = _pass_functions()
    if engine == "gpu":
        if command == "b":
            return [fn["par_balance"](aig, machine=machine)]
        if command == "rw":
            return [fn["par_rewrite"](aig, zero_gain=False, machine=machine)]
        if command == "rwz":
            # Two passes per rwz command (paper: "GPU resyn2 (rwz x2)").
            first = fn["par_rewrite"](aig, zero_gain=True, machine=machine)
            second = fn["par_rewrite"](
                first.aig, zero_gain=True, machine=machine
            )
            return [first, second]
        if command in ("rf", "rfz"):
            # GPU refactoring's gain is a lower bound, so zero-gain
            # replacements are always accepted: rf == rfz, one pass each.
            return [
                fn["par_refactor"](
                    aig, max_cut_size=max_cut_size, machine=machine
                )
            ]
        if command == "rfc":
            return [
                fn["par_refactor_cb"](
                    aig, max_cut_size=max_cut_size, machine=machine
                )
            ]
    elif engine == "seq":
        if command == "b":
            return [fn["seq_balance"](aig, meter=meter)]
        if command in ("rw", "rwz"):
            return [
                fn["seq_rewrite"](
                    aig, zero_gain=command == "rwz", meter=meter
                )
            ]
        if command in ("rf", "rfz", "rfc"):
            # The sequential engine serializes *every* commit -- it
            # breaks every conflict -- so rfc's twin is zero-gain
            # sequential refactoring over the same unrestricted
            # reconvergence cuts.
            return [
                fn["seq_refactor"](
                    aig,
                    max_cut_size=max_cut_size,
                    zero_gain=command != "rf",
                    meter=meter,
                )
            ]
    raise ValueError(
        f"command {command!r} is not defined on engine {engine!r}"
    )


def parse_script(script: str) -> list[str]:
    """Split a script into commands, resolving named sequences.

    Unknown commands raise ``ValueError`` naming the command and the
    valid set.
    """
    script = NAMED_SEQUENCES.get(script.strip(), script)
    commands = [token.strip() for token in script.split(";") if token.strip()]
    for command in commands:
        if command not in VALID_COMMANDS:
            raise ValueError(
                f"unknown command {command!r}; valid: {VALID_COMMANDS}"
            )
    return commands

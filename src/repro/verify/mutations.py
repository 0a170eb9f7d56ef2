"""Test-only fault-injection hooks for the verification harness.

A *mutation* is a deliberate bug seeded into one of the parallel
passes, used to prove the sanitizer / invariant / CEC stack actually
catches the failure modes it claims to (mutation self-testing —
``tests/test_sanitizer_mutations.py``).  Each site in the pass code is
guarded by::

    if mutations.armed and mutations.active("rf-flip-root"):
        ...  # inject the bug

so the disarmed cost is one module-attribute check per pass, and at
most one mutation is armed at a time.

The registry below names every site, where it lives and which layer of
the harness is expected to detect it.  Arming an unknown name raises.
"""

from __future__ import annotations

__all__ = ["MUTATIONS", "active", "arm", "armed", "current", "disarm"]

#: name -> (detector, description).  ``detector`` is the harness layer
#: expected to flag the bug: "sanitizer", "invariant" or "cec".
MUTATIONS: dict[str, tuple[str, str]] = {
    "rf-overlap-cones": (
        "sanitizer",
        "refactoring collapse grafts an already-claimed node into a "
        "second cone (violates Theorem 1 disjointness)",
    ),
    "rf-flip-root": (
        "cec",
        "refactoring replacement redirects old roots with the "
        "complement bit flipped",
    ),
    "rfc-drop-conflict": (
        "sanitizer",
        "conflict-breaking resolver ignores every conflict edge, so "
        "two conflicting commits land in the same parallel wave",
    ),
    "rfc-stale-fanin": (
        "cec",
        "conflict-breaking commit writes a stale (complemented) fanin "
        "literal into the first inserted template node",
    ),
    "b-flip-input": (
        "cec",
        "balance reconstruction complements one cluster operand",
    ),
    "b-overlap-clusters": (
        "sanitizer",
        "balance collapse grafts the first cluster's root into every "
        "later cluster's member list (clusters must partition the ANDs)",
    ),
    "rw-flip-root": (
        "cec",
        "rewriting commit aliases the old root to the complemented "
        "new root",
    ),
    "dedup-stale-level": (
        "sanitizer",
        "dedup levelization copies a fanin's level, so a node and its "
        "fanin land in the same concurrent batch",
    ),
    "dedup-skip-merge": (
        "invariant",
        "dedup drops the loser->winner redirection, leaving live "
        "structural duplicates",
    ),
    "dedup-free-live": (
        "invariant",
        "dangling removal retires a node that still has live fanout",
    ),
    "commit-cross-write": (
        "sanitizer",
        "commit engine registers the first plan's write footprint "
        "under the second plan's sanitizer lane, so two lanes claim "
        "the same deleted nodes",
    ),
    "commit-replay-flip-root": (
        "cec",
        "scalar replay commit aliases the old root to the "
        "complemented new root literal",
    ),
}

#: Fast flag: pass code checks this before the string compare.
armed: bool = False

_armed_name: str | None = None


def arm(name: str) -> None:
    """Arm one mutation site (test use only)."""
    global armed, _armed_name
    if name not in MUTATIONS:
        raise ValueError(
            f"unknown mutation {name!r}; known: {sorted(MUTATIONS)}"
        )
    _armed_name = name
    armed = True


def disarm() -> None:
    """Disarm whatever is armed."""
    global armed, _armed_name
    _armed_name = None
    armed = False


def active(site: str) -> bool:
    """Is the mutation ``site`` armed right now?"""
    return armed and _armed_name == site


def current() -> str | None:
    """Name of the armed mutation, or None."""
    return _armed_name

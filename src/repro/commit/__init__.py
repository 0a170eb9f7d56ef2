"""Transactional commit layer: declarative plans, one commit engine.

Passes describe graph changes as :class:`RewritePlan`\\ s (with typed
:class:`Footprint` write/read declarations) and hand them to the
:class:`CommitEngine`, which resolves conflicts, registers sanitizer
footprints, and applies the wave through the batched survivor-table
protocol — bulk column-native allocation when available, bit-identical
scalar replay otherwise.  The scalar side (:func:`apply_replacement`
plus the ``deref_cone`` / ``ref_cone_back`` reference-count
transaction, and ``walk_cone`` / ``deref_walked`` for sequential
rewriting's one-walk evaluation) is the same discipline one
replacement at a time, shared by the sequential passes and the serial
lanes; :func:`replay_rewrites` runs parallel rewriting's whole replay
as one fused loop of that discipline.

Counters: ``commit.plans``, ``commit.bulk_nodes``,
``commit.serial_replays``, ``commit.conflicts`` — excluded from
gate/kernel parity like ``kernels.*``.
"""

from repro.commit.engine import (
    CommitEngine,
    InsertionSession,
    insert_cone_templates,
    seed_survivor_table,
)
from repro.commit.plan import Footprint, RewritePlan
from repro.commit.replay import (
    apply_replacement,
    deref_cone,
    deref_walked,
    ref_cone_back,
    replay_rewrites,
    retire_unreachable,
    walk_cone,
)

__all__ = [
    "CommitEngine",
    "Footprint",
    "InsertionSession",
    "RewritePlan",
    "apply_replacement",
    "deref_cone",
    "deref_walked",
    "insert_cone_templates",
    "ref_cone_back",
    "replay_rewrites",
    "retire_unreachable",
    "seed_survivor_table",
    "walk_cone",
]

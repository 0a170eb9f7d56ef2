"""The And-Inverter Graph data structure (flat array core).

The AIG is stored struct-of-arrays style, mirroring the flat GPU layout
the paper uses: two parallel fanin columns indexed by variable id, a
dead-flag column and PI/PO columns.  Variable 0 is the constant-false
node; ids are assigned in creation order, and because an AND node can
only reference already-existing variables, **id order is always a valid
topological order** — every traversal in the library relies on this.

The columns (:class:`repro.aig.store.Column`) are preallocated
``int64``/``bool`` buffers that grow in place geometrically.  Scalar
access — the facade methods below and the ``_fanin0`` / ``_fanin1`` /
``_pos`` properties — goes through
``memoryview`` twins that index at list speed and return plain Python
ints, while :meth:`Aig.arrays` hands out zero-copy NumPy
views of the very same buffers.  Structural hashing uses the flat
open-addressing :class:`repro.aig.store.FlatStrash`.

Nodes are append-only.  Optimization passes that delete logic mark
variables *dead* — the dead column is the one record of kills — and
finish with :meth:`Aig.compact`, which rebuilds the graph following the
POs (optionally through a literal redirection map, which is how cone
replacement is expressed).  :meth:`Aig.post_order` is the one
post-order walk of that (alias-resolved) graph: compaction numbers its
output by it, and dedup levelizes over it
(:func:`repro.engine.context.resolved_levels`).
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator

import numpy as np

from repro import observe
from repro.aig.literals import (
    CONST0,
    lit_pair_key,
    lit_var,
    make_lit,
)
from repro.aig.store import Column, FlatStrash

#: Sentinel fanin value marking a primary-input row.
PI_FANIN = -1

#: Sentinel fanin value marking the constant node row.
CONST_FANIN = -2


def resolve_aliases(alias: dict[int, int], num_vars: int) -> np.ndarray:
    """Per-variable resolved literal of an alias map, as an int64 array.

    ``alias`` redirects a variable to a replacement literal; chains
    compose complement flags.  Entry ``v`` of the result is the literal
    variable ``v`` finally resolves to (``2 * v`` when unaliased), so a
    literal ``lit`` resolves to ``final[lit >> 1] ^ (lit & 1)``.  The
    chains are collapsed by pointer jumping over the aliased entries
    only: each round doubles the resolved distance, so a chain of
    length ``n`` takes ``log2(n) + 1`` rounds.  A chain that never
    leaves the aliased set is a cycle and raises ``ValueError``.
    """
    final = np.arange(0, 2 * num_vars, 2, dtype=np.int64)
    if not alias:
        return final
    count = len(alias)
    keys = np.fromiter(alias.keys(), dtype=np.int64, count=count)
    targets = np.fromiter(alias.values(), dtype=np.int64, count=count)
    if (
        int(keys.min()) < 0
        or int(keys.max()) >= num_vars
        or int(targets.min()) < 0
        or int(targets.max()) >> 1 >= num_vars
    ):
        raise IndexError("resolve map references a variable out of range")
    final[keys] = targets
    for _ in range(count.bit_length() + 1):
        current = final[keys]
        jumped = final[current >> 1] ^ (current & 1)
        if np.array_equal(jumped, current):
            break
        final[keys] = jumped
    aliased = np.zeros(num_vars, dtype=bool)
    aliased[keys] = True
    if bool(aliased[final[keys] >> 1].any()):
        raise ValueError("cycle in resolve map")
    return final


def fold_free(fanin0, fanin1) -> bool:
    """Whether ``add_and`` over these fanin pairs, in order, would
    create every one of them as a fresh node.

    True when no pair has a constant fanin, no pair is ``x & x`` or
    ``x & !x``, and no two pairs share a strash key -- the no-fold
    precondition of the bulk builds that hand columns to
    :meth:`Aig._from_flat`.  Empty arrays pass; literals of 2**31 or
    more fail, since the check packs each key into one int64.
    """
    if not fanin0.shape[0]:
        return True
    if int(fanin0.min()) < 2 or int(fanin1.min()) < 2:
        return False  # constant fanin: add_and folds
    if bool(((fanin0 >> 1) == (fanin1 >> 1)).any()):
        return False  # x & x or x & !x
    key_lo = np.minimum(fanin0, fanin1)
    key_hi = np.maximum(fanin0, fanin1)
    if int(key_hi.max()) >= 1 << 31:
        # Keys too wide to pack into one int64 word (more than 2**30
        # variables): not proven, so callers take their exact path.
        return False
    keys = np.sort((key_lo << 32) | key_hi)
    # A repeated key: the strash would return the first node.
    return not bool((keys[1:] == keys[:-1]).any())


class Aig:
    """A combinational And-Inverter Graph.

    Parameters
    ----------
    name:
        Optional design name, carried through I/O and optimization.
    capacity:
        Optional initial node-column capacity (rows, including the
        constant row).  Growth is automatic either way; pre-sizing via
        this parameter or :meth:`reserve` avoids repeated reallocation
        when the final size is known (I/O, ``compact``, ``enlarge``).
    """

    def __init__(self, name: str = "aig", capacity: int = 0) -> None:
        self.name = name
        # Node columns (shared row index = variable id).  Row 0 is the
        # constant-false node.
        self._f0c = Column("int", capacity)
        self._f1c = Column("int", capacity)
        self._deadc = Column("bool", capacity)
        self._f0c.append(CONST_FANIN)
        self._f1c.append(CONST_FANIN)
        self._deadc.append(False)
        # PI variable ids and PO literals.
        self._pic = Column("int")
        self._poc = Column("int")
        self._pi_names: list[str | None] = []
        self._po_names: list[str | None] = []
        self._strash = FlatStrash()
        # Mutation counters keying the derived-state caches of
        # :class:`repro.engine.context.GraphContext`.  ``_version``
        # tracks *every* structural mutation (appends, kills, revives,
        # truncations); ``_po_version`` tracks the PO list, which
        # :meth:`add_po`/:meth:`set_po` change without touching nodes.
        self._version = 0
        self._po_version = 0
        # Live AND count, maintained incrementally (num_ands is O(1)).
        self._live_ands = 0
        # Lazily attached repro.engine.context.GraphContext.
        self._graph_context = None

    # ------------------------------------------------------------------
    # Scalar twins (compatibility views over the canonical columns)
    # ------------------------------------------------------------------

    @property
    def _fanin0(self):
        """Scalar view of the fanin0 column (list-like, live)."""
        return self._f0c.slice()

    @property
    def _fanin1(self):
        """Scalar view of the fanin1 column (list-like, live)."""
        return self._f1c.slice()

    @property
    def _pos(self):
        """Scalar view of the PO literal column (list-like, live)."""
        return self._poc.slice()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def reserve(self, num_vars: int, num_ands: int | None = None) -> None:
        """Preallocate storage for ``num_vars`` total variable rows.

        Optionally pre-sizes the structural-hash table for
        ``num_ands`` live AND keys.  No-op when already large enough.
        """
        self._f0c.reserve(num_vars)
        self._f1c.reserve(num_vars)
        self._deadc.reserve(num_vars)
        if num_ands:
            self._strash.reserve(num_ands)

    def add_pi(self, name: str | None = None) -> int:
        """Create a primary input; returns its (non-complemented) literal."""
        var = self._f0c.size
        self._version += 1
        self._f0c.append(PI_FANIN)
        self._f1c.append(PI_FANIN)
        self._deadc.append(False)
        self._pic.append(var)
        self._pi_names.append(name)
        return make_lit(var)

    def add_po(self, lit: int, name: str | None = None) -> int:
        """Register ``lit`` as a primary output; returns the PO index."""
        self._check_lit(lit)
        self._po_version += 1
        self._poc.append(lit)
        self._po_names.append(name)
        return self._poc.size - 1

    def set_po(self, index: int, lit: int) -> None:
        """Redirect an existing primary output to a new literal."""
        self._check_lit(lit)
        self._po_version += 1
        self._pos[index] = lit

    def add_and(self, lit0: int, lit1: int) -> int:
        """Create (or reuse) the AND of two literals; returns its literal.

        Applies constant folding and the trivial identities
        ``x & x = x`` and ``x & !x = 0``, then structural hashing: a
        structurally identical AND is returned instead of a new node.
        """
        self._check_lit(lit0)
        self._check_lit(lit1)
        f0, f1 = lit_pair_key(lit0, lit1)
        if f0 == CONST0:
            return CONST0
        if f0 == 1:  # const-true fanin: AND reduces to the other literal
            return f1
        if f0 == f1:
            return f0
        if f0 == (f1 ^ 1):
            return CONST0
        # One combined probe instead of a get + setitem pair: ``slot``
        # is a live key match (possibly a dead node to rebind), ``free``
        # the insertion slot otherwise.  Nothing touches the table
        # between the probe and the write, so the slots stay valid.
        strash = self._strash
        slot, free = strash._find(f0, f1)
        if slot >= 0:
            existing = strash._value[slot]
            if not self._deadc.view[existing]:
                return make_lit(existing)
        var = self._f0c.size
        self._version += 1
        self._f0c.append(f0)
        self._f1c.append(f1)
        self._deadc.append(False)
        if slot >= 0:
            strash._value[slot] = var
        else:
            strash._insert(free, f0, f1, var)
        self._live_ands += 1
        return make_lit(var)

    def add_raw_and(self, lit0: int, lit1: int) -> int:
        """Create an AND node bypassing folding and structural hashing.

        Used by passes that manage sharing themselves (e.g. the parallel
        hash table) and by tests that need to build duplicate or
        degenerate structures on purpose.
        """
        self._check_lit(lit0)
        self._check_lit(lit1)
        f0, f1 = lit_pair_key(lit0, lit1)
        var = self._f0c.size
        self._version += 1
        self._f0c.append(f0)
        self._f1c.append(f1)
        self._deadc.append(False)
        self._live_ands += 1
        return make_lit(var)

    def add_raw_and_batch(self, lits0, lits1):
        """Vectorized :meth:`add_raw_and` over parallel literal arrays.

        Bit-identical to ``[self.add_raw_and(a, b) for a, b in
        zip(lits0, lits1)]`` — same fanin canonicalization, same
        variable numbering — except that validation runs up front, so
        a bad literal raises before any node is created.  Returns an
        int64 ndarray of result literals; two plain lists (the small
        batches of the commit layer's fused get-or-create loop) are
        appended row by row without NumPy set-up and return a list.
        """
        count = len(lits0)
        if len(lits1) != count:
            raise ValueError("literal arrays differ in length")
        if type(lits0) is list and type(lits1) is list:
            return self._add_raw_and_list(lits0, lits1)
        arr0 = np.ascontiguousarray(lits0, dtype=np.int64)
        arr1 = np.ascontiguousarray(lits1, dtype=np.int64)
        size = self._f0c.size
        bad0 = (arr0 < 0) | ((arr0 >> 1) >= size)
        bad1 = (arr1 < 0) | ((arr1 >> 1) >= size)
        if bad0.any() or bad1.any():
            index = int(np.flatnonzero(bad0 | bad1)[0])
            lit = int(arr0[index]) if bad0[index] else int(arr1[index])
            raise ValueError(
                f"literal {lit} references an unknown variable"
            )
        self._version += count
        self._f0c.extend_array(np.minimum(arr0, arr1))
        self._f1c.extend_array(np.maximum(arr0, arr1))
        self._deadc.extend_zeros(count)
        self._live_ands += count
        return (np.arange(size, size + count, dtype=np.int64) << 1)

    def _add_raw_and_list(self, lits0: list, lits1: list) -> list:
        """:meth:`add_raw_and_batch` over two plain int lists."""
        size = self._f0c.size
        for lit0, lit1 in zip(lits0, lits1):
            for lit in (lit0, lit1):
                if lit < 0 or (lit >> 1) >= size:
                    raise ValueError(
                        f"literal {lit} references an unknown variable"
                    )
        count = len(lits0)
        need = size + count
        columns = (self._f0c, self._f1c, self._deadc)
        for column in columns:
            column.reserve(need)
        view0 = self._f0c.view
        view1 = self._f1c.view
        dead = self._deadc.view
        row = size
        for lit0, lit1 in zip(lits0, lits1):
            if lit0 > lit1:
                lit0, lit1 = lit1, lit0
            view0[row] = lit0
            view1[row] = lit1
            dead[row] = False
            row += 1
        for column in columns:
            column.size = need
        self._version += count
        self._live_ands += count
        return list(range(2 * size, 2 * need, 2))

    def add_pi_batch(self, count: int):
        """Create ``count`` unnamed primary inputs at once.

        Bit-identical to calling :meth:`add_pi` ``count`` times with no
        name; returns an int64 ndarray of the new PI literals.
        """
        size = self._f0c.size
        self._version += count
        fill = np.full(count, PI_FANIN, dtype=np.int64)
        self._f0c.extend_array(fill)
        self._f1c.extend_array(fill)
        self._deadc.extend_zeros(count)
        variables = np.arange(size, size + count, dtype=np.int64)
        self._pic.extend_array(variables)
        self._pi_names.extend([None] * count)
        return variables << 1

    def add_po_batch(self, lits, names=None) -> None:
        """Register a batch of primary outputs in order.

        Bit-identical to calling :meth:`add_po` per literal (with the
        matching name from ``names``, or no name).  Validation runs up
        front, so a bad literal raises before any PO is registered.
        """
        count = len(lits)
        if names is not None and len(names) != count:
            raise ValueError("literal/name arrays differ in length")
        arr = np.ascontiguousarray(lits, dtype=np.int64)
        size = self._f0c.size
        bad = (arr < 0) | ((arr >> 1) >= size)
        if bad.any():
            lit = int(arr[int(np.flatnonzero(bad)[0])])
            raise ValueError(
                f"literal {lit} references an unknown variable"
            )
        self._po_version += count
        self._poc.extend_array(arr)
        self._po_names.extend(
            [None] * count if names is None else list(names)
        )

    def find_and(self, lit0: int, lit1: int) -> int | None:
        """Literal of an existing AND with these fanins, or None."""
        key = lit_pair_key(lit0, lit1)
        var = self._strash.get(key)
        if var is None or self._deadc.view[var]:
            return None
        return make_lit(var)

    # ------------------------------------------------------------------
    # Node accessors
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Total number of variable ids ever created (including dead)."""
        return self._f0c.size

    @property
    def num_pis(self) -> int:
        """Number of primary inputs."""
        return self._pic.size

    @property
    def num_pos(self) -> int:
        """Number of primary outputs."""
        return self._poc.size

    @property
    def num_ands(self) -> int:
        """Number of *live* AND nodes (the paper's "#Nodes" metric)."""
        return self._live_ands

    @property
    def pis(self) -> list[int]:
        """Variable ids of the primary inputs, in creation order."""
        return list(self._pic.slice())

    @property
    def pos(self) -> list[int]:
        """Primary output literals, in creation order."""
        return list(self._poc.slice())

    def pi_name(self, index: int) -> str | None:
        """Symbol-table name of PI ``index`` (None when unnamed)."""
        return self._pi_names[index]

    def po_name(self, index: int) -> str | None:
        """Symbol-table name of PO ``index`` (None when unnamed)."""
        return self._po_names[index]

    def is_const(self, var: int) -> bool:
        """True for the constant-false variable (id 0)."""
        return var == 0

    def is_pi(self, var: int) -> bool:
        """True when ``var`` is a primary input."""
        column = self._f0c
        if not 0 <= var < column.size:
            raise IndexError(f"variable {var} out of range")
        return column.view[var] == PI_FANIN

    def is_and(self, var: int) -> bool:
        """True when ``var`` is an AND node (live or dead)."""
        column = self._f0c
        if not 0 <= var < column.size:
            raise IndexError(f"variable {var} out of range")
        return column.view[var] >= 0

    def is_dead(self, var: int) -> bool:
        """True when ``var`` was deleted by :meth:`mark_dead`."""
        column = self._deadc
        if not 0 <= var < column.size:
            raise IndexError(f"variable {var} out of range")
        return bool(column.view[var])

    def fanin0(self, var: int) -> int:
        """First (smaller) fanin literal of an AND variable."""
        column = self._f0c
        if not 0 <= var < column.size:
            raise IndexError(f"variable {var} out of range")
        lit = column.view[var]
        if lit < 0:
            raise ValueError(f"variable {var} is not an AND node")
        return lit

    def fanin1(self, var: int) -> int:
        """Second (larger) fanin literal of an AND variable."""
        column = self._f1c
        if not 0 <= var < column.size:
            raise IndexError(f"variable {var} out of range")
        lit = column.view[var]
        if lit < 0:
            raise ValueError(f"variable {var} is not an AND node")
        return lit

    def fanins(self, var: int) -> tuple[int, int]:
        """Both fanin literals of an AND variable."""
        column = self._f0c
        if not 0 <= var < column.size:
            raise IndexError(f"variable {var} out of range")
        lit0 = column.view[var]
        if lit0 < 0:
            raise ValueError(f"variable {var} is not an AND node")
        return lit0, self._f1c.view[var]

    def and_vars(self) -> Iterator[int]:
        """Live AND variable ids in topological (= id) order.

        Lazy on purpose: passes iterate this while killing and
        appending nodes, and each step re-reads the live columns (the
        column attributes are re-fetched so buffer growth between
        yields is observed).
        """
        for var in range(self._f0c.size):
            if self._f0c.view[var] >= 0 and not self._deadc.view[var]:
                yield var

    def all_and_vars(self) -> Iterator[int]:
        """All AND variable ids, live or dead, in id order."""
        for var in range(self._f0c.size):
            if self._f0c.view[var] >= 0:
                yield var

    def live_and_array(self):
        """Live AND variable ids as an int64 ndarray (static snapshot).

        Vectorized equivalent of ``list(and_vars())``; unlike
        :meth:`and_vars` it snapshots, so it must not be used across
        mutations.
        """
        f0, _, dead = self.arrays()
        return np.flatnonzero((f0 >= 0) & ~dead)

    def pi_array(self):
        """PI variable ids as an int64 ndarray (read-only snapshot)."""
        return self._pic.nparray()

    def po_array(self):
        """PO literals as an int64 ndarray (read-only snapshot)."""
        return self._poc.nparray()

    def arrays(self) -> tuple:
        """Zero-copy NumPy views ``(fanin0, fanin1, dead)`` of the graph.

        The views alias the canonical column buffers directly — there
        is no rebuild and no cache.  In-place mutations (dead-flag
        patches from :meth:`mark_dead`/:meth:`revive`) are immediately
        visible through an already-held view; appended rows are not
        (the view's length is fixed at the call — take a fresh view),
        and a view taken before a capacity growth keeps aliasing the
        superseded buffer.  Callers must treat the views as read-only.
        """
        return (
            self._f0c.nparray(),
            self._f1c.nparray(),
            self._deadc.nparray(),
        )

    # ------------------------------------------------------------------
    # Deletion and compaction
    # ------------------------------------------------------------------

    def mark_dead(self, var: int) -> None:
        """Mark an AND variable as deleted.

        Dead nodes are skipped by :meth:`and_vars` and dropped by
        :meth:`compact`; their strash entry is released so an equivalent
        node may be re-created.  The dead column is patched in place —
        existing :meth:`arrays` views observe the kill instantly.
        """
        if not self.is_and(var):
            raise ValueError(f"only AND nodes can be deleted, not var {var}")
        if self._deadc.view[var]:
            return
        self._version += 1
        self._deadc.view[var] = True
        self._live_ands -= 1
        f0, f1 = lit_pair_key(self._f0c.view[var], self._f1c.view[var])
        self._strash.delete_entry(f0, f1, var)

    def mark_dead_batch(self, variables) -> None:
        """:meth:`mark_dead` for many AND variables at once.

        Same end state as one :meth:`mark_dead` per variable — dead
        column, live count, ``_version`` and strash, tombstones
        included — from one column write and one
        :meth:`FlatStrash.delete_bulk`.  Raises before changing
        anything when a variable is not an AND node.
        """
        variables = np.sort(np.asarray(variables, dtype=np.int64))
        if not variables.size:
            return
        # Drop repeats without ``np.unique``: it imports ``numpy.ma`` on
        # first use, about 1 MiB of peak RSS.
        variables = variables[
            np.concatenate(([True], variables[1:] != variables[:-1]))
        ]
        fanin0 = self._f0c.nparray()
        if variables[0] < 0 or variables[-1] >= fanin0.shape[0]:
            bad = variables[0] if variables[0] < 0 else variables[-1]
            raise IndexError(f"variable {bad} out of range")
        not_and = variables[fanin0[variables] < 0]
        if not_and.size:
            raise ValueError(
                f"only AND nodes can be deleted, not var {not_and[0]}"
            )
        dead = self._deadc.nparray()
        fresh = variables[~dead[variables]]
        if not fresh.size:
            return
        self._version += int(fresh.size)
        dead[fresh] = True
        self._live_ands -= int(fresh.size)
        lit0 = fanin0[fresh]
        lit1 = self._f1c.nparray()[fresh]
        self._strash.delete_bulk(
            np.minimum(lit0, lit1), np.maximum(lit0, lit1), fresh
        )

    def truncate(self, num_vars: int) -> None:
        """Physically remove all variables with id >= ``num_vars``.

        Only safe for speculatively created nodes that nothing (no PO,
        no surviving node) references yet — the rejection path of
        evaluate-then-commit replacement.  Strash entries are released.
        """
        if num_vars < 1 + self.num_pis:
            raise ValueError("cannot truncate the constant or PI rows")
        fan0 = self._f0c.view
        fan1 = self._f1c.view
        dead = self._deadc.view
        removed = 0
        for var in range(num_vars, self._f0c.size):
            if fan0[var] >= 0:
                self._strash.delete_entry(fan0[var], fan1[var], var)
                if not dead[var]:
                    removed += 1
            if fan0[var] == PI_FANIN:
                raise ValueError("cannot truncate primary inputs")
        self._version += 1
        self._live_ands -= removed
        self._f0c.truncate(num_vars)
        self._f1c.truncate(num_vars)
        self._deadc.truncate(num_vars)

    def revive(self, var: int) -> None:
        """Undo :meth:`mark_dead` (used by speculative replacement)."""
        if not self._deadc.view[var]:
            return
        self._version += 1
        self._deadc.view[var] = False
        self._live_ands += 1
        key = lit_pair_key(self._f0c.view[var], self._f1c.view[var])
        self._strash.setdefault(key, var)

    def compact(self, resolve: dict[int, int] | None = None) -> "Aig":
        """Rebuild the AIG keeping only logic reachable from the POs.

        Parameters
        ----------
        resolve:
            Optional redirection map from variable id to replacement
            *literal* (in this AIG).  Whenever a redirected variable is
            encountered — as a PO driver or as a fanin — the replacement
            literal is followed instead (chains are allowed; a cyclic
            chain raises ``ValueError``).  This is how cone replacement
            is applied.

        Returns
        -------
        Aig
            The compacted AIG.  Its AND rows are numbered in the
            completion order of :meth:`post_order`, which runs once:
            a fold-free reachable set is built column-wise
            (:meth:`_compact_bulk`), any other through ``add_and``
            (:meth:`_compact_fold`).
        """
        final = (
            resolve_aliases(resolve, self._f0c.size) if resolve else None
        )
        order = self.post_order(final)
        new = self._compact_bulk(order, final)
        if new is None:
            if observe.enabled:
                observe.count("path.compact.fold")
            return self._compact_fold(order, final)
        if observe.enabled:
            observe.count("path.compact.bulk")
        return new

    def post_order(self, final=None) -> np.ndarray:
        """Reachable AND variables in post-order from the POs.

        The one walk of the (alias-resolved) graph: :meth:`compact`
        numbers its output by it, and dedup levelizes over it
        (:func:`repro.engine.context.resolved_levels`).  ``final`` is
        a :func:`resolve_aliases` array (``None`` without aliases);
        the walk then reads resolved fanins and PO drivers.  POs are
        walked in order, each one depth-first with the second fanin
        completed before the first; every reachable AND appears once,
        after both its fanins.  Returns an int64 array (a view of the
        walk's ``array('q')``).

        Raises ``ValueError`` when the walk reaches a non-AND variable
        that is neither the constant nor a PI, or when a resolve map
        closes a cycle through a fanin.  Recursion-free: deep chains
        (dividers) are fine.
        """
        fan0, fan1, pos = self._resolved_columns(final)
        num = self._f0c.size
        mapped = bytearray(num)
        mapped[0] = 1
        for var in self._pic.slice():
            mapped[var] = 1
        # Only a resolve map can close a cycle: stored fanins always
        # point to lower ids.
        expanded = bytearray(num) if final is not None else None
        # Completion order as int64 rows, not a list of boxed ints: on
        # a large graph this list is alive at the compaction peak.
        order = array("q")
        complete = order.append
        for po_lit in pos:
            root = po_lit >> 1
            if mapped[root]:
                continue
            stack = [root]
            push = stack.append
            while stack:
                var = stack[-1]
                if mapped[var]:
                    stack.pop()
                    continue
                var0 = fan0[var] >> 1
                if var0 < 0:  # a PI or constant sentinel row
                    raise ValueError(
                        f"reached non-AND unmapped variable {var}"
                    )
                var1 = fan1[var] >> 1
                ready0 = mapped[var0]
                ready1 = mapped[var1]
                if ready0 and ready1:
                    stack.pop()
                    mapped[var] = 1
                    complete(var)
                else:
                    # Everything pushed above a var's first visit is
                    # completed before it is reached again, unless the
                    # var was pushed again from inside its own cone.
                    if expanded is not None:
                        if expanded[var]:
                            raise ValueError(
                                f"cycle through variable {var} in "
                                "resolve map"
                            )
                        expanded[var] = 1
                    if not ready0:
                        push(var0)
                    if not ready1:
                        push(var1)
        return np.frombuffer(order, dtype=np.int64)

    def _resolved_columns(self, final=None) -> tuple:
        """Scalar twins ``(fanin0, fanin1, pos)``, resolved through ``final``.

        ``final`` is a :func:`resolve_aliases` array or ``None``.  Without
        it these are the live column views; with it, fresh arrays whose
        AND-row fanins and PO literals point past every redirection
        (PI and constant rows keep their sentinels).
        """
        if final is None:
            return self._f0c.view, self._f1c.view, self._poc.slice()
        fan0, fan1, _ = self.arrays()
        # Sentinel rows index final[-1]; they are restored below.
        rf0 = final[fan0 >> 1] ^ (fan0 & 1)
        rf1 = final[fan1 >> 1] ^ (fan1 & 1)
        rows = fan0 < 0
        rf0[rows] = fan0[rows]
        rf1[rows] = fan1[rows]
        return (
            memoryview(rf0),
            memoryview(rf1),
            memoryview(self._resolved_pos(final)),
        )

    def _resolved_pos(self, final=None) -> np.ndarray:
        """PO literals as an int64 array, resolved through ``final``."""
        pos = self._poc.nparray()
        return pos if final is None else final[pos >> 1] ^ (pos & 1)

    def _order_fanins(self, order, final=None) -> tuple:
        """Fanin literals of the AND rows ``order``, resolved through
        ``final``, as two int64 arrays."""
        fan0, fan1, _ = self.arrays()
        lits0 = fan0[order]
        lits1 = fan1[order]
        if final is not None:
            lits0 = final[lits0 >> 1] ^ (lits0 & 1)
            lits1 = final[lits1 >> 1] ^ (lits1 & 1)
        return lits0, lits1

    def _compact_bulk(self, order, final=None):
        """:meth:`compact`'s column build over ``order``, or ``None``.

        ``order`` is :meth:`post_order`'s result under the same
        ``final``.  Replaces the per-node ``add_and`` loop with one
        gather over the fanin columns and one bulk strash build.
        Returns ``None`` — the caller takes :meth:`_compact_fold` —
        when the reachable set is not fold-free/strash-clean (a
        constant fanin, ``x & x`` / ``x & !x``, or a duplicate fanin
        key, any of which would make an ``add_and`` fold or reuse).
        """
        num = self._f0c.size
        num_pis = self._pic.size
        kept = order.shape[0]
        of0, of1 = self._order_fanins(order, final)
        if not fold_free(of0, of1):
            return None
        new_var = np.full(num, -1, dtype=np.int64)
        new_var[0] = 0
        pi_vars = self._pic.nparray()
        new_var[pi_vars] = 1 + np.arange(num_pis, dtype=np.int64)
        new_var[order] = 1 + num_pis + np.arange(kept, dtype=np.int64)
        nf0 = (new_var[of0 >> 1] << 1) | (of0 & 1)
        nf1 = (new_var[of1 >> 1] << 1) | (of1 & 1)
        del of0, of1
        and_k0 = np.minimum(nf0, nf1)
        and_k1 = np.maximum(nf0, nf1)
        del nf0, nf1
        total = 1 + num_pis + kept
        f0col = np.empty(total, dtype=np.int64)
        f1col = np.empty(total, dtype=np.int64)
        f0col[0] = f1col[0] = CONST_FANIN
        f0col[1 : 1 + num_pis] = PI_FANIN
        f1col[1 : 1 + num_pis] = PI_FANIN
        f0col[1 + num_pis :] = and_k0
        f1col[1 + num_pis :] = and_k1
        old_pos = self._resolved_pos(final)
        new_pos = (new_var[old_pos >> 1] << 1) | (old_pos & 1)
        new = Aig._from_flat(
            self.name,
            f0col,
            f1col,
            1 + np.arange(num_pis, dtype=np.int64),
            list(self._pi_names),
            new_pos,
            list(self._po_names),
            and_k0,
            and_k1,
            1 + num_pis + np.arange(kept, dtype=np.int64),
        )
        return new

    def _compact_fold(self, order, final=None) -> "Aig":
        """:meth:`compact` through ``add_and``, one node per ``order`` row.

        The path for reachable sets that fold or repeat a strash key:
        ``add_and`` folds constants and trivial pairs and returns the
        first node of a repeated key, so the result may have fewer
        nodes than ``order``.
        """
        new = Aig(self.name, capacity=self._f0c.size)
        new._strash.reserve(self._live_ands)
        # Old variable id -> new literal, for every node built so far.
        lit_of = [CONST0] * self._f0c.size
        pi_names = self._pi_names
        for index, var in enumerate(self._pic.slice()):
            lit_of[var] = new.add_pi(pi_names[index])
        lits0, lits1 = self._order_fanins(order, final)
        add_and = new.add_and
        for var, f0, f1 in zip(
            order.tolist(), lits0.tolist(), lits1.tolist()
        ):
            lit_of[var] = add_and(
                lit_of[f0 >> 1] ^ (f0 & 1), lit_of[f1 >> 1] ^ (f1 & 1)
            )
        po_names = self._po_names
        for index, lit in enumerate(self._resolved_pos(final).tolist()):
            new.add_po(lit_of[lit >> 1] ^ (lit & 1), po_names[index])
        return new

    @classmethod
    def _from_flat(
        cls,
        name: str,
        fanin0,
        fanin1,
        pi_vars,
        pi_names: list,
        po_lits,
        po_names: list,
        and_k0,
        and_k1,
        and_vars,
    ) -> "Aig":
        """Assemble an Aig from complete column arrays.

        The bulk producers (:meth:`_compact_bulk`,
        :func:`repro.benchgen.enlarge._double_bulk` and
        :func:`repro.aig.io_aiger.read_aig_binary`) hand in fully
        remapped fanin columns plus the live AND keys, which must pass
        :func:`fold_free`.  Fresh int64 column arrays that own their
        data become the columns without a copy (the producer hands
        them over), and the strash is populated with one
        :meth:`FlatStrash.build_bulk`.
        Version counters end up exactly where the equivalent scalar
        ``add_pi``/``add_and``/``add_po`` build would leave them.
        """
        new = cls.__new__(cls)
        new.name = name
        new._f0c = Column("int")
        new._f0c.adopt(fanin0)
        new._f1c = Column("int")
        new._f1c.adopt(fanin1)
        new._deadc = Column("bool")
        new._deadc.adopt_zeros(len(fanin0))
        new._pic = Column("int")
        new._pic.adopt(pi_vars)
        new._poc = Column("int")
        new._poc.adopt(po_lits)
        new._pi_names = pi_names
        new._po_names = po_names
        new._strash = FlatStrash.build_bulk(and_k0, and_k1, and_vars)
        new._version = len(pi_vars) + len(and_vars)
        new._po_version = len(po_lits)
        new._live_ands = len(and_vars)
        new._graph_context = None
        return new

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------

    def clone(self) -> "Aig":
        """Deep copy of this AIG."""
        new = Aig.__new__(Aig)
        new.name = self.name
        new._f0c = self._f0c.duplicate()
        new._f1c = self._f1c.duplicate()
        new._deadc = self._deadc.duplicate()
        new._pic = self._pic.duplicate()
        new._poc = self._poc.duplicate()
        new._pi_names = list(self._pi_names)
        new._po_names = list(self._po_names)
        new._strash = self._strash.copy()
        # Version counters carry over so derived-state caches forked
        # from this AIG (repro.engine.context.clone_with_context)
        # remain keyed consistently; the clone starts with no caches.
        new._version = self._version
        new._po_version = self._po_version
        new._live_ands = self._live_ands
        new._graph_context = None
        return new

    def stats(self) -> dict[str, int]:
        """Summary statistics: PIs, POs, AND count and level."""
        from repro.engine.context import context_for

        levels = context_for(self).levels()
        depth = 0
        for lit in self._poc.slice():
            depth = max(depth, levels[lit_var(lit)])
        return {
            "pis": self.num_pis,
            "pos": self.num_pos,
            "ands": self.num_ands,
            "levels": depth,
        }

    def _check_lit(self, lit: int) -> None:
        if lit < 0 or lit_var(lit) >= self._f0c.size:
            raise ValueError(f"literal {lit} references an unknown variable")

    def __repr__(self) -> str:
        return (
            f"Aig(name={self.name!r}, pis={self.num_pis}, "
            f"pos={self.num_pos}, ands={self.num_ands})"
        )


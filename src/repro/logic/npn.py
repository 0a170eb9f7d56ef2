"""Exact NPN canonicalization of small Boolean functions.

Rewriting matches each 4-input cut function against a library indexed
by NPN class (negation of inputs, permutation of inputs, negation of
output).  For up to four variables exhaustive canonicalization is
cheap: all ``2 * n! * 2^n`` transforms are evaluated at once, as one
NumPy gather of the table's bits through a precomputed minterm-index
array, and the lexicographically smallest truth table wins.

The transform bookkeeping follows one convention throughout:

    ``canon(y) = f(z) ^ out_neg``  with  ``z[perm[i]] = y[i] ^ phase[perm[i]]``

so a structure realizing ``canon`` over inputs ``y_i`` is instantiated
on a concrete cut by feeding input ``i`` with the leaf for variable
``perm[i]``, complemented when bit ``perm[i]`` of ``phase`` is set, and
complementing the output when ``out_neg`` holds
(:func:`npn_leaf_assignment`).  ``tests/test_npn.py`` checks this
round-trip identity exhaustively.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import numpy as np

from repro.logic.truth import full_mask

#: Largest input count supported by exact NPN canonicalization here.
MAX_NPN_VARS = 4


class NpnTransform:
    """Canonical form of a function plus the transform reaching it."""

    __slots__ = ("canon", "perm", "phase", "out_neg", "num_vars")

    def __init__(
        self,
        canon: int,
        perm: tuple[int, ...],
        phase: int,
        out_neg: bool,
        num_vars: int,
    ) -> None:
        self.canon = canon
        self.perm = perm
        self.phase = phase
        self.out_neg = out_neg
        self.num_vars = num_vars

    def __repr__(self) -> str:
        return (
            f"NpnTransform(canon={self.canon:#x}, perm={self.perm}, "
            f"phase={self.phase:#04b}, out_neg={self.out_neg})"
        )


@lru_cache(maxsize=None)
def _minterm_maps(
    num_vars: int,
) -> tuple[list[tuple[tuple[int, ...], int]], np.ndarray, np.ndarray]:
    """Every (perm, phase) transform of ``num_vars`` inputs, gatherable.

    Returns ``(transforms, index, weights)``: ``transforms[t]`` is the
    ``(perm, phase)`` pair of row ``t`` of the ``(n! * 2^n, 2^n)`` array
    ``index``, perm-major then phase, and ``index[t, m]`` is the minterm
    of the original function that position ``m`` of the transformed
    table reads: ``scatter_perm(m) ^ phase``.  ``weights[m] = 2^m``
    packs a gathered bit row back into a table.
    """
    size = 1 << num_vars
    transforms = []
    rows = []
    for perm in permutations(range(num_vars)):
        scatter = []
        for minterm in range(size):
            source = 0
            for index in range(num_vars):
                if minterm >> index & 1:
                    source |= 1 << perm[index]
            scatter.append(source)
        for phase in range(size):
            transforms.append((perm, phase))
            rows.append([source ^ phase for source in scatter])
    index = np.array(rows, dtype=np.intp)
    weights = np.left_shift(1, np.arange(size, dtype=np.int64))
    return transforms, index, weights


@lru_cache(maxsize=None)
def npn_canon(table: int, num_vars: int) -> NpnTransform:
    """Exact NPN-canonical representative of ``table``.

    Returns the lexicographically smallest truth table among all NPN
    transforms, together with one transform achieving it: the first
    one in (perm, phase, output phase) order, so ties break the same
    way on every call.
    """
    if not 0 <= num_vars <= MAX_NPN_VARS:
        raise ValueError(
            f"exact NPN supports up to {MAX_NPN_VARS} variables, "
            f"got {num_vars}"
        )
    mask = full_mask(num_vars)
    if table & ~mask:
        raise ValueError("truth table wider than the declared variable count")
    transforms, index, weights = _minterm_maps(num_vars)
    bits = (table >> np.arange(1 << num_vars)) & 1
    transformed = bits[index] @ weights
    # Each table next to its complement, output phase minor: the first
    # minimum is the winner of a scan keeping only strictly smaller
    # candidates.
    candidates = np.empty(2 * len(transforms), dtype=np.int64)
    candidates[0::2] = transformed
    candidates[1::2] = transformed ^ mask
    best = int(np.argmin(candidates))
    perm, phase = transforms[best >> 1]
    return NpnTransform(
        int(candidates[best]), perm, phase, bool(best & 1), num_vars
    )


def npn_leaf_assignment(
    transform: NpnTransform, leaf_lits: list[int]
) -> tuple[list[int], bool]:
    """Inputs for a canonical structure realizing the original function.

    Given AIG literals ``leaf_lits[v]`` for the original variables,
    returns ``(inputs, complement_output)`` such that feeding a
    structure of ``transform.canon`` with ``inputs[i]`` on canonical
    input ``i`` (and complementing its output when requested) realizes
    the original function.
    """
    inputs = []
    for index in range(transform.num_vars):
        source = transform.perm[index]
        literal = leaf_lits[source]
        if transform.phase >> source & 1:
            literal ^= 1
        inputs.append(literal)
    return inputs, transform.out_neg

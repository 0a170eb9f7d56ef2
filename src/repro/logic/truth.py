"""Truth-table computation on arbitrary-width bit vectors.

A truth table over ``n`` variables is a plain Python integer holding
``2**n`` bits — bit ``m`` is the function value on the input minterm
``m``.  Python's big integers give word-parallel bitwise operations for
free, which is exactly the data layout the paper's per-thread truth
table computation uses (packed 64-bit words), just without the word
bookkeeping.  Functions of up to :data:`MAX_TT_VARS` variables are
supported, matching the paper's maximum refactoring cut size of 12 with
headroom.
"""

from __future__ import annotations

from functools import lru_cache

from repro.aig.literals import lit_compl, lit_var

#: Largest supported truth-table input count.
MAX_TT_VARS = 16


def full_mask(num_vars: int) -> int:
    """All-ones truth table over ``num_vars`` variables."""
    _check_vars(num_vars)
    return (1 << (1 << num_vars)) - 1


@lru_cache(maxsize=None)
def var_table(index: int, num_vars: int) -> int:
    """Truth table of the projection function ``x_index``."""
    _check_vars(num_vars)
    if not 0 <= index < num_vars:
        raise ValueError(f"variable index {index} out of range")
    period = 1 << (index + 1)
    half = 1 << index
    block = ((1 << half) - 1) << half
    table = block
    width = period
    total = 1 << num_vars
    # Doubling replication: each step doubles the populated width.
    while width < total:
        table |= table << width
        width *= 2
    return table & full_mask(num_vars)


def tt_not(table: int, num_vars: int) -> int:
    """Complement of a truth table."""
    return table ^ full_mask(num_vars)


def tt_cofactor0(table: int, index: int, num_vars: int) -> int:
    """Negative cofactor w.r.t. ``x_index``, expanded back to full width."""
    half = 1 << index
    low = table & ~var_table(index, num_vars)
    return low | (low << half)


def tt_cofactor1(table: int, index: int, num_vars: int) -> int:
    """Positive cofactor w.r.t. ``x_index``, expanded back to full width."""
    half = 1 << index
    high = table & var_table(index, num_vars)
    return high | (high >> half)


def tt_depends_on(table: int, index: int, num_vars: int) -> bool:
    """True when the function actually depends on ``x_index``."""
    return tt_cofactor0(table, index, num_vars) != tt_cofactor1(
        table, index, num_vars
    )


def tt_support(table: int, num_vars: int) -> list[int]:
    """Indices of variables the function depends on."""
    return [
        index
        for index in range(num_vars)
        if tt_depends_on(table, index, num_vars)
    ]


def simulate_cone(view, root_lit: int, leaves: list[int]) -> int:
    """Truth table of ``root_lit`` as a function of the ``leaves`` variables.

    ``view`` is anything with ``is_and(var)`` and ``fanins(var)``
    (an :class:`~repro.aig.aig.Aig` or an aliasing view); ``leaves`` is
    an ordered list of variable ids forming a cut of the root.  Raises
    ``ValueError`` if the cone escapes the cut.
    """
    num_vars = len(leaves)
    _check_vars(num_vars)
    tables: dict[int, int] = {0: 0}
    for position, leaf in enumerate(leaves):
        tables[leaf] = var_table(position, num_vars)
    mask = full_mask(num_vars)

    def table_of(lit: int) -> int | None:
        var = lit_var(lit)
        table = tables.get(var)
        if table is None:
            return None
        return table ^ mask if lit_compl(lit) else table

    root_var = lit_var(root_lit)
    if root_var not in tables:
        stack = [root_var]
        while stack:
            var = stack[-1]
            if var in tables:
                stack.pop()
                continue
            if not view.is_and(var):
                raise ValueError(
                    f"cone of {root_var} reaches var {var} outside the cut"
                )
            f0, f1 = view.fanins(var)
            t0 = table_of(f0)
            t1 = table_of(f1)
            if t0 is None or t1 is None:
                if t0 is None:
                    stack.append(lit_var(f0))
                if t1 is None:
                    stack.append(lit_var(f1))
                continue
            stack.pop()
            tables[var] = t0 & t1
    result = tables[root_var]
    return result ^ mask if lit_compl(root_lit) else result


def _check_vars(num_vars: int) -> None:
    if not 0 <= num_vars <= MAX_TT_VARS:
        raise ValueError(
            f"truth tables support 0..{MAX_TT_VARS} variables, got {num_vars}"
        )

"""Algebraic factoring of SOP covers (MIS-style "quick factor").

Factoring turns a two-level cover into a multi-level factored form —
the "standard factoring [12] procedure" refactoring resynthesizes cones
with.  The implementation follows the classic GFACTOR scheme from MIS:

* divisor selection: a one-level-0 kernel (QUICK_FACTOR flavour);
* weak algebraic division;
* literal factoring fallback when the quotient is a single cube.

GFACTOR runs on mask cubes (:mod:`repro.logic.sop`): each cover's
literal counts are bit-sliced count planes, the most frequent literal
is found by narrowing a literal pool from the top plane down (its
lowest set bit breaks count ties toward the smallest literal), and
division is ``c & d == d`` / ``c & ~d``.  :func:`factor_masks` is the
one entry point; the frozenset GFACTOR it replaced is the test oracle
``tests/factor_reference.py``.

The result is a :class:`FactorNode` expression tree over the cover's
variables; :func:`factored_to_aig` lowers the tree to AND-inverter
logic (balanced n-ary decomposition) through any node-creation
callback, and :func:`count_factored_ands` predicts that node count.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.logic.sop import (
    common_mask,
    count_planes,
    cube_free_masks,
    divide_by_mask,
    divide_masks,
    mask_literals,
    most_frequent,
)


class FactorNode:
    """A node of a factored-form expression tree.

    ``kind`` is one of:

    * ``"lit"`` — an SOP literal (``payload`` holds it);
    * ``"and"`` / ``"or"`` — n-ary operation (``children``);
    * ``"const0"`` / ``"const1"`` — constants.
    """

    __slots__ = ("kind", "payload", "children")

    def __init__(
        self,
        kind: str,
        payload: int | None = None,
        children: list["FactorNode"] | None = None,
    ) -> None:
        self.kind = kind
        self.payload = payload
        self.children = children or []

    @staticmethod
    def lit(sop_literal: int) -> "FactorNode":
        """Leaf node for one SOP literal."""
        return FactorNode("lit", payload=sop_literal)

    @staticmethod
    def and_(children: list["FactorNode"]) -> "FactorNode":
        """n-ary AND with flattening and identity/absorber folding."""
        flat = _flatten(children, "and")
        if not flat:
            return FactorNode("const1")
        if len(flat) == 1:
            return flat[0]
        return FactorNode("and", children=flat)

    @staticmethod
    def or_(children: list["FactorNode"]) -> "FactorNode":
        """n-ary OR with flattening and identity/absorber folding."""
        flat = _flatten(children, "or")
        if not flat:
            return FactorNode("const0")
        if len(flat) == 1:
            return flat[0]
        return FactorNode("or", children=flat)

    def __repr__(self) -> str:
        return f"FactorNode({self.to_string()})"

    def to_string(self) -> str:
        """Factored form as text, e.g. ``a(b + c')``."""
        if self.kind == "const0":
            return "0"
        if self.kind == "const1":
            return "1"
        if self.kind == "lit":
            name = chr(ord("a") + (self.payload >> 1))
            return name + ("'" if self.payload & 1 else "")
        sep = "*" if self.kind == "and" else " + "
        parts = []
        for child in self.children:
            text = child.to_string()
            if self.kind == "and" and child.kind == "or":
                text = f"({text})"
            parts.append(text)
        return sep.join(parts)


def _flatten(children: list[FactorNode], kind: str) -> list[FactorNode]:
    """Merge nested same-kind nodes and drop operation identities."""
    identity = "const1" if kind == "and" else "const0"
    absorber = "const0" if kind == "and" else "const1"
    flat: list[FactorNode] = []
    for child in children:
        if child.kind == kind:
            flat.extend(child.children)
        elif child.kind == identity:
            continue
        elif child.kind == absorber:
            return [child]
        else:
            flat.append(child)
    return flat


def factor_masks(cover: list[int]) -> FactorNode:
    """Factor a mask cover (see :mod:`repro.logic.sop`) into a
    multi-level expression tree."""
    if not cover:
        return FactorNode("const0")
    if not all(cover):
        return FactorNode("const1")
    return _gfactor(cover)


def _cube_node(cube: int) -> FactorNode:
    return FactorNode.and_(
        [FactorNode.lit(literal) for literal in mask_literals(cube)]
    )


def _sop_node(cover: list[int]) -> FactorNode:
    return FactorNode.or_([_cube_node(cube) for cube in cover])


def _gfactor(cover: list[int]) -> FactorNode:
    if len(cover) == 1:
        return _cube_node(cover[0])
    planes = count_planes(cover)
    divisor = _quick_divisor(cover, planes)
    if divisor is None:
        return _sop_node(cover)
    quotient, _ = divide_masks(cover, divisor)
    if len(quotient) == 1:
        return _literal_factor(cover, planes, quotient[0] | divisor[0])
    quotient = cube_free_masks(quotient)
    # Never empty: with ``c`` the cube divided out of the quotient and
    # ``d`` any kernel cube, ``q * c * d`` is in the cover for every
    # quotient cube ``q``, so ``c * d`` is in every partial quotient.
    divisor_new, remainder = divide_masks(cover, quotient)
    common = common_mask(divisor_new)
    if not common:
        quotient_tree = _gfactor(quotient)
        divisor_tree = _gfactor(divisor_new)
        product = FactorNode.and_([divisor_tree, quotient_tree])
        if not remainder:
            return product
        return FactorNode.or_([product, _gfactor(remainder)])
    return _literal_factor(cover, planes, common)


def _literal_factor(
    cover: list[int], planes: list[int], candidates: int
) -> FactorNode:
    """Factor out the most frequent repeated literal among ``candidates``
    (any repeated literal when none of them repeats).

    ``planes`` are the cover's :func:`~repro.logic.sop.count_planes`;
    the cover has a repeated literal, or it would have no divisor.
    """
    repeated = _repeated(planes)
    literal = most_frequent(candidates & repeated or repeated, planes)
    quotient, remainder = divide_by_mask(cover, literal)
    product = FactorNode.and_(
        [FactorNode.lit(literal.bit_length() - 1), _gfactor(quotient)]
    )
    if not remainder:
        return product
    return FactorNode.or_([product, _gfactor(remainder)])


def _quick_divisor(cover: list[int], planes: list[int]) -> list[int] | None:
    """A one-level-0 kernel of the cover, or None when none exists."""
    repeated = _repeated(planes)
    if not repeated:
        return None
    kernel = cover
    while repeated:
        kernel, _ = divide_by_mask(kernel, most_frequent(repeated, planes))
        kernel = cube_free_masks(kernel)
        if len(kernel) <= 1:
            return None
        planes = count_planes(kernel)
        repeated = _repeated(planes)
    return kernel


def _repeated(planes: list[int]) -> int:
    """Literals in two or more cubes."""
    repeated = 0
    for plane in planes[1:]:
        repeated |= plane
    return repeated


# ----------------------------------------------------------------------
# Lowering factored forms to AND-inverter logic
# ----------------------------------------------------------------------

AndBuilder = Callable[[int, int], int]


def factored_to_aig(
    tree: FactorNode,
    leaf_lits: list[int],
    add_and: AndBuilder,
) -> int:
    """Build AND-inverter logic for a factored form; returns the root literal.

    ``leaf_lits[v]`` is the AIG literal standing for cover variable
    ``v``; ``add_and`` creates (or reuses) a two-input AND and returns
    its literal.  ORs are built as complemented ANDs (De Morgan), and
    every n-ary operation is decomposed as a balanced binary tree to
    keep the pre-balancing delay low.
    """
    if tree.kind == "const0":
        return 0
    if tree.kind == "const1":
        return 1
    if tree.kind == "lit":
        literal = leaf_lits[tree.payload >> 1]
        return literal ^ 1 if tree.payload & 1 else literal
    operands = [
        factored_to_aig(child, leaf_lits, add_and) for child in tree.children
    ]
    if tree.kind == "and":
        return _balanced_reduce(operands, add_and)
    # OR via De Morgan: a + b = !(!a & !b)
    inverted = [lit ^ 1 for lit in operands]
    return _balanced_reduce(inverted, add_and) ^ 1


def _balanced_reduce(operands: list[int], add_and: AndBuilder) -> int:
    """AND-reduce literals as a balanced binary tree."""
    layer = list(operands)
    while len(layer) > 1:
        next_layer = []
        for index in range(0, len(layer) - 1, 2):
            next_layer.append(add_and(layer[index], layer[index + 1]))
        if len(layer) % 2:
            next_layer.append(layer[-1])
        layer = next_layer
    return layer[0]


def count_factored_ands(tree: FactorNode) -> int:
    """Number of 2-input ANDs :func:`factored_to_aig` will create.

    An upper bound: structural hashing during the actual build may reuse
    existing nodes.  This is the new-cone size used by the parallel
    gain's lower-bound filter.
    """
    if tree.kind in ("const0", "const1", "lit"):
        return 0
    count = len(tree.children) - 1
    for child in tree.children:
        count += count_factored_ands(child)
    return count

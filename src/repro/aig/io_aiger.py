"""Reading and writing AIGER files.

Supports the combinational subset of the AIGER 1.9 format in both the
ASCII (``.aag``) and binary (``.aig``) encodings, including the symbol
table and comment section.  Latches are rejected: the paper (and this
library) operates on combinational AIGs only.
"""

from __future__ import annotations

import os
from typing import BinaryIO

from repro.aig.aig import Aig
from repro.aig.literals import lit_compl, lit_not_cond, lit_var, make_lit


class AigerError(ValueError):
    """Raised on malformed AIGER input."""


# ----------------------------------------------------------------------
# ASCII format
# ----------------------------------------------------------------------


def write_aag(aig: Aig, path: str | os.PathLike[str]) -> None:
    """Write ``aig`` as an ASCII AIGER (.aag) file."""
    lines = dump_aag(aig)
    with open(path, "w", encoding="ascii") as handle:
        handle.write(lines)


def dump_aag(aig: Aig) -> str:
    """Serialize ``aig`` to an ASCII AIGER string."""
    compacted, _ = aig.compact()
    # After compaction, ids are dense: const 0, then PIs, then ANDs.
    num_ands = compacted.num_ands
    max_var = compacted.num_pis + num_ands
    lines = [
        f"aag {max_var} {compacted.num_pis} 0 {compacted.num_pos} {num_ands}"
    ]
    for var in compacted.pis:
        lines.append(str(make_lit(var)))
    for lit in compacted.pos:
        lines.append(str(lit))
    for var in compacted.and_vars():
        f0, f1 = compacted.fanins(var)
        # AIGER stores the larger fanin first.
        lines.append(f"{make_lit(var)} {max(f0, f1)} {min(f0, f1)}")
    for index in range(compacted.num_pis):
        name = compacted.pi_name(index)
        if name:
            lines.append(f"i{index} {name}")
    for index in range(compacted.num_pos):
        name = compacted.po_name(index)
        if name:
            lines.append(f"o{index} {name}")
    lines.append("c")
    lines.append(f"generated by repro ({compacted.name})")
    return "\n".join(lines) + "\n"


def read_aag(path: str | os.PathLike[str]) -> Aig:
    """Read an ASCII AIGER (.aag) file."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as error:
        line = data.count(b"\n", 0, error.start) + 1
        raise AigerError(
            f"non-ASCII byte 0x{data[error.start]:02x} in ASCII AIGER "
            f"(line {line})"
        ) from None
    return parse_aag(text)


def parse_aag(text: str) -> Aig:
    """Parse an ASCII AIGER string into an :class:`Aig`."""
    lines = text.splitlines()
    if not lines:
        raise AigerError("empty AIGER input")
    header = lines[0].split()
    if len(header) != 6 or header[0] != "aag":
        raise AigerError(f"bad AIGER header: {lines[0]!r}")
    try:
        counts = [int(token) for token in header[1:]]
    except ValueError:
        raise AigerError(f"bad AIGER header: {lines[0]!r}") from None
    if min(counts) < 0:
        raise AigerError(
            f"negative count in AIGER header (line 1): {lines[0]!r}"
        )
    max_var, num_pis, num_latches, num_pos, num_ands = counts
    if num_latches:
        raise AigerError("sequential AIGER (latches) is not supported")
    expected = num_pis + num_pos + num_ands
    if len(lines) - 1 < expected:
        raise AigerError("truncated AIGER body")

    aig = Aig()
    # The graph gets one variable per PI and AND row, however large the
    # declared maximum: size from the rows the body really holds.
    aig.reserve(min(max_var, num_pis + num_ands) + 1, num_ands)
    cursor = 1
    # Variables defined so far (the constant, PIs, AND outputs): a row
    # redefining one would silently build a different graph.
    defined = {0}
    pi_lits: list[int] = []
    for _ in range(num_pis):
        (lit,) = _row_ints(lines, cursor, "PI row", 1)
        if lit & 1 or lit == 0:
            raise AigerError(f"invalid PI literal {lit}")
        if lit_var(lit) in defined:
            raise AigerError(
                f"PI row (line {cursor + 1}: {lines[cursor]!r}) "
                f"redefines variable {lit_var(lit)}"
            )
        defined.add(lit_var(lit))
        pi_lits.append(lit)
        cursor += 1
    po_lits = []
    for _ in range(num_pos):
        po_lits.extend(_row_ints(lines, cursor, "PO row", 1))
        cursor += 1
    and_rows: list[tuple[int, int, int]] = []
    for _ in range(num_ands):
        out, in0, in1 = _row_ints(lines, cursor, "AND row", 3, exact=True)
        if lit_var(out) in defined:
            what = "the constant" if out < 2 else f"variable {lit_var(out)}"
            raise AigerError(
                f"AND row (line {cursor + 1}: {lines[cursor]!r}) "
                f"redefines {what}"
            )
        defined.add(lit_var(out))
        and_rows.append((out, in0, in1))
        cursor += 1

    lit_map = _build_nodes(aig, max_var, pi_lits, and_rows)
    for lit in po_lits:
        aig.add_po(_translate(lit_map, lit))
    _read_symbols(aig, lines[cursor:])
    return aig


def _row_ints(
    lines: list[str], index: int, what: str, count: int, exact: bool = False
) -> list[int]:
    """The first ``count`` integers of ``lines[index]`` (all when ``exact``).

    Raises :class:`AigerError` naming the row when it is short, has
    extra tokens under ``exact``, or holds a non-integer or negative
    token.
    """
    line = lines[index]
    tokens = line.split()
    if len(tokens) < count or (exact and len(tokens) != count):
        raise AigerError(f"bad {what} (line {index + 1}): {line!r}")
    try:
        values = [int(token) for token in tokens[:count]]
    except ValueError:
        raise AigerError(
            f"non-integer token in {what} (line {index + 1}): {line!r}"
        ) from None
    if min(values) < 0:
        raise AigerError(
            f"negative literal in {what} (line {index + 1}): {line!r}"
        )
    return values


def _build_nodes(
    aig: Aig,
    max_var: int,
    pi_lits: list[int],
    and_rows: list[tuple[int, int, int]],
) -> dict[int, int]:
    """Create PI and AND nodes; returns file-var -> library-literal map."""
    lit_map: dict[int, int] = {0: 0}
    for lit in pi_lits:
        lit_map[lit_var(lit)] = aig.add_pi()
    # AIGER requires each AND's fanins to be previously defined, but the
    # rows themselves may come in any topological-respecting order.
    pending = list(and_rows)
    while pending:
        progressed = False
        deferred: list[tuple[int, int, int]] = []
        for row in pending:
            out, in0, in1 = row
            if out & 1:
                raise AigerError(f"complemented AND output literal {out}")
            v0, v1 = lit_var(in0), lit_var(in1)
            if v0 in lit_map and v1 in lit_map:
                node = aig.add_and(
                    _translate(lit_map, in0), _translate(lit_map, in1)
                )
                lit_map[lit_var(out)] = node
                progressed = True
            else:
                deferred.append(row)
        if not progressed:
            raise AigerError("AND rows contain undefined or cyclic fanins")
        pending = deferred
    for var in lit_map:
        if var > max_var:
            raise AigerError(f"variable {var} exceeds declared maximum")
    return lit_map


def _translate(lit_map: dict[int, int], file_lit: int) -> int:
    var = lit_var(file_lit)
    if var not in lit_map:
        raise AigerError(f"literal {file_lit} references undefined variable")
    return lit_not_cond(lit_map[var], lit_compl(file_lit))


def _read_symbols(aig: Aig, lines: list[str]) -> None:
    for line in lines:
        if line == "c":
            break
        if not line or line[0] not in "io":
            continue
        try:
            tag, name = line.split(" ", 1)
            index = int(tag[1:])
        except ValueError:
            continue
        if tag[0] == "i" and 0 <= index < aig.num_pis:
            aig._pi_names[index] = name
        elif tag[0] == "o" and 0 <= index < aig.num_pos:
            aig._po_names[index] = name


# ----------------------------------------------------------------------
# Binary format
# ----------------------------------------------------------------------


def write_aig_binary(aig: Aig, path: str | os.PathLike[str]) -> None:
    """Write ``aig`` as a binary AIGER (.aig) file."""
    compacted, _ = aig.compact()
    num_ands = compacted.num_ands
    max_var = compacted.num_pis + num_ands
    with open(path, "wb") as handle:
        header = (
            f"aig {max_var} {compacted.num_pis} 0 "
            f"{compacted.num_pos} {num_ands}\n"
        )
        handle.write(header.encode("ascii"))
        for lit in compacted.pos:
            handle.write(f"{lit}\n".encode("ascii"))
        for var in compacted.and_vars():
            f0, f1 = compacted.fanins(var)
            out = make_lit(var)
            hi, lo = max(f0, f1), min(f0, f1)
            _write_delta(handle, out - hi)
            _write_delta(handle, hi - lo)


def read_aig_binary(path: str | os.PathLike[str]) -> Aig:
    """Read a binary AIGER (.aig) file.

    The header is validated before anything is sized from it: integer
    non-negative counts, ``M == I + A``, and PO and AND counts the rest
    of the file can hold (each PO row takes at least two bytes, each
    AND at least two delta bytes).
    """
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        line = _read_line(handle)
        header = line.split()
        if len(header) != 6 or header[0] != b"aig":
            raise AigerError(f"bad binary AIGER header (line 1): {line!r}")
        try:
            counts = [int(token) for token in header[1:]]
        except ValueError:
            raise AigerError(
                f"non-integer token in binary AIGER header (line 1): "
                f"{line!r}"
            ) from None
        if min(counts) < 0:
            raise AigerError(
                f"negative count in binary AIGER header (line 1): {line!r}"
            )
        max_var, num_pis, num_latches, num_pos, num_ands = counts
        if num_latches:
            raise AigerError("sequential AIGER (latches) is not supported")
        if num_pis + num_ands != max_var:
            raise AigerError("binary AIGER header is inconsistent")
        remaining = size - handle.tell()
        if 2 * (num_pos + num_ands) > remaining:
            raise AigerError(
                f"binary AIGER header (line 1) declares {num_pos} POs and "
                f"{num_ands} ANDs, more than the remaining {remaining} "
                "bytes can hold"
            )
        po_lits = []
        for index in range(num_pos):
            row = _read_line(handle)
            try:
                po_lits.append(int(row))
            except ValueError:
                raise AigerError(
                    f"non-integer PO row (line {index + 2}): {row!r}"
                ) from None
        aig = Aig()
        aig.reserve(max_var + 1, num_ands)
        lit_map: dict[int, int] = {0: 0}
        for index in range(num_pis):
            lit_map[index + 1] = aig.add_pi()
        for index in range(num_ands):
            out = 2 * (num_pis + 1 + index)
            delta0 = _read_delta(handle)
            delta1 = _read_delta(handle)
            in0 = out - delta0
            in1 = in0 - delta1
            node = aig.add_and(
                _translate(lit_map, in0), _translate(lit_map, in1)
            )
            lit_map[lit_var(out)] = node
        for lit in po_lits:
            aig.add_po(_translate(lit_map, lit))
        return aig


def _write_delta(handle: BinaryIO, delta: int) -> None:
    if delta < 0:
        raise AigerError("binary AIGER requires topologically sorted nodes")
    while delta >= 0x80:
        handle.write(bytes([(delta & 0x7F) | 0x80]))
        delta >>= 7
    handle.write(bytes([delta]))


def _read_delta(handle: BinaryIO) -> int:
    value = 0
    shift = 0
    while True:
        byte = handle.read(1)
        if not byte:
            raise AigerError("unexpected end of binary AIGER data")
        value |= (byte[0] & 0x7F) << shift
        if not byte[0] & 0x80:
            return value
        shift += 7


def _read_line(handle: BinaryIO) -> bytes:
    chars = bytearray()
    while True:
        byte = handle.read(1)
        if not byte:
            raise AigerError("unexpected end of file in header")
        if byte == b"\n":
            return bytes(chars)
        chars.extend(byte)


def read_aiger(path: str | os.PathLike[str]) -> Aig:
    """Read an AIGER file, auto-detecting ASCII vs binary encoding."""
    with open(path, "rb") as handle:
        magic = handle.read(3)
    if magic == b"aag":
        return read_aag(path)
    if magic == b"aig":
        return read_aig_binary(path)
    raise AigerError(f"{path}: not an AIGER file")

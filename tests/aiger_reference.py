"""Reference binary AIGER reader: one byte and one ``add_and`` at a time.

The byte-wise reader that ``repro.aig.io_aiger.read_aig_binary``
replaced with one NumPy varint decode and a bulk build.  It is kept
verbatim as the oracle of ``tests/test_io_aiger.py``'s differential:
for every input, both readers must build the same graph (dump,
columns, version counters, names) or raise the same ``AigerError``
message.
"""

from __future__ import annotations

import os
from typing import BinaryIO

from repro.aig.aig import Aig
from repro.aig.io_aiger import AigerError, _translate
from repro.aig.literals import lit_var


def reference_read_aig_binary(path: str | os.PathLike[str]) -> Aig:
    """Read a binary AIGER (.aig) file byte by byte."""
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

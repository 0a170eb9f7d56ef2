"""Unit tests for AIGER reading and writing."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.aig.io_aiger import (
    AigerError,
    dump_aag,
    parse_aag,
    read_aag,
    read_aig_binary,
    read_aiger,
    write_aag,
    write_aig_binary,
)
from repro.verify.invariants import check_invariants
from tests.conftest import assert_equivalent, build_random_aig


def test_ascii_roundtrip(tmp_path, seeded_aig):
    path = tmp_path / "test.aag"
    write_aag(seeded_aig, path)
    loaded = read_aag(path)
    assert loaded.num_pis == seeded_aig.num_pis
    assert loaded.num_pos == seeded_aig.num_pos
    assert_equivalent(seeded_aig, loaded)


def test_binary_roundtrip(tmp_path, seeded_aig):
    path = tmp_path / "test.aig"
    write_aig_binary(seeded_aig, path)
    loaded = read_aig_binary(path)
    assert loaded.num_pis == seeded_aig.num_pis
    assert_equivalent(seeded_aig, loaded)


def test_auto_detect(tmp_path, rand_aig):
    ascii_path = tmp_path / "a.aag"
    binary_path = tmp_path / "b.aig"
    write_aag(rand_aig, ascii_path)
    write_aig_binary(rand_aig, binary_path)
    assert_equivalent(read_aiger(ascii_path), read_aiger(binary_path))


def test_auto_detect_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("hello world\n")
    with pytest.raises(AigerError):
        read_aiger(path)


def test_symbol_table_roundtrip(tmp_path):
    from repro.aig.aig import Aig

    aig = Aig("named")
    a = aig.add_pi("alpha")
    b = aig.add_pi("beta")
    aig.add_po(aig.add_and(a, b), "gamma")
    path = tmp_path / "named.aag"
    write_aag(aig, path)
    loaded = read_aag(path)
    assert loaded.pi_name(0) == "alpha"
    assert loaded.pi_name(1) == "beta"
    assert loaded.po_name(0) == "gamma"


def test_parse_known_aag():
    # AND of two inputs, from the AIGER specification.
    text = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"
    aig = parse_aag(text)
    assert aig.num_pis == 2
    assert aig.num_ands == 1
    from repro.cec.simulate import evaluate

    assert evaluate(aig, [True, True]) == [True]
    assert evaluate(aig, [True, False]) == [False]


def test_parse_complemented_output():
    text = "aag 1 1 0 1 0\n2\n3\n"
    aig = parse_aag(text)
    from repro.cec.simulate import evaluate

    assert evaluate(aig, [True]) == [False]


def test_parse_constant_output():
    text = "aag 0 0 0 1 0\n0\n"
    aig = parse_aag(text)
    from repro.cec.simulate import evaluate

    assert evaluate(aig, []) == [False]


def test_parse_rejects_latches():
    with pytest.raises(AigerError):
        parse_aag("aag 1 0 1 0 0\n2 3\n")


def test_parse_rejects_bad_header():
    with pytest.raises(AigerError):
        parse_aag("aig 1 1 0 0 0\n2\n")
    with pytest.raises(AigerError):
        parse_aag("")


def test_parse_rejects_truncated_body():
    with pytest.raises(AigerError):
        parse_aag("aag 3 2 0 1 1\n2\n4\n")


def test_parse_rejects_odd_pi_literal():
    with pytest.raises(AigerError):
        parse_aag("aag 1 1 0 0 0\n3\n")


def test_parse_rejects_undefined_fanin():
    with pytest.raises(AigerError):
        parse_aag("aag 3 1 0 1 1\n2\n6\n6 2 8\n")


def test_parse_rejects_and_row_defining_the_constant():
    """A variable defined twice fails loudly, naming the row.

    The ASCII parser used to keep one of the definitions and build a
    different graph: here the row would turn the declared constant-0
    PO into ``a & b``.  The binary reader is unaffected: its AND
    outputs are implicit (row ``i`` defines variable ``I + i + 1``), so
    no row can redefine a variable.
    """
    with pytest.raises(AigerError, match=r"line 5.*'0 2 4'.*constant"):
        parse_aag("aag 2 2 0 1 1\n2\n4\n0\n0 2 4\n")


def test_parse_rejects_duplicate_pi_literal():
    with pytest.raises(AigerError, match=r"PI row \(line 3: '2'\)"):
        parse_aag("aag 2 2 0 1 0\n2\n2\n2\n")


def test_parse_rejects_and_row_redefining_a_pi():
    with pytest.raises(AigerError, match=r"line 5.*'4 2 2'.*variable 2"):
        parse_aag("aag 3 2 0 1 1\n2\n4\n4\n4 2 2\n")


def test_parse_rejects_and_row_redefining_an_and():
    with pytest.raises(AigerError, match=r"line 6.*'6 3 4'.*variable 3"):
        parse_aag("aag 3 2 0 1 2\n2\n4\n6\n6 2 4\n6 3 4\n")


def test_parse_rejects_non_integer_token():
    with pytest.raises(AigerError, match=r"line 5.*'6 x 2'"):
        parse_aag("aag 3 2 0 1 1\n2\n4\n6\n6 x 2\n")
    with pytest.raises(AigerError, match=r"header"):
        parse_aag("aag 3 2 0 1 one\n2\n4\n6\n6 2 4\n")


@pytest.mark.parametrize(
    "text,match",
    [
        # Each used to parse: a 1-PI graph on variable -1, a PO and an
        # AND row defining variable -2, and a misleading "variable 0
        # exceeds declared maximum".
        ("aag 1 1 0 1 0\n-2\n-2\n", r"negative literal in PI row \(line 2"),
        ("aag 2 1 0 1 1\n2\n-4\n-4 2 2\n", r"negative .*PO row \(line 3"),
        ("aag -5 0 0 0 0\n", r"negative count in AIGER header \(line 1"),
    ],
    ids=["pi-row", "po-and-rows", "header"],
)
def test_parse_rejects_negative_values(text, match):
    with pytest.raises(AigerError, match=match):
        parse_aag(text)


def test_parse_rejects_negative_and_row_token():
    with pytest.raises(AigerError, match=r"AND row \(line 4\): '6 -2 4'"):
        parse_aag("aag 3 2 0 0 1\n2\n4\n6 -2 4\n")


def test_read_aag_reports_non_ascii_bytes(tmp_path):
    path = tmp_path / "high.aag"
    path.write_bytes(b"aag 1 1 0 1 0\n2\n\xff2\n")
    with pytest.raises(AigerError, match=r"non-ASCII byte 0xff .*line 3"):
        read_aag(path)


def test_binary_rejects_self_referencing_and(tmp_path):
    # A zero delta makes an AND read its own output: a one-node cycle.
    path = tmp_path / "cycle.aig"
    path.write_bytes(b"aig 2 1 0 1 1\n4\n\x00\x02")
    with pytest.raises(AigerError, match=r"literal 4 references undefined"):
        read_aig_binary(path)


def test_parse_sizes_storage_from_the_rows():
    # The declared maximum may be sparse; storage follows the rows.
    aig = parse_aag("aag 100000 1 0 1 0\n2\n2\n")
    assert aig.num_pis == 1
    assert len(aig._f0c.data) < 1000


def _fuzz_variants(data: bytes, rng: random.Random, flips: int):
    """Every proper prefix of ``data``, then ``flips`` single-byte flips."""
    for cut in range(len(data)):
        yield data[:cut]
    for _ in range(flips):
        position = rng.randrange(len(data))
        flipped = bytearray(data)
        flipped[position] ^= rng.randrange(1, 256)
        yield bytes(flipped)


def test_reader_fuzz_rejects_or_builds_valid_graphs(tmp_path):
    """Truncated and byte-flipped files fail with ``AigerError`` or
    read as a structurally valid graph — no other outcome."""
    source = build_random_aig(3, num_pis=5, num_ands=24, locality=8)
    ascii_path = tmp_path / "source.aag"
    binary_path = tmp_path / "source.aig"
    write_aag(source, ascii_path)
    write_aig_binary(source, binary_path)
    rng = random.Random(2026)
    outcomes = {"rejected": 0, "read": 0}
    for reader, source_path in (
        (read_aag, ascii_path),
        (read_aig_binary, binary_path),
    ):
        path = tmp_path / f"variant{source_path.suffix}"
        variants = _fuzz_variants(source_path.read_bytes(), rng, 300)
        for variant in variants:
            path.write_bytes(variant)
            try:
                aig = reader(path)
            except AigerError:
                outcomes["rejected"] += 1
                continue
            check_invariants(aig)
            outcomes["read"] += 1
    assert outcomes["rejected"] > 0 and outcomes["read"] > 0


def test_dump_is_reparseable(rand_aig):
    text = dump_aag(rand_aig)
    again = parse_aag(text)
    assert_equivalent(rand_aig, again)


def test_dump_has_sorted_and_fanins(rand_aig):
    text = dump_aag(rand_aig)
    body = text.splitlines()
    header = body[0].split()
    num_pis, num_pos, num_ands = int(header[2]), int(header[4]), int(header[5])
    start = 1 + num_pis + num_pos
    for line in body[start : start + num_ands]:
        out, hi, lo = map(int, line.split())
        assert out > hi >= lo


def test_zero_po_roundtrip(tmp_path):
    from repro.aig.aig import Aig

    aig = Aig("nopo")
    a = aig.add_pi()
    b = aig.add_pi()
    aig.add_and(a, b)  # dangling: unreachable without a PO
    ascii_path = tmp_path / "nopo.aag"
    binary_path = tmp_path / "nopo.aig"
    write_aag(aig, ascii_path)
    write_aig_binary(aig, binary_path)
    for loaded in (read_aag(ascii_path), read_aig_binary(binary_path)):
        assert loaded.num_pis == 2
        assert loaded.num_pos == 0
        # Only PO-reachable logic is emitted, so the dangling AND
        # disappears in the round trip.
        assert loaded.num_ands == 0


def test_constant_po_roundtrip(tmp_path):
    from repro.aig.aig import Aig
    from repro.cec.simulate import evaluate

    aig = Aig("consts")
    aig.add_pi("x")
    aig.add_po(0, "lo")
    aig.add_po(1, "hi")
    text = dump_aag(aig)
    again = parse_aag(text)
    assert again.pos == [0, 1]
    assert evaluate(again, [True]) == [False, True]
    binary_path = tmp_path / "consts.aig"
    write_aig_binary(aig, binary_path)
    loaded = read_aig_binary(binary_path)
    assert evaluate(loaded, [False]) == [False, True]


def test_duplicate_po_roundtrip(tmp_path):
    from repro.aig.aig import Aig
    from repro.cec.simulate import evaluate

    aig = Aig("dup")
    x = aig.add_pi()
    y = aig.add_pi()
    g = aig.add_and(x, y)
    aig.add_po(g)
    aig.add_po(g)        # same literal twice
    aig.add_po(g ^ 1)    # and once complemented
    for loaded in (
        parse_aag(dump_aag(aig)),
        _binary_roundtrip(tmp_path, aig),
    ):
        assert loaded.num_pos == 3
        assert evaluate(loaded, [True, True]) == [True, True, False]
        assert_equivalent(aig, loaded)


def _binary_roundtrip(tmp_path, aig):
    path = tmp_path / f"{aig.name}.aig"
    write_aig_binary(aig, path)
    return read_aig_binary(path)


def test_parse_accepts_sparse_maxvar():
    # The AIGER header's M may exceed the largest used variable.
    aig = parse_aag("aag 9 2 0 1 1\n2\n4\n6\n6 2 4\n")
    assert aig.num_pis == 2
    assert aig.num_ands == 1
    assert aig.pos == [6]


def test_large_literal_ids_roundtrip(tmp_path):
    # Hundreds of nodes push binary delta codes past one byte and
    # ASCII literals past the small-int fast paths.
    from tests.conftest import build_random_aig

    aig = build_random_aig(13, num_pis=12, num_ands=700, locality=200)
    assert aig.num_vars > 256
    loaded = _binary_roundtrip(tmp_path, aig)
    assert loaded.num_ands == aig.num_ands
    assert_equivalent(aig, loaded)
    again = parse_aag(dump_aag(aig))
    assert_equivalent(aig, again)


def test_binary_rejects_truncation(tmp_path, rand_aig):
    path = tmp_path / "t.aig"
    write_aig_binary(rand_aig, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 3])
    with pytest.raises(AigerError):
        read_aig_binary(path)


@pytest.mark.parametrize(
    "data,match",
    [
        (b"aig 2 1 0 1 x\n2\n", r"non-integer token .*line 1"),
        (b"aig 1 1 0 1 0\n2z\n", r"non-integer PO row \(line 2\)"),
        (b"aig 1 1 0 2 0\n2\n!\n", r"non-integer PO row \(line 3\)"),
        (b"aig -1 -1 0 0 0\n", r"negative count .*line 1"),
        (b"aig 5 1 0 0 1\n\x02\x02", r"inconsistent"),
        (b"aig 1 0 0 1 1\n2\n", r"declares 1 POs and 1 ANDs"),
    ],
)
def test_binary_header_errors_are_positioned(tmp_path, data, match):
    path = tmp_path / "bad.aig"
    path.write_bytes(data)
    with pytest.raises(AigerError, match=match):
        read_aig_binary(path)


#: Reads a file expected to be rejected and prints the peak-RSS growth
#: (KiB) the attempt cost; run in a fresh interpreter so the peak
#: belongs to this read alone.
_RSS_PROBE = """
import resource, sys
from repro.aig.io_aiger import AigerError, read_aig_binary
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    read_aig_binary(sys.argv[1])
except AigerError:
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_binary_header_claims_are_checked_before_allocation(tmp_path):
    """A 27-byte file claiming 3M ANDs is rejected without sizing the
    graph for them (reserving would cost hundreds of MiB)."""
    path = tmp_path / "claims.aig"
    path.write_bytes(b"aig 3000000 0 0 0 3000000\n\x02")
    assert path.stat().st_size == 27
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, str(path)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert int(out.stdout) < 16 * 1024
